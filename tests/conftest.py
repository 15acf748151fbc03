import numpy as np
import pytest

from binalloc import Graph, Instance, Thermo
from binalloc.graphs import named_topology


@pytest.fixture
def two_agent():
    """2-D instance with incremental costs (2,1), outputs (3,1), target 2.8."""
    return Instance(
        quad=[-10.0, -10.0],
        center=[0.7, 0.6],
        passive=[0.0, 0.0],
        output=[3.0, 1.0],
        penalty=4.0,
        target=2.8,
    )


@pytest.fixture
def pair_graph():
    return Graph(2, [(0, 1)])


@pytest.fixture
def bench_small():
    """Factory for small instances drawn from the benchmark distribution."""

    def make(n=10, seed=0):
        from binalloc import random_instance

        return random_instance(n, seed, p_ref=30.0 * n, gamma=1.0)

    return make


@pytest.fixture
def symmetric_instance():
    """All agents identical, target half the total output: near-saddle start."""

    def make(n=10, incr=0.5):
        from binalloc import fit_coefficients
        from binalloc.instances import default_quad

        p = np.ones(n)
        a = default_quad(p, 1.0)
        a, b, d = fit_coefficients(np.full(n, incr), a, np.zeros(n))
        return Instance(
            quad=a, center=b, passive=d, output=p, penalty=1.0, target=n / 2
        )

    return make


@pytest.fixture
def saddle():
    """Factory for an exact saddle of every flow's energy at the cube centre, and its ring.

    n=10, quad = -4T/tau - mu at the default knobs, centre 1/2, p = 1, penalty 1,
    target 5. At x = 1/2 the barrier's curvature 4T/tau cancels all of quad but -mu,
    so the centralized Hessian has eigenvalues -mu (n - 1 times) and n - mu, while
    binnn-d's x-block alone, -mu + 1, is positive for mu < 1.
    """

    def make(mu):
        n, knobs = 10, Thermo()
        inst = Instance(quad=np.full(n, -4.0 * knobs.temp / knobs.time_const - mu),
                        center=np.full(n, 0.5), passive=np.zeros(n), output=np.ones(n),
                        penalty=1.0, target=n / 2)
        return inst, named_topology("ring", n)

    return make


@pytest.fixture
def rate_calls(monkeypatch):
    """Counts every evaluation of a flow's rates that goes through dynamics."""
    from binalloc import dynamics

    calls = [0]
    build = dynamics.flow_rates

    def counted(*args, **kwargs):
        rates = build(*args, **kwargs)

        def wrapped(x, y):
            calls[0] += 1
            return rates(x, y)

        return wrapped

    monkeypatch.setattr(dynamics, "flow_rates", counted)
    return calls
