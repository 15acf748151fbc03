from fractions import Fraction

import numpy as np
import pytest

from binalloc import AnnealSchedule, SolverConfig, Thermo, anneal, run
from binalloc import energy as en
from binalloc.dynamics import flow_rates
from binalloc.energy import (
    _secular_roots,
    barrier_integral,
    centralized_ctx,
    distributed_ctx,
    energy,
    energy_tilde,
    grad,
    grad_y_tilde,
    hessian,
    min_eig_rank_one,
    pt_inverse,
    pt_inverse_rank_one,
    pt_inverse_scalar,
)
from binalloc.errors import DomainError, ShapeError
from binalloc.graphs import random_connected_graph
from binalloc.instances import Instance, random_instance
from oracles import median_step_time


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fun(up) - fun(dn)) / (2 * h)
    return g


def test_barrier_examples():
    assert barrier_integral(0.5, 1.0) == pytest.approx(np.log(0.5), rel=1e-12)
    assert barrier_integral(0.0, 2.0) == 0.0
    assert barrier_integral(1.0, 0.3) == 0.0
    z = np.linspace(0.05, 0.95, 7)
    assert np.allclose(barrier_integral(z, 2.0), 2.0 * barrier_integral(z, 1.0),
                       rtol=1e-12)


def test_barrier_domain():
    with pytest.raises(DomainError):
        barrier_integral(1.5, 1.0)


@pytest.mark.parametrize("z", [np.nan, [0.3, np.nan]], ids=["scalar", "array"])
def test_barrier_refuses_nan(z):
    # NaN fails every comparison, so the domain test asks that all entries pass
    with pytest.raises(DomainError):
        barrier_integral(z, 1.0)


@pytest.mark.parametrize("x", [[np.nan], [0.5, np.nan, 0.5]], ids=["one-agent", "three-agent"])
@pytest.mark.parametrize("derivative", [grad, hessian])
def test_derivatives_refuse_nan(derivative, x):
    inst = random_instance(len(x), 0)
    with pytest.raises(DomainError):
        derivative(inst, Thermo(), np.array(x))


def test_barrier_matches_quadrature():
    # numerical integral of the inverse activation over [0.1, z], away from
    # the endpoint singularities where trapezoid rule converges poorly
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for z in (0.2, 0.5, 0.83):
        s = np.linspace(0.1, z, 200001)
        vals = -np.log(1 / s - 1)
        approx = trapezoid(vals, s)
        diff = barrier_integral(z, 1.0) - barrier_integral(0.1, 1.0)
        assert diff == pytest.approx(approx, abs=1e-7)


def test_grad_matches_fd(bench_small):
    inst = bench_small(n=10, seed=1)
    thermo = Thermo(1.0, 0.1, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(0.05, 0.95, 10)
        g = grad(inst, thermo, x)
        fd = _fd_grad(lambda z: energy(inst, thermo, z), x)
        assert np.max(np.abs(g - fd)) / (1 + np.max(np.abs(g))) <= 1e-5


def test_hessian_matches_fd_of_grad(bench_small):
    inst = bench_small(n=8, seed=4)
    thermo = Thermo(1.0, 0.1, 0.1)
    rng = np.random.default_rng(6)
    x = rng.uniform(0.1, 0.9, 8)
    hess = hessian(inst, thermo, x)
    for i in range(8):
        fd = _fd_grad(lambda z: grad(inst, thermo, z)[i], x, h=1e-5)
        assert np.max(np.abs(hess[i] - fd)) / (1 + np.max(np.abs(hess[i]))) <= 1e-4


def test_hessian_diag_at_half(bench_small):
    inst = bench_small(n=5, seed=9)
    thermo = Thermo(2.0, 0.5, 0.1)
    hess = hessian(inst, thermo, np.full(5, 0.5))
    expect = inst.quad + inst.penalty * inst.output**2 + 4.0 * thermo.temp / thermo.time_const
    assert np.allclose(np.diag(hess), expect, rtol=1e-12)


def test_neg_grad_monotone_in_bistable_case():
    # 1-D with a above the bistability threshold: -grad has a single crossing
    thermo = Thermo(1.0, 0.1, 0.1)
    inst = Instance(quad=[-10.0], center=[0.7], passive=[0.0], output=[1.0],
                    penalty=1.0, target=0.5)
    assert inst.quad[0] > -(inst.penalty * 1.0 + 4 * thermo.temp / thermo.time_const)
    xs = np.linspace(0.02, 0.98, 60)
    vals = [-grad(inst, thermo, np.array([x]))[0] for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_barrier_part_is_instance_independent(bench_small):
    a = bench_small(n=6, seed=3)
    b = bench_small(n=6, seed=12)
    thermo = Thermo(1.3, 0.2, 0.1)
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 0.9, 6)
    from binalloc.instances import eval_p1

    da = energy(a, thermo, x) - eval_p1(a, x)
    db = energy(b, thermo, x) - eval_p1(b, x)
    assert da == pytest.approx(db, rel=1e-12)


def test_tilde_grads_match_fd(bench_small):
    inst = bench_small(n=6, seed=5)
    graph = random_connected_graph(6, 0.3, seed=7)
    thermo = Thermo(1.0, 0.1, 0.1)
    rng = np.random.default_rng(10)
    for _ in range(6):
        x = rng.uniform(0.05, 0.95, 6)
        y = rng.normal(size=6)
        gx = flow_rates("binnn-d", inst, graph, thermo, 1.0)(x, y)[2]
        gy = grad_y_tilde(inst, graph, thermo, x, y)
        fdx = _fd_grad(lambda z: energy_tilde(inst, graph, thermo, z, y), x)
        fdy = _fd_grad(lambda z: energy_tilde(inst, graph, thermo, x, z), y)
        assert np.max(np.abs(gx - fdx)) / (1 + np.max(np.abs(gx))) <= 1e-5
        assert np.max(np.abs(gy - fdy)) / (1 + np.max(np.abs(gy))) <= 1e-5


def test_grad_y_vanishes_at_y_star(bench_small):
    from binalloc.graphs import y_star

    inst = bench_small(n=6, seed=5)
    graph = random_connected_graph(6, 0.3, seed=7)
    thermo = Thermo(1.0, 0.1, 0.1)
    x = np.random.default_rng(1).uniform(0.0, 1.0, 6)
    ys = y_star(graph, inst.output, x)
    gy = grad_y_tilde(inst, graph, thermo, x, ys)
    assert np.max(np.abs(gy)) <= 1e-9


def test_grad_y_sums_to_zero(bench_small):
    inst = bench_small(n=7, seed=2)
    graph = random_connected_graph(7, 0.4, seed=3)
    thermo = Thermo(1.0, 0.1, 0.1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        gy = grad_y_tilde(inst, graph, thermo, rng.uniform(0.1, 0.9, 7),
                          rng.normal(size=7))
        scale = 1 + np.max(np.abs(gy))
        assert abs(gy.sum()) <= 1e-12 * scale


def test_tilde_hessian_is_diag_and_diverges(bench_small):
    inst = bench_small(n=4, seed=6)
    thermo = Thermo(1.0, 0.1, 0.1)
    prev = None
    for k in range(2, 9):
        x = np.full(4, 10.0**-k)
        diag = distributed_ctx(inst).coupling_diag + thermo.temp / thermo.time_const / (x - x * x)
        assert diag.shape == (4,)
        if prev is not None:
            assert np.all(diag > prev)
        prev = diag


def test_pt_inverse_examples():
    out = pt_inverse(np.diag([2.0, -0.5, 0.001]), 0.1)
    assert np.allclose(out, np.diag([0.5, 2.0, 10.0]), atol=1e-12)
    assert np.allclose(pt_inverse(np.eye(3), 0.5), np.eye(3), atol=1e-12)
    out = pt_inverse(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
    assert np.allclose(out, np.eye(2), atol=1e-12)


def test_pt_inverse_spectral_contract():
    rng = np.random.default_rng(13)
    floor = 0.1
    for _ in range(30):
        raw = rng.normal(size=(8, 8))
        sym = 0.5 * (raw + raw.T)
        out = pt_inverse(sym, floor)
        assert np.max(np.abs(out - out.T)) <= 1e-12
        w = np.linalg.eigvalsh(out)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0 / floor + 1e-12)
        z = rng.normal(size=8)
        assert z @ out @ z > 0.0


def test_pt_inverse_diagonal_commutes_with_scalar():
    h = np.array([3.0, -0.02, 0.0, -7.5])
    out = pt_inverse(np.diag(h), 0.1)
    assert np.allclose(np.diag(out), pt_inverse_scalar(h, 0.1), atol=1e-12)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) <= 1e-12


def test_pt_inverse_rejects_bad_input():
    with pytest.raises(ShapeError):
        pt_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)
    with pytest.raises(ShapeError):
        pt_inverse(np.zeros((2, 3)), 0.1)
    with pytest.raises(ValueError):
        pt_inverse(np.eye(2), 0.0)


def test_kernels_refuse_a_wrong_size_and_a_floor_not_above_zero(two_agent, pair_graph):
    thermo = Thermo(1.0, 0.1, 0.1)
    with pytest.raises(ShapeError):
        grad(two_agent, thermo, [0.5, 0.5, 0.5])
    with pytest.raises(ShapeError):
        en.eval_p2(two_agent, random_connected_graph(3, seed=0), [0.5, 0.5], [0.0, 0.0])
    for floor in (0.0, -0.1):
        with pytest.raises(ValueError, match="floor"):
            pt_inverse_scalar(1.0, floor)


def test_eval_p2_refuses_a_missing_graph(two_agent):
    with pytest.raises(ValueError, match="requires a graph"):
        en.eval_p2(two_agent, None, [0.5, 0.5], [0.0, 0.0])


def test_pt_inverse_scalar_examples():
    assert pt_inverse_scalar(-4.0, 0.1) == pytest.approx(0.25)
    assert pt_inverse_scalar(0.01, 0.1) == pytest.approx(10.0)
    assert pt_inverse_scalar(0.0, 0.1) == pytest.approx(10.0)


# The secular PT-inverse kernel against the dense reference: each case
# compares ``pt_inverse_rank_one`` (what ``pt_solve`` runs from ``_SECULAR_MIN_N``
# agents on, unless every pole clears the floor) with ``pt_inverse(hessian(...)) @ v``
# at any size, and must raise no numpy warning (division by zero, invalid values)
# on the way.
no_numpy_warnings = pytest.mark.filterwarnings("error::RuntimeWarning")


def _pt_solve_error(inst, thermo, x, seed=0):
    """Max error of the secular solve against dense ``eigh``, relative to max |ref|."""
    v = np.random.default_rng(seed).normal(size=inst.n)
    curvature = thermo.temp / thermo.time_const / (x - x**2)
    got = pt_inverse_rank_one(inst.quad + curvature, centralized_ctx(inst).weight, v, thermo.floor)
    ref = pt_inverse(hessian(inst, thermo, x), thermo.floor) @ v
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _spectrum(inst, thermo, x):
    return np.linalg.eigvalsh(hessian(inst, thermo, x))


@no_numpy_warnings
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pt_solve_tiny_sizes(bench_small, n):
    inst = bench_small(n=n, seed=n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.uniform(0.05, 0.95, n)
        assert _pt_solve_error(inst, Thermo(1.0, 0.1, 0.1), x) <= 1e-12


@no_numpy_warnings
def test_pt_solve_all_outputs_zero():
    # no rank-one part: every coordinate deflates and H is diagonal
    inst = Instance(quad=[-3.0, 2.0, 0.05, -0.01], center=[0.5] * 4,
                    passive=[0.0] * 4, output=[0.0] * 4, penalty=1.0, target=0.0)
    x = np.array([0.5, 0.3, 0.9, 0.6])
    assert _pt_solve_error(inst, Thermo(1.0, 1e3, 0.1), x) <= 1e-15


@no_numpy_warnings
def test_pt_solve_equal_poles_at_clip():
    # random_instance gives every agent the same quad, so coordinates clipped
    # to the same corner share a pole exactly
    inst = random_instance(40, 3)
    x = np.random.default_rng(3).uniform(0.1, 0.9, 40)
    x[:12] = 1e-9
    x[12:20] = 1.0 - 1e-9
    x[20:23] = 0.5
    assert np.unique(inst.quad).size == 1
    # The clipped poles (about 1e10) set ||H||, and dense eigh's error scales
    # with it: permuting the rows and columns of H moves the reference by
    # 3e-10 relative here (measured), hence 1e-9 and not 1e-12
    assert _pt_solve_error(inst, Thermo(1.0, 0.1, 0.1), x) <= 1e-9


@no_numpy_warnings
def test_pt_solve_saddle_escape_instance(symmetric_instance):
    # p = 1 and one quad: x near 0.5 puts every pole close to every other,
    # and x = 0.5 exactly makes them all equal
    inst = symmetric_instance(n=10)
    thermo = Thermo(1.0, 0.1, 0.1)
    rng = np.random.default_rng(8)
    for radius in (0.0, 1e-12, 1e-8, 1e-4, 0.05):
        x = 0.5 + radius * rng.uniform(-1.0, 1.0, 10)
        assert _pt_solve_error(inst, thermo, x) <= 1e-12


@no_numpy_warnings
def test_pt_solve_mixed_sign_poles(bench_small):
    inst = bench_small(n=30, seed=2)
    thermo = Thermo(1.0, 0.1, 0.1)
    x = np.random.default_rng(2).uniform(0.1, 0.9, 30)
    x[:10] = np.geomspace(1e-7, 1e-3, 10)  # barrier curvature up to 1e8 beats quad
    poles = inst.quad + thermo.temp / thermo.time_const / (x - x**2)
    assert poles.min() < 0.0 < poles.max()
    assert _pt_solve_error(inst, thermo, x) <= 1e-12


@no_numpy_warnings
def test_pt_solve_truncates_small_eigenvalues():
    # a = -4 T/tau puts the barrier's curvature at x = 0.5 exactly on the
    # pole's zero: eigenvalues near 0 are floored, not inverted
    n = 6
    inst = Instance(quad=np.full(n, -4.0), center=np.full(n, 0.5),
                    passive=np.zeros(n), output=np.linspace(0.01, 0.06, n),
                    penalty=1.0, target=0.1)
    thermo = Thermo(1.0, 1.0, 0.01)
    x = 0.5 + np.linspace(-0.05, 0.05, n)
    eigs = np.abs(_spectrum(inst, thermo, x))
    assert eigs.min() < thermo.floor < eigs.max()
    assert _pt_solve_error(inst, thermo, x) <= 1e-12


@no_numpy_warnings
def test_pt_solve_negative_definite_hessian():
    n = 8
    inst = Instance(quad=np.linspace(-60.0, -40.0, n), center=np.full(n, 0.5),
                    passive=np.zeros(n), output=np.linspace(0.5, 1.5, n),
                    penalty=2.0, target=3.0)
    thermo = Thermo(1.0, 1.0, 0.1)
    x = np.random.default_rng(5).uniform(0.3, 0.7, n)
    assert _spectrum(inst, thermo, x).max() < 0.0
    assert _pt_solve_error(inst, thermo, x) <= 1e-12


@no_numpy_warnings
def test_pt_solve_along_an_anneal_at_n200():
    # Dense eigh is itself only good to a few 1e-9 on these states: solving
    # the same Hessian with its rows and columns permuted moves its answer by
    # up to 3.0e-9 relative (measured over three seeds); 1e-8 is three times that
    inst = random_instance(200, 1000)
    cfg = SolverConfig(thermo=Thermo(1.0, 0.1, 0.1), step=1e-2, seed=0, sample_stride=25,
                       anneal=AnnealSchedule(beta=1.4, t_d=0.5, steps=10))
    result = anneal("binnn-c", inst, config=cfg)
    assert len(result.trajectory) > 20
    for k, (t, x, _, _) in enumerate(result.trajectory):
        rounds = min(int(t / 0.5), 9)  # about the knobs the state was reached with
        thermo = Thermo(1.0, 0.1 * 1.4**rounds, 0.1)
        assert _pt_solve_error(inst, thermo, x, seed=k) <= 1e-8


@no_numpy_warnings
def test_pt_inverse_rank_one_matches_dense_on_random_data():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 50):
        diag = rng.normal(scale=10.0, size=n)
        weight = rng.normal(size=n)
        v = rng.normal(size=n)
        ref = pt_inverse(np.diag(diag) + np.outer(weight, weight), 0.1) @ v
        got = pt_inverse_rank_one(diag, weight, v, 0.1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _secular_layouts():
    """(poles, weights) with 4 to 11 poles in the layouts the flows produce."""
    rng, own = np.random.default_rng(41), np.random.default_rng(43)
    for m in range(4, 12):
        # an anneal at n=200: every agent has the same quad, so the poles cluster
        # near it 1e-7 apart (relative), with a tail of almost-clipped coordinates
        tail = m // 3
        cluster = -1.9e5 * (1.0 - 1e-7 * np.cumsum(own.uniform(0.5, 1.5, m - tail)))
        yield np.concatenate([cluster, np.sort(1.9e9 * own.uniform(1e-4, 1.0, tail))]), \
            own.uniform(1.0, 2500.0, m)
        yield np.linspace(1.0, 2.0, m), rng.uniform(0.01, 1.0, m)
        yield np.sort(rng.uniform(-50.0, 50.0, m)), rng.uniform(0.1, 10.0, m)
        # coordinates clipped to a corner put their poles near 1e10
        low = np.sort(rng.uniform(-5.0, 5.0, m // 2))
        yield np.concatenate([low, 1e10 + np.sort(rng.uniform(0.0, 1e3, m - m // 2))]), \
            rng.uniform(1.0, 100.0, m)
        yield np.geomspace(1e-3, 1e6, m), rng.uniform(0.1, 1.0, m)
        # weights far above the spread put the last root far past the poles
        yield np.linspace(0.0, 1.0, m), rng.uniform(1e3, 1e4, m)


def test_secular_roots_are_exact_to_64_ulps():
    # f(lam) = 1 + sum(z2 / (pole - lam)) rises through each root, so in
    # exact arithmetic it is negative 64 ulps of tau below the returned
    # root and positive 64 ulps above it
    def secular(pole, z2, lam):
        return 1 + sum(Fraction(w) / (Fraction(p) - lam) for p, w in zip(pole, z2))

    for pole, z2 in _secular_layouts():
        m = pole.size
        assert np.all(np.diff(pole) > 0.0)
        origin, tau, _ = _secular_roots(pole, z2, np.arange(m), np.empty((3, m, m)))
        for k in range(m):
            lam = Fraction(pole[origin[k]]) + Fraction(tau[k])
            ulps = 64 * Fraction(np.spacing(abs(tau[k])))
            assert secular(pole, z2, lam - ulps) < 0 < secular(pole, z2, lam + ulps)


def test_rank_one_kernels_reject_bad_floor_and_give_nan_on_infinite_poles():
    # a coordinate exactly at a corner has infinite barrier curvature; dense
    # eigh returns NaN there, and so do the secular kernels
    diag, weight = np.array([np.inf, 1.0, 2.0]), np.ones(3)
    assert np.isnan(pt_inverse_rank_one(diag, weight, np.ones(3), 0.1)).all()
    assert np.isnan(min_eig_rank_one(diag, weight))
    with pytest.raises(ValueError):
        pt_inverse_rank_one(np.ones(3), weight, np.ones(3), 0.0)


# ``pt_solve``'s O(n) branch: once every pole d_i clears the floor, the PT-inverse
# is H^-1, applied by Sherman and Morrison. Their formula is exact in rational
# arithmetic, so Fraction gives its reference.
def _sherman_morrison_exact(diag, weight, v):
    d, w, v = ([Fraction(float(e)) for e in arr] for arr in (diag, weight, v))
    u, q = [a / b for a, b in zip(v, d)], [a / b for a, b in zip(w, d)]
    scale = sum(a * b for a, b in zip(w, u)) / (1 + sum(a * b for a, b in zip(w, q)))
    return np.array([float(a - b * scale) for a, b in zip(u, q)])


def _refuse_eigh(_):
    raise AssertionError("pt_solve reached dense eigh")


def _pt_solve_without_eigh(monkeypatch, ctx, curvature, v, floor):
    """``ctx.pt_solve``, failing if it reaches dense ``eigh``: the O(n) branch or nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", _refuse_eigh)
        return ctx.pt_solve(curvature, v, floor)


@no_numpy_warnings
def test_pt_solve_is_exact_sherman_morrison_on_positive_definite_states(bench_small, monkeypatch):
    thermo = Thermo()
    ratio = thermo.temp / thermo.time_const
    rng = np.random.default_rng(21)
    cases = []
    for n in range(1, 9):
        # near the corners the barrier's curvature outweighs the negative quad
        x = rng.uniform(1e-6, 1e-3, n)
        cases.append((bench_small(n=n, seed=n), np.where(rng.random(n) < 0.5, x, 1.0 - x)))
    # the states of a real n=20 binnn-c run that clear the floor, poles from 6e3 to 5e9
    inst = random_instance(20, 3)
    result = run("binnn-c", inst, config=SolverConfig(step=0.02, t_max=10.0, sample_stride=10,
                                                      seed=0))
    cleared = [x for _, x, _, _ in result.trajectory
               if (inst.quad + ratio / (x - x**2)).min() >= thermo.floor]
    assert len(cleared) >= 10
    cases += [(inst, x) for x in cleared]
    for inst, x in cases:
        ctx, curvature, v = centralized_ctx(inst), ratio / (x - x**2), rng.normal(size=inst.n)
        assert (inst.quad + curvature).min() >= thermo.floor
        got = _pt_solve_without_eigh(monkeypatch, ctx, curvature, v, thermo.floor)
        ref = _sherman_morrison_exact(inst.quad + curvature, ctx.weight, v)
        # measured: 2.2e-16 at most, where dense eigh is off by up to 2.6e-11
        assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


@no_numpy_warnings
def test_pt_solve_takes_the_o_n_branch_at_a_pole_equal_to_the_floor(monkeypatch):
    # at x = 0.5 the barrier's curvature is exactly 4 T / tau = 4, so quad = -3.5
    # puts that pole on the floor 0.5 exactly; the others sit above it
    n = 5
    inst = Instance(quad=np.full(n, -3.5), center=np.full(n, 0.5), passive=np.zeros(n),
                    output=np.linspace(0.5, 1.5, n), penalty=2.0, target=3.0)
    thermo = Thermo(1.0, 1.0, 0.5)
    x = np.array([0.5, 0.3, 0.8, 0.6, 0.1])
    curvature = 1.0 / (x - x**2)
    assert (inst.quad + curvature).min() == thermo.floor
    v = np.random.default_rng(4).normal(size=n)
    ref = pt_inverse(hessian(inst, thermo, x), thermo.floor) @ v
    got = _pt_solve_without_eigh(monkeypatch, centralized_ctx(inst), curvature, v, thermo.floor)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@no_numpy_warnings
@pytest.mark.parametrize("n", [6, 100])
def test_pt_solve_gives_nan_on_an_infinite_pole(n):
    # every other pole is at least 1, far above the floor: the infinite one alone
    # keeps the state off the O(n) branch, which would read it as a zero entry
    inst = random_instance(n, 0)
    curvature = np.abs(inst.quad) + 1.0
    curvature[2] = np.inf
    assert np.isnan(centralized_ctx(inst).pt_solve(curvature, np.ones(n), 0.1)).all()


@pytest.mark.parametrize("n", [100, 400])
def test_criterion_10_times_the_secular_solve(monkeypatch, n):
    # median_step_time starts binnn-c at the cube centre, where the poles are
    # negative: no step it times clears the floor, so each runs the secular solve
    calls, secular = [], en.pt_inverse_rank_one

    def counted(*args):
        calls.append(args[0].min())
        return secular(*args)

    monkeypatch.setattr(en, "pt_inverse_rank_one", counted)
    median_step_time("binnn-c", n, steps=50, seed=0, repeats=1)
    assert len(calls) == 50 and max(calls) < Thermo().floor


@no_numpy_warnings
def test_min_hessian_eig_matches_eigvalsh(bench_small, symmetric_instance):
    thermo = Thermo(1.0, 0.1, 0.1)
    rng = np.random.default_rng(21)
    cases = [(bench_small(n=n, seed=n), rng.uniform(0.01, 0.99, n)) for n in (1, 2, 7, 60)]
    saddle = symmetric_instance(n=10)
    cases += [(saddle, 0.5 + r * rng.uniform(-1.0, 1.0, 10)) for r in (0.0, 1e-9, 0.05)]
    clipped = rng.uniform(0.2, 0.8, 10)
    clipped[:4] = 1e-9
    cases.append((saddle, clipped))
    for inst, x in cases:
        eigs = _spectrum(inst, thermo, x)
        scale = np.abs(eigs).max()
        curvature = thermo.temp / thermo.time_const / (x - x**2)
        got = min_eig_rank_one(inst.quad + curvature, centralized_ctx(inst).weight)
        assert abs(got - eigs.min()) <= 1e-12 * scale


def test_thermo_validation():
    with pytest.raises(ValueError):
        Thermo(temp=0.0)
    with pytest.raises(ValueError):
        Thermo(time_const=-1.0)
    with pytest.raises(ValueError):
        Thermo(floor=0.0)
