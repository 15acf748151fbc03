import numpy as np
import pytest

from binalloc import Thermo
from binalloc.energy import (
    activation,
    activation_inv,
    barrier_integral,
    energy,
    energy_tilde,
    grad,
    grad_x_tilde,
    grad_y_tilde,
    hessian,
    hessian_x_tilde,
    pt_inverse,
    pt_inverse_scalar,
)
from binalloc.errors import DomainError, ShapeError
from binalloc.graphs import random_connected_graph
from binalloc.instances import Instance


def _fd_grad(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fun(up) - fun(dn)) / (2 * h)
    return g


def test_activation_examples():
    assert activation(0.0, 1.0) == pytest.approx(0.5)
    assert activation_inv(0.5, 3.7) == pytest.approx(0.0, abs=1e-15)
    assert activation(1.0, 1.0) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)),
                                                 rel=1e-12)


def test_activation_inverse_roundtrip():
    rng = np.random.default_rng(0)
    for temp in (0.3, 1.0, 4.0):
        u = rng.uniform(-8, 8, 20) * temp
        x = activation(u, temp)
        back = activation_inv(x, temp)
        assert np.max(np.abs(back - u)) <= 1e-9 * (1 + np.max(np.abs(u)))


def test_activation_inv_domain():
    with pytest.raises(DomainError):
        activation_inv(1.0, 1.0)
    with pytest.raises(DomainError):
        activation_inv(-0.1, 1.0)


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


def test_barrier_matches_quadrature():
    # numerical integral of the inverse activation over [0.1, z], away from
    # the endpoint singularities where trapezoid rule converges poorly
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for z in (0.2, 0.5, 0.83):
        s = np.linspace(0.1, z, 200001)
        vals = activation_inv(s, 1.0)
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
        gx = grad_x_tilde(inst, graph, thermo, x, y)
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
    graph = random_connected_graph(4, 0.5, seed=1)
    thermo = Thermo(1.0, 0.1, 0.1)
    prev = None
    for k in range(2, 9):
        x = np.full(4, 10.0**-k)
        diag = hessian_x_tilde(inst, graph, thermo, x)
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


def test_pt_inverse_scalar_examples():
    assert pt_inverse_scalar(-4.0, 0.1) == pytest.approx(0.25)
    assert pt_inverse_scalar(0.01, 0.1) == pytest.approx(10.0)
    assert pt_inverse_scalar(0.0, 0.1) == pytest.approx(10.0)


def test_thermo_validation():
    with pytest.raises(ValueError):
        Thermo(temp=0.0)
    with pytest.raises(ValueError):
        Thermo(time_const=-1.0)
    with pytest.raises(ValueError):
        Thermo(floor=0.0)
