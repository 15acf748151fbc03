import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from binalloc import AnnealSchedule, SolverConfig, Thermo, anneal, dynamics, run
from binalloc import energy as en
from binalloc.bench import CampaignConfig, run_campaign, write_trajectory_csv
from binalloc.dynamics import (
    FlowState,
    flow_rates,
    init_state,
    terminal_diagnostics,
)
from binalloc.energy import (
    centralized_ctx,
    distributed_ctx,
    energy,
    energy_tilde,
    grad,
    grad_y_tilde,
    hessian,
    pt_inverse,
    pt_inverse_scalar,
)
from binalloc.errors import ConnectivityError, DomainError, NumericFailureError, ShapeError
from binalloc.graphs import Graph, named_topology, random_connected_graph, y_star
from binalloc.instances import Instance, random_instance, residual_weight, round_to_binary
from oracles import agent_rates, joint_hessian, schur_spectrum

THERMO = Thermo(temp=1.0, time_const=0.1, floor=0.1)


def small_instance(n, seed, gamma=1.0):
    """Mild coefficients so rates stay O(10); good for step-level checks."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 1.5, n)
    a = rng.uniform(-12.0, -6.0, n)
    b = rng.uniform(0.2, 0.8, n)
    return Instance(quad=a, center=b, passive=np.zeros(n), output=p,
                    penalty=gamma, target=0.5 * float(p.sum()))


def interior_state(n, seed, with_y=False):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 0.8, n)
    y = rng.normal(scale=0.5, size=n) if with_y else None
    return FlowState(x=x, y=y, t=0.0)


def advance(state, xdot, ydot, h, eps_clip=1e-9):
    """Explicit Euler with the integrator's clip to the cube, out of place."""
    x = np.minimum(np.maximum(state.x + h * xdot, eps_clip), 1.0 - eps_clip)
    y = None if state.y is None else state.y + h * ydot
    return FlowState(x=x, y=y, t=state.t + h)


def euler_step(flow, state, inst, thermo, h, graph=None, alpha=1.0):
    """One explicit Euler step of a flow, through the kernel the integrator uses."""
    xdot, ydot, _ = flow_rates(flow, inst, graph, thermo, alpha)(state.x, state.y)
    return advance(state, xdot, ydot, h)


def test_init_state_ball_and_determinism():
    s = init_state(20, eps_init=0.05, seed=42)
    assert np.all(s.x >= 0.45) and np.all(s.x <= 0.55)
    assert np.linalg.norm(s.x - 0.5) <= 0.05 + 1e-15
    assert s.y is None
    again = init_state(20, eps_init=0.05, seed=42)
    assert np.array_equal(s.x, again.x)
    with pytest.raises(ValueError):
        init_state(3, eps_init=0.7)


def test_binnn_c_equilibrium_fixed_point():
    # at x = 0.5 the coupling, bias and barrier slopes all cancel by design
    inst = Instance(quad=[-5.0], center=[0.4], passive=[0.0], output=[1.0],
                    penalty=1.0, target=0.0)
    state = FlowState(x=np.array([0.5]), y=None, t=0.0)
    assert grad(inst, THERMO, state.x)[0] == pytest.approx(0.0, abs=1e-15)
    nxt = euler_step("binnn-c", state, inst, THERMO, h=0.1)
    assert nxt.x[0] == 0.5
    assert nxt.t == pytest.approx(0.1)


def test_binnn_c_sign_matches_negative_gradient():
    # bistable 1-D case: the Newton-like flow keeps the HNN sign structure
    inst = Instance(quad=[-10.0], center=[0.7], passive=[0.0], output=[1.0],
                    penalty=1.0, target=0.5)
    for x in (0.05, 0.3, 0.5, 0.77, 0.95):
        state = FlowState(x=np.array([x]), y=None, t=0.0)
        nxt = euler_step("binnn-c", state, inst, THERMO, h=1e-4)
        g = grad(inst, THERMO, state.x)[0]
        assert np.sign(nxt.x[0] - x) == np.sign(-g)


def test_binnn_c_matches_independent_assembly():
    # assemble the flow from its published pieces with separate code paths
    inst = small_instance(8, seed=3)
    h = 1e-3
    for seed in range(5):
        state = interior_state(8, seed)
        nxt = euler_step("binnn-c", state, inst, THERMO, h)
        got = (nxt.x - state.x) / h
        hess = hessian(inst, THERMO, state.x)
        slope = np.diag((state.x - state.x**2) / THERMO.temp)
        ref = pt_inverse(hess, THERMO.floor) @ slope @ -grad(inst, THERMO, state.x)
        assert np.max(np.abs(got - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


def test_centralized_kernels_match_dense_assembly_at_n2000():
    n = 2000
    inst = random_instance(n, 5)
    x = np.random.default_rng(6).uniform(0.1, 0.9, n)
    ratio = THERMO.temp / THERMO.time_const
    coupling = np.diag(inst.quad) + inst.penalty * np.outer(inst.output, inst.output)
    bias = inst.quad * inst.center + inst.penalty * inst.target * inst.output
    ref_grad = coupling @ x - bias - ratio * np.log(1.0 / x - 1.0)
    ref_hess = coupling + np.diag(ratio / (x - x**2))
    descent = (x - x**2) / THERMO.temp * -ref_grad
    ctx = centralized_ctx(inst)
    pairs = [
        (grad(inst, THERMO, x, ctx), ref_grad),
        (hessian(inst, THERMO, x, ctx), ref_hess),
        (flow_rates("hnn", inst, None, THERMO, 1.0)(x, None)[0], descent),
        (flow_rates("binnn-c", inst, None, THERMO, 1.0)(x, None)[0],
         pt_inverse(ref_hess, THERMO.floor) @ descent),
    ]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_binnn_c_crossover_sides_agree(monkeypatch):
    # the same small instance through the secular solve and through dense eigh; a
    # steeper quad puts poles below the floor, where the O(n) branch does not apply
    n = 12
    inst = small_instance(n, seed=5)
    inst = replace(inst, quad=10.0 * inst.quad)
    x = interior_state(n, 5).x
    assert n < en._SECULAR_MIN_N
    assert (inst.quad + THERMO.temp / THERMO.time_const / (x - x**2)).min() < THERMO.floor
    default = flow_rates("binnn-c", inst, None, THERMO, 1.0)(x, None)[0]
    sides = {}
    for side, min_n in (("secular", 1), ("dense", n + 1)):
        monkeypatch.setattr(en, "_SECULAR_MIN_N", min_n)
        sides[side] = flow_rates("binnn-c", inst, None, THERMO, 1.0)(x, None)[0]
    assert np.array_equal(default, sides["dense"])  # small n stays on dense eigh
    descent = (x - x**2) / THERMO.temp * -grad(inst, THERMO, x)
    ref = pt_inverse(hessian(inst, THERMO, x), THERMO.floor) @ descent
    for got in sides.values():
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_hnn_matches_binnn_c_when_hessian_is_identity():
    # zero outputs decouple agents; a = -3 with T = tau = 1 puts H(0.5) = I
    inst = Instance(quad=[-3.0, -3.0, -3.0], center=[0.3, 0.5, 0.8],
                    passive=[0.0, 0.0, 0.0], output=[0.0, 0.0, 0.0],
                    penalty=1.0, target=0.0)
    thermo = Thermo(temp=1.0, time_const=1.0, floor=1.0)
    state = FlowState(x=np.full(3, 0.5), y=None, t=0.0)
    a = euler_step("binnn-c", state, inst, thermo, h=1e-2)
    b = euler_step("hnn", state, inst, thermo, h=1e-2)
    assert np.max(np.abs(a.x - b.x)) <= 1e-14


def test_hnn_and_binnn_c_share_signs_for_diagonal_pd_hessian():
    inst = Instance(quad=[-3.0, -3.0], center=[0.2, 0.9],
                    passive=[0.0, 0.0], output=[0.0, 0.0],
                    penalty=1.0, target=0.0)
    thermo = Thermo(temp=1.0, time_const=1.0, floor=0.5)
    rng = np.random.default_rng(7)
    for _ in range(10):
        state = FlowState(x=rng.uniform(0.1, 0.9, 2), y=None, t=0.0)
        a = euler_step("binnn-c", state, inst, thermo, h=1e-4)
        b = euler_step("hnn", state, inst, thermo, h=1e-4)
        assert np.all(np.sign(a.x - state.x) == np.sign(b.x - state.x))


def test_hnn_energy_decreases_over_small_step():
    inst = small_instance(6, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.uniform(0.1, 0.9, 6)
        if np.max(np.abs(grad(inst, THERMO, x))) < 1e-6:
            continue  # already critical, nothing to descend
        state = FlowState(x=x, y=None, t=0.0)
        nxt = euler_step("hnn", state, inst, THERMO, h=1e-4)
        assert energy(inst, THERMO, nxt.x) < energy(inst, THERMO, x)


def test_binnn_d_ydot_zero_at_y_star():
    inst = small_instance(4, seed=2)
    graph = named_topology("complete", 4)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 4)
    ys = y_star(graph, inst.output, x)
    state = FlowState(x=np.clip(x, 0.05, 0.95), y=ys, t=0.0)
    h = 1.0
    nxt = euler_step("binnn-d", state, inst, THERMO, h=h, graph=graph)
    assert np.max(np.abs(nxt.y - ys)) / h <= 1e-12


def test_binnn_d_conserves_y_sum_per_step():
    inst = small_instance(6, seed=5)
    graph = named_topology("random", 6, seed=1)
    state = interior_state(6, 8, with_y=True)
    nxt = euler_step("binnn-d", state, inst, THERMO, h=1e-2, graph=graph)
    drift = abs(float(nxt.y.sum()) - float(state.y.sum()))
    assert drift <= 1e-12 * max(np.abs(state.y).sum(), 1.0)


def test_binnn_d_conserves_y_sum_on_sparse_ring():
    graph = named_topology("ring", 2000)
    assert graph.arcs is not None  # the edge-list Laplacian product
    cfg = SolverConfig(thermo=THERMO, step=1e-2, t_max=2.0, sample_stride=0, seed=0)
    y = run("binnn-d", random_instance(2000, 7), graph, cfg).y_final
    assert np.abs(y).sum() > 0.0
    assert abs(float(y.sum())) <= 1e-8 * max(1.0, float(np.abs(y).sum()))


def test_binnn_d_matches_independent_assembly():
    inst = small_instance(7, seed=9)
    graph = named_topology("random", 7, seed=4)
    lap, gamma, p = graph.laplacian, inst.penalty, inst.output  # gamma weighs P2's residual
    ratio = THERMO.temp / THERMO.time_const
    h = 1e-3
    for seed in range(5):
        state = interior_state(7, 20 + seed, with_y=True)
        nxt = euler_step("binnn-d", state, inst, THERMO, h=h, graph=graph)
        got_x = (nxt.x - state.x) / h
        got_y = (nxt.y - state.y) / h
        x, y = state.x, state.y
        residual = p * x + lap @ y - inst.target / inst.n
        gx = inst.quad * (x - inst.center) + gamma * p * residual - ratio * np.log((1 - x) / x)
        hd = inst.quad + gamma * p**2 + ratio / (x * (1 - x))
        ref_x = x * (1 - x) / THERMO.temp * -gx / np.maximum(np.abs(hd), THERMO.floor)
        ref_y = -gamma * lap @ (p * x + lap @ y)
        assert np.max(np.abs(got_x - ref_x)) <= 1e-12 * (1 + np.max(np.abs(ref_x)))
        assert np.max(np.abs(got_y - ref_y)) <= 1e-12 * (1 + np.max(np.abs(ref_y)))


def _unfused_binnn_d_rates(instance, graph, thermo, alpha):
    """The binnn-d rates as one allocating numpy expression per quantity, the
    form they had before the fused kernel: its byte-for-byte reference."""
    ratio, weight = thermo.temp / thermo.time_const, residual_weight(instance)
    coupling_diag = instance.quad + weight * instance.output**2
    weight_output, quad_center = weight * instance.output, instance.quad * instance.center
    target_share, y_gain = instance.target / instance.n, -alpha * weight

    def rates(x, y):
        lap_y = graph.apply_laplacian(y)
        gap = x - x * x
        bias = quad_center + weight_output * (target_share - lap_y)
        grad = coupling_diag * x - bias - ratio * np.log(1.0 / x - 1.0)
        inverse = pt_inverse_scalar(coupling_diag + ratio / gap, thermo.floor)
        xdot = inverse * (gap / thermo.temp) * -grad
        ydot = y_gain * graph.apply_laplacian(instance.output * x + lap_y)
        return xdot, ydot, grad

    return rates


def test_fused_binnn_d_rates_equal_unfused_bytes_on_every_laplacian():
    graphs = {  # by the path Graph.apply_laplacian takes
        "dense": random_connected_graph(20, seed=3),
        "regular gathers": named_topology("ring", 2000),
        "bincount": named_topology("path", 100),
        "bincount, irregular": random_connected_graph(300, 0.005, seed=4),
    }
    assert graphs["dense"].arcs is None and graphs["regular gathers"].arcs[0] is None
    assert all(graphs[name].arcs[0] is not None for name in ("bincount", "bincount, irregular"))
    assert len(set(map(len, graphs["bincount, irregular"].neighbors))) > 2
    # the second knobs put the floor of the PT-inverse to work
    knobs = ((THERMO, 1.0), (Thermo(temp=0.5, time_const=0.25, floor=1.5), 0.3))
    floored = 0
    for k, graph in enumerate(graphs.values()):
        inst = small_instance(graph.n, seed=30 + k)
        rng = np.random.default_rng(40 + k)
        x, y = rng.uniform(1e-4, 1.0 - 1e-4, graph.n), rng.normal(scale=2.0, size=graph.n)
        x_in, y_in = x.copy(), y.copy()
        for thermo, alpha in knobs:
            fused = flow_rates("binnn-d", inst, graph, thermo, alpha)
            got, again = fused(x, y), fused(x, y)
            want = _unfused_binnn_d_rates(inst, graph, thermo, alpha)(x, y)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            assert [a.tobytes() for a in again] == [b.tobytes() for b in want]
            # the integrator overwrites what it gets: each call returns fresh arrays
            assert not any(np.shares_memory(a, b) for a in got for b in again + (x, y))
            ratio = thermo.temp / thermo.time_const
            hd = distributed_ctx(inst).hessian_diag(ratio / (x - x * x))
            floored += int(np.sum(np.abs(hd) < thermo.floor))
        assert x.tobytes() == x_in.tobytes() and y.tobytes() == y_in.tobytes()
    assert floored > 0


def test_binnn_d_round_end_checks_that_sum_y_is_conserved():
    inst, ring = small_instance(6, seed=3), named_topology("ring", 6)

    class LeakyRing:  # its Laplacian product does not conserve the sum
        n, neighbors = ring.n, ring.neighbors

        def apply_laplacian(self, v):
            return ring.apply_laplacian(v) + 1e-3

    cfg = SolverConfig(thermo=THERMO, step=0.01, t_max=0.5, seed=0, sample_stride=10,
                       anneal=AnnealSchedule(t_d=0.2, steps=3))
    for solve, steps in ((run, 50), (anneal, 20)):
        with pytest.raises(NumericFailureError, match=r"sum\(y\) drifted") as exc:
            solve("binnn-d", inst, LeakyRing(), cfg)
        failure = exc.value
        assert failure.iterations == steps and failure.state.t == pytest.approx(steps * 0.01)
        assert abs(failure.state.y.sum()) > 1e-8 * max(1.0, np.abs(failure.state.y).sum())
        assert len(failure.trajectory) == 1 + steps // 10
        solve("binnn-d", inst, ring, cfg)  # the ring itself conserves it


def test_binnn_d_round_end_with_a_non_finite_state_fails():
    inst, ring = small_instance(6, seed=3), named_topology("ring", 6)

    class FloodedRing:  # a finite, constant product: the rates stay finite while y overflows
        n, neighbors = ring.n, ring.neighbors

        def apply_laplacian(self, v):
            return np.full(self.n, 1e308)

    cfg = SolverConfig(thermo=THERMO, step=0.1, t_max=3.0, seed=0, sample_stride=0)
    with pytest.raises(NumericFailureError, match="non-finite state") as exc:
        run("binnn-d", inst, FloodedRing(), cfg)
    failure = exc.value
    assert failure.iterations == 30 and np.all(failure.state.y == -np.inf)
    assert np.all(np.isfinite(failure.state.x))


def test_agent_rates_match_vectorized_and_stay_local():
    # path-7 keeps a dense Laplacian; ring-64 (128 arcs, 1/32 fill) uses edge lists
    for n, topology, sparse in ((7, "path", False), (64, "ring", True)):
        inst = small_instance(n, seed=14)
        graph = named_topology(topology, n)
        assert (graph.arcs is not None) == sparse
        state = interior_state(n, 15, with_y=True)
        h = 1e-3
        nxt = euler_step("binnn-d", state, inst, THERMO, h=h, graph=graph)
        for i in range(n):
            xd, yd = agent_rates(state, inst, graph, THERMO, 1.0, i)
            assert xd == pytest.approx((nxt.x[i] - state.x[i]) / h, rel=1e-9, abs=1e-12)
            assert yd == pytest.approx((nxt.y[i] - state.y[i]) / h, rel=1e-9, abs=1e-12)
        # perturbing data outside the one-hop (x) / two-hop (y) sets changes nothing
        i = 0
        base = agent_rates(state, inst, graph, THERMO, 1.0, i)
        far = 5  # beyond two hops from node 0 on the path and the ring
        x2 = state.x.copy()
        y2 = state.y.copy()
        x2[far] += 0.1
        y2[far] -= 3.0
        moved = FlowState(x=x2, y=y2, t=0.0)
        assert agent_rates(moved, inst, graph, THERMO, 1.0, i) == base
        # x_i's update may read one-hop y but not two-hop-only y
        two_hop_only = 2  # neighbor of neighbor of node 0
        y3 = state.y.copy()
        y3[two_hop_only] += 1.0
        xd3, _ = agent_rates(FlowState(x=state.x, y=y3, t=0.0), inst, graph,
                             THERMO, 1.0, i)
        assert xd3 == base[0]


def test_run_favorable_single_agent_goes_on():
    # incremental cost -5 with matching target: staying off is never optimal;
    # quad steep enough that the energy is bistable and corners attract
    inst = Instance(quad=[-50.0], center=[0.4], passive=[0.0], output=[1.0],
                    penalty=1.0, target=1.0)
    assert inst.incr_cost[0] == pytest.approx(-5.0)
    cfg = SolverConfig(thermo=THERMO, step=0.01, seed=0, sample_stride=0)
    result = run("binnn-c", inst, config=cfg)
    assert result.x_final[0] > 0.9
    assert result.bits[0] == 1


def test_run_zero_horizon(two_agent):
    cfg = SolverConfig(thermo=THERMO, t_max=0.0, seed=1)
    result = run("binnn-c", two_agent, config=cfg)
    assert result.iterations == 0
    assert not result.converged
    assert np.all((result.x_final >= 0.45) & (result.x_final <= 0.55))


def test_a_run_takes_t_max_over_h_steps():
    # t summed one h at a time drifts past t_max - 1e-12; the step count does not.
    # binnn-c moves on every step here: no freeze check ends the round early
    result = run("binnn-c", random_instance(10, 0), config=SolverConfig(seed=0, t_max=100.0, sample_stride=0))
    assert result.iterations == 10000


def test_run_rejects_bad_flow_and_missing_graph(two_agent):
    with pytest.raises(ValueError):
        run("sgd", two_agent)
    with pytest.raises(ValueError):
        run("binnn-d", two_agent, graph=None)
    with pytest.raises(ConnectivityError):
        run("binnn-d", two_agent, graph=Graph(2, []))


def test_an_unknown_flow_is_refused_before_any_energy(monkeypatch):
    calls, energy_at = [], en.energy
    monkeypatch.setattr(en, "energy", lambda *args: calls.append(args) or energy_at(*args))
    with pytest.raises(ValueError, match="unknown flow kind 'sgd'"):
        run("sgd", random_instance(50, 0))
    assert calls == []  # the start sample is taken after the rates are built


def test_flow_rates_rejects_an_unknown_flow(two_agent):
    with pytest.raises(ValueError, match="unknown flow kind 'sgd'"):
        flow_rates("sgd", two_agent, None, THERMO, 1.0)


def test_anneal_reproduces_two_agent_optimum(two_agent, pair_graph):
    cfg = SolverConfig(
        thermo=THERMO,
        step=0.02,
        seed=7,
        sample_stride=0,
        anneal=AnnealSchedule(beta=1.4, t_d=1.0, steps=15, knob="tau-up"),
    )
    result = anneal("binnn-c", two_agent, config=cfg)
    assert result.bits.tolist() == [1, 0]
    assert result.cost == pytest.approx(2.08, abs=1e-12)
    assert len(result.round_ends) == 15
    # the distributed flow needs the temperature knob here: raising tau alone
    # leaves agent 0's shallow well non-bistable and x_0 stalls mid-range
    cfg_d = SolverConfig(
        thermo=THERMO,
        step=0.02,
        seed=7,
        sample_stride=0,
        anneal=AnnealSchedule(beta=1.4, t_d=2.0, steps=15, knob="T-down"),
    )
    result = anneal("binnn-d", two_agent, graph=pair_graph, config=cfg_d)
    assert result.bits.tolist() == [1, 0]


def test_a_config_without_a_schedule_anneals_with_the_default():
    # None reads as AnnealSchedule(): every config can anneal, and so can every campaign
    cfg = SolverConfig(seed=3)
    assert cfg.anneal == AnnealSchedule() == replace(cfg, anneal=None).anneal
    inst, graph = small_instance(6, seed=4), named_topology("ring", 6)
    for flow in dynamics.FLOW_KINDS:
        got = anneal(flow, inst, graph, cfg)
        want = anneal(flow, inst, graph, SolverConfig(seed=3, anneal=AnnealSchedule()))
        assert (got.x_final.tobytes(), got.bits.tobytes(), got.cost, got.iterations) == (
            want.x_final.tobytes(), want.bits.tobytes(), want.cost, want.iterations), flow
    campaigns = [CampaignConfig(n=6, trials=1, methods=("hnn-da", "binnn-c-da", "greedy"),
                                solver=replace(CampaignConfig().solver, anneal=schedule))
                 for schedule in (None, AnnealSchedule())]
    got, want = ([(r.cost, r.iterations, r.error) for r in run_campaign(c)] for c in campaigns)
    assert got == want and len(got) == 3


def test_anneal_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(beta=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(steps=0)
    with pytest.raises(ValueError):
        AnnealSchedule(knob="sideways")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(step=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_init=0.5)
    with pytest.raises(ValueError):
        SolverConfig(tol_x=0.0)


@pytest.mark.parametrize("make, kwargs", [
    (SolverConfig, {"step": np.nan}),
    (SolverConfig, {"t_max": np.inf}),
    (SolverConfig, {"t_max": -5.0}),
    (SolverConfig, {"eps_clip": 0.7}),
    (SolverConfig, {"eps_clip": -1e-9}),
    (SolverConfig, {"alpha": 0.0}),
    (SolverConfig, {"alpha": np.nan}),
    (SolverConfig, {"tol_y": np.inf}),
    (SolverConfig, {"sample_stride": -3}),
    (SolverConfig, {"t_max": 1e300, "step": 1e-10}),  # ceil() of an infinite step count overflows
    (SolverConfig, {"anneal": AnnealSchedule(t_d=1e300), "step": 1e-10}),
    (Thermo, {"temp": np.inf}),
    (Thermo, {"floor": np.nan}),
    (AnnealSchedule, {"beta": np.inf}),
    (AnnealSchedule, {"t_d": np.nan}),
], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x}" for k, x in v.items()))
def test_configs_refuse_settings_that_cannot_run(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


@pytest.mark.parametrize("make, name", [(AnnealSchedule, "steps"), (SolverConfig, "sample_stride")])
@pytest.mark.parametrize("value", [2.5, 2.0, "2"])
def test_configs_refuse_a_count_that_is_not_an_integer(make, name, value):
    # a fractional count would die in range() or sample every 2 * stride steps
    with pytest.raises(ValueError, match=name):
        make(**{name: value})
    assert getattr(make(**{name: np.int64(2)}), name) == 2


def test_a_fractional_sample_stride_is_refused_before_it_runs(two_agent):
    with pytest.raises(ValueError, match="sample_stride"):
        run("hnn", two_agent, config=SolverConfig(t_max=0.2, sample_stride=2.5))
    samples = run("hnn", two_agent, config=SolverConfig(t_max=0.2, sample_stride=2, seed=0)).trajectory
    assert len(samples) == 11


def test_short_run_descends_and_stays_interior():
    inst = small_instance(6, seed=17)
    cfg = SolverConfig(thermo=THERMO, step=1e-3, t_max=0.5, seed=2,
                       sample_stride=1, eps_clip=0.0)
    for flow in ("binnn-c", "hnn"):
        result = run(flow, inst, config=cfg)
        energies = [rec[3] for rec in result.trajectory]
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
        for rec in result.trajectory:
            assert np.all(rec[1] > 0.0) and np.all(rec[1] < 1.0)


def test_distributed_run_descends_and_conserves():
    inst = small_instance(6, seed=18)
    graph = named_topology("random", 6, seed=6)
    cfg = SolverConfig(thermo=THERMO, step=1e-3, t_max=0.5, seed=3,
                       sample_stride=1, eps_clip=0.0)
    result = run("binnn-d", inst, graph=graph, config=cfg)
    energies = [rec[3] for rec in result.trajectory]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))
    assert abs(float(result.y_final.sum())) <= 1e-8


def test_terminal_diagnostics_certificate():
    inst = Instance(quad=[-10.0], center=[0.0], passive=[0.0], output=[1.0],
                    penalty=1.0, target=1.0)
    cfg = SolverConfig(thermo=THERMO, step=0.01, seed=4, sample_stride=0)
    result = run("binnn-c", inst, config=cfg)
    diag = terminal_diagnostics(result, inst, tol_x=cfg.tol_x)
    if result.converged:
        assert diag.grad_inf <= 10 * cfg.tol_x
        assert diag.min_hessian_eig > 0.0
        assert diag.local_min_certified
    stopped = run("binnn-c", inst, config=SolverConfig(thermo=THERMO, t_max=0.0))
    assert not terminal_diagnostics(stopped, inst).local_min_certified


def test_terminal_diagnostics_min_eig_matches_eigvalsh(symmetric_instance):
    saddle = symmetric_instance(n=10)
    for inst, seed in ((saddle, 0), (saddle, 1), (small_instance(9, seed=2), 2)):
        cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=3.0, seed=seed, sample_stride=0)
        result = run("binnn-c", inst, config=cfg)
        eigs = np.linalg.eigvalsh(hessian(inst, result.thermo_final, result.x_final))
        got = terminal_diagnostics(result, inst).min_hessian_eig
        assert abs(got - eigs.min()) <= 1e-12 * np.abs(eigs).max()


def test_terminal_diagnostics_distributed_match_independent_assembly():
    inst = small_instance(10, seed=22)
    graphs = (named_topology("path", 10), random_connected_graph(10, 0.3, 23))
    for graph, seed in zip(graphs, (24, 25)):
        cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=3.0, seed=seed, sample_stride=0)
        result = run("binnn-d", inst, graph=graph, config=cfg)
        x, y, thermo = result.x_final, result.y_final, result.thermo_final
        ratio = thermo.temp / thermo.time_const
        ctx = distributed_ctx(inst)
        gx = ctx.grad(x, graph.laplacian @ y, ratio)
        gy = grad_y_tilde(inst, graph, thermo, x, y)
        diag = terminal_diagnostics(result, inst, graph=graph)
        assert diag.grad_inf == float(np.max(np.abs(gx)))
        assert diag.grad_y_inf == float(np.max(np.abs(gy)))
        schur = schur_spectrum(inst, graph, thermo, x)
        assert abs(diag.min_hessian_eig - schur.min()) <= 1e-12 * np.abs(schur).max()


def test_distributed_certificate_is_the_joint_hessian_with_y_eliminated():
    # random interior states: the certificate is the Schur complement's smallest
    # eigenvalue, and has the sign of the joint Hessian's on x + {sum(y) = 0}; the
    # two values differ, so only the signs are compared
    rng = np.random.default_rng(26)
    signs = []
    for k in range(20):
        n = int(rng.integers(2, 21))
        inst = random_instance(n, k, p_ref=30.0 * n, gamma=float(rng.uniform(0.5, 2.0)))
        graph = random_connected_graph(n, 0.3, k)
        cfg = SolverConfig(thermo=THERMO, t_max=0.0, seed=k, sample_stride=0)
        result = run("binnn-d", inst, graph=graph, config=cfg)
        # every other state near the corners, where the barrier's curvature dominates
        x = rng.uniform(0.02, 0.98, n) if k % 2 else rng.uniform(1e-6, 1e-4, n)
        x, y = np.where(rng.random(n) < 0.5, x, 1.0 - x), rng.normal(size=n)
        got = terminal_diagnostics(replace(result, x_final=x, y_final=y - y.mean()), inst,
                                   graph=graph).min_hessian_eig
        schur = schur_spectrum(inst, graph, result.thermo_final, x)
        assert abs(got - schur.min()) <= 1e-12 * np.abs(schur).max()
        a, b, c = joint_hessian(inst, graph, result.thermo_final, x)
        basis = np.linalg.svd(np.ones((1, n)))[2][1:].T  # orthonormal, spans sum(y) = 0
        joint = np.block([[a, b @ basis], [basis.T @ b.T, basis.T @ c @ basis]])
        signs.append(np.sign(np.linalg.eigvalsh(joint).min()))
        assert signs[-1] == np.sign(got)
    assert set(signs) == {-1.0, 1.0}


def test_no_flow_certifies_the_saddle(saddle):
    # every flow stops at the saddle within a few steps; binnn-d's x-block alone,
    # 1 - mu, is positive there, but the certificate sees y follow x
    for flow in dynamics.FLOW_KINDS:
        for mu in (0.3, 0.5, 0.9):
            inst, ring = saddle(mu)
            graph = ring if flow == "binnn-d" else None
            for seed in range(10):
                cfg = SolverConfig(step=0.01, eps_init=1e-6, t_max=50.0, seed=seed)
                result = run(flow, inst, graph=graph, config=cfg)
                diag = terminal_diagnostics(result, inst, graph=graph, tol_x=cfg.tol_x)
                assert result.converged and diag.grad_inf < 10.0 * cfg.tol_x
                assert diag.min_hessian_eig == pytest.approx(-mu, abs=0.1)
                assert not diag.local_min_certified


@pytest.mark.parametrize("alpha, certified", [(1e-9, False), (1.0, True)])
def test_a_distributed_certificate_needs_a_small_y_gradient(two_agent, pair_graph, alpha, certified):
    # a slow y converges, alpha * |grad_y| < tol_y, with its gradient still large
    cfg = SolverConfig(alpha=alpha, t_max=200.0, seed=0, sample_stride=0)
    result = run("binnn-d", two_agent, graph=pair_graph, config=cfg)
    diag = terminal_diagnostics(result, two_agent, graph=pair_graph, tol_x=cfg.tol_x)
    assert result.converged and diag.grad_inf < 10.0 * cfg.tol_x and diag.min_hessian_eig > 0.0
    assert (diag.grad_y_inf < 10.0 * cfg.tol_x) == certified == diag.local_min_certified


def test_terminal_diagnostics_distributed_needs_a_graph():
    inst = small_instance(5, seed=19)
    cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=0.5, seed=5, sample_stride=0)
    result = run("binnn-d", inst, graph=named_topology("ring", 5), config=cfg)
    with pytest.raises(ValueError, match="requires a graph"):
        terminal_diagnostics(result, inst)


# a disconnected graph cannot be built: the Graph refuses it
@pytest.mark.parametrize("graph, error", [
    (named_topology("path", 3), ShapeError),
])
def test_a_distributed_solve_and_its_diagnostics_check_the_graph(two_agent, pair_graph, graph, error):
    cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=0.5, seed=5, sample_stride=0)
    result = run("binnn-d", two_agent, graph=pair_graph, config=cfg)
    with pytest.raises(error):
        run("binnn-d", two_agent, graph=graph, config=cfg)
    with pytest.raises(error):
        terminal_diagnostics(result, two_agent, graph=graph)


def test_terminal_diagnostics_rejects_a_state_on_the_boundary():
    inst = small_instance(5, seed=19)
    cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=0.5, seed=5, sample_stride=0)
    graph = named_topology("ring", 5)
    for flow in ("binnn-c", "binnn-d"):
        result = run(flow, inst, graph=graph if flow == "binnn-d" else None, config=cfg)
        x = result.x_final.copy()
        x[2] = 1.0
        with pytest.raises(DomainError):
            terminal_diagnostics(replace(result, x_final=x), inst, graph=graph)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_failure_carries_state():
    # the overflow on the way is not also reported as a numpy warning
    inst = small_instance(4, seed=20)
    graph = named_topology("complete", 4)
    cfg = SolverConfig(thermo=THERMO, step=1.0, alpha=1e200, t_max=10.0,
                       seed=6, sample_stride=1)
    with pytest.raises(NumericFailureError) as exc:
        run("binnn-d", inst, graph=graph, config=cfg)
    assert exc.value.state is not None


def test_numeric_failure_counts_the_steps_before_it(monkeypatch):
    # explicit Euler on the auxiliary flow is unstable at this gain: the
    # run overflows in its sixth round of 40 steps
    inst = small_instance(6, seed=20)
    cfg = SolverConfig(thermo=THERMO, step=0.05, alpha=30.0, seed=6, sample_stride=0,
                       anneal=AnnealSchedule(beta=1.4, t_d=2.0, steps=10))
    evaluations = []
    kernel = dynamics.flow_rates

    def counted(*args):
        rates = kernel(*args)

        def count(x, y):
            evaluations.append(None)
            return rates(x, y)

        return count

    monkeypatch.setattr(dynamics, "flow_rates", counted)
    with pytest.raises(NumericFailureError) as exc:
        anneal("binnn-d", inst, graph=named_topology("ring", 6), config=cfg)
    # each step evaluates the rates once; the last evaluation is the one
    # that raised
    assert exc.value.iterations == len(evaluations) - 1
    assert exc.value.iterations > 5 * 40


def test_cost_matches_rounded_bits(two_agent):
    from binalloc.instances import eval_p1

    cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=5.0, seed=8,
                       sample_stride=0)
    result = run("binnn-c", two_agent, config=cfg)
    assert result.cost == eval_p1(two_agent, result.bits)


def test_trajectory_csv_format(tmp_path):
    inst = small_instance(3, seed=21)
    graph = named_topology("complete", 3)
    cfg = SolverConfig(thermo=THERMO, step=1e-2, t_max=0.2, seed=9,
                       sample_stride=5)
    result = run("binnn-d", inst, graph=graph, config=cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == (["t"] + [f"x_{i}" for i in range(3)]
                       + [f"y_{i}" for i in range(3)] + ["energy"])
    assert len(rows) == 1 + len(result.trajectory)
    for row in rows[1:]:
        vals = [float(v) for v in row]
        assert len(vals) == 8


def test_trajectory_csv_bytes(two_agent, tmp_path):
    # exact bytes: 12 significant digits, exponents, the y columns only where y is kept
    cfg = SolverConfig(thermo=THERMO, t_max=0.0, sample_stride=0)
    result = run("binnn-c", two_agent, config=cfg)
    x0, x1 = np.array([1e-07, 1.0 / 3.0]), np.array([0.5, 0.999999999999])
    y0, y1 = np.array([-2.0 / 3.0, 0.5]), np.array([1e-07, -1e-07])
    path = tmp_path / "traj.csv"
    write_trajectory_csv(replace(result, trajectory=[(0.0, x0, y0, 12.345678901234),
                                                     (0.05, x1, y1, np.float64(-3.0))]), path)
    assert path.read_bytes() == (
        b"t,x_0,x_1,y_0,y_1,energy\r\n"
        b"0,1e-07,0.333333333333,-0.666666666667,0.5,12.3456789012\r\n"
        b"0.05,0.5,0.999999999999,1e-07,-1e-07,-3\r\n"
    )
    write_trajectory_csv(replace(result, trajectory=[(0.0, x0, None, 12.345678901234),
                                                     (1e-07, x1, None, 2.0 / 3.0)]), path)
    assert path.read_bytes() == (
        b"t,x_0,x_1,energy\r\n"
        b"0,1e-07,0.333333333333,12.3456789012\r\n"
        b"1e-07,0.5,0.999999999999,0.666666666667\r\n"
    )


def test_trajectory_csv_requires_samples(two_agent, tmp_path):
    cfg = SolverConfig(thermo=THERMO, t_max=0.0, sample_stride=0)
    result = run("binnn-c", two_agent, config=cfg)
    with pytest.raises(ValueError):
        write_trajectory_csv(result, tmp_path / "x.csv")


def test_anneal_reports_the_knobs_of_its_last_round(monkeypatch):
    # thermo_final, which the diagnostics read, and the end sample hold the knobs the flow last ran
    ran = []
    kernel = dynamics.flow_rates

    def recorded(flow, instance, graph, thermo, *args):
        ran.append(thermo)
        return kernel(flow, instance, graph, thermo, *args)

    monkeypatch.setattr(dynamics, "flow_rates", recorded)
    inst, graph = small_instance(5, seed=30), named_topology("ring", 5)
    cfg = SolverConfig(thermo=THERMO, step=0.02, seed=3, t_max=0.5, sample_stride=7,
                       anneal=AnnealSchedule(beta=1.4, t_d=0.5, steps=4))
    for flow in dynamics.FLOW_KINDS:
        for solve, rounds in ((anneal, 4), (run, 1)):
            ran.clear()
            result = solve(flow, inst, graph if flow == "binnn-d" else None, cfg)
            assert len(ran) == rounds and result.thermo_final == ran[-1]
            _, x, y, e = result.trajectory[-1]
            assert x.tobytes() == result.x_final.tobytes()
            assert e == (energy(inst, ran[-1], x) if y is None
                         else energy_tilde(inst, graph, ran[-1], x, y))


@pytest.mark.parametrize("stride", [1, 7, 10])
def test_a_trajectory_samples_its_end_state_once(stride):
    # 100 steps a round: the stride's last sample falls on the end time, or does not
    inst = random_instance(6, 0, p_ref=90.0)
    cfg = SolverConfig(seed=0, t_max=1.0, sample_stride=stride, anneal=AnnealSchedule(steps=3))
    for solve in (run, anneal):
        result = solve("hnn", inst, config=cfg)
        times = [t for t, _, _, _ in result.trajectory]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert result.trajectory[-1][1].tobytes() == result.x_final.tobytes()


def _step_by_step(flow, instance, graph, config, solve=anneal, full_horizon=False):
    """``solve``, run() or anneal(), as a plain loop of at most ceil(duration/h) steps per round,
    with the knobs shrunk between rounds, the end state sampled once and a
    non-finite sampled energy failing the solve. A round ends after a step that
    left (x, y) unchanged, if that step is one of ``dynamics._FREEZE_CHECK``'s
    schedule: 1, 2, 4, 8, then every 16th. With ``full_horizon`` every round
    takes all its steps instead, and no freeze ends it."""
    state, thermo = dynamics._prepare(flow, instance, graph, config)
    stride, sched = config.sample_stride, config.anneal if solve is anneal else None
    samples, round_ends, iterations = [], [], 0

    def sample(s, done):
        if stride > 0:
            e = (energy(instance, thermo, s.x) if s.y is None
                 else energy_tilde(instance, graph, thermo, s.x, s.y))
            if not math.isfinite(e):
                raise NumericFailureError("non-finite energy", state=s, trajectory=samples,
                                          iterations=done)
            samples.append((s.t, s.x, s.y, e))

    # a diverging run overflows on its way to the non-finite rate or energy that raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sample(state, 0)
        for k in range(sched.steps if sched else 1):
            if k:
                thermo = Thermo(thermo.temp, thermo.time_const * sched.beta, thermo.floor)
            duration = sched.t_d if sched else config.t_max
            rates = flow_rates(flow, instance, graph, thermo, config.alpha)
            steps = 0  # the sample stride counts the steps of a round
            while steps < math.ceil(duration / config.step - 1e-9):
                xdot, ydot, g = rates(state.x, state.y)
                y_rate = 0.0 if ydot is None else np.abs(ydot).max()
                if not np.isfinite([np.abs(xdot).max(), y_rate]).all():
                    raise NumericFailureError("non-finite flow rate", state=state,
                                              trajectory=samples, iterations=iterations + steps)
                if (np.abs(xdot).max() < config.tol_x and y_rate < config.tol_y
                        and np.abs(g).max() < 10.0 * config.tol_x):
                    break
                before, state = state, advance(state, xdot, ydot, config.step, config.eps_clip)
                steps += 1
                if stride > 0 and steps % stride == 0:
                    sample(state, iterations + steps)
                checked = steps % dynamics._FREEZE_CHECK == 0 or steps in (1, 2, 4, 8)
                if not full_horizon and checked and (
                        (_bytes(before.x), _bytes(before.y)) == (_bytes(state.x), _bytes(state.y))):
                    break
            iterations += steps
            round_ends.append(state.x)
        if not samples or samples[-1][0] != state.t:
            sample(state, iterations)
    return state, iterations, samples, round_ends, thermo


def _bytes(v):
    return None if v is None else v.tobytes()


def _assert_same_as_step_by_step(flow, instance, graph, config, solve=anneal):
    result = solve(flow, instance, graph, config)
    state, iterations, samples, round_ends, thermo = _step_by_step(
        flow, instance, graph, config, solve)
    assert result.x_final.tobytes() == state.x.tobytes()
    assert _bytes(result.y_final) == _bytes(state.y)
    assert result.iterations == iterations
    assert result.thermo_final == thermo
    assert [x.tobytes() for x in result.round_ends] == [x.tobytes() for x in round_ends]
    _assert_same_samples(result.trajectory, samples)
    # stored states are read-only, so a caller cannot write into a result's history
    stored = [v for _, x, y, _ in result.trajectory for v in (x, y) if v is not None]
    assert not any(v.flags.writeable for v in stored + list(result.round_ends))
    if stored:
        with pytest.raises(ValueError):
            stored[-1][0] = 0.5
    return result


def _assert_same_samples(trajectory, samples):
    assert len(trajectory) == len(samples)
    for (t, x, y, e), (t_ref, x_ref, y_ref, e_ref) in zip(trajectory, samples):
        assert (t, x.tobytes(), _bytes(y), e) == (t_ref, x_ref.tobytes(), _bytes(y_ref), e_ref)


CAMPAIGN_SOLVER = SolverConfig(
    thermo=THERMO, step=0.02, t_max=60.0, sample_stride=0, seed=4,
    anneal=AnnealSchedule(beta=1.4, t_d=2.0, steps=10),
)


@pytest.mark.parametrize("stride", [0, 7])
def test_frozen_hnn_run_is_fast_forwarded_exactly(rate_calls, stride):
    # the campaign defaults: the first step clips every coordinate, and the check
    # after step 2 finds that it left the state unchanged: the run ends there
    inst = random_instance(20, 3, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, sample_stride=stride)
    result = _assert_same_as_step_by_step("hnn", inst, None, cfg, run)
    assert result.iterations == rate_calls[0] == 2


def test_hnn_anneal_frozen_after_step_1_is_caught_by_step_2(rate_calls):
    # the campaign defaults again: the first step clips every coordinate, the
    # second repeats it, and every later round starts at that corner
    inst = random_instance(20, 3, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, sample_stride=3)
    result = _assert_same_as_step_by_step("hnn", inst, None, cfg)
    assert result.iterations == rate_calls[0] == 2 + 9 * 1


@pytest.mark.parametrize("stride", [10, 0])
def test_frozen_hnn_anneal_keeps_trajectory_and_time(rate_calls, stride):
    # so cold that every coordinate runs into the clip
    inst = random_instance(20, 5, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, thermo=Thermo(1e-6, 0.1, 0.1), sample_stride=stride)
    result = _assert_same_as_step_by_step("hnn", inst, None, cfg)
    assert result.iterations == rate_calls[0] == 2 + 9 * 1  # every round ends once it froze
    # every round ends at the corner
    assert len(result.round_ends) == 10
    assert len({end.tobytes() for end in result.round_ends}) == 1
    if stride:
        # the start and the corner, at the time of the steps computed
        (t0, x0, _, _), (t1, x1, _, _) = result.trajectory
        assert (t0, t1) == (0.0, pytest.approx(result.iterations * cfg.step))
        assert x0.tobytes() != x1.tobytes() == result.round_ends[0].tobytes()
    else:
        assert result.trajectory == []


def test_fast_forward_needs_y_frozen_too():
    # at a low temperature x clips to the cube while the consensus y still moves
    inst = random_instance(8, 1, p_ref=600.0)
    graph = random_connected_graph(8, 0.2, 1)
    cfg = replace(CAMPAIGN_SOLVER, thermo=Thermo(0.01, 0.1, 0.1), alpha=1e-3,
                  t_max=5.0, sample_stride=1)
    result = _assert_same_as_step_by_step("binnn-d", inst, graph, cfg, run)
    pairs = list(zip(result.trajectory[1:-1], result.trajectory[2:-1]))
    assert sum(a[1].tobytes() == b[1].tobytes() for a, b in pairs) > 200
    assert all(a[2].tobytes() != b[2].tobytes() for a, b in pairs)


def test_binnn_d_anneal_on_edge_lists_equals_step_by_step():
    graph = named_topology("ring", 100)
    assert graph.arcs is not None  # the O(n + |E|) Laplacian
    inst = random_instance(100, 6, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, sample_stride=7, anneal=AnnealSchedule(beta=1.4, t_d=1.0, steps=4))
    result = _assert_same_as_step_by_step("binnn-d", inst, graph, cfg)
    assert len(result.trajectory) > 10 and not result.converged


def test_diverging_binnn_d_fails_as_step_by_step():
    # as in test_numeric_failure_counts_the_steps_before_it, sampled: a sampled
    # energy overflows in the third round, before the flow rate does in the sixth
    inst, graph = small_instance(6, seed=20), named_topology("ring", 6)
    cfg = SolverConfig(thermo=THERMO, step=0.05, alpha=30.0, seed=6, sample_stride=3,
                       anneal=AnnealSchedule(beta=1.4, t_d=2.0, steps=10))
    with pytest.raises(NumericFailureError) as got:
        anneal("binnn-d", inst, graph=graph, config=cfg)
    with pytest.raises(NumericFailureError) as want:
        _step_by_step("binnn-d", inst, graph, cfg)
    got, want = got.value, want.value
    assert str(got) == str(want) == "non-finite energy"
    assert got.iterations == want.iterations > 2 * 40
    assert (got.state.t, _bytes(got.state.x), _bytes(got.state.y)) == (
        want.state.t, _bytes(want.state.x), _bytes(want.state.y))
    assert len(got.trajectory) > 30
    _assert_same_samples(got.trajectory, want.trajectory)


def test_a_non_finite_sampled_energy_fails_the_solve():
    # binnn-d diverges at the campaign knobs: this anneal returned max|y| 3.7e225
    # as a normal result, with 46 of its 142 sampled energies inf, and its end
    # sample's overflow warning escaped the solve
    inst, graph = random_instance(20, 35), random_connected_graph(20, seed=5)
    cfg = replace(CampaignConfig().solver, seed=5, sample_stride=7)
    with pytest.raises(NumericFailureError, match="^non-finite energy$") as exc:
        anneal("binnn-d", inst, graph, cfg)
    assert exc.value.state is not None and exc.value.iterations > 0
    assert all(math.isfinite(e) for _, _, _, e in exc.value.trajectory)


def test_moving_binnn_c_is_computed_step_by_step(rate_calls):
    inst = random_instance(10, 2, p_ref=300.0)
    cfg = replace(CAMPAIGN_SOLVER, step=0.01, sample_stride=7,
                  anneal=AnnealSchedule(beta=1.4, t_d=1.0, steps=3))
    result = _assert_same_as_step_by_step("binnn-c", inst, None, cfg)
    assert rate_calls[0] == result.iterations


@pytest.mark.parametrize("flow", ["binnn-d", "hnn"])
def test_a_sampled_anneal_builds_one_energy_context(flow, monkeypatch):
    # every round and every trajectory sample of a solve reads the same context
    inst = random_instance(20, 7, p_ref=1500.0)
    graph = named_topology("ring", 20) if flow == "binnn-d" else None
    cfg = replace(CAMPAIGN_SOLVER, sample_stride=5)
    builds = []
    for name in ("centralized_ctx", "distributed_ctx"):
        build = getattr(en, name)

        def counted(instance, build=build, name=name):
            builds.append(name)
            return build(instance)

        monkeypatch.setattr(en, name, counted)
    result = anneal(flow, inst, graph, cfg)
    assert len(result.round_ends) == 10 and len(result.trajectory) >= 2
    assert builds == ["distributed_ctx" if flow == "binnn-d" else "centralized_ctx"]


def _clipped_x_moving_y_binnn_d(schedule=AnnealSchedule()):
    """binnn-d at a low temperature: x clips to the cube while the consensus y still moves."""
    cfg = replace(CAMPAIGN_SOLVER, thermo=Thermo(0.01, 0.1, 0.1), alpha=1e-3, t_max=5.0,
                  sample_stride=1, anneal=schedule)
    return "binnn-d", random_instance(8, 1, p_ref=600.0), random_connected_graph(8, 0.2, 1), cfg


@pytest.mark.parametrize("solve", [run, anneal])
def test_iterations_count_the_rate_evaluations(rate_calls, solve):
    # a frozen hnn, a moving binnn-c and a binnn-d whose y moves on; each config
    # runs for t_max, or anneals in rounds
    short = AnnealSchedule(beta=1.4, t_d=1.0, steps=3)
    cases = [
        ("hnn", random_instance(20, 3, p_ref=1500.0), None, replace(CAMPAIGN_SOLVER, sample_stride=7)),
        ("binnn-c", random_instance(10, 2, p_ref=300.0), None,
         replace(CAMPAIGN_SOLVER, step=0.01, t_max=1.0, sample_stride=7, anneal=short)),
        _clipped_x_moving_y_binnn_d(short),
    ]
    for flow, inst, graph, cfg in cases:
        rate_calls[0] = 0
        result = solve(flow, inst, graph, cfg)
        assert result.iterations == rate_calls[0], flow


def test_ending_a_frozen_round_keeps_the_full_horizons_solution():
    # the steps that a frozen round does not take would not have moved it
    cases = [
        (run, "hnn", random_instance(20, 3, p_ref=1500.0), None,
         replace(CAMPAIGN_SOLVER, sample_stride=7)),
        (anneal, "hnn", random_instance(20, 5, p_ref=1500.0), None,
         replace(CAMPAIGN_SOLVER, thermo=Thermo(1e-6, 0.1, 0.1), sample_stride=10)),
        (run, *_clipped_x_moving_y_binnn_d()),
    ]
    for solve, flow, inst, graph, cfg in cases:
        result = solve(flow, inst, graph, cfg)
        state, iterations, _, round_ends, thermo = _step_by_step(flow, inst, graph, cfg, solve,
                                                                 full_horizon=True)
        # the hnn rounds froze and ended early; binnn-d's y never stops moving
        assert (result.iterations < iterations) == (flow == "hnn")
        assert result.x_final.tobytes() == state.x.tobytes()
        assert _bytes(result.y_final) == _bytes(state.y)
        assert result.bits.tobytes() == round_to_binary(state.x).tobytes()
        assert result.thermo_final == thermo
        assert [x.tobytes() for x in result.round_ends] == [x.tobytes() for x in round_ends]
