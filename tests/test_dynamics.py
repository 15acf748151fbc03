import csv
from dataclasses import replace

import numpy as np
import pytest

from binalloc import AnnealSchedule, SolverConfig, Thermo, anneal, dynamics, run
from binalloc import energy as en
from binalloc.dynamics import (
    FlowState,
    agent_rates,
    flow_rates,
    init_state,
    terminal_diagnostics,
    write_trajectory_csv,
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
from binalloc.errors import ConnectivityError, DomainError, NumericFailureError
from binalloc.graphs import build_graph, named_topology, random_connected_graph, y_star
from binalloc.instances import Instance, random_instance

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
    d = init_state(5, seed=0, mode="distributed")
    assert d.y is not None and d.y.sum() == 0.0
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
    # the same small instance through the secular solve and through dense eigh
    n = 12
    inst = small_instance(n, seed=5)
    x = interior_state(n, 5).x
    assert n < en._SECULAR_MIN_N
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
    h = 1e-3
    for seed in range(5):
        state = interior_state(7, 20 + seed, with_y=True)
        nxt = euler_step("binnn-d", state, inst, THERMO, h=h, graph=graph)
        got_x = (nxt.x - state.x) / h
        got_y = (nxt.y - state.y) / h
        ctx = distributed_ctx(inst)
        ratio = THERMO.temp / THERMO.time_const
        hd = ctx.hessian_diag(ratio / (state.x - state.x**2))
        gx = ctx.grad(state.x, graph.laplacian @ state.y, ratio)
        ref_x = pt_inverse_scalar(hd, THERMO.floor) * (
            (state.x - state.x**2) / THERMO.temp
        ) * -gx
        ref_y = -grad_y_tilde(inst, graph, THERMO, state.x, state.y)
        assert np.max(np.abs(got_x - ref_x)) <= 1e-12 * (1 + np.max(np.abs(ref_x)))
        assert np.max(np.abs(got_y - ref_y)) <= 1e-12 * (1 + np.max(np.abs(ref_y)))


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


def test_run_rejects_bad_flow_and_missing_graph(two_agent):
    with pytest.raises(ValueError):
        run("sgd", two_agent)
    with pytest.raises(ValueError):
        run("binnn-d", two_agent, graph=None)
    with pytest.raises(ConnectivityError):
        run("binnn-d", two_agent, graph=build_graph(2, []))


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


def test_anneal_requires_schedule(two_agent):
    with pytest.raises(ValueError):
        anneal("binnn-c", two_agent, config=SolverConfig(thermo=THERMO))


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
        assert diag.min_hessian_eig == float(ctx.hessian_diag(ratio / (x - x * x)).min())


def test_terminal_diagnostics_distributed_needs_a_graph():
    inst = small_instance(5, seed=19)
    cfg = SolverConfig(thermo=THERMO, step=0.02, t_max=0.5, seed=5, sample_stride=0)
    result = run("binnn-d", inst, graph=named_topology("ring", 5), config=cfg)
    with pytest.raises(ValueError, match="requires a graph"):
        terminal_diagnostics(result, inst)


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


def test_trajectory_csv_requires_samples(two_agent, tmp_path):
    cfg = SolverConfig(thermo=THERMO, t_max=0.0, sample_stride=0)
    result = run("binnn-c", two_agent, config=cfg)
    with pytest.raises(ValueError):
        write_trajectory_csv(result, tmp_path / "x.csv")


def _step_by_step(flow, instance, graph, config):
    """run()/anneal() as a plain loop that computes every step."""
    state, thermo = dynamics._prepare(flow, instance, graph, config)
    stride, sched = config.sample_stride, config.anneal
    samples, round_ends, iterations = [], [], 0

    def sample(s):
        if stride > 0:
            e = (energy(instance, thermo, s.x) if s.y is None
                 else energy_tilde(instance, graph, thermo, s.x, s.y))
            samples.append((s.t, s.x, s.y, e))

    sample(state)
    # a diverging run overflows on its way to the non-finite rate that raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(sched.steps if sched else 1):
            t_limit = state.t + sched.t_d if sched else config.t_max
            rates = flow_rates(flow, instance, graph, thermo, config.alpha)
            steps = 0  # the sample stride counts the steps of a round
            while state.t < t_limit - 1e-12:
                xdot, ydot, g = rates(state.x, state.y)
                y_rate = 0.0 if ydot is None else np.abs(ydot).max()
                if not np.isfinite([np.abs(xdot).max(), y_rate]).all():
                    raise NumericFailureError("non-finite flow rate", state=state,
                                              trajectory=samples, iterations=iterations + steps)
                if (np.abs(xdot).max() < config.tol_x and y_rate < config.tol_y
                        and np.abs(g).max() < 10.0 * config.tol_x):
                    break
                state = advance(state, xdot, ydot, config.step, config.eps_clip)
                steps += 1
                if stride > 0 and steps % stride == 0:
                    sample(state)
            iterations += steps
            round_ends.append(state.x)
            if sched:
                thermo = Thermo(thermo.temp, thermo.time_const * sched.beta, thermo.floor)
    sample(state)
    return state, iterations, samples, round_ends, thermo


def _bytes(v):
    return None if v is None else v.tobytes()


def _assert_same_as_step_by_step(flow, instance, graph, config):
    result = (anneal if config.anneal else run)(flow, instance, graph, config)
    state, iterations, samples, round_ends, thermo = _step_by_step(
        flow, instance, graph, config)
    assert result.x_final.tobytes() == state.x.tobytes()
    assert _bytes(result.y_final) == _bytes(state.y)
    assert result.iterations == iterations
    assert result.thermo_final == thermo
    assert [x.tobytes() for x in result.round_ends] == [x.tobytes() for x in round_ends]
    _assert_same_samples(result.trajectory, samples)
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
    # the campaign defaults: the first step clips every coordinate
    inst = random_instance(20, 3, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, anneal=None, sample_stride=stride)
    result = _assert_same_as_step_by_step("hnn", inst, None, cfg)
    assert result.iterations == 3000
    assert rate_calls[0] == 2  # frozen after step 1, found by the check after step 2


def test_hnn_anneal_frozen_after_step_1_is_caught_by_step_2(rate_calls):
    # the campaign defaults again: the first step clips every coordinate, the
    # second repeats it, and every later round starts at that corner
    inst = random_instance(20, 3, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, sample_stride=3)
    result = _assert_same_as_step_by_step("hnn", inst, None, cfg)
    assert result.iterations == 10 * 100
    assert rate_calls[0] == 2 + 9 * 1


def test_frozen_hnn_anneal_keeps_trajectory_and_time(rate_calls):
    # so cold that every coordinate runs into the clip
    inst = random_instance(20, 5, p_ref=1500.0)
    cfg = replace(CAMPAIGN_SOLVER, thermo=Thermo(1e-6, 0.1, 0.1), sample_stride=10)
    result = _assert_same_as_step_by_step("hnn", inst, None, cfg)
    assert len(result.trajectory) == 1 + result.iterations // 10 + 1
    assert rate_calls[0] < result.iterations  # it froze, and was fast-forwarded


def test_fast_forward_needs_y_frozen_too():
    # at a low temperature x clips to the cube while the consensus y still moves
    inst = random_instance(8, 1, p_ref=600.0)
    graph = random_connected_graph(8, 0.2, 1)
    cfg = replace(CAMPAIGN_SOLVER, thermo=Thermo(0.01, 0.1, 0.1), alpha=1e-3,
                  t_max=5.0, sample_stride=1, anneal=None)
    result = _assert_same_as_step_by_step("binnn-d", inst, graph, cfg)
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
    # as in test_numeric_failure_counts_the_steps_before_it, sampled
    inst, graph = small_instance(6, seed=20), named_topology("ring", 6)
    cfg = SolverConfig(thermo=THERMO, step=0.05, alpha=30.0, seed=6, sample_stride=3,
                       anneal=AnnealSchedule(beta=1.4, t_d=2.0, steps=10))
    with pytest.raises(NumericFailureError) as got:
        anneal("binnn-d", inst, graph=graph, config=cfg)
    with pytest.raises(NumericFailureError) as want:
        _step_by_step("binnn-d", inst, graph, cfg)
    got, want = got.value, want.value
    assert got.iterations == want.iterations > 5 * 40
    assert (got.state.t, _bytes(got.state.x), _bytes(got.state.y)) == (
        want.state.t, _bytes(want.state.x), _bytes(want.state.y))
    assert len(got.trajectory) > 60
    _assert_same_samples(got.trajectory, want.trajectory)


def test_moving_binnn_c_is_computed_step_by_step(rate_calls):
    inst = random_instance(10, 2, p_ref=300.0)
    cfg = replace(CAMPAIGN_SOLVER, step=0.01, sample_stride=7,
                  anneal=AnnealSchedule(beta=1.4, t_d=1.0, steps=3))
    result = _assert_same_as_step_by_step("binnn-c", inst, None, cfg)
    assert rate_calls[0] == result.iterations
