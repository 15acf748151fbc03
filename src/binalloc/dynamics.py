"""Time integration of the neural-network flows and the annealing schedule.

Three flows are provided: a Newton-like centralized flow that premultiplies
the classic Hopfield direction by a truncated-inverse Hessian ("binnn-c"),
the classic gradient-like Hopfield flow ("hnn"), and a distributed flow
over a communication graph with an auxiliary consensus variable ("binnn-d").
All are integrated with fixed-step explicit Euler.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import energy as en
from .errors import ConnectivityError, NumericFailureError, ShapeError
from .graphs import is_connected
from .instances import eval_p1, round_to_binary

FLOW_KINDS = ("binnn-c", "hnn", "binnn-d")
_JITTER = 1e-3  # relative width of the multiplicative jitter on a run's knobs
_FREEZE_CHECK = 16  # steps between tests for a state that no longer moves, after steps 1, 2, 4, 8


@dataclass(frozen=True)
class FlowState:
    """Trajectory point: decision vector, optional auxiliary vector, time."""

    x: np.ndarray
    y: np.ndarray | None
    t: float


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric schedule on the barrier knobs, one update per learning round.

    knob "tau-up" multiplies the time constant by beta each round;
    "T-down" divides the temperature by beta. Either way the barrier weight
    shrinks and energy minima migrate toward the hypercube corners.
    """

    beta: float = 1.4
    t_d: float = 1.0
    steps: int = 10
    knob: str = "tau-up"

    def __post_init__(self):
        if self.beta <= 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        if self.t_d <= 0 or self.steps < 1:
            raise ValueError("t_d must be > 0 and steps >= 1")
        if self.knob not in ("tau-up", "T-down"):
            raise ValueError(f"unknown knob {self.knob!r}")

    def shrink(self, thermo):
        """The knobs after one round."""
        if self.knob == "tau-up":
            return replace(thermo, time_const=thermo.time_const * self.beta)
        return replace(thermo, temp=thermo.temp / self.beta)


@dataclass(frozen=True)
class SolverConfig:
    thermo: en.Thermo = field(default_factory=en.Thermo)
    alpha: float = 1.0
    step: float = 1e-2
    eps_init: float = 0.05
    eps_clip: float = 1e-9
    tol_x: float = 1e-6
    tol_y: float = 1e-6
    t_max: float = 1000.0
    anneal: AnnealSchedule | None = None
    seed: int | None = None
    sample_stride: int = 10  # trajectory sample every this many steps; 0 disables

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.tol_x <= 0 or self.tol_y <= 0:
            raise ValueError("tolerances must be > 0")
        if not 0 < self.eps_init < 0.5:
            raise ValueError("eps_init must be in (0, 0.5)")


@dataclass(frozen=True)
class RunResult:
    x_final: np.ndarray
    y_final: np.ndarray | None
    bits: np.ndarray
    cost: float
    trajectory: list
    iterations: int
    wall_time: float
    converged: bool
    thermo_final: en.Thermo
    round_ends: tuple  # x at the end of each round; run() is one round


@dataclass(frozen=True)
class Diagnostics:
    grad_inf: float
    grad_y_inf: float | None
    min_hessian_eig: float
    local_min_certified: bool


def init_state(n, eps_init=0.05, seed=None, mode="centralized"):
    """Uniform start in the ball of radius eps_init around the cube center.

    Samples the ball directly (unit direction times a radius with the
    correct density); the distributed mode starts the auxiliary variable at
    zero so its conserved sum is zero.
    """
    if not 0 < eps_init < 0.5:
        raise ValueError("eps_init must be in (0, 0.5)")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    radius = eps_init * rng.random() ** (1.0 / n)
    x = 0.5 + radius * direction
    y = np.zeros(n) if mode == "distributed" else None
    return FlowState(x=x, y=y, t=0.0)


def flow_rates(flow, instance, graph, thermo, alpha):
    """The flow's vector field at fixed knobs, built once per integration round.

    Returns ``rates(x, y) -> (xdot, ydot, grad)``: the decision velocity,
    the auxiliary velocity (None off binnn-d) and the energy gradient that
    the decision velocity descends.
    """
    ratio = thermo.temp / thermo.time_const
    if flow == "binnn-d":
        ctx = en.distributed_ctx(instance)
        y_gain = -alpha * instance.penalty

        def rates(x, y):
            lap_y = graph.apply_laplacian(y)
            gap = x - x * x
            grad = ctx.grad(x, lap_y, ratio)
            inverse = en.pt_inverse_scalar(ctx.hessian_diag(ratio / gap), thermo.floor)
            xdot = inverse * (gap / thermo.temp) * -grad
            ydot = y_gain * graph.apply_laplacian(instance.output * x + lap_y)
            return xdot, ydot, grad

        return rates
    ctx = en.centralized_ctx(instance)
    newton = flow == "binnn-c"

    def rates(x, y):
        gap = x - x * x
        grad = ctx.grad(x, ratio)
        xdot = gap * -grad / thermo.temp
        if newton:
            xdot = ctx.pt_solve(ratio / gap, xdot, thermo.floor)
        return xdot, None, grad

    return rates


def _step(rates, x, y, config):
    """One step of the integrator, in place: the rates at (x, y), the stop test,
    then x <- min(max(x + h*xdot, eps_clip), 1 - eps_clip) and y <- y + h*ydot
    (h*xdot and h*ydot overwrite the rates' arrays). Returns why the flow stops
    ("non-finite flow rate" or "converged") without moving, or None once it moved."""
    xdot, ydot, grad = rates(x, y)
    x_rate = float(np.abs(xdot).max())
    y_rate = 0.0 if ydot is None else float(np.abs(ydot).max())
    if not (math.isfinite(x_rate) and math.isfinite(y_rate)):
        return "non-finite flow rate"
    if x_rate < config.tol_x and y_rate < config.tol_y and float(np.abs(grad).max()) < 10.0 * config.tol_x:
        return "converged"
    np.add(x, np.multiply(xdot, config.step, out=xdot), out=x)
    np.minimum(np.maximum(x, config.eps_clip, out=x), 1.0 - config.eps_clip, out=x)  # np.clip, less overhead
    if y is not None:
        np.add(y, np.multiply(ydot, config.step, out=ydot), out=y)
    return None


def agent_rates(state, instance, graph, thermo, alpha, agent):
    """Rates of a single agent computed from neighborhood data only.

    The decision update reads the agent's own data plus one-hop auxiliary
    values; the auxiliary update reads one- and two-hop data. Used to verify
    that the vectorized flow is implementable with local communication.
    """
    i = int(agent)
    x, y = state.x, state.y
    ratio = thermo.temp / thermo.time_const
    nbrs = graph.neighbors[i]

    def lap_row(j, vec):
        return len(graph.neighbors[j]) * vec[j] - sum(
            vec[k] for k in graph.neighbors[j]
        )

    bias_i = instance.quad[i] * instance.center[i] + instance.penalty * instance.output[
        i
    ] * (instance.target / instance.n - lap_row(i, y))
    wdiag_i = -(instance.quad[i] + instance.penalty * instance.output[i] ** 2)
    grad_i = -wdiag_i * x[i] - bias_i - ratio * np.log(1.0 / x[i] - 1.0)
    hess_i = -wdiag_i + ratio / (x[i] - x[i] ** 2)
    xdot_i = (
        float(en.pt_inverse_scalar(hess_i, thermo.floor))
        * (x[i] - x[i] ** 2)
        / thermo.temp
        * -grad_i
    )

    def resid(j):  # p_j x_j + (L y)_j, one hop from j
        return instance.output[j] * x[j] + lap_row(j, y)

    ydot_i = -alpha * instance.penalty * (
        len(nbrs) * resid(i) - sum(resid(j) for j in nbrs)
    )
    return float(xdot_i), float(ydot_i)


def _jittered(thermo, rng):
    return en.Thermo(
        temp=thermo.temp * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER),
        time_const=thermo.time_const * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER),
        floor=thermo.floor,
    )


def _sample(samples, instance, graph, thermo, state, e=None):
    """Append a trajectory point; ``e``, when given, is the state's known energy."""
    if e is None and state.y is None:
        e = en.energy(instance, thermo, state.x)
    elif e is None:
        e = en.energy_tilde(instance, graph, thermo, state.x, state.y)
    samples.append((state.t, state.x.copy(), None if state.y is None else state.y.copy(), e))
    return e


def _integrate(flow, instance, graph, state, thermo, config, t_limit, samples, steps_before=0):
    """Advance until the flow stalls or the time limit is hit (a failure also
    counts ``steps_before``, an anneal's earlier rounds).

    Convergence requires both a small velocity and a small energy gradient,
    so terminal points certify as near-critical (the velocity alone can be
    small near corners where the activation slope vanishes).

    The round steps its own copy of (x, y) in place. The rates read (x, y)
    alone, so once a step leaves them bit-for-bit unchanged (tested after
    steps 1, 2, 4 and 8, then every 16) every later step of the round repeats
    it: those steps are counted, and t and the samples taken, without
    computing them. The result is the step-by-step loop's, exactly.
    """
    rates = flow_rates(flow, instance, graph, thermo, config.alpha)
    h, stride = config.step, config.sample_stride
    x, y, t = state.x.copy(), None if state.y is None else state.y.copy(), state.t
    iterations, stop = 0, None
    # a diverging run overflows on its way to the non-finite rate that raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t < t_limit - 1e-12:
            check = (iterations + 1) % _FREEZE_CHECK == 0 or iterations + 1 in (1, 2, 4, 8)
            if check:
                before = x.tobytes(), None if y is None else y.tobytes()
            stop = _step(rates, x, y, config)
            if stop:
                break
            t += h
            iterations += 1
            if stride > 0 and iterations % stride == 0:
                _sample(samples, instance, graph, thermo, FlowState(x, y, t))
            if check and before == (x.tobytes(), None if y is None else y.tobytes()):
                e = None
                while t < t_limit - 1e-12:
                    t += h
                    iterations += 1
                    if stride > 0 and iterations % stride == 0:
                        e = _sample(samples, instance, graph, thermo, FlowState(x, y, t), e)
    state = FlowState(x, y, t)
    if stop == "non-finite flow rate":
        raise NumericFailureError(stop, state=state, trajectory=samples,
                                  iterations=steps_before + iterations)
    return state, stop == "converged", iterations


def _prepare(flow, instance, graph, config):
    if flow not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {flow!r}")
    if flow == "binnn-d":
        if graph is None:
            raise ValueError("the distributed flow requires a graph")
        if graph.n != instance.n:
            raise ShapeError("graph and instance sizes differ")
        if not is_connected(graph):
            raise ConnectivityError("the distributed flow requires a connected graph")
    seed = config.seed
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    init_seed, jitter_seed = ss.spawn(2)
    state = init_state(
        instance.n,
        config.eps_init,
        seed=init_seed,
        mode="distributed" if flow == "binnn-d" else "centralized",
    )
    thermo = _jittered(config.thermo, np.random.default_rng(jitter_seed))
    return state, thermo


def _solve(flow, instance, graph, config, rounds, duration, shrink):
    """Integrate ``rounds`` rounds of ``duration`` simulated time each, applying
    ``shrink`` to the knobs after every round. The state carries over."""
    state, thermo = _prepare(flow, instance, graph, config)
    samples = []
    if config.sample_stride > 0:
        _sample(samples, instance, graph, thermo, state)
    round_ends = []
    iterations = 0
    converged = False
    start = time.perf_counter()
    for _ in range(rounds):
        state, converged, its = _integrate(
            flow, instance, graph, state, thermo, config, state.t + duration, samples, iterations
        )
        iterations += its
        round_ends.append(state.x.copy())
        thermo = shrink(thermo)
    wall = time.perf_counter() - start
    if config.sample_stride > 0:
        _sample(samples, instance, graph, thermo, state)
    bits = round_to_binary(state.x)
    return RunResult(
        x_final=state.x,
        y_final=state.y,
        bits=bits,
        cost=eval_p1(instance, bits),
        trajectory=samples,
        iterations=iterations,
        wall_time=wall,
        converged=converged,
        thermo_final=thermo,
        round_ends=tuple(round_ends),
    )


def run(flow, instance, graph=None, config=None):
    """Integrate one flow from a random interior start until it stalls: one
    round of ``config.t_max`` at fixed knobs."""
    config = config or SolverConfig()
    return _solve(flow, instance, graph, config, 1, config.t_max, lambda thermo: thermo)


def anneal(flow, instance, graph=None, config=None):
    """Run the flow in learning rounds, shrinking the barrier knobs each round.

    The state carries over between rounds; each round integrates for the
    schedule's duration (early exit when the flow stalls), then the
    configured knob is applied.
    """
    config = config or SolverConfig()
    sched = config.anneal
    if sched is None:
        raise ValueError("anneal requires config.anneal to be set")
    return _solve(flow, instance, graph, config, sched.steps, sched.t_d, sched.shrink)


def terminal_diagnostics(result, instance, graph=None, thermo=None, tol_x=1e-6):
    """Gradient norm and Hessian spectrum at the terminal point.

    The gradients come from the rates kernel ("hnn" for a centralized
    result). Certifies a local minimum when the run converged with a small
    gradient and a positive-definite Hessian of the relevant energy.
    """
    thermo = thermo or result.thermo_final
    x, y = en._interior(result.x_final, instance.n), result.y_final
    curvature = thermo.temp / thermo.time_const / (x - x**2)
    if y is None:
        _, _, g = flow_rates("hnn", instance, None, thermo, 1.0)(x, None)
        min_eig = en.centralized_ctx(instance).min_hessian_eig(curvature)
        grad_y_inf = None
    else:
        if graph is None:
            raise ValueError("the distributed flow requires a graph")
        # with alpha = 1 the auxiliary velocity is exactly minus the y-gradient
        _, ydot, g = flow_rates("binnn-d", instance, graph, thermo, 1.0)(x, y)
        grad_y_inf = float(np.max(np.abs(ydot)))
        min_eig = float(en.distributed_ctx(instance).hessian_diag(curvature).min())
    grad_inf = float(np.max(np.abs(g)))
    certified = bool(result.converged and grad_inf < 10.0 * tol_x and min_eig > 0.0)
    return Diagnostics(
        grad_inf=grad_inf,
        grad_y_inf=grad_y_inf,
        min_hessian_eig=min_eig,
        local_min_certified=certified,
    )


def write_trajectory_csv(result, path):
    """Columns: t, x_0..x_{n-1} [, y_0..y_{n-1}], energy; one row per sample."""
    if not result.trajectory:
        raise ValueError("result has no trajectory samples")
    n = len(result.trajectory[0][1])
    has_y = result.trajectory[0][2] is not None
    header = ["t"] + [f"x_{i}" for i in range(n)]
    if has_y:
        header += [f"y_{i}" for i in range(n)]
    header.append("energy")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, x, y, e in result.trajectory:
            row = [f"{t:.12g}"] + [f"{v:.12g}" for v in x]
            if has_y:
                row += [f"{v:.12g}" for v in y]
            row.append(f"{e:.12g}")
            writer.writerow(row)
