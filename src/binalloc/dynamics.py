"""Time integration of the neural-network flows and the annealing schedule.

Three flows are provided: a Newton-like centralized flow that premultiplies
the classic Hopfield direction by a truncated-inverse Hessian ("binnn-c"),
the classic gradient-like Hopfield flow ("hnn"), and a distributed flow
over a communication graph with an auxiliary consensus variable ("binnn-d").
All are integrated with fixed-step explicit Euler (optionally midpoint).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import energy as en
from .errors import ConnectivityError, DomainError, NumericFailureError, ShapeError
from .graphs import is_connected
from .instances import eval_p1, round_to_binary

FLOW_KINDS = ("binnn-c", "hnn", "binnn-d")


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
    jitter: float = 1e-3  # relative width of the multiplicative knob jitter; 0 disables
    sample_stride: int = 10  # trajectory sample every this many steps; 0 disables
    integrator: str = "euler"  # or "midpoint"

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.tol_x <= 0 or self.tol_y <= 0:
            raise ValueError("tolerances must be > 0")
        if not 0 < self.eps_init < 0.5:
            raise ValueError("eps_init must be in (0, 0.5)")
        if self.integrator not in ("euler", "midpoint"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


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
    round_ends: tuple = ()


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


def _check_interior(x):
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError("flow state left the open hypercube")


def _centralized_rates(x, ctx, thermo, newton):
    """Decision-variable velocity and the energy gradient it descends."""
    ratio = thermo.temp / thermo.time_const
    gap = x - x * x
    grad = ctx.grad(x, ratio)
    descent = gap * -grad / thermo.temp
    if newton:
        # inline PT-inverse (Hessian is symmetric by construction) applied
        # as two matvecs; cheaper than forming the full inverse
        eigvals, eigvecs = np.linalg.eigh(ctx.hessian(ratio / gap))
        np.abs(eigvals, out=eigvals)
        np.maximum(eigvals, thermo.floor, out=eigvals)
        xdot = eigvecs @ ((eigvecs.T @ descent) / eigvals)
    else:
        xdot = descent
    return xdot, grad


def _distributed_rates(x, y, instance, graph, dctx, thermo, alpha):
    ratio = thermo.temp / thermo.time_const
    lap_y = graph.apply_laplacian(y)
    bias = instance.quad * instance.center + instance.penalty * instance.output * (
        instance.target / instance.n - lap_y
    )
    grad_x = -(dctx.weights_diag * x) - bias - ratio * np.log(1.0 / x - 1.0)
    hess_diag = -dctx.weights_diag + ratio / (x - x**2)
    slope = (x - x**2) / thermo.temp
    xdot = en.pt_inverse_scalar(hess_diag, thermo.floor) * slope * -grad_x
    ydot = -alpha * instance.penalty * graph.apply_laplacian(instance.output * x + lap_y)
    return xdot, ydot, grad_x


def _advance(state, xdot, ydot, h, eps_clip):
    x = np.minimum(np.maximum(state.x + h * xdot, eps_clip), 1.0 - eps_clip)  # np.clip, less overhead
    y = None if state.y is None else state.y + h * ydot
    return FlowState(x=x, y=y, t=state.t + h)


def step_binnn_c(state, instance, ctx, thermo, h, eps_clip=1e-9):
    """One explicit Euler step of the Newton-like centralized flow."""
    _check_interior(state.x)
    xdot, _ = _centralized_rates(state.x, ctx, thermo, newton=True)
    if not np.all(np.isfinite(xdot)):
        raise NumericFailureError("non-finite flow rate", state=state)
    return _advance(state, xdot, None, h, eps_clip)


def step_hnn(state, instance, ctx, thermo, h, eps_clip=1e-9):
    """One explicit Euler step of the classic gradient-like Hopfield flow."""
    _check_interior(state.x)
    xdot, _ = _centralized_rates(state.x, ctx, thermo, newton=False)
    if not np.all(np.isfinite(xdot)):
        raise NumericFailureError("non-finite flow rate", state=state)
    return _advance(state, xdot, None, h, eps_clip)


def step_binnn_d(state, instance, graph, thermo, alpha, h, eps_clip=1e-9):
    """One simultaneous explicit Euler step of the distributed flow."""
    _check_interior(state.x)
    dctx = en.distributed_ctx(instance)
    xdot, ydot, _ = _distributed_rates(
        state.x, state.y, instance, graph, dctx, thermo, alpha
    )
    if not (np.all(np.isfinite(xdot)) and np.all(np.isfinite(ydot))):
        raise NumericFailureError("non-finite flow rate", state=state)
    return _advance(state, xdot, ydot, h, eps_clip)


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


def _jittered(thermo, width, rng):
    if width <= 0:
        return thermo
    return en.Thermo(
        temp=thermo.temp * rng.uniform(1.0 - width, 1.0 + width),
        time_const=thermo.time_const * rng.uniform(1.0 - width, 1.0 + width),
        floor=thermo.floor,
    )


def _sample(samples, instance, graph, thermo, state):
    if state.y is None:
        e = en.energy(instance, thermo, state.x)
    else:
        e = en.energy_tilde(instance, graph, thermo, state.x, state.y)
    samples.append((state.t, state.x.copy(), None if state.y is None else state.y.copy(), e))


def _integrate(flow, instance, graph, state, thermo, config, t_limit, samples):
    """Advance until the flow stalls or the time limit is hit.

    Convergence requires both a small velocity and a small energy gradient,
    so terminal points certify as near-critical (the velocity alone can be
    small near corners where the activation slope vanishes).
    """
    newton = flow == "binnn-c"
    ctx = en.centralized_ctx(instance) if flow != "binnn-d" else None
    dctx = en.distributed_ctx(instance) if flow == "binnn-d" else None
    h = config.step
    iterations = 0
    converged = False
    while state.t < t_limit - 1e-12:
        if flow == "binnn-d":
            xdot, ydot, grad = _distributed_rates(
                state.x, state.y, instance, graph, dctx, thermo, config.alpha
            )
            x_rate = float(np.abs(xdot).max())
            y_rate = float(np.abs(ydot).max())
            ok = math.isfinite(x_rate) and math.isfinite(y_rate)
            done = (
                x_rate < config.tol_x
                and y_rate < config.tol_y
                and float(np.abs(grad).max()) < 10.0 * config.tol_x
            )
        else:
            xdot, grad = _centralized_rates(state.x, ctx, thermo, newton)
            ydot = None
            x_rate = float(np.abs(xdot).max())
            ok = math.isfinite(x_rate)
            done = x_rate < config.tol_x and float(np.abs(grad).max()) < 10.0 * config.tol_x
        if not ok:
            raise NumericFailureError(
                "non-finite flow rate", state=state, trajectory=samples
            )
        if done:
            converged = True
            break
        if config.integrator == "midpoint":
            mid = _advance(state, xdot, ydot, 0.5 * h, config.eps_clip)
            if flow == "binnn-d":
                xdot, ydot, _ = _distributed_rates(
                    mid.x, mid.y, instance, graph, dctx, thermo, config.alpha
                )
            else:
                xdot, _ = _centralized_rates(mid.x, ctx, thermo, newton)
        state = _advance(state, xdot, ydot, h, config.eps_clip)
        iterations += 1
        if config.sample_stride > 0 and iterations % config.sample_stride == 0:
            _sample(samples, instance, graph, thermo, state)
    return state, converged, iterations


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
    thermo = _jittered(config.thermo, config.jitter, np.random.default_rng(jitter_seed))
    return state, thermo


def _finish(instance, state, samples, iterations, wall, converged, thermo, round_ends=()):
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
    """Integrate one flow from a random interior start until it stalls."""
    config = config or SolverConfig()
    state, thermo = _prepare(flow, instance, graph, config)
    samples = []
    if config.sample_stride > 0:
        _sample(samples, instance, graph, thermo, state)
    start = time.perf_counter()
    state, converged, iterations = _integrate(
        flow, instance, graph, state, thermo, config, config.t_max, samples
    )
    wall = time.perf_counter() - start
    if config.sample_stride > 0:
        _sample(samples, instance, graph, thermo, state)
    return _finish(instance, state, samples, iterations, wall, converged, thermo)


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
    state, thermo = _prepare(flow, instance, graph, config)
    samples = []
    if config.sample_stride > 0:
        _sample(samples, instance, graph, thermo, state)
    round_ends = []
    iterations = 0
    converged = False
    start = time.perf_counter()
    for _ in range(sched.steps):
        state, converged, its = _integrate(
            flow, instance, graph, state, thermo, config, state.t + sched.t_d, samples
        )
        iterations += its
        round_ends.append(state.x.copy())
        if sched.knob == "tau-up":
            thermo = replace(thermo, time_const=thermo.time_const * sched.beta)
        else:
            thermo = replace(thermo, temp=thermo.temp / sched.beta)
    wall = time.perf_counter() - start
    if config.sample_stride > 0:
        _sample(samples, instance, graph, thermo, state)
    return _finish(
        instance, state, samples, iterations, wall, converged, thermo, round_ends
    )


def terminal_diagnostics(result, instance, graph=None, thermo=None, tol_x=1e-6):
    """Gradient norm and Hessian spectrum at the terminal point.

    Certifies a local minimum when the run converged with a small gradient
    and a positive-definite Hessian of the relevant energy.
    """
    thermo = thermo or result.thermo_final
    x = result.x_final
    if result.y_final is None:
        g = en.grad(instance, thermo, x)
        hess = en.hessian(instance, thermo, x)
        min_eig = float(np.linalg.eigvalsh(hess).min())
        grad_y_inf = None
    else:
        g = en.grad_x_tilde(instance, graph, thermo, x, result.y_final)
        gy = en.grad_y_tilde(instance, graph, thermo, x, result.y_final)
        grad_y_inf = float(np.max(np.abs(gy)))
        min_eig = float(en.hessian_x_tilde(instance, graph, thermo, x).min())
    grad_inf = float(np.max(np.abs(g)))
    certified = bool(result.converged and grad_inf < 10.0 * tol_x and min_eig > 0.0)
    return Diagnostics(
        grad_inf=grad_inf,
        grad_y_inf=grad_y_inf,
        min_hessian_eig=min_eig,
        local_min_certified=certified,
    )


def write_trajectory_csv(result, path, n=None):
    """Columns: t, x_0..x_{n-1} [, y_0..y_{n-1}], energy; one row per sample."""
    if not result.trajectory:
        raise ValueError("result has no trajectory samples")
    n = len(result.trajectory[0][1]) if n is None else n
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
