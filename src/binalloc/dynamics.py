"""Time integration of the neural-network flows and the annealing schedule.

Three flows are provided: a Newton-like centralized flow that premultiplies
the classic Hopfield direction by a truncated-inverse Hessian ("binnn-c"),
the classic gradient-like Hopfield flow ("hnn"), and a distributed flow
over a communication graph with an auxiliary consensus variable ("binnn-d").
All are integrated with fixed-step explicit Euler.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import energy as en
from .errors import NumericFailureError
from .graphs import _count
from .instances import _check_graph, eval_p1, round_to_binary

FLOW_KINDS = ("binnn-c", "hnn", "binnn-d")
_JITTER = 1e-3  # relative width of the multiplicative jitter on a run's knobs
_FREEZE_CHECK = 16  # steps between tests for a state that no longer moves, after steps 1, 2, 4, 8
_SUM_Y_RTOL = 1e-8  # bound on |sum(y)| at a binnn-d round end, relative to max(1, sum|y|)


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
        if not 1.0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 1, got {self.beta}")
        if not 0 < self.t_d < math.inf or not _count(self.steps, 1):
            raise ValueError("t_d must be finite and > 0, and steps an integer >= 1")
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
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    seed: int | None = None
    sample_stride: int = 10  # trajectory sample every this many steps; 0 disables

    def __post_init__(self):
        # None reads as the default schedule: perfbench's warm_up passes it
        object.__setattr__(self, "anneal", self.anneal or AnnealSchedule())
        if not all(0 < v < math.inf for v in (self.step, self.alpha, self.tol_x, self.tol_y)):
            raise ValueError("step, alpha and the tolerances must be finite and > 0")
        if not 0 <= self.t_max < math.inf or not _count(self.sample_stride, 0):
            raise ValueError("t_max must be finite and >= 0, and sample_stride an integer >= 0")
        if not (0 < self.eps_init < 0.5 and 0 <= self.eps_clip < 0.5):
            raise ValueError("eps_init must be in (0, 0.5) and eps_clip in [0, 0.5)")
        if not all(math.isfinite(t / self.step) for t in (self.t_max, self.anneal.t_d)):
            raise ValueError("t_max and anneal.t_d must each be a finite number of steps of step")


@dataclass(frozen=True)
class RunResult:
    x_final: np.ndarray
    y_final: np.ndarray | None
    bits: np.ndarray
    cost: float
    trajectory: list  # (t, x, y, e) samples; x and y are read-only copies
    iterations: int
    wall_time: float
    converged: bool
    thermo_final: en.Thermo
    round_ends: tuple  # a read-only copy of x at each round's end; run() is one round


@dataclass(frozen=True)
class Diagnostics:
    """``min_hessian_eig``: the smallest eigenvalue of the centralized energy's Hessian in x
    (binnn-c, hnn) or of the distributed energy's with y eliminated (binnn-d)."""

    grad_inf: float
    grad_y_inf: float | None
    min_hessian_eig: float
    local_min_certified: bool


def init_state(n, eps_init=SolverConfig.eps_init, seed=None):
    """Uniform start in the ball of radius eps_init around the cube center, with no
    auxiliary variable. Samples the ball directly (unit direction times a radius with
    the correct density).
    """
    if not 0 < eps_init < 0.5:
        raise ValueError("eps_init must be in (0, 0.5)")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    radius = eps_init * rng.random() ** (1.0 / n)
    x = 0.5 + radius * direction
    return FlowState(x=x, y=None, t=0.0)


def flow_rates(flow, instance, graph, thermo, alpha, ctx=None):
    """The flow's vector field at fixed knobs, built once per integration round.

    Returns ``rates(x, y) -> (xdot, ydot, grad)``: the decision velocity,
    the auxiliary velocity (None off binnn-d) and the energy gradient that
    the decision velocity descends, from the kernel of ``ctx``: the flow's
    ``distributed_ctx`` or ``centralized_ctx``, built when not given.
    """
    if flow not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {flow!r}")
    if flow == "binnn-d":
        return (ctx or en.distributed_ctx(instance)).rates(graph, thermo, alpha)
    return (ctx or en.centralized_ctx(instance)).rates(thermo, flow == "binnn-c")


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


def _prepare(flow, instance, graph, config):
    seed = config.seed
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    init_seed, jitter_seed = ss.spawn(2)
    state = init_state(instance.n, config.eps_init, seed=init_seed)
    if flow == "binnn-d":  # y starts at zero, so its conserved sum is zero
        _check_graph(instance, graph)
        state = replace(state, y=np.zeros(instance.n))
    rng, knobs = np.random.default_rng(jitter_seed), config.thermo
    thermo = replace(knobs, temp=knobs.temp * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER),
                     time_const=knobs.time_const * rng.uniform(1.0 - _JITTER, 1.0 + _JITTER))
    return state, thermo


def _solve(flow, instance, graph, config, rounds, duration, shrink=None):
    """Integrate ``rounds`` rounds of ``duration`` simulated time each, applying
    ``shrink`` to the knobs before every round but the first. A round is
    ceil(duration / h) steps, counted: t, summed one h at a time, drifts. A
    round ends early once the flow converges, which requires both a small
    velocity and a small energy gradient, so terminal points certify as
    near-critical (the velocity alone can be small near corners where the
    activation slope vanishes).

    One copy of (x, y) is stepped in place across the rounds, and one energy
    context serves the whole solve. The rates read (x, y) alone, so a step that
    leaves them bit-for-bit unchanged would be repeated by every later step: the
    round ends there, as it does on convergence, once a check finds such a step
    (after steps 1, 2, 4 and 8 of a round, then every 16). Its end state is the
    one the remaining steps would reach, and ``iterations`` counts the steps
    computed. A sampled energy that is not finite fails, and so does a binnn-d
    round that ends with sum(y) non-finite or drifted from zero. A stored state
    (a sample or a round end) is a read-only copy.
    """
    state, thermo = _prepare(flow, instance, graph, config)
    ctx = (en.distributed_ctx if flow == "binnn-d" else en.centralized_ctx)(instance)
    h, stride = config.step, config.sample_stride
    steps = math.ceil(duration / h - 1e-9)
    x, y, t = state.x, state.y, state.t
    samples, round_ends, iterations = [], [], 0

    def stored(v):
        return None if v is None else np.frombuffer(v.tobytes(), v.dtype)

    def sample(done):  # ``done`` steps into the solve
        e = (en.energy(instance, thermo, x) if y is None
             else en.energy_tilde(instance, graph, thermo, x, y, ctx))
        if not math.isfinite(e):
            raise NumericFailureError("non-finite energy", state=FlowState(x, y, t), trajectory=samples,
                                      iterations=done)
        samples.append((t, stored(x), stored(y), e))

    # a diverging run overflows on its way to the non-finite rate or energy that raises
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rates = flow_rates(flow, instance, graph, thermo, config.alpha, ctx)  # refuses an unknown flow
        if stride > 0:
            sample(0)
        start = time.perf_counter()
        for k in range(rounds):
            if k:
                thermo = shrink(thermo)
                rates = flow_rates(flow, instance, graph, thermo, config.alpha, ctx)
            taken, stop = 0, None  # the freeze check and the sample stride count a round's steps
            while taken < steps:
                check = (taken + 1) % _FREEZE_CHECK == 0 or taken + 1 in (1, 2, 4, 8)
                if check:
                    before = x.tobytes(), None if y is None else y.tobytes()
                stop = _step(rates, x, y, config)
                if stop:
                    break
                t += h
                taken += 1
                if stride > 0 and taken % stride == 0:
                    sample(iterations + taken)
                if check and before == (x.tobytes(), None if y is None else y.tobytes()):
                    break
            iterations += taken
            if stop != "non-finite flow rate" and y is not None:
                total = float(y.sum())
                if not math.isfinite(total):  # y left the reals; x is clipped into the cube
                    stop = "non-finite state at the round end"
                elif not abs(total) <= _SUM_Y_RTOL * max(1.0, float(np.abs(y).sum())):
                    stop = f"sum(y) drifted to {total:.3g}"
            if stop not in (None, "converged"):
                raise NumericFailureError(stop, state=FlowState(x, y, t), trajectory=samples,
                                          iterations=iterations)
            round_ends.append(stored(x))
        wall = time.perf_counter() - start
        if stride > 0 and samples[-1][0] != t:  # the end state, unless the stride just sampled it
            sample(iterations)
    bits = round_to_binary(x)
    return RunResult(x_final=x, y_final=y, bits=bits, cost=eval_p1(instance, bits),
                     trajectory=samples, iterations=iterations, wall_time=wall,
                     converged=stop == "converged", thermo_final=thermo, round_ends=tuple(round_ends))


def run(flow, instance, graph=None, config=None):
    """Integrate one flow from a random interior start until it stalls: one
    round of ``config.t_max`` at fixed knobs."""
    config = config or SolverConfig()
    return _solve(flow, instance, graph, config, 1, config.t_max)


def anneal(flow, instance, graph=None, config=None):
    """Run the flow in learning rounds, shrinking the barrier knobs each round.

    The schedule is ``config.anneal`` (``AnnealSchedule()`` unless one is given).
    The state carries over between rounds; each round integrates for the
    schedule's duration (early exit when the flow stalls) at knobs that the
    configured knob has shrunk once per round before it.
    """
    config = config or SolverConfig()
    sched = config.anneal
    return _solve(flow, instance, graph, config, sched.steps, sched.t_d, sched.shrink)


def terminal_diagnostics(result, instance, graph=None, tol_x=SolverConfig.tol_x):
    """Gradient norm and Hessian spectrum at the terminal point, at the run's final knobs.

    The gradients come from the rates kernel ("hnn" for a centralized result), and the
    Hessian is diag(quad + curvature) + weight weight^T with the flow's context's ``weight``:
    the centralized energy's in x, or binnn-d's with y eliminated (L is invertible on
    sum(y) = 0), by Haynsworth's inertia additivity positive definite exactly when the
    joint Hessian is. Certifies a local minimum when the run converged with small
    gradients, in x and in y, and that Hessian positive definite.
    """
    thermo = result.thermo_final
    x, y = en._interior(result.x_final, instance.n), result.y_final
    if y is not None:
        _check_graph(instance, graph)
    ctx = (en.centralized_ctx if y is None else en.distributed_ctx)(instance)
    # with alpha = 1 the auxiliary velocity is exactly minus the y-gradient
    _, ydot, g = flow_rates("hnn" if y is None else "binnn-d", instance, graph, thermo, 1.0, ctx)(x, y)
    curvature = thermo.temp / thermo.time_const / (x - x**2)
    min_eig = en.min_eig_rank_one(instance.quad + curvature, ctx.weight)
    grad_inf = float(np.max(np.abs(g)))
    grad_y_inf = None if y is None else float(np.max(np.abs(ydot)))
    small = grad_inf < 10.0 * tol_x and (y is None or grad_y_inf < 10.0 * tol_x)
    return Diagnostics(grad_inf=grad_inf, grad_y_inf=grad_y_inf, min_hessian_eig=min_eig,
                       local_min_certified=bool(result.converged and small and min_eig > 0.0))
