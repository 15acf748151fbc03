"""Randomized trial campaigns, the rank-based quality metric, runtime sweeps."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import baselines, dynamics
from .errors import BinallocError, IncompleteCampaignError
from .graphs import random_connected_graph
from .instances import random_instance

COST_TIE_TOL = 1e-9

# Neural method name -> (flow, annealed): every flow, and with "-da" its annealed run.
NN_METHODS = {
    flow + suffix: (flow, suffix == "-da")
    for flow in dynamics.FLOW_KINDS
    for suffix in ("", "-da")
}
DEFAULT_METHODS = ("binnn-c", "binnn-c-da", "binnn-d", "binnn-d-da", "hnn", "greedy")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    method: str
    cost: float
    wall_time: float
    iterations: int
    converged: bool
    error: str = ""  # class name of the exception a failed solve raised


@dataclass(frozen=True)
class CampaignConfig:
    n: int = 50
    trials: int = 100
    seed: int = 0
    methods: tuple = DEFAULT_METHODS
    p_ref: float = 1500.0
    gamma: float = 1.0
    solver: dynamics.SolverConfig = field(
        default_factory=lambda: dynamics.SolverConfig(
            step=0.02, t_max=60.0, sample_stride=0, anneal=dynamics.AnnealSchedule(t_d=2.0)
        )
    )

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if self.solver.anneal is None and any(m.endswith("-da") for m in self.methods):
            raise ValueError("annealed methods require solver.anneal to be set")


def solve_with_method(method, instance, graph, solver, seed=None):
    """Dispatch one named method. Returns (cost, iterations, converged)."""
    if method in baselines.SOLVERS:
        sol = baselines.SOLVERS[method](instance)
        iterations = 1 << instance.n if method == "brute" else len(sol.chosen) + 1
        return sol.cost, iterations, True
    if method not in NN_METHODS:
        raise ValueError(f"unknown method {method!r}")
    flow, use_anneal = NN_METHODS[method]
    solve = dynamics.anneal if use_anneal else dynamics.run
    result = solve(flow, instance, graph if flow == "binnn-d" else None, replace(solver, seed=seed))
    return result.cost, result.iterations, result.converged


def _run_trial(config, trial, tss):
    parts = tss.spawn(2 + len(config.methods))
    instance = random_instance(config.n, parts[0], p_ref=config.p_ref, gamma=config.gamma)
    graph = random_connected_graph(config.n, seed=parts[1])
    records = []
    for k, method in enumerate(config.methods):
        start = time.perf_counter()
        try:
            cost, iterations, converged = solve_with_method(
                method, instance, graph, config.solver, seed=parts[2 + k]
            )
            error = ""
        except BinallocError as exc:
            cost, converged, error = float("inf"), False, type(exc).__name__
            iterations = getattr(exc, "iterations", 0)  # how far a diverged flow got
        wall = time.perf_counter() - start
        records.append(
            TrialRecord(
                trial=trial,
                method=method,
                cost=cost,
                wall_time=wall,
                iterations=iterations,
                converged=converged,
                error=error,
            )
        )
    return records


def run_campaign(config, jobs=1):
    """Run every method on the same seeded instances; one record per pair.

    A method failure is recorded as a non-converged trial with infinite cost
    and the exception's class name; the campaign continues. Reproducible for
    a seed (wall times excepted); parallel trials merge in trial order.
    """
    trial_seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = pool.map(
                _run_trial,
                [config] * config.trials,
                range(config.trials),
                trial_seeds,
            )
            chunks = list(chunks)
    else:
        chunks = [
            _run_trial(config, trial, tss) for trial, tss in enumerate(trial_seeds)
        ]
    return [rec for chunk in chunks for rec in chunk]


def _trial_points(costs):
    """Placement points for one trial: best gets k-1, ties share the mean."""
    costs = np.minimum(costs, np.finfo(float).max)  # failures (inf) tie; inf - inf is nan
    k = len(costs)
    order = np.argsort(costs, kind="stable")
    # a run of sorted costs with gaps within the tolerance is one group, as
    # energy._deflate groups poles; its placements share their mean points
    group = np.cumsum(np.r_[True, np.diff(costs[order]) > COST_TIE_TOL]) - 1
    mean = np.bincount(group, k - 1.0 - np.arange(k)) / np.bincount(group)
    points = np.empty(k)
    points[order] = mean[group]
    return points


def q_metric(records):
    """Per-method rank score in [0,1] over a campaign's trials of two or more methods."""
    by_trial = {}
    methods = []
    for rec in records:
        by_trial.setdefault(rec.trial, {})[rec.method] = rec.cost
        if rec.method not in methods:
            methods.append(rec.method)
    k = len(methods)
    if k < 2:
        raise ValueError(f"the Q metric needs at least two methods, got {methods}")
    trials = len(by_trial)
    totals = dict.fromkeys(methods, 0.0)
    for trial, costs in by_trial.items():
        if set(costs) != set(methods):
            raise IncompleteCampaignError(f"trial {trial} is missing methods")
        arr = np.array([costs[m] for m in methods])
        pts = _trial_points(arr)
        for m, p in zip(methods, pts):
            totals[m] += p
    norm = (k - 1) * trials
    return {m: totals[m] / norm for m in methods}


def median_step_time(method, n, steps=50, seed=0, repeats=3):
    """Median per-step wall time of a flow at a given problem size, timing the
    integrator's step directly (``run`` skips the steps of a frozen state)."""
    flow, _ = NN_METHODS[method]
    instance = random_instance(n, seed, p_ref=15.0 * n)
    graph = random_connected_graph(n, seed=seed)
    config = dynamics.SolverConfig(step=1e-3)
    mode = "distributed" if flow == "binnn-d" else "centralized"
    times = []
    for _ in range(repeats):
        state = dynamics.init_state(n, seed=seed, mode=mode)
        start = time.perf_counter()
        rates = dynamics.flow_rates(flow, instance, graph, config.thermo, alpha=1.0)
        for _ in range(steps):
            dynamics._step(rates, state.x, state.y, config)
        times.append((time.perf_counter() - start) / steps)
    return float(np.median(times))


def runtime_sweep(n_grid, methods, per_n_trials=3, seed=0, solver=None):
    """Median wall time of each method's error-free solves per size, from one
    campaign per size; brute force skips sizes above its cap."""
    solver = solver or replace(CampaignConfig().solver, t_max=20.0)
    rows = []
    for n in n_grid:
        sized = tuple(m for m in methods if m != "brute" or n <= baselines.BRUTE_FORCE_CAP)
        if not sized:
            continue
        config = CampaignConfig(n=n, trials=per_n_trials, seed=[seed, n], methods=sized,
                                p_ref=15.0 * n, solver=solver)
        records = run_campaign(config)
        for method in sized:
            times = [r.wall_time for r in records if r.method == method and not r.error]
            if times:
                rows.append({"n": n, "method": method,
                             "median_seconds": float(np.median(times)), "trials": len(times)})
    return rows


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def write_campaign_csv(records, path):
    names = [f.name for f in fields(TrialRecord)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in records:
            writer.writerow([_fmt(getattr(r, name)) for name in names])


def write_q_csv(scores, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "Q"])
        for method, q in scores.items():
            writer.writerow([method, _fmt(q)])


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "method", "median_seconds", "trials"])
        for row in rows:
            writer.writerow(
                [row["n"], row["method"], _fmt(row["median_seconds"]), row["trials"]]
            )
