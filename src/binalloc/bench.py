"""Randomized trial campaigns, the rank-based quality metric, runtime sweeps."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import baselines, dynamics
from .energy import Thermo
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
    p_range: tuple = (1.0, 50.0)
    exponent_range: tuple = (2.0, 3.0)
    p_ref: float = 1500.0
    gamma: float = 1.0
    extra_edge_fraction: float = 0.2
    solver: dynamics.SolverConfig = field(
        default_factory=lambda: dynamics.SolverConfig(
            thermo=Thermo(temp=1.0, time_const=0.1, floor=0.1),
            step=0.02,
            t_max=60.0,
            sample_stride=0,
            anneal=dynamics.AnnealSchedule(beta=1.4, t_d=2.0, steps=10),
        )
    )

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.methods:
            raise ValueError("methods must be non-empty")


def solve_with_method(method, instance, graph, solver, seed=None):
    """Dispatch one named method. Returns (cost, iterations, converged)."""
    if method in baselines.SOLVERS:
        sol = baselines.SOLVERS[method](instance)
        iterations = 1 << instance.n if method == "brute" else len(sol.chosen) + 1
        return sol.cost, iterations, True
    if method not in NN_METHODS:
        raise ValueError(f"unknown method {method!r}")
    flow, use_anneal = NN_METHODS[method]
    cfg = replace(solver, seed=seed)
    g = graph if flow == "binnn-d" else None
    if use_anneal:
        if cfg.anneal is None:
            cfg = replace(cfg, anneal=dynamics.AnnealSchedule())
        result = dynamics.anneal(flow, instance, g, cfg)
    else:
        result = dynamics.run(flow, instance, g, cfg)
    return result.cost, result.iterations, result.converged


def _run_trial(config, trial, tss):
    parts = tss.spawn(2 + len(config.methods))
    instance = random_instance(
        config.n,
        parts[0],
        p_range=config.p_range,
        exponent_range=config.exponent_range,
        p_ref=config.p_ref,
        gamma=config.gamma,
    )
    graph = random_connected_graph(config.n, config.extra_edge_fraction, parts[1])
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
    points = np.empty(k)
    pos = 0
    while pos < k:
        end = pos
        while end + 1 < k and costs[order[end + 1]] - costs[order[end]] <= COST_TIE_TOL:
            end += 1
        # placements pos..end share the mean of their point values
        vals = [k - 1 - r for r in range(pos, end + 1)]
        points[order[pos : end + 1]] = float(np.mean(vals))
        pos = end + 1
    return points


def q_metric(records):
    """Per-method rank score in [0,1] over a campaign's trials."""
    by_trial = {}
    methods = []
    for rec in records:
        by_trial.setdefault(rec.trial, {})[rec.method] = rec.cost
        if rec.method not in methods:
            methods.append(rec.method)
    k = len(methods)
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


def median_step_time(method, n, steps=50, seed=0, repeats=3, gamma=1.0, p_ref=None):
    """Median per-step wall time of a flow at a given problem size, timing its
    rates and advance directly (``run`` skips the steps of a frozen state)."""
    flow, _ = NN_METHODS[method]
    p_ref = 15.0 * n if p_ref is None else p_ref
    instance = random_instance(n, seed, p_ref=p_ref, gamma=gamma)
    graph = random_connected_graph(n, 0.2, seed)
    thermo = Thermo(temp=1.0, time_const=0.1, floor=0.1)
    mode = "distributed" if flow == "binnn-d" else "centralized"
    times = []
    for _ in range(repeats):
        state = dynamics.init_state(n, seed=seed, mode=mode)
        start = time.perf_counter()
        rates = dynamics.flow_rates(flow, instance, graph, thermo, alpha=1.0)
        for _ in range(steps):
            xdot, ydot, _ = rates(state.x, state.y)
            state = dynamics._advance(state, xdot, ydot, 1e-3, 1e-9)
        times.append((time.perf_counter() - start) / steps)
    return float(np.median(times))


def runtime_sweep(n_grid, methods, per_n_trials=3, seed=0, solver=None):
    """Median solve wall time per method per size; brute force skips large n."""
    solver = solver or dynamics.SolverConfig(
        thermo=Thermo(temp=1.0, time_const=0.1, floor=0.1),
        step=0.02,
        t_max=20.0,
        sample_stride=0,
        anneal=dynamics.AnnealSchedule(beta=1.4, t_d=2.0, steps=10),
    )
    rows = []
    for n in n_grid:
        seeds = np.random.SeedSequence([seed, n]).spawn(per_n_trials)
        for method in methods:
            if method == "brute" and n > baselines.BRUTE_FORCE_CAP:
                continue
            times = []
            for tss in seeds:
                parts = tss.spawn(3)
                instance = random_instance(n, parts[0], p_ref=15.0 * n)
                graph = random_connected_graph(n, 0.2, parts[1])
                start = time.perf_counter()
                try:
                    solve_with_method(method, instance, graph, solver, seed=parts[2])
                except BinallocError:
                    continue
                times.append(time.perf_counter() - start)
            if times:
                rows.append(
                    {
                        "n": n,
                        "method": method,
                        "median_seconds": float(np.median(times)),
                        "trials": len(times),
                    }
                )
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
