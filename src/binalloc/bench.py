"""Randomized trial campaigns and the rank-based quality metric."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import baselines, dynamics
from .errors import BinallocError, IncompleteCampaignError
from .graphs import random_connected_graph
from .instances import DEFAULT_GAMMA, DEFAULT_P_REF, random_instance

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
    p_ref: float = DEFAULT_P_REF
    gamma: float = DEFAULT_GAMMA
    solver: dynamics.SolverConfig = field(default_factory=lambda: dynamics.SolverConfig(
        step=0.02, t_max=60.0, sample_stride=0, anneal=dynamics.AnnealSchedule(t_d=2.0)))

    def __post_init__(self):
        if not (dynamics._count(self.n, 1) and dynamics._count(self.trials, 1)):
            raise ValueError(f"n and trials must be integers >= 1, got {self.n} and {self.trials}")
        unknown = sorted(set(self.methods) - NN_METHODS.keys() - baselines.SOLVERS.keys())
        if not self.methods or unknown:  # refused before any solve runs
            raise ValueError(f"unknown method {unknown[0]!r}" if unknown else "methods must be non-empty")
        if len(set(self.methods)) < len(self.methods):  # a trial keeps one record per method
            raise ValueError(f"a method is listed twice in {','.join(self.methods)}")


def solve_with_method(method, instance, graph, solver):
    """Solve by one named method, seeded by ``solver.seed``. A flow, or with
    "-da" its anneal, returns its RunResult; a baseline its SetSolution. Either
    carries ``bits``, ``cost``, ``iterations`` and ``converged``."""
    if method in baselines.SOLVERS:
        return baselines.SOLVERS[method](instance)
    if method not in NN_METHODS:
        raise ValueError(f"unknown method {method!r}")
    flow, use_anneal = NN_METHODS[method]
    solve = dynamics.anneal if use_anneal else dynamics.run
    return solve(flow, instance, graph if flow == "binnn-d" else None, solver)


def _run_trial(config, trial, tss):
    parts = tss.spawn(2 + len(config.methods))
    instance = random_instance(config.n, parts[0], p_ref=config.p_ref, gamma=config.gamma)
    # only binnn-d reads a graph, and building one takes seconds at n=2000
    distributed = any(NN_METHODS[m][0] == "binnn-d" for m in config.methods if m in NN_METHODS)
    graph = random_connected_graph(config.n, seed=parts[1]) if distributed else None
    records = []
    for k, method in enumerate(config.methods):
        start = time.perf_counter()
        try:
            result = solve_with_method(method, instance, graph, replace(config.solver, seed=parts[2 + k]))
            cost, iterations, converged, error = result.cost, result.iterations, result.converged, ""
        except BinallocError as exc:
            cost, converged, error = float("inf"), False, type(exc).__name__
            iterations = getattr(exc, "iterations", 0)  # how far a diverged flow got
        wall = time.perf_counter() - start
        records.append(TrialRecord(trial, method, cost, wall, iterations, converged, error))
    return records


def run_campaign(config, jobs=1):
    """Run every method on the same seeded instances; one record per pair.

    A method failure is recorded as a non-converged trial with infinite cost
    and the exception's class name; the campaign continues. Reproducible for
    a seed (wall times excepted); parallel trials merge in trial order.
    """
    if not dynamics._count(jobs, 1):  # refused before any trial runs
        raise ValueError(f"jobs must be an integer >= 1, got {jobs}")
    trial_seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
    args = ([config] * config.trials, range(config.trials), trial_seeds)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_trial, *args))
    else:
        chunks = list(map(_run_trial, *args))
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


def _fmt(value):
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def write_campaign_csv(records, path):
    names = [f.name for f in fields(TrialRecord)]
    _write_csv(path, names, ([getattr(r, name) for name in names] for r in records))


def write_q_csv(scores, path):
    _write_csv(path, ["method", "Q"], scores.items())


def write_trajectory_csv(result, path):
    """Columns: t, x_0..x_{n-1} [, y_0..y_{n-1}], energy; one row per sample."""
    if not result.trajectory:
        raise ValueError("result has no trajectory samples")
    _, x, y, _ = result.trajectory[0]
    names = [f"x_{i}" for i in range(len(x))] + ([] if y is None else [f"y_{i}" for i in range(len(y))])
    _write_csv(path, ["t", *names, "energy"],
               ([t, *x, *(() if y is None else y), e] for t, x, y, e in result.trajectory))
