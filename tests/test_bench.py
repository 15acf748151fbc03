import csv
from dataclasses import replace

import numpy as np
import pytest

from binalloc import AnnealSchedule, SolverConfig, Thermo, baselines, dynamics
from binalloc.bench import (
    NN_METHODS,
    CampaignConfig,
    TrialRecord,
    median_step_time,
    q_metric,
    run_campaign,
    runtime_sweep,
    solve_with_method,
    write_campaign_csv,
    write_q_csv,
    write_sweep_csv,
)
from binalloc.cli import build_parser
from binalloc.dynamics import FLOW_KINDS
from binalloc.errors import IncompleteCampaignError
from binalloc.graphs import random_connected_graph
from binalloc.instances import random_instance

FAST_SOLVER = SolverConfig(
    thermo=Thermo(temp=1.0, time_const=0.1, floor=0.1),
    step=0.02,
    t_max=10.0,
    sample_stride=0,
    anneal=AnnealSchedule(beta=1.4, t_d=1.0, steps=10),
)


def records_from_table(table):
    """table[method] = list of per-trial costs."""
    recs = []
    for method, costs in table.items():
        for trial, cost in enumerate(costs):
            recs.append(TrialRecord(trial=trial, method=method, cost=cost,
                                    wall_time=0.0, iterations=1, converged=True))
    return recs


def test_q_single_trial_distinct():
    scores = q_metric(records_from_table({"a": [1.0], "b": [2.0], "c": [3.0]}))
    assert scores["a"] == pytest.approx(1.0)
    assert scores["c"] == pytest.approx(0.0)
    assert scores["b"] == pytest.approx(0.5)


def test_q_all_tied():
    table = {m: [5.0, 5.0, 5.0] for m in ("a", "b", "c", "d")}
    scores = q_metric(records_from_table(table))
    assert all(v == pytest.approx(0.5) for v in scores.values())


def test_q_sums_to_half_k():
    rng = np.random.default_rng(0)
    table = {m: rng.uniform(0, 10, 20).tolist() for m in "abcde"}
    scores = q_metric(records_from_table(table))
    assert sum(scores.values()) == pytest.approx(len(scores) / 2)


def test_q_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    table = {m: rng.uniform(1, 10, 15).tolist() for m in "abcd"}
    base = q_metric(records_from_table(table))
    warped = {m: [np.exp(c) + 3.0 for c in costs] for m, costs in table.items()}
    assert q_metric(records_from_table(warped)) == pytest.approx(base)


def test_q_normalizer_600_for_7_methods_100_trials():
    # a method that wins every one of 100 trials against 6 rivals earns
    # 6 points per trial; Q = 600/600 = 1 exactly
    rng = np.random.default_rng(2)
    table = {"winner": [0.0] * 100}
    for m in "abcdef":
        table[m] = rng.uniform(1, 2, 100).tolist()
    scores = q_metric(records_from_table(table))
    assert scores["winner"] == pytest.approx(600.0 / 600.0)
    assert len(scores) == 7


def test_q_ties_share_mean_points():
    recs = records_from_table({"a": [1.0], "b": [1.0 + 1e-12], "c": [9.0]})
    scores = q_metric(recs)
    # a and b tie for placements worth 2 and 1 points; each gets 1.5/2
    assert scores["a"] == pytest.approx(0.75)
    assert scores["b"] == pytest.approx(0.75)
    assert scores["c"] == pytest.approx(0.0)
    # two failed methods (infinite cost) tie for the last two placements
    scores = q_metric(records_from_table({"a": [np.inf], "b": [1.0], "c": [np.inf]}))
    assert scores == pytest.approx({"a": 0.25, "b": 1.0, "c": 0.25})


def test_q_rejects_missing_method():
    recs = records_from_table({"a": [1.0, 2.0], "b": [1.0, 2.0]})
    del recs[-1]
    with pytest.raises(IncompleteCampaignError):
        q_metric(recs)


def test_q_needs_two_methods():
    for table in ({"a": [1.0, 2.0]}, {}):
        with pytest.raises(ValueError, match="two methods"):
            q_metric(records_from_table(table))


def test_campaign_greedy_vs_brute():
    cfg = CampaignConfig(n=8, trials=1, seed=3, methods=("greedy", "brute"),
                         p_ref=120.0, solver=FAST_SOLVER)
    records = run_campaign(cfg)
    assert len(records) == 2
    by = {r.method: r for r in records}
    assert by["greedy"].cost >= by["brute"].cost - 1e-9


def test_campaign_deterministic():
    cfg = CampaignConfig(n=6, trials=3, seed=9,
                         methods=("greedy", "binnn-c", "hnn"),
                         p_ref=90.0, solver=FAST_SOLVER)
    a = [r.cost for r in run_campaign(cfg)]
    b = [r.cost for r in run_campaign(cfg)]
    assert a == b


def test_campaign_parallel_matches_serial():
    cfg = CampaignConfig(n=6, trials=4, seed=5, methods=("greedy", "brute"),
                         p_ref=90.0, solver=FAST_SOLVER)
    serial = [(r.trial, r.method, r.cost) for r in run_campaign(cfg)]
    parallel = [(r.trial, r.method, r.cost) for r in run_campaign(cfg, jobs=2)]
    assert serial == parallel


def test_campaign_keeps_the_cause_of_a_failure(tmp_path):
    # so large an auxiliary gain makes the distributed flow diverge
    config = CampaignConfig(n=8, trials=2, seed=0, methods=("binnn-d", "greedy"),
                            solver=replace(FAST_SOLVER, alpha=1e3))
    with np.errstate(all="ignore"):
        records = run_campaign(config)
    assert [(r.method, r.cost, r.converged, r.error) for r in records[:2]] == [
        ("binnn-d", np.inf, False, "NumericFailureError"),
        ("greedy", records[1].cost, True, ""),
    ]
    assert records[0].iterations > 0  # the steps it took before it failed
    path = tmp_path / "campaign.csv"
    write_campaign_csv(records, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"] for row in rows] == ["NumericFailureError", "", "NumericFailureError", ""]
    assert rows[0]["cost"] == "inf"


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(trials=0)
    with pytest.raises(ValueError):
        CampaignConfig(methods=())


def test_annealed_methods_need_a_schedule():
    # dynamics.anneal refuses a config without one, and so does the campaign
    unscheduled = replace(FAST_SOLVER, anneal=None)
    with pytest.raises(ValueError, match="anneal"):
        CampaignConfig(methods=("hnn", "hnn-da"), solver=unscheduled)
    assert CampaignConfig(methods=("hnn", "greedy"), solver=unscheduled).solver.anneal is None
    with pytest.raises(ValueError, match="anneal"):
        solve_with_method("hnn-da", random_instance(4, 0, p_ref=20.0), None, unscheduled)


def test_solve_with_method_unknown():
    inst = random_instance(4, 0, p_ref=20.0)
    graph = random_connected_graph(4, 0.2, 0)
    with pytest.raises(ValueError):
        solve_with_method("sdp", inst, graph, FAST_SOLVER)


def test_every_registered_method_solves():
    # one registry: the flows, each with an annealed "-da" run, plus the baselines
    assert NN_METHODS["hnn-da"] == ("hnn", True)
    inst = random_instance(4, 0, p_ref=20.0)
    graph = random_connected_graph(4, 0.2, 0)
    solver = replace(FAST_SOLVER, step=0.005, t_max=1.0)
    for method in (*NN_METHODS, *baselines.SOLVERS):
        cost, iterations, _ = solve_with_method(method, inst, graph, solver, seed=1)
        assert np.isfinite(cost) and iterations >= 1
    solve = build_parser()._subparsers._group_actions[0].choices["solve"]
    choices = solve._option_string_actions["--method"].choices
    assert tuple(choices) == FLOW_KINDS + tuple(baselines.SOLVERS) + ("round",)


def test_median_step_time_positive():
    t = median_step_time("hnn", 20, steps=10, seed=0, repeats=2)
    assert t > 0.0


def test_median_step_time_computes_every_step_it_counts(rate_calls):
    # at these settings hnn freezes, and run() skips most of its 50 steps
    cfg = SolverConfig(thermo=Thermo(temp=1.0, time_const=0.1, floor=0.1),
                       step=1e-3, t_max=50e-3, tol_x=1e-30, tol_y=1e-30,
                       sample_stride=0, seed=0)
    result = dynamics.run("hnn", random_instance(20, 0, p_ref=300.0), None, cfg)
    assert result.iterations == 50 and rate_calls[0] < 50
    rate_calls[0] = 0
    median_step_time("hnn", 20, steps=50, seed=0, repeats=2)
    assert rate_calls[0] == 100


def test_runtime_sweep_shapes():
    assert runtime_sweep([], ("greedy",)) == []
    rows = runtime_sweep([6, 8], ("greedy", "brute"), per_n_trials=2, seed=1,
                         solver=FAST_SOLVER)
    assert len(rows) == 4
    for row in rows:
        assert row["median_seconds"] >= 0.0
        assert row["trials"] == 2


def test_runtime_sweep_times_the_campaign_and_drops_failures():
    # so large an auxiliary gain makes the distributed flow diverge
    solver = replace(FAST_SOLVER, alpha=1e3)
    with np.errstate(all="ignore"):
        rows = runtime_sweep([8], ("binnn-d", "greedy"), per_n_trials=3, seed=4, solver=solver)
        records = run_campaign(CampaignConfig(n=8, trials=3, seed=[4, 8], p_ref=120.0,
                                              methods=("binnn-d", "greedy"), solver=solver))
    assert [r.error for r in records if r.method == "binnn-d"] == ["NumericFailureError"] * 3
    assert [(r["n"], r["method"], r["trials"]) for r in rows] == [(8, "greedy", 3)]


def test_runtime_sweep_skips_big_brute():
    rows = runtime_sweep([30], ("greedy", "brute"), per_n_trials=1, seed=2,
                         solver=FAST_SOLVER)
    assert [r["method"] for r in rows] == ["greedy"]


def test_csv_writers(tmp_path):
    recs = records_from_table({"a": [1.0, 2.0], "b": [2.0, 1.0]})
    cpath = tmp_path / "campaign.csv"
    write_campaign_csv(recs, cpath)
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "method", "cost", "wall_time", "iterations",
                       "converged", "error"]
    assert len(rows) == 5

    qpath = tmp_path / "q.csv"
    write_q_csv(q_metric(recs), qpath)
    with open(qpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "Q"]

    spath = tmp_path / "scaling.csv"
    write_sweep_csv([{"n": 6, "method": "greedy", "median_seconds": 0.25,
                      "trials": 3}], spath)
    with open(spath) as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["6", "greedy", "0.25", "3"]


def test_campaign_csv_floats_have_12_significant_digits(tmp_path):
    recs = [TrialRecord(trial=0, method="a", cost=1.0 / 3.0, wall_time=0.0,
                        iterations=1, converged=True)]
    path = tmp_path / "c.csv"
    write_campaign_csv(recs, path)
    with open(path) as fh:
        cost_field = list(csv.reader(fh))[1][2]
    assert cost_field == "0.333333333333"
