import csv
from dataclasses import fields, replace

import numpy as np
import pytest

from binalloc import AnnealSchedule, Instance, SolverConfig, Thermo, baselines, bench, dynamics
from binalloc.bench import (
    NN_METHODS,
    CampaignConfig,
    TrialRecord,
    q_metric,
    run_campaign,
    solve_with_method,
    write_campaign_csv,
    write_q_csv,
)
from binalloc.cli import build_parser
from binalloc.errors import IncompleteCampaignError
from binalloc.graphs import random_connected_graph
from binalloc.instances import eval_p1, random_instance
from oracles import median_step_time

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
    # a baseline's record counts its work: greedy's additions plus one, or every subset
    assert by["greedy"].iterations >= 1 and by["brute"].iterations == 1 << 8


def test_default_campaign_trial_draws_the_default_instance(monkeypatch):
    drawn = []

    def recording(n, seed, **kwargs):
        instance = random_instance(n, seed, **kwargs)
        drawn.append((instance, random_instance(n, seed)))
        return instance

    monkeypatch.setattr(bench, "random_instance", recording)
    run_campaign(CampaignConfig(n=6, trials=2, methods=("greedy", "brute")))
    assert len(drawn) == 2
    for got, default in drawn:
        for f in fields(Instance):
            assert np.asarray(getattr(got, f.name)).tobytes() == \
                np.asarray(getattr(default, f.name)).tobytes(), f.name


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


@pytest.mark.parametrize("name", ["n", "trials"])
@pytest.mark.parametrize("value", [2.5, 2.0, 0])
def test_campaign_config_refuses_a_count_that_is_not_a_positive_integer(name, value):
    # a fractional trial count would die in SeedSequence.spawn, not as a BinallocError
    with pytest.raises(ValueError, match="n and trials must be integers"):
        CampaignConfig(**{name: value})


def test_annealed_methods_need_a_schedule():
    # dynamics.anneal refuses a config without one, and so does the campaign
    unscheduled = replace(FAST_SOLVER, anneal=None)
    with pytest.raises(ValueError, match="anneal"):
        CampaignConfig(methods=("hnn", "hnn-da"), solver=unscheduled)
    assert CampaignConfig(methods=("hnn", "greedy"), solver=unscheduled).solver.anneal is None
    with pytest.raises(ValueError, match="anneal"):
        solve_with_method("hnn-da", random_instance(4, 0, p_ref=20.0), None, unscheduled)


@pytest.mark.parametrize("start", [
    lambda: run_campaign(CampaignConfig(n=6, trials=2, methods=("greedy", "nope"))),
], ids=["campaign"])
def test_an_unknown_method_is_refused_before_any_solve(monkeypatch, start):
    # refused as the config is built, as an annealed method without a schedule is
    solved = []
    monkeypatch.setattr(bench, "solve_with_method", lambda method, *args: solved.append(method))
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        start()
    assert solved == []


def test_a_method_listed_twice_is_refused_before_any_solve(monkeypatch):
    # a trial keeps one record per method: Q would silently keep the last of two
    solved = []
    monkeypatch.setattr(bench, "solve_with_method", lambda method, *args: solved.append(method))
    with pytest.raises(ValueError, match="listed twice"):
        run_campaign(CampaignConfig(n=4, trials=2, methods=("greedy", "brute", "greedy")))
    assert solved == []


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_campaign_refuses_jobs_below_one_before_any_solve(monkeypatch, jobs):
    solved = []
    monkeypatch.setattr(bench, "solve_with_method", lambda method, *args: solved.append(method))
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        run_campaign(CampaignConfig(n=4, trials=2, methods=("greedy", "brute")), jobs=jobs)
    assert solved == []


@pytest.mark.parametrize("method", ["greedy", "brute", "round", "hnn"])
def test_every_solver_returns_its_bits_cost_and_work(method):
    # one shape for what a solve returns: the campaign and the CLI read any result alike
    inst = random_instance(6, 3, p_ref=60.0)
    if method == "round":
        result = baselines.round_relaxed(np.linspace(0.9, 0.1, 6), inst)
    else:
        result = solve_with_method(method, inst, None, replace(FAST_SOLVER, seed=0))
    assert result.bits.dtype.kind == "i" and result.bits.shape == (6,)
    assert result.cost == eval_p1(inst, result.bits)
    if method == "hnn":
        return
    assert 0 < len(result.chosen) < 6  # a set that is neither empty nor full
    assert result.bits.tolist() == [int(i in result.chosen) for i in range(6)]
    assert result.iterations == (1 << 6 if method == "brute" else len(result.chosen) + 1)
    assert result.converged is True and "converged" not in {f.name for f in fields(result)}


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
    for method in NN_METHODS:
        result = solve_with_method(method, inst, graph, replace(solver, seed=1))
        assert np.isfinite(result.cost) and result.iterations >= 1
    for method in baselines.SOLVERS:
        result = solve_with_method(method, inst, graph, solver)
        assert np.isfinite(result.cost) and isinstance(result, baselines.SetSolution)
    # binalloc solve takes the same names, and a fractional point to round
    solve = build_parser()._subparsers._group_actions[0].choices["solve"]
    choices = solve._option_string_actions["--method"].choices
    assert tuple(choices) == tuple(NN_METHODS) + tuple(baselines.SOLVERS) + ("round",)


def test_median_step_time_positive():
    t = median_step_time("hnn", 20, steps=10, seed=0, repeats=2)
    assert t > 0.0


def test_median_step_time_computes_every_step_it_counts(rate_calls):
    # at these settings hnn freezes, and run() ends before its 50 steps
    cfg = SolverConfig(thermo=Thermo(temp=1.0, time_const=0.1, floor=0.1),
                       step=1e-3, t_max=50e-3, tol_x=1e-30, tol_y=1e-30,
                       sample_stride=0, seed=0)
    result = dynamics.run("hnn", random_instance(20, 0, p_ref=300.0), None, cfg)
    assert result.iterations == rate_calls[0] < 50
    rate_calls[0] = 0
    median_step_time("hnn", 20, steps=50, seed=0, repeats=2)
    assert rate_calls[0] == 100


def test_campaign_records_a_diverged_flow_as_a_numeric_failure():
    # so large an auxiliary gain makes the distributed flow diverge
    solver = replace(FAST_SOLVER, alpha=1e3)
    with np.errstate(all="ignore"):
        records = run_campaign(CampaignConfig(n=8, trials=3, seed=[4, 8], p_ref=120.0,
                                              methods=("binnn-d", "greedy"), solver=solver))
    assert [r.error for r in records if r.method == "binnn-d"] == ["NumericFailureError"] * 3


def test_csv_writers(tmp_path):
    # exact bytes: 12 significant digits, an infinite cost, a failure's class name, booleans
    recs = records_from_table({"a": [1.0, 2.0], "b": [2.0, 1.0]})
    recs[3] = TrialRecord(trial=1, method="b", cost=float("inf"), wall_time=1e-07,
                          iterations=2511, converged=False, error="NumericFailureError")
    path = tmp_path / "out.csv"
    write_campaign_csv(recs, path)
    assert path.read_bytes() == (
        b"trial,method,cost,wall_time,iterations,converged,error\r\n"
        b"0,a,1,0,1,True,\r\n1,a,2,0,1,True,\r\n0,b,2,0,1,True,\r\n"
        b"1,b,inf,1e-07,2511,False,NumericFailureError\r\n"
    )
    write_q_csv(q_metric(recs), path)
    assert path.read_bytes() == b"method,Q\r\na,1\r\nb,0\r\n"


def test_campaign_csv_floats_have_12_significant_digits(tmp_path):
    recs = [TrialRecord(trial=0, method="a", cost=1.0 / 3.0, wall_time=0.0,
                        iterations=1, converged=True)]
    path = tmp_path / "c.csv"
    write_campaign_csv(recs, path)
    with open(path) as fh:
        cost_field = list(csv.reader(fh))[1][2]
    assert cost_field == "0.333333333333"
