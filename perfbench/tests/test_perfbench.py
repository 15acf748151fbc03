"""Tests of the benchmark itself: scoring rules, output checks, tracing, the
metric names against BENCHMARK.json, and a small smoke run of each workload."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from benchkit import hostspeed, report, scoring, tracing, workloads  # noqa: E402
from benchkit.scoring import Solve  # noqa: E402
from binalloc import bench, dynamics, graphs, instances  # noqa: E402
from binalloc.errors import NumericFailureError  # noqa: E402


def _solve(ok=True, cost=2.0, ref=1.0, all_off=5.0, wall=1.0, method="hnn-da"):
    return Solve(method, cost, ref, all_off, wall, None if ok else "diverged")


# --- scoring rules -----------------------------------------------------------


def test_failure_is_scored_at_the_all_off_cost():
    failed = _solve(ok=False, cost=math.inf)
    assert failed.score == 5.0
    # a failure with a finite cost (a broken invariant) is scored all-off too
    assert _solve(ok=False, cost=1.5).score == 5.0
    assert scoring.gap([_solve(cost=2.0), failed]) == pytest.approx((1.0 + 4.0) / 2)
    assert scoring.cost_ratio([_solve(cost=2.0), failed]) == pytest.approx((2.0 + 5.0) / 2)


def test_cost_ratio_and_p50_weigh_each_method_the_same():
    solves = [_solve(cost=2.0, method="a")] * 3 + [_solve(cost=8.0, method="b")]
    assert scoring.cost_ratio(solves) == pytest.approx(4.0)  # sqrt(2 * 8)
    timed = [_solve(wall=1.0, method="a")] * 5 + [_solve(wall=3.0, method="b")] * 5
    assert scoring.method_p50(timed) == pytest.approx(2.0)


def test_all_off_cost_is_eval_p1_at_zero():
    inst = instances.random_instance(6, 0)
    assert scoring.all_off_cost(inst) == pytest.approx(0.5 * inst.penalty * inst.target**2)


def test_goodput_counts_only_successful_solves():
    assert scoring.goodput([_solve(), _solve(ok=False)], 4.0) == pytest.approx(0.25)
    # greedy and brute solves of a campaign count like any other
    both = [_solve(method="greedy"), _solve(method="brute"), _solve(method="binnn-d", ok=False)]
    assert scoring.goodput(both, 2.0) == pytest.approx(1.0)


def test_percentile_needs_ten_samples_beyond_it():
    solves = [_solve(wall=float(w)) for w in range(100)]
    assert scoring.latency_percentile(solves[:99], 90, min_beyond=10) is None
    assert scoring.latency_percentile(solves, 90, min_beyond=10) == pytest.approx(
        np.percentile(range(100), 90)
    )
    assert scoring.latency_percentile(solves[:3], 50) == 1.0


def test_failures_count_as_slower_than_any_solve():
    solves = [_solve(wall=1.0), _solve(wall=2.0), _solve(ok=False, wall=0.1)]
    assert scoring.latency_percentile(solves, 50) == 2.0
    # a percentile among the failures reads as the longest measured time
    assert scoring.latency_percentile(solves, 100) == 2.0
    assert scoring.latency_percentile([_solve(ok=False, wall=0.5)], 50) == 0.5


def test_below_optimum_allows_roundoff_only():
    assert not scoring.below_optimum(100.0, 100.0)
    assert not scoring.below_optimum(100.0 - 1e-9, 100.0)
    assert scoring.below_optimum(99.0, 100.0)
    assert not scoring.below_optimum(math.inf, 100.0)


# --- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def solved():
    inst = instances.random_instance(8, 1)
    graph = graphs.named_topology("ring", 8)
    config = replace(workloads.SOLVE_CONFIG, seed=3)
    return (
        inst,
        dynamics.anneal("hnn", inst, None, config),
        dynamics.anneal("binnn-d", inst, graph, config),
    )


def test_healthy_results_pass_the_checks(solved):
    inst, central, distributed = solved
    assert scoring.result_violations(inst, central) == []
    assert scoring.result_violations(inst, distributed) == []


def test_each_broken_invariant_is_reported(solved):
    inst, central, distributed = solved
    out = central.x_final.copy()
    out[0] = 1.0
    assert scoring.result_violations(inst, replace(central, x_final=out)) == [
        "x_final left the open cube"
    ]
    assert scoring.result_violations(inst, replace(central, cost=math.inf)) == ["cost is not finite"]
    assert scoring.result_violations(inst, replace(central, cost=central.cost + 1.0)) == [
        "cost differs from eval_p1(bits)"
    ]
    drifted = distributed.y_final + 1.0
    assert scoring.result_violations(inst, replace(distributed, y_final=drifted))[0].startswith(
        "sum(y) drifted"
    )
    blown = distributed.y_final.copy()
    blown[0] = np.nan
    assert scoring.result_violations(inst, replace(distributed, y_final=blown)) == [
        "y_final is not finite"
    ]


def test_campaign_record_below_brute_is_a_checker_error():
    inst = instances.random_instance(4, 0)
    rec = bench.TrialRecord(0, "greedy", 10.0, 0.0, 1, True)
    brute = bench.TrialRecord(0, "brute", 20.0, 0.0, 16, True)
    result = dynamics.run("hnn", inst, None, replace(workloads.SOLVE_CONFIG, t_max=0.05, seed=0))
    hnn = bench.TrialRecord(0, "hnn", result.cost, 0.0, result.iterations, result.converged)
    acc = workloads.Pass()
    workloads.score_campaign([hnn, rec, brute], [(inst, None, result, None)], acc)
    assert len(acc.errors) == 1 and "below the brute optimum" in acc.errors[0]
    assert len(acc.solves) == 3


def test_campaign_failure_is_counted_and_kept():
    inst = instances.random_instance(4, 0)
    exc = NumericFailureError("non-finite flow rate")
    failed = bench.TrialRecord(0, "binnn-d", math.inf, 0.1, 0, False)
    brute = bench.TrialRecord(0, "brute", 20.0, 0.0, 16, True)
    acc = workloads.Pass()
    workloads.score_campaign([failed, brute], [(inst, None, None, exc)], acc)
    assert acc.errors == []
    assert [s.ok for s in acc.solves] == [False, True]
    assert acc.solves[0].reported and not acc.solves[0].invalid
    assert acc.solves[0].score == scoring.all_off_cost(inst)


def test_result_line_fails_only_invalid_outputs():
    # the library raising is an outcome of the method, scored by success_frac;
    # an output that fails the checks is a failed operation
    reported = Solve("binnn-d", math.inf, 1.0, 5.0, 0.1, "NumericFailureError: x", reported=True)
    invalid = _solve(ok=False)
    acc = workloads.Pass(solves=[_solve(), reported, invalid])
    line = report.result_line(workloads.Outcome(acc), {}, {})
    assert (line["attempted"], line["failed"]) == (3, 1)
    assert sum(s.ok for s in acc.solves) / len(acc.solves) == pytest.approx(1 / 3)


# --- tracing -----------------------------------------------------------------


def test_tracer_records_parents_solves_and_self_time():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    tracer = tracing.Tracer()
    original = mod.outer
    with tracer.patched([(mod, "outer", "outer", True), (mod, "inner", "inner", False)]):
        mod.outer()
        mod.outer()
    assert mod.outer is original
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"] * 2
    assert [s[3] for s in tracer.spans[:4]] == [-1, 0, 0, 0]
    assert [s[4] for s in tracer.spans] == [0] * 4 + [1] * 4
    totals, inside, inside_calls, solve_s, self_s = tracing.layer_times(tracer.spans, ("outer",))
    assert set(totals) == {"outer", "inner"} and inside_calls == {"inner": 6}
    assert solve_s == pytest.approx(totals["outer"])
    assert self_s == pytest.approx(solve_s - inside["inner"])
    assert 0.0 <= self_s <= solve_s


def test_tracer_writes_every_span(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("a", solve=True):
        with tracer.span("b"):
            pass
    tracer.write_csv(tmp_path / "spans.csv")
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "id,name,start,end,parent,solve"
    assert [r.split(",")[1] for r in rows[1:]] == ["a", "b"]
    assert rows[2].split(",")[4:] == ["0", "0"]


# --- metric names and smoke runs ------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == report.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == report.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == ["campaign-n20", "newton-n200", "sparse-n2000"]


def _probe():
    return hostspeed.Probe(hostspeed.small_flow(steps=5), 1e-3)


SMALL = {
    "campaign-n20": lambda: workloads.Campaign("campaign-n20", 6, _probe(), quality_units=2),
    "newton-n200": lambda: workloads.Anneals("newton-n200", 10, ("binnn-c-da",), None, inputs=2),
    "sparse-n2000": lambda: workloads.Anneals(
        "sparse-n2000", 30, ("hnn-da", "binnn-d-da"), _probe(), inputs=2, topology="ring"
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 2)
    outcome = workloads.run(SMALL[name](), seed=0, seconds=0.01, trace=trace)
    assert outcome.main.units >= 2 and outcome.main.quality_n is not None
    if trace:
        metrics, units = report.per_layer(outcome), report.per_layer_units()
    else:
        assert len(outcome.setup) == 2
        metrics, units = report.end_to_end(outcome), report.END_TO_END_UNITS
    line = report.result_line(outcome, metrics, units)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    assert set(line["metrics"]) == set(units)
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    if trace:
        assert outcome.traced.units == outcome.main.units
        assert metrics["dynamics.solve_s"] > 0
        if name == "sparse-n2000":
            assert metrics["dynamics.eigh_calls"] == 0
        if name == "campaign-n20":
            assert metrics["dynamics.samples"] == 0
            assert metrics["baselines.brute_s"] > 0
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        assert len(outcome.main.unit_goodput) == outcome.main.units


def test_times_are_scaled_by_the_host_speed_factor():
    probe = hostspeed.Probe(lambda: None, 1.0)
    probe.times = [2.0, 4.0, 3.0]
    assert probe.factor() == 3.0
    # two samples on a host twice as slow as the reference, one four times
    twice = workloads.SetupSample(
        numpy_s=2 * hostspeed.NUMPY_IMPORT_REF_S,
        import_s=0.5,
        probe_s=2 * hostspeed.SMALL_FLOW_REF_S,
        prep_s=1.0,
    )
    slow = replace(twice, numpy_s=2 * twice.numpy_s, probe_s=2 * twice.probe_s, import_s=1.0, prep_s=2.0)
    outcome = workloads.Outcome(
        main=workloads.Pass(solves=[_solve(wall=6.0)], unit_goodput=[0.5]),
        setup=[twice, twice, slow],
        speed=3.0,
    )
    metrics = report.end_to_end(outcome)
    assert metrics["setup_s"] == pytest.approx(0.75)
    assert report.as_timed(outcome)["setup_s"] == pytest.approx(1.5)
    assert metrics["goodput"] == pytest.approx(1.5)
    assert metrics["solve_s.p50"] == pytest.approx(2.0)


def test_quality_is_scored_on_the_first_units_only():
    acc = workloads.Pass(solves=[_solve(cost=2.0), _solve(cost=3.0), _solve(ok=False)])
    assert acc.quality == acc.solves
    acc.quality_n = 2
    outcome = workloads.Outcome(main=acc, setup=[workloads.SetupSample(0.1, 0.1, 0.02, 0.0)])
    acc.unit_goodput = [1.0]
    metrics = report.end_to_end(outcome)
    assert metrics["success_frac"] == 1.0
    assert metrics["cost_ratio"] == pytest.approx(2.5)


def test_same_seed_gives_same_inputs():
    a = workloads.make("newton-n200").prepare(5)
    b = workloads.make("newton-n200").prepare(5)
    assert all(np.array_equal(x.instance.output, y.instance.output) for x, y in zip(a, b))
    assert [x.seeds for x in a] == [y.seeds for y in b]
    c = workloads.make("newton-n200").prepare(6)
    assert not np.array_equal(a[0].instance.output, c[0].instance.output)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-n20", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
