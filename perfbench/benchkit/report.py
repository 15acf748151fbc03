"""Metrics from a measured run: end-to-end (tracing off) and per layer (traced)."""

from __future__ import annotations

import resource
import statistics
from collections import Counter

import numpy as np

from binalloc import bench

from . import hostspeed, scoring, tracing
from .workloads import CTX_SPANS, SAMPLE_SPANS, SOLVE_SPANS

NEURAL = ("binnn-c", "binnn-c-da", "binnn-d", "binnn-d-da", "hnn", "hnn-da")
GAP_METHODS = NEURAL + ("greedy",)
Q_METHODS = GAP_METHODS + ("brute",)
FLOWS = ("binnn-c", "hnn", "binnn-d")

END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput": "1/s",
    "solve_s.p50": "s",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
    "cost_ratio": "ratio",
}


def per_layer_units():
    units = {"dynamics.solves": "count", "dynamics.solve_s": "s"}
    units.update({f"dynamics.step_us.{f}": "us" for f in FLOWS})
    units.update({f"dynamics.steps.{m}": "count" for m in NEURAL})
    units.update(
        {
            "dynamics.converged_frac": "fraction",
            "dynamics.eigh_s": "s",
            "dynamics.eigh_calls": "count",
            "dynamics.sample_s": "s",
            "dynamics.samples": "count",
            "dynamics.other_s": "s",
            "energy.ctx_s": "s",
            "energy.ctx_calls": "count",
            "energy.grad_us": "us",
            "energy.pt_inverse_us": "us",
            "energy.grad_y_tilde_us": "us",
            "baselines.brute_s": "s",
            "baselines.greedy_s": "s",
            "graphs.build_s": "s",
            "instances.generate_s": "s",
            "bench.overhead_s": "s",
        }
    )
    units.update({f"bench.q.{m}": "score" for m in Q_METHODS})
    units.update({f"gap.{m}": "ratio" for m in GAP_METHODS})
    units["trace.overhead_frac"] = "fraction"
    return units


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_seconds(samples, scaled=True):
    """Median over the set-up samples of import plus input set-up time.

    Scaled, each part is divided by the speed factor of the probe timed
    next to it: the import by the fresh interpreter's own ``import numpy``,
    the input set-up by the small-flow probe.
    """
    if scaled:
        return statistics.median(
            hostspeed.NUMPY_IMPORT_REF_S * s.import_s / s.numpy_s
            + hostspeed.SMALL_FLOW_REF_S * s.prep_s / s.probe_s
            for s in samples
        )
    return statistics.median(s.import_s + s.prep_s for s in samples)


def as_timed(outcome):
    """setup_s, goodput and solve_s.p50 as timed on this host, unscaled."""
    main = outcome.main
    return {
        "setup_s": setup_seconds(outcome.setup, scaled=False),
        "goodput": statistics.median(main.unit_goodput),
        "solve_s.p50": scoring.method_p50(main.solves),
    }


def end_to_end(outcome):
    """The gated metrics. Times are scaled to the reference host by the
    probes timed next to them; quality is taken over the quality units."""
    raw = as_timed(outcome)
    quality = outcome.main.quality
    return {
        "setup_s": setup_seconds(outcome.setup),
        "goodput": raw["goodput"] * outcome.speed,
        "solve_s.p50": raw["solve_s.p50"] / outcome.speed,
        "success_frac": sum(s.ok for s in quality) / len(quality),
        "peak_rss_mb": peak_rss_mb(),
        "cost_ratio": scoring.cost_ratio([s for s in quality if s.method in NEURAL]),
    }


def gaps(solves):
    """gap.<method>: 0 for a method this workload does not run (greedy is the
    reference on the anneal workloads, so its gap is 0 there by definition)."""
    out = {}
    for m in GAP_METHODS:
        mine = [s for s in solves if s.method == m]
        out[f"gap.{m}"] = scoring.gap(mine) if mine else 0.0
    return out


def per_layer(outcome):
    """Result-derived numbers come from the untraced pass, timings from the traced one."""
    main, traced = outcome.main, outcome.traced
    metrics = {}
    with_result = [s for s in main.solves if s.has_result]
    metrics["dynamics.solves"] = float(len(with_result))
    for flow in FLOWS:
        mine = [s for s in with_result if s.method.removesuffix("-da") == flow]
        steps = sum(s.iterations for s in mine)
        step_us = 1e6 * sum(s.run_wall for s in mine) / steps if steps else 0.0
        metrics[f"dynamics.step_us.{flow}"] = step_us
    for m in NEURAL:
        mine = [s.iterations for s in with_result if s.method == m]
        metrics[f"dynamics.steps.{m}"] = float(np.mean(mine)) if mine else 0.0
    metrics["dynamics.converged_frac"] = (
        sum(s.converged for s in with_result) / len(with_result) if with_result else 0.0
    )

    totals, inside, inside_calls, solve_s, self_s = tracing.layer_times(
        outcome.tracer.spans, SOLVE_SPANS
    )
    metrics["dynamics.solve_s"] = solve_s
    metrics["dynamics.eigh_s"] = inside.get("numpy.linalg.eigh", 0.0)
    metrics["dynamics.eigh_calls"] = float(inside_calls.get("numpy.linalg.eigh", 0))
    metrics["dynamics.sample_s"] = sum(inside.get(k, 0.0) for k in SAMPLE_SPANS)
    metrics["dynamics.samples"] = float(sum(inside_calls.get(k, 0) for k in SAMPLE_SPANS))
    metrics["dynamics.other_s"] = self_s
    metrics["energy.ctx_s"] = sum(inside.get(k, 0.0) for k in CTX_SPANS)
    metrics["energy.ctx_calls"] = float(sum(inside_calls.get(k, 0) for k in CTX_SPANS))
    metrics.update(outcome.probes)
    metrics["baselines.brute_s"] = totals.get("baselines.brute_force", 0.0)
    metrics["baselines.greedy_s"] = totals.get("baselines.greedy", 0.0)
    metrics["graphs.build_s"] = totals.get("graphs.named_topology", 0.0) + totals.get(
        "graphs.random_connected_graph", 0.0
    )
    metrics["instances.generate_s"] = totals.get("instances.random_instance", 0.0)
    metrics["bench.overhead_s"] = main.overhead_s

    q = bench.q_metric(main.records)
    metrics.update({f"bench.q.{m}": float(q.get(m, 0.0)) for m in Q_METHODS})
    metrics.update(gaps(main.quality))
    metrics["trace.overhead_frac"] = traced.wall / main.wall - 1.0
    return metrics


def summary_lines(outcome, env):
    """Human-readable context printed above the result line."""
    passes = [outcome.main] + ([outcome.traced] if outcome.traced else [])
    solves = [s for p in passes for s in p.solves]
    failed = [s for s in solves if not s.ok]
    by_method = Counter(s.method for s in failed)
    lines = [
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"solves: attempted {len(solves)}, unsuccessful {len(failed)}, "
        f"fail_frac {len(failed) / len(solves):.4g}"
        + (" (" + ", ".join(f"{m} {c}" for m, c in sorted(by_method.items())) + ")" if failed else ""),
        f"  reported by the library {sum(s.reported for s in failed)}, "
        f"invalid outputs {sum(s.invalid for s in failed)}",
    ]
    reasons = Counter(s.failure.split(":")[0] for s in failed)
    for reason, count in sorted(reasons.items()):
        lines.append(f"  failure: {reason} x{count}")
    main = outcome.main.solves
    p90 = scoring.latency_percentile(main, 90, min_beyond=10)
    lines.append(
        f"solve_s: pooled p50 {scoring.latency_percentile(main, 50):.4g} s"
        + (f", p90 {p90:.4g} s" if p90 is not None else ", p90 not reported (fewer than 10 beyond it)")
        + f", n={len(main)} solves ({sum(s.ok for s in main)} successful) in {outcome.main.units} units"
    )
    lines.append(f"quality scored over the first {len(outcome.main.quality)} solves")
    for m, ms in scoring.by_method(outcome.main.quality).items():
        lines.append(
            f"{m}: p50 {scoring.latency_percentile(ms, 50):.4g} s, gap {scoring.gap(ms):.6g}, "
            f"{sum(not s.ok for s in ms)} of {len(ms)} failed"
        )
    if outcome.setup:
        raw = as_timed(outcome)
        med = {k: statistics.median(getattr(s, k) for s in outcome.setup) for k in vars(outcome.setup[0])}
        lines.append(
            f"set-up: {len(outcome.setup)} samples, import {med['import_s']:.4g} s"
            f" (numpy {med['numpy_s']:.4g} s) + input {med['prep_s']:.4g} s (probe {med['probe_s']:.4g} s)"
        )
        lines.append(
            f"host speed factor {outcome.speed:.4g} in the units; as timed here: "
            + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
        )
    errors = [e for p in passes for e in p.errors]
    lines.append(f"checks: {len(errors)} checker errors")
    lines.extend(f"  checker error: {e}" for e in errors[:20])
    return lines


def result_line(outcome, metrics, units):
    """The contract's last line: correct, attempted, failed and the metrics.

    `failed` counts the solves whose output fails the checks. A failure the
    library reports by raising is a measured outcome of the method, not a
    failed operation: it is scored in success_frac and cost_ratio and
    printed as part of fail_frac, and it would make `failed` hang on how
    many units fit in the run.
    """
    passes = [outcome.main] + ([outcome.traced] if outcome.traced else [])
    solves = [s for p in passes for s in p.solves]
    return {
        "correct": not any(p.errors for p in passes),
        "attempted": len(solves),
        "failed": sum(s.invalid for s in solves),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
