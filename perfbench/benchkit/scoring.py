"""Output checks and the scoring rules behind the benchmark's metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from binalloc.instances import eval_p1

# |sum(y)| may reach this share of sum(|y|): far above the roundoff of a
# healthy run (about 1e-16 at n=2000) and far below a run whose auxiliary
# flow diverged.
SIGMA_Y_RTOL = 1e-8
# A result's cost must re-evaluate to this relative precision.
COST_RTOL = 1e-9
# A record this far below the exact optimum means the checker or the
# reference is wrong, not that the method did well.
BELOW_OPTIMUM_RTOL = 1e-9


@dataclass
class Solve:
    """One attempted solve as the benchmark scores it."""

    method: str
    cost: float  # as returned; inf when the library reported a failure
    ref: float  # brute optimum (campaign-n20) or greedy cost
    all_off: float  # eval_p1(instance, 0): the score of a failed solve
    wall: float  # seconds around the library call
    failure: str | None = None  # None for a successful solve
    iterations: int = 0  # flow steps, from the RunResult
    run_wall: float = 0.0  # RunResult.wall_time
    converged: bool = False
    has_result: bool = False  # a RunResult was returned and checked
    reported: bool = False  # the library raised a BinallocError, its way of reporting a failed solve

    @property
    def ok(self):
        return self.failure is None

    @property
    def invalid(self):
        """A failure the library did not report: an output that fails the checks."""
        return not self.ok and not self.reported

    @property
    def score(self):
        """Cost counted for quality: a failure costs as much as switching every agent off."""
        return self.cost if self.ok else self.all_off


def all_off_cost(instance):
    return eval_p1(instance, np.zeros(instance.n))


def result_violations(instance, result):
    """Reasons a returned RunResult is not a valid solve; empty when it is.

    The state must stay in the open cube, the cost must be finite and equal
    eval_p1 of the returned bits, and for the distributed flow the sum of
    the auxiliary variable, which the flow conserves from zero, must not
    have drifted.
    """
    out = []
    x = np.asarray(result.x_final, dtype=float)
    if not np.all((x > 0.0) & (x < 1.0)):
        out.append("x_final left the open cube")
    if not math.isfinite(result.cost):
        out.append("cost is not finite")
    elif not math.isclose(result.cost, eval_p1(instance, result.bits), rel_tol=COST_RTOL):
        out.append("cost differs from eval_p1(bits)")
    if result.y_final is not None:
        y = np.asarray(result.y_final, dtype=float)
        if not np.all(np.isfinite(y)):
            out.append("y_final is not finite")
        else:
            drift = abs(float(y.sum()))
            if drift > SIGMA_Y_RTOL * max(1.0, float(np.abs(y).sum())):
                out.append(f"sum(y) drifted to {float(y.sum()):.3g}")
    return out


def below_optimum(cost, optimum):
    """True when a finite cost lies below the exact optimum beyond roundoff."""
    return math.isfinite(cost) and cost < optimum - BELOW_OPTIMUM_RTOL * abs(optimum)


def latency_percentile(solves, q, min_beyond=0):
    """The q-th percentile of the solves' wall times; None when fewer than
    `min_beyond` solves lie beyond it.

    A failed solve counts as slower than any measured time, so failures
    cannot make the percentiles look faster. Where the percentile falls
    among failures, the result is the longest measured time, a lower bound.
    """
    if len(solves) * (100 - q) < min_beyond * 100:
        return None
    values = [s.wall if s.ok else math.inf for s in solves]
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(values, q))
    return value if math.isfinite(value) else max(s.wall for s in solves)


def goodput(solves, wall):
    """Successful solves per second of wall time spent in the library."""
    return sum(s.ok for s in solves) / wall


def gap(solves):
    """Mean of (score - ref)/|ref| over attempted solves, failures scored all-off."""
    return float(np.mean([(s.score - s.ref) / abs(s.ref) for s in solves]))


def by_method(solves):
    out = {}
    for s in solves:
        out.setdefault(s.method, []).append(s)
    return out


def method_p50(solves):
    """Median over methods of each method's median solve time.

    Methods differ in cost by up to 100x, so the median of the pooled times
    sits on the edge between two methods and jumps with their extremes;
    taking each method's median first keeps it at a typical solve.
    """
    return float(np.median([latency_percentile(ms, 50) for ms in by_method(solves).values()]))


def cost_ratio(solves):
    """Geometric mean over methods of each method's mean score/ref (1 + its gap).

    Each method weighs the same, so one method's large ratio does not hide
    another method's change. Positive when every ref is.
    """
    ratios = [np.mean([s.score / s.ref for s in ms]) for ms in by_method(solves).values()]
    return float(np.exp(np.mean(np.log(ratios))))
