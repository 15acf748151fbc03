"""Reference solvers: greedy construction, fractional rounding, brute force."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import SizeError
from .instances import _vec, eval_p1

BRUTE_FORCE_CAP = 24
_CHUNK_BITS = 12  # score corners in chunks of 2^12, so time scales with 2^n


@dataclass(frozen=True)
class SetSolution:
    """A feasible binary solution: the agents switched on, its bits, its cost, and
    ``iterations``, the sets its solver walked (the empty set and each set greedy or
    rounding grew to; all 2^n for brute force). A set solver always stops: converged."""

    chosen: tuple
    bits: np.ndarray = field(compare=False)  # chosen, spelled out: equality and hash skip it
    cost: float
    iterations: int
    converged: ClassVar[bool] = True


def _exact(instance, chosen, iterations):
    """Freeze a chosen set with its cost recomputed under the instance evaluator."""
    chosen = tuple(sorted(int(i) for i in chosen))
    bits = np.zeros(instance.n, dtype=int)
    bits[list(chosen)] = 1
    return SetSolution(chosen, bits, eval_p1(instance, bits), iterations)


def _set_cost(instance, base, total_output, incr_sum):
    """P1 on bits, the one price of a set: ``base`` + on-costs + penalty; arrays price many sets."""
    mismatch = total_output - instance.target
    return base + incr_sum + 0.5 * instance.penalty * np.square(mismatch)


def _switch_on(instance, next_agent):
    """Switch agents on while the cost strictly falls. ``next_agent(total, incr, base)`` names
    the next agent to try, or None; it gets the set's output and cost sums and the passive sum."""
    c, p = instance.incr_cost, instance.output
    chosen, total, incr, base = [], 0.0, 0.0, float(instance.passive.sum())  # summed once
    cost = _set_cost(instance, base, total, incr)
    while (i := next_agent(total, incr, base)) is not None:
        total_new, incr_new = total + p[i], incr + c[i]
        cost_new = _set_cost(instance, base, total_new, incr_new)
        if cost_new >= cost:
            break
        chosen.append(i)
        total, incr, cost = total_new, incr_new, cost_new
    return _exact(instance, chosen, len(chosen) + 1)


def greedy(instance):
    """Repeatedly switch on the agent that lowers cost most; stop when none does."""
    c, p = instance.incr_cost, instance.output
    free = np.ones(instance.n, dtype=bool)

    def cheapest(total, incr, base):  # every free agent priced at once; ties: the lowest index
        idx = np.flatnonzero(free)
        if not idx.size:
            return None
        i = int(idx[np.argmin(_set_cost(instance, base, total + p[idx], incr + c[idx]))])
        free[i] = False
        return i

    return _switch_on(instance, cheapest)


def round_relaxed(x_frac, instance):
    """Round a fractional point by descending value with strict-improvement stops."""
    x_frac = _vec(x_frac, instance.n, "x_frac")
    order = iter(np.argsort(-x_frac, kind="stable").tolist())  # ties resolve to the lowest index
    return _switch_on(instance, lambda *_: next(order, None))


def _subset_sums(values):
    """Column ``code`` sums the columns of ``values`` whose bits are set in it
    (the last column is the least significant bit); built by doubling."""
    m = values.shape[1]
    sums = np.zeros((len(values), 1 << m))
    for j in range(m):
        sums[:, 1 << j : 2 << j] = sums[:, : 1 << j] + values[:, m - 1 - j, None]
    return sums


def brute_force(instance):
    """Exhaustive minimum over all 2^n corners in O(2^n) time.

    Subset sums of a high and a low half of the agents (Horowitz & Sahni
    1974) score each high-half prefix against the whole low half at once.
    Ties break toward the lexicographically smallest bit vector (bit 0 is
    the most significant position in the enumeration order).
    """
    n = instance.n
    if n > BRUTE_FORCE_CAP:
        raise SizeError(f"brute force refused: n={n} exceeds cap {BRUTE_FORCE_CAP}")
    split = n - min(_CHUNK_BITS, n)
    values = np.stack((instance.incr_cost, instance.output))
    c_lo, p_lo = _subset_sums(values[:, split:])
    c_hi, p_hi = _subset_sums(values[:, :split])
    best_cost = np.inf
    best_code = 0
    for prefix in range(len(c_hi)):
        costs = _set_cost(instance, c_hi[prefix], p_lo + p_hi[prefix], c_lo)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_code = (prefix << (n - split)) + k
    chosen = tuple(i for i in range(n) if (best_code >> (n - 1 - i)) & 1)
    return _exact(instance, chosen, 1 << n)


# Name -> solver for the CLI and campaigns. The lambdas look the function up
# when called, so a wrapper installed on this module is the one that runs.
SOLVERS = {
    "greedy": lambda instance: greedy(instance),
    "brute": lambda instance: brute_force(instance),
}
