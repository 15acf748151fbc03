"""Reference solvers: greedy construction, fractional rounding, brute force."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .instances import eval_p1

BRUTE_FORCE_CAP = 24
_CHUNK_BITS = 16  # enumerate corners in chunks of 2^16


@dataclass(frozen=True)
class SetSolution:
    """A feasible binary solution as the set of agents switched on."""

    chosen: tuple
    cost: float

    def bits(self, n):
        x = np.zeros(n, dtype=int)
        if self.chosen:
            x[list(self.chosen)] = 1
        return x


def _exact(instance, chosen):
    """Freeze a chosen set with its cost recomputed under the instance evaluator."""
    chosen = tuple(sorted(int(i) for i in chosen))
    x = np.zeros(instance.n)
    if chosen:
        x[list(chosen)] = 1.0
    return SetSolution(chosen=chosen, cost=eval_p1(instance, x))


def _set_cost(instance, total_output, incr_sum):
    base = float(instance.passive.sum())
    mismatch = total_output - instance.target
    return base + incr_sum + 0.5 * instance.penalty * mismatch * mismatch


def greedy(instance):
    """Repeatedly switch on the agent that lowers cost most; stop when none does."""
    n = instance.n
    c = instance.incr_cost
    p = instance.output
    chosen = []
    free = np.ones(n, dtype=bool)
    total, incr = 0.0, 0.0
    cost = _set_cost(instance, total, incr)
    while free.any():
        idx = np.flatnonzero(free)
        cand = (
            float(instance.passive.sum())
            + incr
            + c[idx]
            + 0.5 * instance.penalty * (total + p[idx] - instance.target) ** 2
        )
        k = int(np.argmin(cand))  # ties resolve to the lowest index
        if cand[k] >= cost:
            break
        i = int(idx[k])
        chosen.append(i)
        free[i] = False
        total += p[i]
        incr += c[i]
        cost = float(cand[k])
    return _exact(instance, chosen)


def round_relaxed(x_frac, instance):
    """Round a fractional point by descending value with strict-improvement stops."""
    x_frac = np.asarray(x_frac, dtype=float)
    order = np.argsort(-x_frac, kind="stable")  # ties resolve to the lowest index
    chosen = []
    total, incr = 0.0, 0.0
    cost = _set_cost(instance, total, incr)
    for i in order:
        i = int(i)
        total_new = total + instance.output[i]
        incr_new = incr + instance.incr_cost[i]
        cost_new = _set_cost(instance, total_new, incr_new)
        if cost_new >= cost:
            break
        chosen.append(i)
        total, incr, cost = total_new, incr_new, cost_new
    return _exact(instance, chosen)


def brute_force(instance, cap=BRUTE_FORCE_CAP):
    """Exhaustive minimum over all 2^n corners.

    Ties break toward the lexicographically smallest bit vector (bit 0 is
    the most significant position in the enumeration order).
    """
    n = instance.n
    if n > cap:
        raise SizeError(f"brute force refused: n={n} exceeds cap {cap}")
    c = instance.incr_cost
    p = instance.output
    base = float(instance.passive.sum())
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)  # bit 0 of x <-> MSB of code
    best_cost = np.inf
    best_code = 0
    chunk = 1 << min(_CHUNK_BITS, n)
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts) & 1).astype(float)
        costs = (
            base
            + bits @ c
            + 0.5 * instance.penalty * (bits @ p - instance.target) ** 2
        )
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_code = start + k
    chosen = tuple(i for i in range(n) if (best_code >> (n - 1 - i)) & 1)
    return _exact(instance, chosen)


# Name -> solver for the CLI and campaigns. The lambdas look the function up
# when called, so a wrapper installed on this module is the one that runs.
SOLVERS = {
    "greedy": lambda instance: greedy(instance),
    "brute": lambda instance: brute_force(instance),
}
