#!/usr/bin/env python3
"""Two SHA-256 digests over the flow results of the benchmark workloads' seed-0 inputs.

    PYTHONPATH=src python tests/result_digest.py

Two source trees give the same digest on one host exactly when their flows
return the same bytes on these inputs. binalloc is imported from
``PYTHONPATH``, so ``PYTHONPATH=<other checkout>/src`` digests that checkout;
the inputs are built by ``perfbench/benchkit``, which is only read:

- campaign-n20 units 0-3: every flow result of each ``run_campaign`` call;
- newton-n200 and sparse-n2000 inputs 0-1, each method annealed with its
  seed and the workloads' ``SOLVE_CONFIG``.

The first line hashes a result by its final state, bits, cost, iterations,
convergence, final knobs, round ends and every trajectory sample, and a flow
that raises by its exception and step count. The second hashes the solutions
alone: a result without its iterations and trajectory, a failure by its class
and message. A change that only alters how a solve counts or samples its steps
keeps the second line. The name does not start with ``test_``: pytest skips it.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from benchkit import env  # noqa: E402  (pins the BLAS threads before numpy loads, as perfbench does)

env.pin_threads()
from benchkit import workloads  # noqa: E402

from binalloc import bench, dynamics  # noqa: E402
from binalloc.errors import BinallocError  # noqa: E402

SEED = 0


def _feed(h, *parts):
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
        h.update(b"|")


def _feed_result(h, result, exc):
    if result is None:
        _feed(h, type(exc).__name__, str(exc), getattr(exc, "iterations", 0))
        return
    _feed(h, result.x_final, result.y_final, result.bits, result.cost, result.iterations,
          result.converged, astuple(result.thermo_final), *result.round_ends)
    for sample in result.trajectory:
        _feed(h, *sample)


def _feed_solution(h, result, exc):
    if result is None:
        _feed(h, type(exc).__name__, str(exc))
        return
    _feed(h, result.x_final, result.y_final, result.bits, result.cost, result.converged,
          astuple(result.thermo_final), *result.round_ends)


def results():
    """(instance, graph, result, exc) of every flow solve, in a fixed order."""
    out = []
    campaign = workloads.make("campaign-n20")
    for k in range(4):
        config = bench.CampaignConfig(n=campaign.n, trials=1, seed=workloads._int_seed([SEED, k]),
                                      methods=campaign.methods)
        with workloads._tapped(out):
            bench.run_campaign(config)
    for name in ("newton-n200", "sparse-n2000"):
        anneals = workloads.make(name)
        for k in range(2):
            inp = anneals.prepare_input(SEED, k)
            for flow, seed in zip(anneals.flows, inp.seeds):
                graph = inp.graph if flow == "binnn-d" else None
                try:
                    result, exc = dynamics.anneal(flow, inp.instance, graph,
                                                  replace(anneals.solver, seed=seed)), None
                except BinallocError as err:  # a failure is part of the behaviour digested
                    result, exc = None, err
                out.append((inp.instance, graph, result, exc))
    return out


def main():
    full, solutions = hashlib.sha256(), hashlib.sha256()
    solves = results()
    for _, _, result, exc in solves:
        _feed_result(full, result, exc)
        _feed_solution(solutions, result, exc)
    failed = sum(result is None for _, _, result, _ in solves)
    print(f"{len(solves)} flow results ({failed} raised)", file=sys.stderr)
    print(full.hexdigest())
    print(solutions.hexdigest())


if __name__ == "__main__":
    main()
