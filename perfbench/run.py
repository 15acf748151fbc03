#!/usr/bin/env python3
"""Benchmark of binalloc, run from the root of a source checkout.

    python3 perfbench/run.py --workload campaign-n20 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, tracing off

The library is imported from ``src/`` next to this directory; nothing needs
installing. With ``--trace 0`` the last line of output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics,
and the spans are written to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("campaign-n20", "newton-n200", "sparse-n2000")
# Reserved for confirming a claim after development; no tuning run uses it.
HELDOUT_SEED = 20191105

sys.path.insert(0, str(HERE))
from benchkit import env  # noqa: E402  (must not import numpy before pinning)


def _seed(text):
    return HELDOUT_SEED if text == "heldout" else int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=_seed, default=0, help="workload seed, or 'heldout'")
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Every workload with tracing off, one process each so peak RSS is per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        print(f"== {name}", flush=True)
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = out.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(f"error: {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "binalloc" / "__init__.py").is_file():
        print(f"error: no binalloc sources under {SRC}", file=sys.stderr)
        return 2
    threads = env.pin_threads()
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import binalloc

    if Path(binalloc.__file__).resolve().parent != SRC / "binalloc":
        print(f"error: binalloc imported from {binalloc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from benchkit import report, workloads

    environment = env.record(ROOT, threads)
    workload = workloads.make(args.workload)
    outcome = workloads.run(workload, args.seed, args.seconds, args.trace)
    if args.trace:
        metrics, units = report.per_layer(outcome), report.per_layer_units()
    else:
        metrics, units = report.end_to_end(outcome), report.END_TO_END_UNITS
    result = report.result_line(outcome, metrics, units)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in report.summary_lines(outcome, environment):
        print(line)
    for key, value in metrics.items():
        print(f"  {key:<32} {value:>14.6g} {units[key]}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        as_timed = {} if args.trace else report.as_timed(outcome)
        json.dump({"env": environment, "args": vars(args), "as_timed": as_timed, **result}, fh, indent=1)
        fh.write("\n")
    if args.trace:
        outcome.tracer.write_csv(OUT / f"{stem}-spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
