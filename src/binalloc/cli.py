"""Command-line interface: instance generation, solves and campaigns."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import baselines, bench, dynamics
from .energy import Thermo
from .errors import BinallocError
from .graphs import named_topology
from .instances import load_instance, random_instance, save_instance

CAMPAIGN_METHODS = tuple(bench.NN_METHODS) + tuple(baselines.SOLVERS)
_OMIT = argparse.SUPPRESS  # a flag not given stays out of args: the library default applies


def _pair(text):
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _given(args, *names):
    """The named arguments that the command line gave, as keywords."""
    return {name: getattr(args, name) for name in names if name in args}


def _add_solver_flags(sub):
    sub.add_argument("--temp", type=float, default=_OMIT, help="activation temperature")
    sub.add_argument("--tau", dest="time_const", type=float, default=_OMIT,
                     help="barrier time constant")
    sub.add_argument("--floor", type=float, default=_OMIT, help="Hessian truncation floor")
    sub.add_argument("--alpha", type=float, default=_OMIT, help="auxiliary flow gain")
    sub.add_argument("--h", dest="step", type=float, default=_OMIT, help="integration step")
    sub.add_argument("--t-max", type=float, default=_OMIT)
    sub.add_argument("--tol", type=float, default=_OMIT, help="velocity tolerance of x and y")
    sub.add_argument("--eps-init", type=float, default=_OMIT)
    sub.add_argument("--seed", type=int, default=_OMIT)
    sub.add_argument("--beta", type=float, default=_OMIT)
    sub.add_argument("--steps", type=int, default=_OMIT)
    sub.add_argument("--td", dest="t_d", type=float, default=_OMIT,
                     help="simulated time per round")
    sub.add_argument("--knob", choices=("tau-up", "T-down"), default=_OMIT)


def _solver_config(args):
    tol = {"tol_x": args.tol, "tol_y": args.tol} if "tol" in args else {}
    return dynamics.SolverConfig(
        thermo=Thermo(**_given(args, "temp", "time_const", "floor")),
        anneal=dynamics.AnnealSchedule(**_given(args, "beta", "t_d", "steps", "knob")),
        **tol,
        **_given(args, "alpha", "step", "eps_init", "t_max", "seed"),
    )


def _cmd_gen(args):
    instance = random_instance(
        args.n, args.seed, **_given(args, "p_range", "exponent_range", "p_ref", "gamma")
    )
    graph = args.topology and named_topology(args.topology, args.n, seed=args.seed,
                                             **_given(args, "extra_edge_fraction"))
    save_instance(instance, args.out, graph)
    norm = float(np.linalg.norm(instance.output))
    print(f"wrote {args.out}: n={instance.n} |p|={norm:.6g} p_ref={instance.target:.6g}")
    return 0


def _cmd_solve(args):
    instance, graph = load_instance(args.instance)  # a flow runs on the listed graph alone
    method, cfg = args.method, _solver_config(args)
    if method == "round":
        result = baselines.round_relaxed(np.loadtxt(args.frac_point, delimiter=",").ravel(), instance)
    else:
        result = bench.solve_with_method(method, instance, graph, cfg)
    print(f"method: {method}")
    print(f"bits: {''.join(map(str, result.bits))}")
    print(f"cost: {result.cost:.12g}")
    if method not in bench.NN_METHODS:  # a baseline or a rounding has no trajectory to diagnose
        return 0
    diag = dynamics.terminal_diagnostics(result, instance, graph=graph, tol_x=cfg.tol_x)
    print(f"iterations: {result.iterations}")
    print(f"wall_time: {result.wall_time:.6g}")
    print(f"converged: {result.converged}")
    print(f"grad_inf: {diag.grad_inf:.6g}")
    if diag.grad_y_inf is not None:  # the consensus residual of a distributed solve
        print(f"grad_y_inf: {diag.grad_y_inf:.6g}")
    print(f"min_hessian_eig: {diag.min_hessian_eig:.6g}")
    print(f"local_min_certified: {diag.local_min_certified}")
    if args.traj_out:
        bench.write_trajectory_csv(result, args.traj_out)
        print(f"trajectory: {args.traj_out}")
    return 0


def _cmd_bench(args):
    config = bench.CampaignConfig(
        methods=args.methods, **_given(args, "n", "trials", "seed", "p_ref", "gamma")
    )
    records = bench.run_campaign(config, **_given(args, "jobs"))
    scores = bench.q_metric(records)
    os.makedirs(args.out_dir, exist_ok=True)
    bench.write_campaign_csv(records, os.path.join(args.out_dir, "campaign.csv"))
    bench.write_q_csv(scores, os.path.join(args.out_dir, "q.csv"))
    width = max(len(m) for m in scores)
    for method, q in sorted(scores.items(), key=lambda kv: -kv[1]):
        print(f"{method:<{width}}  Q={q:.4f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="binalloc",
        description="Binary resource allocation via Newton-like Hopfield flows.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--p-range", type=_pair, default=_OMIT)
    gen.add_argument("--e-range", dest="exponent_range", type=_pair, default=_OMIT)
    gen.add_argument("--p-ref", type=float, default=_OMIT)
    gen.add_argument("--gamma", type=float, default=_OMIT)
    gen.add_argument("--topology", choices=("ring", "path", "complete", "random"))
    gen.add_argument("--extra-edges", dest="extra_edge_fraction", type=float, default=_OMIT)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    solve = subs.add_parser("solve", help="solve one instance file")
    solve.add_argument("instance")
    solve.add_argument("--method", choices=CAMPAIGN_METHODS + ("round",), required=True)
    solve.add_argument("--frac-point", help="CSV fractional point for --method round")
    solve.add_argument("--traj-out", help="write the trajectory CSV here")
    _add_solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    cb = subs.add_parser("bench", help="run a benchmark campaign")
    cb.add_argument("--n", type=int, default=_OMIT)
    cb.add_argument("--trials", type=int, default=_OMIT)
    cb.add_argument("--seed", type=int, default=_OMIT)
    cb.add_argument("--methods", help="comma-separated method list")
    cb.add_argument("--with-brute", action="store_true")
    cb.add_argument("--p-ref", type=float, default=_OMIT)
    cb.add_argument("--gamma", type=float, default=_OMIT)
    cb.add_argument("--jobs", type=int, default=_OMIT)
    cb.add_argument("--out-dir", default=".")
    cb.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.n < 1:
        parser.error("--n must be >= 1")
    if "extra_edge_fraction" in args and args.topology != "random":
        parser.error("only --topology random reads --extra-edges")
    if args.command == "solve" and (args.method == "round") != bool(args.frac_point):
        parser.error("--frac-point goes with --method round, and only with it")
    if args.command == "solve" and args.traj_out and args.method not in bench.NN_METHODS:
        parser.error(f"--traj-out needs a flow method: {', '.join(bench.NN_METHODS)}")
    if args.command == "bench":  # resolved before anything runs: Q needs two methods
        args.methods = tuple(args.methods.split(",")) if args.methods else bench.DEFAULT_METHODS
        if args.with_brute and "brute" not in args.methods:
            args.methods += ("brute",)
        if len(set(args.methods)) < 2:
            parser.error("a campaign ranks methods against each other: give at least two")
        unknown = [m for m in args.methods if m not in CAMPAIGN_METHODS]
        if unknown:
            parser.error(f"unknown method {unknown[0]!r}; choose from {', '.join(CAMPAIGN_METHODS)}")
    try:
        return args.func(args)
    except (BinallocError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
