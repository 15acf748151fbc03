"""The benchmark's workloads, driven through binalloc's public functions.

- ``campaign-n20``: ``bench.run_campaign`` at n=20 with the library's
  campaign defaults plus brute force, as ``binalloc bench --n 20
  --with-brute`` runs it. Per-step Python overhead dominates, trajectory
  sampling is off, and brute force gives an exact reference.
- ``newton-n200``: ``anneal("binnn-c")`` at n=200 with the ``binalloc solve
  --anneal`` defaults. Dense ``eigh`` dominates.
- ``sparse-n2000``: ``anneal("hnn")`` and ``anneal("binnn-d")`` at n=2000 on
  a ring, same defaults. Dense matvecs dominate; no ``eigh`` call;
  trajectory sampling is on.

A unit is the smallest piece of work the measured loop repeats: one
``run_campaign`` call of one trial, or every method of a workload on one
input. Inputs come only from the seed, so a seed always yields the same
sequence of units. The quality metrics are taken over a workload's first
``quality_units`` units, which every untraced run completes, so a faster
or slower library scores the same inputs; the timings use every unit.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from unittest import mock

import numpy as np

from binalloc import baselines, bench, dynamics, energy, graphs, instances
from binalloc.energy import Thermo
from binalloc.errors import BinallocError

from . import hostspeed, scoring, tracing
from .scoring import Solve

# What `binalloc solve --anneal` builds from its flag defaults. The seed is
# set per solve so that a benchmark seed repeats exactly.
SOLVE_CONFIG = dynamics.SolverConfig(
    thermo=Thermo(temp=1.0, time_const=0.1, floor=0.1),
    alpha=1.0,
    step=1e-2,
    eps_init=0.05,
    tol_x=1e-6,
    tol_y=1e-6,
    t_max=1000.0,
    anneal=dynamics.AnnealSchedule(beta=1.4, t_d=1.0, steps=10, knob="tau-up"),
)

# Spans of these names are solves of a flow; their self time is the flow's
# own work (rates, advance/clip, stop test).
SOLVE_SPANS = ("dynamics.run", "dynamics.anneal")
SAMPLE_SPANS = ("energy.energy", "energy.energy_tilde")
CTX_SPANS = ("energy.centralized_ctx", "energy.distributed_ctx")
# Set-ups timed per untraced run, spread over its measured time so that
# their median covers the host's state over the whole run.
SETUP_SAMPLES = 9
# Scales the input set-up, which is interpreter-bound on every workload.
SETUP_PROBE = hostspeed.small_flow()
SRC = Path(bench.__file__).resolve().parents[1]  # the tree binalloc was imported from


def trace_targets():
    """Public attributes the traced run wraps, as (module, attribute, span, starts_solve).

    The campaign code binds random_instance and random_connected_graph into
    the bench module, so those are wrapped where bench looks them up.
    """
    return [
        (dynamics, "run", "dynamics.run", True),
        (dynamics, "anneal", "dynamics.anneal", True),
        (np.linalg, "eigh", "numpy.linalg.eigh", False),
        (energy, "energy", "energy.energy", False),
        (energy, "energy_tilde", "energy.energy_tilde", False),
        (energy, "centralized_ctx", "energy.centralized_ctx", False),
        (energy, "distributed_ctx", "energy.distributed_ctx", False),
        (baselines, "greedy", "baselines.greedy", True),
        (baselines, "brute_force", "baselines.brute_force", True),
        (instances, "random_instance", "instances.random_instance", False),
        (bench, "random_instance", "instances.random_instance", False),
        (graphs, "named_topology", "graphs.named_topology", False),
        (graphs, "random_connected_graph", "graphs.random_connected_graph", False),
        (bench, "random_connected_graph", "graphs.random_connected_graph", False),
        (bench, "run_campaign", "bench.run_campaign", False),
    ]


def _int_seed(entropy):
    """A plain integer seed. SeedSequence objects are not reused because
    spawning from one changes it, and a re-solved input must repeat."""
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class Input:
    instance: object
    graph: object
    ref: float
    all_off: float
    seeds: tuple = ()  # one solver seed per method


@dataclass
class Pass:
    """What one measured loop over a workload's units produced."""

    solves: list = field(default_factory=list)
    records: list = field(default_factory=list)  # bench.TrialRecord per solve, for Q
    errors: list = field(default_factory=list)  # checker errors
    wall: float = 0.0  # seconds inside the library calls
    units: int = 0
    quality_n: int | None = None  # solves in the first quality_units units, once run
    unit_goodput: list = field(default_factory=list)  # successful solves per second, per unit
    trials: int = 0
    overhead_s: float = 0.0  # run_campaign wall minus its records' wall
    last: dict = field(default_factory=dict)  # "x"/"xy" -> (instance, graph, result)

    def add_neural(self, method, instance, graph, result, exc, wall, ref, all_off):
        """Score one neural solve; a failure the library raised, or a result
        that breaks a check, is a failure."""
        if result is None:
            solve = Solve(
                method, math.inf, ref, all_off, wall, f"{type(exc).__name__}: {exc}", reported=True
            )
        else:
            failure = "; ".join(scoring.result_violations(instance, result)) or None
            solve = Solve(
                method,
                result.cost,
                ref,
                all_off,
                wall,
                failure,
                iterations=result.iterations,
                run_wall=result.wall_time,
                converged=result.converged,
                has_result=True,
            )
            if failure is None:
                self.last["x" if result.y_final is None else "xy"] = (instance, graph, result)
        self.solves.append(solve)
        return solve

    @property
    def quality(self):
        """The solves the quality metrics score: those of the first quality_units units."""
        return self.solves if self.quality_n is None else self.solves[: self.quality_n]


@contextlib.contextmanager
def _tapped(taps):
    """Keep what dynamics.run/anneal return or raise, so the checks see every result."""

    def tap(fn):
        @functools.wraps(fn)
        def call(flow, instance, graph=None, config=None):
            try:
                result = fn(flow, instance, graph, config)
            except BinallocError as exc:
                taps.append((instance, graph, None, exc))
                raise
            taps.append((instance, graph, result, None))
            return result

        return call

    with mock.patch.object(dynamics, "run", tap(dynamics.run)), mock.patch.object(
        dynamics, "anneal", tap(dynamics.anneal)
    ):
        yield


def score_campaign(records, taps, acc):
    """Turn one run_campaign's records, plus the results it produced, into solves.

    The reference is each trial's brute-force optimum. A record below it,
    a record that disagrees with its RunResult, or a result the records do
    not account for is a checker error.
    """
    events = iter(taps)
    by_trial = {}
    for rec in records:
        by_trial.setdefault(rec.trial, []).append(rec)
    for recs in by_trial.values():
        ref = next(r.cost for r in recs if r.method == "brute")
        if not math.isfinite(ref):
            acc.errors.append(f"trial {acc.trials}: brute optimum is not finite")
        seen = {}
        for rec in recs:
            if rec.method in bench.NN_METHODS:
                event = next(events, None)
                if event is None:
                    acc.errors.append(f"trial {acc.trials}: {rec.method} left no result")
                    return
                seen[rec.method] = event
        all_off = scoring.all_off_cost(next(iter(seen.values()))[0])
        for rec in recs:
            if rec.method in seen:
                instance, graph, result, exc = seen[rec.method]
                acc.add_neural(rec.method, instance, graph, result, exc, rec.wall_time, ref, all_off)
                if (math.inf if result is None else result.cost) != rec.cost:
                    acc.errors.append(
                        f"trial {acc.trials}: {rec.method} record cost {rec.cost!r} "
                        "differs from its result"
                    )
            else:
                failure = None if math.isfinite(rec.cost) else "cost is not finite"
                acc.solves.append(Solve(rec.method, rec.cost, ref, all_off, rec.wall_time, failure))
            if scoring.below_optimum(rec.cost, ref):
                acc.errors.append(
                    f"trial {acc.trials}: {rec.method} cost {rec.cost!r} is below "
                    f"the brute optimum {ref!r}"
                )
            acc.records.append(replace(rec, trial=acc.trials))
        acc.trials += 1
    if next(events, None) is not None:
        acc.errors.append("the flows ran more solves than the campaign recorded")


class Campaign:
    """One ``bench.run_campaign`` call of one trial per unit."""

    methods = bench.DEFAULT_METHODS + ("brute",)
    flows = ("binnn-c", "hnn", "binnn-d")
    solver = bench.CampaignConfig().solver

    def __init__(self, name, n, probe, quality_units):
        self.name = name
        self.n = n
        self.probe = probe
        self.quality_units = quality_units

    def prepare_input(self, seed, k):
        """Set up one input as each campaign trial does: an instance, a graph,
        the brute optimum."""
        instance = instances.random_instance(self.n, _int_seed([seed, k, 0]))
        graph = graphs.random_connected_graph(self.n, 0.2, _int_seed([seed, k, 1]))
        ref = baselines.brute_force(instance).cost
        return Input(instance, graph, ref, scoring.all_off_cost(instance))

    def prepare(self, seed, tracer=None):
        """One input, to warm the flows; the campaign draws its own."""
        with tracing.span_or_nothing(tracer, "bench.prepare"):
            return [self.prepare_input(seed, 0)]

    def unit(self, seed, k, pool, acc):
        config = bench.CampaignConfig(
            n=self.n,
            trials=1,
            seed=_int_seed([seed, k]),
            methods=self.methods,
        )
        taps = []
        with _tapped(taps):
            start = time.perf_counter()
            records = bench.run_campaign(config)
            wall = time.perf_counter() - start
        acc.wall += wall
        acc.overhead_s += wall - sum(r.wall_time for r in records)
        score_campaign(records, taps, acc)


class Anneals:
    """``dynamics.anneal`` of each method on one input per unit; greedy is the reference."""

    solver = SOLVE_CONFIG

    def __init__(self, name, n, methods, probe, inputs, topology=None):
        self.name = name
        self.n = n
        self.methods = methods
        self.probe = probe
        self.flows = tuple(m.removesuffix("-da") for m in methods)
        self.inputs = inputs
        self.quality_units = inputs  # each input scored once
        self.topology = topology

    def prepare_input(self, seed, k):
        """Input k: an instance, its graph and its greedy reference."""
        instance = instances.random_instance(self.n, _int_seed([seed, k, 0]))
        graph = graphs.named_topology(self.topology, self.n) if self.topology else None
        ref = baselines.greedy(instance).cost
        seeds = tuple(_int_seed([seed, k, 1, j]) for j in range(len(self.methods)))
        return Input(instance, graph, ref, scoring.all_off_cost(instance), seeds)

    def prepare(self, seed, tracer=None):
        """The inputs the loop cycles through."""
        pool = []
        for k in range(self.inputs):
            with tracing.span_or_nothing(tracer, "bench.prepare"):
                inp = self.prepare_input(seed, k)
            if pool:
                inp.graph = pool[0].graph  # the topology is the same for every input: keep one copy
            pool.append(inp)
        return pool

    def unit(self, seed, k, pool, acc):
        inp = pool[k % len(pool)]
        if not math.isfinite(inp.ref):
            acc.errors.append(f"input {k % len(pool)}: greedy reference is not finite")
        for method, flow, solver_seed in zip(self.methods, self.flows, inp.seeds):
            graph = inp.graph if flow == "binnn-d" else None
            config = replace(self.solver, seed=solver_seed)
            start = time.perf_counter()
            try:
                result, exc = dynamics.anneal(flow, inp.instance, graph, config), None
            except BinallocError as err:
                result, exc = None, err
            wall = time.perf_counter() - start
            acc.wall += wall
            solve = acc.add_neural(method, inp.instance, graph, result, exc, wall, inp.ref, inp.all_off)
            cost = math.inf if result is None else result.cost
            acc.records.append(
                bench.TrialRecord(acc.trials, method, cost, wall, solve.iterations, solve.converged)
            )
        acc.records.append(bench.TrialRecord(acc.trials, "greedy", inp.ref, 0.0, 0, True))
        acc.trials += 1


def make(name):
    """The named workload, with a host-speed probe of the work that
    dominates its units, or None where no probe was found to follow them.

    On the anneal workloads a probe of n=200 ``eigh`` calls (newton-n200)
    and one of products with a 2000 x 2000 matrix (sparse-n2000) were
    tried; the first left the spread of goodput over six seeds as it was,
    the second tripled it over ten, so their times are reported as measured.
    The number of inputs scored for quality is set so that an untraced run
    of 30 s on the reference host completes them.
    """
    if name == "campaign-n20":
        probe = hostspeed.Probe(hostspeed.small_flow(), hostspeed.SMALL_FLOW_REF_S)
        return Campaign(name, 20, probe, quality_units=20)
    if name == "newton-n200":
        return Anneals(name, 200, ("binnn-c-da",), None, inputs=5)
    if name == "sparse-n2000":
        return Anneals(name, 2000, ("hnn-da", "binnn-d-da"), None, inputs=6, topology="ring")
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class SetupSample:
    """One timed set-up, with the probe timed next to each part."""

    numpy_s: float  # import numpy in a fresh interpreter
    import_s: float  # import numpy, then binalloc, in that interpreter
    probe_s: float  # the small-flow probe, just before the input set-up
    prep_s: float  # generate one input and solve its reference


def setup_sample(workload, seed, j):
    """Set up as a user does: import binalloc in a fresh interpreter, then
    generate an input and solve its reference (a fresh input each time)."""
    numpy_s, import_s = hostspeed.fresh_import(SRC)
    probe_s = hostspeed.timed(SETUP_PROBE)
    prep_s = hostspeed.timed(lambda: workload.prepare_input(seed, 1000 + j))
    return SetupSample(numpy_s, import_s, probe_s, prep_s)


def warm_up(workload, pool):
    """A few steps of each flow on the first input, untimed, so lazy set-up
    (BLAS/LAPACK initialisation, first-call paths) is done before measuring."""
    inp = pool[0]
    config = replace(workload.solver, t_max=5 * workload.solver.step, anneal=None, seed=0)
    for flow in workload.flows:
        dynamics.run(flow, inp.instance, inp.graph if flow == "binnn-d" else None, config)


def run_pass(workload, seed, pool, acc, seconds=None, units=None, setup=None):
    """Run exactly `units` units, or else units until `seconds` have passed
    and the first quality_units are done.

    With `setup`, a list, also time the workload's host-speed probe (if
    any) before each unit and append SETUP_SAMPLES set-up samples to the
    list, spread evenly over the `seconds`.
    """
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= units if units is not None else (k >= workload.quality_units and elapsed >= seconds):
            break
        if setup is not None:
            due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * elapsed / seconds))
            setup.extend(setup_sample(workload, seed, j) for j in range(len(setup), due))
        if setup is not None and workload.probe is not None:
            workload.probe()
        done, wall = len(acc.solves), acc.wall
        workload.unit(seed, k, pool, acc)
        acc.unit_goodput.append(scoring.goodput(acc.solves[done:], acc.wall - wall))
        k += 1
        if k == workload.quality_units:
            acc.quality_n = len(acc.solves)
    if setup is not None:
        setup.extend(setup_sample(workload, seed, j) for j in range(len(setup), SETUP_SAMPLES))
    acc.units = k
    return acc


def _median_us(fn, budget_s=0.2, max_calls=100):
    """Median microseconds of repeated calls; at least one call, at most `budget_s` more."""
    times = []
    deadline = time.perf_counter() + budget_s
    while not times or (time.perf_counter() < deadline and len(times) < max_calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def kernel_probes(last):
    """Time the energy kernels on terminal states of this workload's solves.

    0 where the workload produced no state of that kind (no distributed
    solve on newton-n200).
    """
    out = {"energy.grad_us": 0.0, "energy.pt_inverse_us": 0.0, "energy.grad_y_tilde_us": 0.0}
    if "x" in last:
        instance, _, result = last["x"]
        thermo, x = result.thermo_final, result.x_final
        ctx = energy.centralized_ctx(instance)
        hess = energy.hessian(instance, thermo, x, ctx)
        out["energy.grad_us"] = _median_us(lambda: energy.grad(instance, thermo, x, ctx))
        out["energy.pt_inverse_us"] = _median_us(lambda: energy.pt_inverse(hess, thermo.floor))
    if "xy" in last:
        instance, graph, result = last["xy"]
        out["energy.grad_y_tilde_us"] = _median_us(
            lambda: energy.grad_y_tilde(
                instance, graph, result.thermo_final, result.x_final, result.y_final
            )
        )
    return out


@dataclass
class Outcome:
    """Everything one benchmark invocation measured."""

    main: Pass  # the untraced pass
    setup: list = field(default_factory=list)  # SetupSample per set-up timed (untraced runs)
    speed: float = 1.0  # how many times slower than the reference host, during the units
    traced: Pass | None = None
    tracer: tracing.Tracer | None = None
    probes: dict = field(default_factory=dict)


def run(workload, seed, seconds, trace):
    """Prepare the inputs, warm up, then measure.

    Untraced: units for `seconds` (and at least the quality units), with
    set-up samples spread over them and the host-speed probe, if any,
    before each unit. Traced: the inputs are prepared traced, then units
    run untraced for half of `seconds` and again traced, the same units,
    without probes or set-up samples.
    """
    tracer = tracing.Tracer() if trace else None
    with tracer.patched(trace_targets()) if trace else contextlib.nullcontext():
        pool = workload.prepare(seed, tracer)
    warm_up(workload, pool)
    if not trace:
        hostspeed.fresh_import(SRC)  # untimed: writes the bytecode a first import compiles
        setup = []
        main = run_pass(workload, seed, pool, Pass(), seconds, setup=setup)
        return Outcome(main, setup, workload.probe.factor() if workload.probe else 1.0)
    plain = run_pass(workload, seed, pool, Pass(), seconds=seconds / 2)
    with tracer.patched(trace_targets()):
        traced = run_pass(workload, seed, pool, Pass(), units=plain.units)
    return Outcome(plain, traced=traced, tracer=tracer, probes=kernel_probes(plain.last))
