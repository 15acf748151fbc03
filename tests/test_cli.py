import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from binalloc import AnnealSchedule, Graph, SolverConfig, anneal
from binalloc.cli import _solver_config, build_parser, main
from binalloc.instances import save_instance, to_json_dict


@pytest.fixture
def two_agent_file(tmp_path, two_agent):
    path = tmp_path / "two.json"
    save_instance(two_agent, path, Graph(2, [(0, 1)]))
    return str(path)


def run_cli(args):
    return main(args)


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = str(tmp_path / "inst.json")
    code = run_cli(["gen", "--n", "12", "--seed", "7", "--out", out])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["n"] == 12 and len(doc["p"]) == 12
    assert "n=12" in capsys.readouterr().out


def test_gen_is_byte_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    run_cli(["gen", "--n", "10", "--seed", "3", "--out", a])
    run_cli(["gen", "--n", "10", "--seed", "3", "--out", b])
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_gen_rejects_zero_n(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--n", "0", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_gen_unwritable_path_is_runtime_error(capsys):
    code = run_cli(["gen", "--n", "4", "--out", "/nonexistent/dir/x.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(two_agent_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", two_agent_file, "--method", "brute", "--bogus"])
    assert exc.value.code == 2


def test_solve_brute_and_greedy(two_agent_file, capsys):
    for method in ("brute", "greedy"):
        assert run_cli(["solve", two_agent_file, "--method", method]) == 0
        out = capsys.readouterr().out
        assert "bits: 10" in out
        assert "cost: 2.08" in out


def test_solve_round_needs_frac_point(two_agent_file):
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", two_agent_file, "--method", "round"])
    assert exc.value.code == 2


def test_solve_round_with_frac_point(two_agent_file, tmp_path, capsys):
    frac = tmp_path / "frac.csv"
    frac.write_text("0.9,0.2\n")
    code = run_cli(["solve", two_agent_file, "--method", "round",
                    "--frac-point", str(frac)])
    assert code == 0
    out = capsys.readouterr().out
    assert "bits: 10" in out and "cost: 2.08" in out


def test_solve_annealed_binnn_c(two_agent_file, capsys, tmp_path):
    traj = str(tmp_path / "traj.csv")
    code = run_cli([
        "solve", two_agent_file, "--method", "binnn-c-da",
        "--steps", "15", "--h", "0.02", "--seed", "0", "--traj-out", traj,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bits: 10" in out
    assert "cost: 2.08" in out
    assert os.path.exists(traj)


def test_solve_annealed_binnn_d(two_agent_file, capsys):
    code = run_cli([
        "solve", two_agent_file, "--method", "binnn-d-da",
        "--steps", "15", "--h", "0.02", "--knob", "T-down", "--td", "2.0",
        "--seed", "0",
    ])
    assert code == 0
    assert "bits: 10" in capsys.readouterr().out


@pytest.mark.parametrize("flow", ["binnn-c", "hnn", "binnn-d"])
def test_solve_annealed_method_prints_its_anneal(two_agent_file, two_agent, pair_graph, capsys,
                                                flow):
    code = run_cli(["solve", two_agent_file, "--method", f"{flow}-da", "--seed", "0",
                    "--steps", "4", "--h", "0.02"])
    assert code == 0
    shown = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    cfg = SolverConfig(step=0.02, seed=0, anneal=AnnealSchedule(steps=4))
    want = anneal(flow, two_agent, pair_graph if flow == "binnn-d" else None, cfg)
    assert shown["method"] == f"{flow}-da"
    assert shown["bits"] == "".join(map(str, want.bits))
    assert shown["cost"] == f"{want.cost:.12g}"
    assert shown["iterations"] == str(want.iterations)


def test_a_converged_anneal_certifies_at_its_last_rounds_knobs(two_agent_file, capsys):
    # the diagnostics read the knobs the last round ran, not those one shrink past it
    for seed in range(10):
        code = run_cli(["solve", two_agent_file, "--method", "binnn-c-da", "--steps", "2",
                        "--td", "500", "--beta", "1.1", "--tol", "1e-4", "--seed", str(seed)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged: True" in out and "local_min_certified: True" in out


def test_anneal_flag_is_a_usage_error(two_agent_file):
    # an annealed run is a method of its own, binnn-c-da
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", two_agent_file, "--method", "binnn-c", "--anneal"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "{file}", "--method", "greedy", "--h", "nan"],
    ["solve", "{file}", "--method", "greedy", "--t-max", "inf"],
    ["gen", "--n", "6", "--topology", "random", "--extra-edges", "1.5", "--out", "{out}"],
    ["solve", "{file}", "--method", "round", "--frac-point", "{dir}/short.csv"],
    ["solve", "{file}", "--method", "round", "--frac-point", "{dir}/long.csv"],
    ["solve", "{dir}/empty.json", "--method", "hnn"],
], ids=["h-nan", "t-max-inf", "extra-edges", "frac-short", "frac-long", "no-agents"])
def test_settings_that_cannot_run_are_runtime_errors(two_agent_file, tmp_path, capsys, argv):
    # the settings are checked before any method runs; the instance has 2 agents
    out = tmp_path / "x.json"
    (tmp_path / "empty.json").write_text('{"n": 0, "p": [], "c": []}')
    (tmp_path / "short.csv").write_text("0.9\n")
    (tmp_path / "long.csv").write_text("0.9,0.2,0.5\n")
    code = run_cli([arg.format(file=two_agent_file, out=out, dir=tmp_path) for arg in argv])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "6", "--topology", "ring", "--extra-edges", "0.5", "--out", "{out}"],
    ["gen", "--n", "6", "--topology", "path", "--extra-edges", "0.5", "--out", "{out}"],
    ["gen", "--n", "6", "--topology", "complete", "--extra-edges", "0.5", "--out", "{out}"],
    ["gen", "--n", "6", "--extra-edges", "0.5", "--out", "{out}"],
], ids=["gen-ring", "gen-path", "gen-complete", "gen-no-topology"])
def test_extra_edges_without_a_random_graph_is_usage_error(tmp_path, argv):
    # only the random topology reads --extra-edges; refused before anything runs
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run_cli([arg.format(out=out) for arg in argv])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("method, flags", [
    ("binnn-d", ["--extra-edges", "0.5"]),
    ("binnn-d-da", ["--topology", "ring"]),
    ("binnn-d", ["--graph-seed", "5"]),
    ("binnn-d", ["--topology", "ring", "--extra-edges", "0.9"]),
    ("binnn-d", ["--topology", "ring", "--graph-seed", "5"]),
    ("greedy", ["--topology", "ring"]),
    ("binnn-c-da", ["--topology", "random", "--extra-edges", "0.5"]),
    ("hnn", ["--extra-edges", "0.5"]),
    ("round", ["--frac-point", "f.csv", "--topology", "path"]),
    ("greedy", ["--graph-seed", "5"]),
], ids=["extra-edges-on-edges", "topology-on-edges", "graph-seed-on-edges", "solve-ring",
        "solve-ring-graph-seed", "greedy-topology", "binnn-c-da-both", "hnn-extra-edges",
        "round-topology", "greedy-graph-seed"])
def test_solve_takes_no_graph_flag(tmp_path, monkeypatch, capsys, method, flags):
    # the instance file is the one home of a solve's graph: any graph flag is an unknown
    # flag, refused before the file is read
    import binalloc.cli as cli

    read = []
    monkeypatch.setattr(cli, "load_instance", lambda path: read.append(path))
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", str(tmp_path / "inst.json"), "--method", method, *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert read == []


@pytest.mark.parametrize("method, flags", [
    ("greedy", ["--traj-out", "{dir}/t.csv"]),
    ("round", ["--frac-point", "{dir}/f.csv", "--traj-out", "{dir}/t.csv"]),
    ("hnn", ["--frac-point", "{dir}/f.csv"]),
], ids=["greedy-traj-out", "round-traj-out", "hnn-frac-point"])
def test_solve_refuses_a_flag_its_method_would_ignore(tmp_path, monkeypatch, method, flags):
    # only a flow has a trajectory, and only round reads a fractional point: refused
    # before the file is read, and no trajectory file is written
    import binalloc.cli as cli

    read = []
    monkeypatch.setattr(cli, "load_instance", lambda path: read.append(path))
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve", str(tmp_path / "inst.json"), "--method", method,
                 *(flag.format(dir=tmp_path) for flag in flags)])
    assert exc.value.code == 2
    assert read == [] and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("gamma", float("nan")), ("p_ref", float("inf")), ("p", [3.0, float("nan")]), ("d", [float("inf"), 0.0]),
])
def test_solve_refuses_non_finite_instance_data(tmp_path, two_agent, capsys, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**to_json_dict(two_agent), key: value}))  # json writes NaN, Infinity
    code = run_cli(["solve", str(path), "--method", "greedy"])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"p": [3.0, 1.0], "c": [2.0, 1.0]},
    {"n": 2, "c": [2.0, 1.0]},
    [2, [3.0, 1.0]],
    {"n": 2, "p": [3.0, 1.0], "c": [2.0, 1.0], "gamma": None},
    {"n": 2, "p": [3.0, 1.0], "c": [2.0, 1.0], "p_ref": [1]},
], ids=["no-n", "no-p", "list", "null-gamma", "list-p_ref"])
def test_a_file_that_is_not_an_instance_is_runtime_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", str(path), "--method", "greedy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"n": 1, "p": [1.0], "a": {"x": 1}, "b": [1.0]},
    {"n": 1, "p": [1.0], "c": [1.0], "d": {"x": 1}},
    {"n": True, "p": [3.0], "c": [1.0]},
    {"n": 2, "p": [1, 2], "a": [True, -3], "b": [0.5, 0.5], "gamma": 1, "p_ref": 2},
    {"n": 2, "p": ["3", "1"], "c": [2, 1]},
], ids=["dict-a", "dict-d", "true-n", "true-in-a", "text-in-p"])
def test_a_value_that_is_not_a_number_is_runtime_error(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", str(path), "--method", "greedy"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_non_integer_size_is_runtime_error(tmp_path, two_agent, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**to_json_dict(two_agent), "n": 2.7}))
    assert run_cli(["solve", str(path), "--method", "greedy"]) == 1
    assert capsys.readouterr().err == "error: n must be an integer >= 0, got 2.7\n"


def test_solve_disconnected_graph_is_runtime_error(tmp_path, two_agent, capsys):
    path = tmp_path / "bad.json"
    # bypass save_instance validation by writing the document directly
    import binalloc.instances as mod

    doc = mod.to_json_dict(two_agent)
    doc["edges"] = []
    path.write_text(json.dumps(doc))
    code = run_cli(["solve", str(path), "--method", "binnn-d"])
    assert code == 1
    assert "connect" in capsys.readouterr().err.lower()


def test_solve_out_of_range_edge_is_runtime_error(tmp_path, two_agent, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**to_json_dict(two_agent), "edges": [[0, 1], [0, 5]]}))
    assert run_cli(["solve", str(path), "--method", "binnn-d"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_a_listed_graph_is_checked_once(two_agent_file, monkeypatch, capsys):
    checked, listed = [], Graph(2, [(0, 1)])
    build = Graph.__post_init__  # the one connectivity check
    monkeypatch.setattr(Graph, "__post_init__", lambda graph: checked.append(graph) or build(graph))
    assert run_cli(["solve", two_agent_file, "--method", "binnn-d", "--t-max", "1"]) == 0
    assert checked == [listed]  # built once, as the file is loaded


def test_solve_brute_over_cap_is_runtime_error(tmp_path, capsys):
    out = str(tmp_path / "big.json")
    run_cli(["gen", "--n", "26", "--seed", "0", "--out", out])
    code = run_cli(["solve", out, "--method", "brute"])
    assert code == 1
    assert "cap" in capsys.readouterr().err


def test_bench_writes_reports(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    code = run_cli([
        "bench", "--n", "6", "--trials", "2", "--seed", "1",
        "--methods", "greedy,brute", "--p-ref", "90", "--out-dir", out_dir,
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "campaign.csv"))
    assert os.path.exists(os.path.join(out_dir, "q.csv"))
    out = capsys.readouterr().out
    assert "Q=" in out


def test_bench_with_brute_ranks_brute_first(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    code = run_cli([
        "bench", "--n", "7", "--trials", "3", "--seed", "2",
        "--methods", "greedy", "--with-brute", "--p-ref", "100",
        "--out-dir", out_dir,
    ])
    assert code == 0
    scores = {}
    import csv as csvmod

    with open(os.path.join(out_dir, "q.csv")) as fh:
        for row in list(csvmod.reader(fh))[1:]:
            scores[row[0]] = float(row[1])
    assert scores["brute"] == max(scores.values())


@pytest.mark.parametrize("methods", [["--methods", "greedy"], ["--methods", "brute", "--with-brute"],
                                     ["--methods", "greedy,greedy"]], ids=["one", "brute", "twice"])
def test_bench_of_one_method_is_usage_error(tmp_path, methods):
    out_dir = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--n", "6", "--trials", "2", *methods, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert not out_dir.exists()  # rejected before anything ran


@pytest.mark.parametrize("methods,jobs", [("greedy,brute", "0"), ("greedy,brute", "-3"),
                                          ("greedy,brute,greedy", "1")], ids=["jobs0", "jobs-3", "twice"])
def test_bench_refusal_is_runtime_error(tmp_path, capsys, methods, jobs):
    # parsed, then refused by the campaign before any trial runs: exit 1, one error line
    out_dir = tmp_path / "reports"
    code = run_cli(["bench", "--n", "4", "--trials", "2", "--methods", methods, "--jobs", jobs,
                    "--out-dir", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [["bench", "--n", "6", "--trials", "1", "--methods", "foo,greedy"]],
                         ids=["bench"])
def test_unknown_method_is_usage_error(tmp_path, capsys, argv):
    out_dir = tmp_path / "reports"
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "unknown method" in capsys.readouterr().err
    assert not out_dir.exists()  # rejected before anything ran


@pytest.mark.parametrize("method", ["binnn-d", "binnn-c"])
def test_solve_prints_the_consensus_residual_of_a_distributed_solve(two_agent_file, capsys,
                                                                     method):
    assert run_cli(["solve", two_agent_file, "--method", method, "--seed", "0",
                    "--t-max", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    shown = [line for line in lines if line.startswith("grad_y_inf: ")]
    assert len(shown) == (method == "binnn-d")


def test_solver_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    for method in ("hnn", "hnn-da"):  # one config whether or not the method anneals
        args = parser.parse_args(["solve", "f.json", "--method", method])
        assert _solver_config(args) == SolverConfig(anneal=AnnealSchedule())


def _flat(obj, prefix=""):
    """Dataclass fields as a dotted-name dict, nested dataclasses flattened."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_flat(value, f"{prefix}{f.name}."))
        else:
            out[f"{prefix}{f.name}"] = value
    return out


def _changed(base, other):
    return {k for k in base if base[k] != other[k]}


@pytest.mark.parametrize("flag, value, changed", [
    ("--temp", "2.0", {"thermo.temp"}),
    ("--tau", "0.3", {"thermo.time_const"}),
    ("--floor", "0.3", {"thermo.floor"}),
    ("--alpha", "0.5", {"alpha"}),
    ("--h", "0.03", {"step"}),
    ("--t-max", "50", {"t_max"}),
    ("--tol", "1e-5", {"tol_x", "tol_y"}),
    ("--eps-init", "0.1", {"eps_init"}),
    ("--seed", "7", {"seed"}),
    ("--beta", "1.6", {"anneal.beta"}),
    ("--steps", "4", {"anneal.steps"}),
    ("--td", "2.5", {"anneal.t_d"}),
    ("--knob", "T-down", {"anneal.knob"}),
])
def test_each_solver_flag_lands_in_its_own_field(flag, value, changed):
    parser = build_parser()
    default = SolverConfig(anneal=AnnealSchedule())
    got = _solver_config(parser.parse_args(["solve", "f.json", "--method", "hnn", flag, value]))
    assert _changed(_flat(default), _flat(got)) == changed


def _recording(monkeypatch, module, name, calls):
    """Replace module.name with a wrapper that records its arguments, defaults
    applied, by name."""
    real = getattr(module, name)
    signature = inspect.signature(real)

    def record(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls[name] = dict(bound.arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, record)


@pytest.mark.parametrize("flag, value, function, changed", [
    ("--p-range", "2,30", "random_instance", "p_range"),
    ("--e-range", "1.5,2.5", "random_instance", "exponent_range"),
    ("--p-ref", "200", "random_instance", "p_ref"),
    ("--gamma", "0.5", "random_instance", "gamma"),
    ("--extra-edges", "0.4", "named_topology", "extra_edge_fraction"),
])
def test_each_gen_flag_lands_in_its_own_argument(tmp_path, monkeypatch, flag, value,
                                                 function, changed):
    import binalloc.cli as cli

    runs = []
    for extra in ([], [flag, value]):
        calls = {}
        _recording(monkeypatch, cli, "random_instance", calls)
        _recording(monkeypatch, cli, "named_topology", calls)
        out = str(tmp_path / f"inst{len(runs)}.json")
        assert main(["gen", "--n", "5", "--topology", "random", "--out", out, *extra]) == 0
        monkeypatch.undo()
        runs.append(calls)
    plain, flagged = runs
    expected = {
        "random_instance": inspect.signature(cli.random_instance).bind(5, 0),
        "named_topology": inspect.signature(cli.named_topology).bind("random", 5, seed=0),
    }
    for name, bound in expected.items():  # a flag not given leaves the library default
        bound.apply_defaults()
        assert plain[name] == dict(bound.arguments)
    for name in expected:
        diff = _changed(plain[name], flagged[name])
        assert diff == ({changed} if name == function else set())


class _Stop(Exception):
    pass


@pytest.mark.parametrize("flag, value, changed", [
    ("--n", "7", "n"),
    ("--trials", "3", "trials"),
    ("--seed", "4", "seed"),
    ("--p-ref", "200", "p_ref"),
    ("--gamma", "0.5", "gamma"),
])
def test_each_bench_flag_lands_in_its_own_field(tmp_path, monkeypatch, flag, value, changed):
    from binalloc import bench

    configs = []

    def stop(config, jobs=1):
        configs.append(config)
        raise _Stop

    monkeypatch.setattr(bench, "run_campaign", stop)
    for extra in ([], [flag, value]):
        with pytest.raises(_Stop):
            main(["bench", "--out-dir", str(tmp_path), *extra])
    plain, flagged = configs
    assert plain == bench.CampaignConfig()
    assert _changed(_flat(plain), _flat(flagged)) == {changed}


def test_a_distributed_flow_on_an_edgeless_file_is_a_runtime_error(tmp_path, monkeypatch, capsys, two_agent):
    import binalloc.cli as cli

    save_instance(two_agent, tmp_path / "free.json")  # no edge list: no graph to run on
    drawn = []
    monkeypatch.setattr(cli, "named_topology", lambda *args, **kwargs: drawn.append(args))
    for method in ("binnn-d", "binnn-d-da"):
        assert main(["solve", str(tmp_path / "free.json"), "--method", method]) == 1
        assert "error: the distributed flow requires a graph" in capsys.readouterr().err
    assert drawn == []


def test_sweep_is_an_unknown_command(tmp_path, capsys):
    # a campaign's csv keeps each solve's wall time; no second timing command
    out_dir = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--grid", "6", "--methods", "greedy,binnn-c", "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_solve_output_cost_revalidates(two_agent_file, capsys, two_agent):
    from binalloc.instances import eval_p1

    run_cli(["solve", two_agent_file, "--method", "greedy"])
    out = capsys.readouterr().out
    bits = [int(ch) for ch in out.split("bits: ")[1].split()[0]]
    cost = float(out.split("cost: ")[1].split()[0])
    assert cost == pytest.approx(eval_p1(two_agent, np.array(bits, float)),
                                 rel=1e-10)
