import json
import os

import numpy as np
import pytest

from binalloc import AnnealSchedule, SolverConfig
from binalloc.cli import _solver_config, build_parser, main
from binalloc.instances import save_instance


@pytest.fixture
def two_agent_file(tmp_path, two_agent):
    path = tmp_path / "two.json"
    save_instance(two_agent, path, edges=[(0, 1)])
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
        "solve", two_agent_file, "--method", "binnn-c", "--anneal",
        "--steps", "15", "--h", "0.02", "--seed", "0", "--traj-out", traj,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "bits: 10" in out
    assert "cost: 2.08" in out
    assert os.path.exists(traj)


def test_solve_annealed_binnn_d(two_agent_file, capsys):
    code = run_cli([
        "solve", two_agent_file, "--method", "binnn-d", "--anneal",
        "--steps", "15", "--h", "0.02", "--knob", "T-down", "--td", "2.0",
        "--seed", "0",
    ])
    assert code == 0
    assert "bits: 10" in capsys.readouterr().out


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


def test_solver_flag_defaults_are_the_library_defaults():
    parser = build_parser()
    plain = parser.parse_args(["solve", "f.json", "--method", "hnn"])
    assert _solver_config(plain) == SolverConfig()
    annealed = parser.parse_args(["solve", "f.json", "--method", "hnn", "--anneal"])
    assert _solver_config(annealed) == SolverConfig(anneal=AnnealSchedule())


def test_sweep_writes_scaling_csv(tmp_path, capsys):
    out_dir = str(tmp_path / "sweep")
    code = run_cli([
        "sweep", "--grid", "5,7", "--methods", "greedy,brute",
        "--per-n-trials", "1", "--seed", "0", "--out-dir", out_dir,
    ])
    assert code == 0
    path = os.path.join(out_dir, "scaling.csv")
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 5  # header + 2 sizes x 2 methods


def test_solve_output_cost_revalidates(two_agent_file, capsys, two_agent):
    from binalloc.instances import eval_p1

    run_cli(["solve", two_agent_file, "--method", "greedy"])
    out = capsys.readouterr().out
    bits = [int(ch) for ch in out.split("bits: ")[1].split()[0]]
    cost = float(out.split("cost: ")[1].split()[0])
    assert cost == pytest.approx(eval_p1(two_agent, np.array(bits, float)),
                                 rel=1e-10)
