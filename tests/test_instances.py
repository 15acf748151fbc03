import json
import re

import numpy as np
import pytest

from binalloc import (
    Instance,
    SolverConfig,
    Thermo,
    eval_p1,
    eval_p2,
    fit_coefficients,
    random_instance,
    round_to_binary,
)
from binalloc.energy import distributed_ctx
from binalloc.errors import (
    ConnectivityError,
    InvalidCoefficientError,
    InvalidGraphError,
    ShapeError,
)
from binalloc.graphs import Graph, named_topology, y_star
from binalloc.instances import (
    DEFAULT_GAMMA,
    DEFAULT_P_REF,
    default_quad,
    from_json_dict,
    load_instance,
    save_instance,
    to_json_dict,
)


def test_fit_coefficients_examples():
    a, b, d = fit_coefficients([2.0], [-10.0], [0.0])
    assert b[0] == pytest.approx(0.7, abs=1e-15)
    a, b, d = fit_coefficients([0.0], [-10.0], [0.0])
    assert b[0] == 0.5
    a, b, d = fit_coefficients([1.0], [-10.0], [5.0])
    assert b[0] == pytest.approx(0.6, abs=1e-15)
    assert d[0] == 5.0


def test_fit_coefficients_zero_quad_names_index():
    with pytest.raises(InvalidCoefficientError, match="index 1"):
        fit_coefficients([1.0, 1.0], [-10.0, 0.0], [0.0, 0.0])


def test_fit_roundtrip_incr_cost():
    # f_i(1) - f_i(0) must equal the requested gap for every fitted agent
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        c = rng.uniform(-20, 20, n)
        a = rng.uniform(-50, -1, n)
        a, b, d = fit_coefficients(c, a, rng.uniform(-2, 2, n))
        inst = Instance(quad=a, center=b, passive=d, output=np.ones(n),
                        penalty=1.0, target=0.0)
        got = inst.incr_cost
        assert np.all(np.abs(got - c) <= 1e-12 * (1.0 + np.abs(c)))


def test_default_quad_examples():
    # 1.1 * (penalty * |p|^2 + 4 * temp / time_const) at the default knobs T=1, tau=0.1
    a = default_quad([3.0, 1.0], 4.0)
    assert np.allclose(a, [-88.0, -88.0], atol=1e-12)
    a = default_quad([1.0], 1.0)
    assert a[0] == pytest.approx(-45.1, abs=1e-12)


def test_default_quad_reads_the_default_thermo_knobs(monkeypatch):
    # one edit to Thermo's defaults reaches the generator and the solver alike
    doc = {"n": 2, "p": [3.0, 1.0], "c": [1.0, 2.0], "gamma": 4.0}
    before = random_instance(5, 0)
    monkeypatch.setattr(Thermo.__init__, "__defaults__", (2.0, 0.5, 0.1))
    assert SolverConfig().thermo == Thermo(2.0, 0.5, 0.1)
    inst = random_instance(5, 0)
    assert not np.array_equal(inst.quad, before.quad)
    assert np.array_equal(inst.quad, default_quad(inst.output, inst.penalty))
    assert np.array_equal(from_json_dict(doc)[0].quad, default_quad(doc["p"], 4.0))
    assert np.allclose(default_quad([3.0, 1.0], 4.0), [-61.6, -61.6], atol=1e-12)


def test_eval_p1_examples(two_agent):
    assert eval_p1(two_agent, [1.0, 0.0]) == pytest.approx(2.08, abs=1e-12)
    assert eval_p1(two_agent, [0.0, 0.0]) == pytest.approx(15.68, abs=1e-12)


def test_eval_p1_zero_case():
    inst = Instance(quad=[-4.0, -6.0], center=[0.25, 0.75], passive=[0.0, 0.0],
                    output=[1.0, 2.0], penalty=3.0, target=0.0)
    assert eval_p1(inst, [0.0, 0.0]) == 0.0


def test_eval_p1_shape_error(two_agent):
    with pytest.raises(ShapeError):
        eval_p1(two_agent, [0.5, 0.5, 0.5])


def test_eval_p1_matches_set_function(two_agent):
    # binary evaluation equals the subset cost: sum of on-costs plus penalty
    for bits in ([0, 0], [1, 0], [0, 1], [1, 1]):
        x = np.array(bits, dtype=float)
        c = two_agent.incr_cost
        mism = float(two_agent.output @ x) - two_agent.target
        expect = float(c @ x) + 0.5 * two_agent.penalty * mism**2
        assert eval_p1(two_agent, x) == pytest.approx(expect, abs=1e-12)


def test_eval_p2_examples(two_agent, pair_graph):
    got = eval_p2(two_agent, pair_graph, [1.0, 0.0], [-0.75, 0.75])
    assert got == pytest.approx(2.04, abs=1e-12)
    got = eval_p2(two_agent, pair_graph, [1.0, 0.0], [0.0, 0.0])
    assert got == pytest.approx(11.04, abs=1e-12)


def test_eval_p2_zero_case(pair_graph):
    inst = Instance(quad=[-4.0, -6.0], center=[0.25, 0.75], passive=[0.0, 0.0],
                    output=[1.0, 2.0], penalty=3.0, target=0.0)
    # y proportional to the all-ones vector is invisible to the Laplacian
    assert eval_p2(inst, pair_graph, [0.0, 0.0], [2.5, 2.5]) == 0.0


def test_eval_p2_shift_invariance(bench_small):
    inst = bench_small(n=6, seed=11)
    from binalloc.graphs import random_connected_graph

    graph = random_connected_graph(6, 0.3, seed=4)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.9, 6)
    y = rng.normal(size=6)
    base = eval_p2(inst, graph, x, y)
    for theta in (-3.0, 0.5, 10.0):
        shifted = eval_p2(inst, graph, x, y + theta)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("topology", ["random", "path", "ring"])
@pytest.mark.parametrize("n", [2, 5, 20, 50])
def test_p2_minimized_over_y_is_the_agent_costs_plus_the_pooled_mismatch(n, topology):
    # with w the residual weight: min_y P2 = sum_i f_i(x_i) + 0.5 (w/n) (p.x - P)^2, at y_star
    for seed in range(15):
        rng = np.random.default_rng([n, seed])
        inst = random_instance(n, seed, gamma=rng.uniform(0.5, 4.0), p_ref=rng.uniform(0.0, 30.0 * n))
        graph = named_topology(topology, n, seed=seed)
        w = distributed_ctx(inst).w
        for x in (rng.uniform(0.01, 0.99, n), rng.integers(0, 2, n).astype(float)):
            agents = inst.quad * x * (0.5 * x - inst.center) + inst.passive  # f_i, expanded
            mismatch = float(inst.output @ x) - inst.target
            expect = agents.sum() + 0.5 * (w / n) * mismatch**2
            got = eval_p2(inst, graph, x, y_star(graph, inst.output, x))
            assert got == pytest.approx(expect, rel=1e-9)


def test_round_to_binary_examples():
    assert round_to_binary([0.99, 0.01]).tolist() == [1, 0]
    assert round_to_binary([0.5, 0.5]).tolist() == [1, 1]


def test_round_to_binary_idempotent():
    bits = round_to_binary([0.9, 0.1, 0.5])
    again = round_to_binary(bits.astype(float))
    assert np.array_equal(bits, again)


def test_random_instance_ranges_and_determinism():
    inst = random_instance(50, 7)
    assert inst.n == 50
    assert np.all(inst.output >= 1.0) and np.all(inst.output <= 50.0)
    assert inst.target == 1500.0
    again = random_instance(50, 7)
    assert np.array_equal(inst.output, again.output)
    assert np.array_equal(inst.center, again.center)


def test_random_instance_degenerate_ranges():
    inst = random_instance(1, 0, p_range=(2.0, 2.0), exponent_range=(2.0, 2.0))
    assert inst.output[0] == pytest.approx(2.0)
    assert inst.incr_cost[0] == pytest.approx(4.0, rel=1e-12)


def test_vectors_must_be_one_dimensional_and_ranges_ordered():
    with pytest.raises(ShapeError, match="one-dimensional"):
        round_to_binary([[0.2, 0.7]])
    with pytest.raises(ValueError, match="p_range"):
        random_instance(4, 0, p_range=(5.0, 1.0))


def test_instance_validates_penalty_and_shapes():
    with pytest.raises(ValueError):
        Instance(quad=[-1.0], center=[0.5], passive=[0.0], output=[1.0],
                 penalty=0.0, target=0.0)
    with pytest.raises(ShapeError):
        Instance(quad=[-1.0, -1.0], center=[0.5], passive=[0.0, 0.0],
                 output=[1.0, 1.0], penalty=1.0, target=0.0)
    good = dict(quad=[-1.0], center=[0.5], passive=[0.0], output=[1.0], penalty=1.0, target=0.0)
    # an infinite quad at center 0.5 would make incr_cost inf * 0, and a huge center
    # overflow it: each is refused before numpy can warn
    for field, value in (("penalty", np.nan), ("penalty", np.inf), ("target", np.inf),
                         ("output", [np.nan]), ("passive", [-np.inf]), ("quad", [np.inf]),
                         ("center", [-1e308])):
        with pytest.raises(InvalidCoefficientError):
            Instance(**{**good, field: value})


def test_instance_refuses_zero_agents():
    # the flows divide by n; refused as a shape before any method runs
    with pytest.raises(ShapeError, match="at least one agent"):
        Instance(quad=[], center=[], passive=[], output=[], penalty=1.0, target=0.0)
    with pytest.raises(ShapeError, match="at least one agent"):
        from_json_dict({"n": 0, "p": [], "c": []})
    with pytest.raises(ShapeError, match="at least one agent"):
        random_instance(0, 0)


def test_random_instance_refuses_a_size_that_is_not_an_integer():
    # as from_json_dict refuses its n: a shape error, before numpy reads the size
    for n in (2.5, -1, "3", None):
        with pytest.raises(ShapeError, match="n must be an integer"):
            random_instance(n, 0)


def test_json_round_trip(tmp_path, two_agent):
    path = tmp_path / "inst.json"
    save_instance(two_agent, path, Graph(2, [(0, 1)]))
    loaded, graph = load_instance(path)
    assert np.allclose(loaded.quad, two_agent.quad)
    assert np.allclose(loaded.center, two_agent.center)
    assert np.allclose(loaded.output, two_agent.output)
    assert loaded.penalty == two_agent.penalty
    assert loaded.target == two_agent.target
    assert graph == Graph(2, [(0, 1)])


@pytest.mark.parametrize("topology", ["ring", "path", "random"])
def test_a_graph_round_trips_through_a_file(tmp_path, topology):
    instance, graph = random_instance(30, 0), named_topology(topology, 30, seed=4)
    save_instance(instance, tmp_path / "inst.json", graph)
    loaded, loaded_graph = load_instance(tmp_path / "inst.json")
    assert loaded_graph == graph  # (n, edges): everything else is derived from them
    assert np.array_equal(loaded.output, instance.output)


def test_a_graph_of_another_size_is_not_saved(tmp_path, two_agent):
    with pytest.raises(ShapeError, match="3 nodes"):
        save_instance(two_agent, tmp_path / "inst.json", named_topology("path", 3))
    assert not (tmp_path / "inst.json").exists()
    with pytest.raises(ShapeError):
        to_json_dict(two_agent, Graph(1, []))


def test_json_accepts_incremental_costs():
    doc = {"n": 2, "p": [3.0, 1.0], "c": [2.0, 1.0], "gamma": 4.0, "p_ref": 2.8}
    inst, graph = from_json_dict(doc)
    assert graph is None
    assert np.allclose(inst.incr_cost, [2.0, 1.0], atol=1e-12)


def test_json_without_gamma_or_p_ref_takes_the_generator_defaults():
    inst, _ = from_json_dict({"n": 2, "p": [1, 2], "c": [1, 4]})
    assert (inst.penalty, inst.target) == (DEFAULT_GAMMA, DEFAULT_P_REF)


def test_json_rejects_missing_costs():
    with pytest.raises(ShapeError):
        from_json_dict({"n": 1, "p": [1.0]})


@pytest.mark.parametrize("coefficients", [
    {"a": [-10, -10], "c": [2, 1]},
    {"b": [0.7, 0.6], "c": [2, 1]},
    {"a": [-10, -10], "b": [0.7, 0.6], "c": [2, 1]},
], ids=["a+c", "b+c", "a+b+c"])
def test_json_refuses_both_coefficient_forms(coefficients):
    message = f"give either 'a'+'b' or 'c', got {sorted(coefficients)}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        from_json_dict({"n": 2, "p": [3, 1], **coefficients})


def test_json_size_is_an_integer():
    for n in (2.7, 2.0, "2", None):
        with pytest.raises(ShapeError, match="n must be an integer"):
            from_json_dict({"n": n, "p": [1.0, 2.0], "c": [1.0, 4.0]})


@pytest.mark.parametrize("doc", [
    {"n": 1, "p": [1.0], "a": {"x": 1}, "b": [1.0]},
    {"n": 1, "p": [1.0], "c": [1.0], "d": {"x": 1}},
    {"n": 1, "p": {"x": 1}, "c": [1.0]},
    {"n": 1, "p": [1.0], "c": [{"x": 1}]},
    {"n": 2, "p": ["3", "1e0"], "c": [2, 1]},
    {"n": 2, "p": [3, 1], "a": ["-10", -10], "b": [0.7, 0.6]},
    {"n": 2, "p": [3, 1], "a": [-10, -10], "b": [0.7, "0.6"]},
    {"n": 2, "p": [3, 1], "c": [2, "1"]},
    {"n": 2, "p": [3, 1], "c": [2, 1], "d": ["0", 0]},
    {"n": 2, "p": [3, 1], "c": [2, None]},
    {"n": 1, "p": [100000000000000000000000], "c": [1]},
], ids=["a", "d", "p", "c-item", "p-text", "a-text", "b-text", "c-text", "d-text", "c-null", "p-past-64-bits"])
def test_json_refuses_an_object_where_numbers_belong(doc):
    with pytest.raises(ShapeError, match="must hold only numbers"):
        from_json_dict(doc)


def test_instance_refuses_text_for_a_number():
    # numpy would parse "-10" as a float; an instance holds numbers only
    with pytest.raises(ShapeError, match="^quad must hold only numbers$"):
        Instance(quad=["-10"], center=[0.5], passive=[0.0], output=[1.0], penalty=1.0, target=0.0)


def test_json_null_edges_mean_no_graph():
    # the one null the schema allows: the same as leaving the key out
    inst, graph = from_json_dict({"n": 2, "p": [3, 1], "c": [2, 1], "edges": None})
    assert graph is None and inst.n == 2


@pytest.mark.parametrize("key, value", [("n", True), ("gamma", True), ("p_ref", False)])
def test_json_refuses_a_boolean_for_a_number(key, value):
    # JSON true is not a number, though Python's True is an int
    with pytest.raises(ShapeError, match="not booleans"):
        from_json_dict({"n": 1, "p": [3.0], "c": [1.0], key: value})


@pytest.mark.parametrize("key, value", [
    ("p", [True, 2]), ("a", [True, -3]), ("b", [0.5, False]), ("c", [True, 4]), ("d", [0, False]),
    ("edges", [[False, True]]),
], ids=["p", "a", "b", "c", "d", "edges"])
def test_json_refuses_a_boolean_inside_an_array(key, value):
    # numpy and Graph would read it as 0 or 1, and a solve would run on those numbers
    doc = {"n": 2, "p": [1, 2], "c": [1, 4], "edges": [[0, 1]]}
    if key in ("a", "b"):  # a file gives either a+b or c
        del doc["c"]
        doc.update(a=[-3, -3], b=[0.5, 0.5])
    from_json_dict(doc)
    with pytest.raises(ShapeError, match=f"^{key} must hold numbers, not booleans$"):
        from_json_dict({**doc, key: value})


def test_json_rejects_disconnected_edges():
    doc = {
        "n": 3,
        "p": [1.0, 1.0, 1.0],
        "c": [1.0, 1.0, 1.0],
        "edges": [[0, 1]],
    }
    with pytest.raises(ConnectivityError):
        from_json_dict(doc)


def test_json_rejects_self_loop_and_out_of_range_edges():
    base = {"n": 3, "p": [1.0, 1.0, 1.0], "c": [1.0, 1.0, 1.0]}
    for edges in ([[0, 1], [1, 2], [2, 2]], [[0, 1], [1, 2], [2, 3]], [[-1, 0], [0, 1], [1, 2]]):
        with pytest.raises(InvalidGraphError):
            from_json_dict({**base, "edges": edges})


@pytest.mark.parametrize("edge", [[0, 1, 1], {"a": 1}, "01"])
def test_json_rejects_an_edge_that_is_not_a_pair(edge):
    doc = {"n": 3, "p": [1.0, 1.0, 1.0], "c": [1.0, 1.0, 1.0], "edges": [[0, 1], [1, 2], edge]}
    with pytest.raises(InvalidGraphError, match="endpoints must be integers"):
        from_json_dict(doc)


def test_to_json_dict_schema(two_agent):
    doc = to_json_dict(two_agent)
    assert set(doc) == {"n", "p", "a", "b", "d", "gamma", "p_ref"}
    assert json.dumps(doc)  # serializable
