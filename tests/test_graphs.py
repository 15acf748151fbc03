import hashlib

import numpy as np
import pytest

from binalloc import AnnealSchedule, SolverConfig, graphs
from binalloc.bench import CampaignConfig, run_campaign
from binalloc.errors import ConnectivityError, InvalidGraphError, ShapeError
from binalloc.graphs import (
    Graph,
    named_topology,
    random_connected_graph,
    y_star,
)
from binalloc.instances import random_instance


def test_laplacian_path3():
    lap = Graph(3, [(0, 1), (1, 2)]).laplacian
    assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_complete2():
    assert np.array_equal(Graph(2, [(0, 1)]).laplacian, [[1, -1], [-1, 1]])


def test_laplacian_empty():
    assert np.array_equal(Graph(1, []).laplacian, np.zeros((1, 1)))
    with pytest.raises(ConnectivityError):
        Graph(3, [])


def test_laplacian_rejects_self_loop_and_range():
    with pytest.raises(InvalidGraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 3)])


def test_graph_edges_are_normalized_and_their_endpoints_checked():
    assert Graph(3, [(1, 0), (0, 1), (2, 1)]).edges == ((0, 1), (1, 2))
    assert Graph(3, [(1, 0), (2, 1)]) == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidGraphError, match="out of range"):
        Graph(2, [(0, 5)])
    with pytest.raises(InvalidGraphError, match="self-loop"):
        Graph(2, [(0, 0), (0, 1)])
    # read as they are, never truncated: 1.7 is not node 1, nor "0" node 0
    for edges in ([(0, 1.7)], [(0, 1.0)], [("0", "1"), (1, 2)], [(0, 1), (1, 2.9)], [(None, 1)]):
        with pytest.raises(InvalidGraphError, match="endpoints must be integers"):
            Graph(3, edges)
    g = Graph(3, np.array([[0, 1], [1, 2]]))
    assert g.edges == ((0, 1), (1, 2)) and all(type(i) is int for e in g.edges for i in e)


def test_an_edge_that_is_not_a_pair_is_an_invalid_graph():
    # unpacked as (i, j): three entries, one, or a one-key object are no pair
    for edges in ([(0, 1, 2)], [(0,)], [[0, 1], [0, 1, 1]], [{"a": 1}], ["01"]):
        with pytest.raises(InvalidGraphError, match="endpoints must be integers"):
            Graph(3, edges)


def test_graph_size_is_an_integer_of_at_least_zero():
    for n in (-1, 2.5, 2.0, "2", None):
        with pytest.raises(InvalidGraphError, match="integer number of nodes"):
            Graph(n, [])
    assert Graph(0, []).n == 0
    g = Graph(np.int64(2), [(0, 1)])
    assert type(g.n) is int and g == Graph(2, [(0, 1)])


def test_neighbors_and_arcs_are_derived_from_the_edges():
    # the edges are the adjacency's one home: no other description can disagree with them
    for derived in ({"arcs": None}, {"neighbors": ((1, 2), (0, 2), (0, 1))}):
        with pytest.raises(TypeError):
            Graph(n=3, edges=((0, 1), (1, 2)), **derived)
    g = Graph(3, ((0, 1), (1, 2)))
    assert not hasattr(g, "neighbors")
    assert np.diag(g.laplacian).tolist() == [1.0, 2.0, 1.0]
    assert np.all(g.laplacian.sum(axis=1) == 0.0)


def test_a_ring_built_directly_is_the_named_ring():
    n = 3000
    ring, named = Graph(n, [(i, (i + 1) % n) for i in range(n)]), named_topology("ring", n)
    assert ring.arcs is not None and ring == named
    v = np.random.default_rng(0).normal(size=n)
    assert ring.apply_laplacian(v).tobytes() == named.apply_laplacian(v).tobytes()


def test_laplacian_zero_row_sums_exact():
    g = random_connected_graph(17, 0.3, seed=2)
    assert np.all(g.laplacian @ np.ones(17) == 0.0)
    assert np.all(np.ones(17) @ g.laplacian == 0.0)


def test_is_connected_examples():
    with pytest.raises(ConnectivityError):  # a Graph is connected, however it is built
        Graph(2, [])
    with pytest.raises(ConnectivityError):
        Graph(3, [(0, 1)])


def test_graphs_compare_and_hash_by_their_edges():
    a, b = named_topology("ring", 2000), named_topology("ring", 2000)
    assert a.arcs is not None and a == b and hash(a) == hash(b)
    assert a != named_topology("path", 2000)
    assert len({a, b, named_topology("ring", 20), named_topology("ring", 20)}) == 2


def test_graph_guards():
    assert Graph(0, []).edges == ()  # no node is left unreached
    with pytest.raises(ConnectivityError):
        y_star(Graph(3, [(0, 1)]), [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    with pytest.raises(ShapeError):
        y_star(Graph(2, [(0, 1)]), [1.0, 1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ShapeError):
        y_star(Graph(2, [(0, 1)]), [1.0, 1.0], [0.5])
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_connected_graph(0)


def test_random_connected_graph_refuses_a_size_that_is_not_an_integer():
    for n in (2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match="n must be >= 1"):
            random_connected_graph(n)


_BOOLEAN_COUNTS = {  # every reader of graphs._count, each refusing True with its own error
    "Graph": (lambda: Graph(True, []), InvalidGraphError, "integer number of nodes"),
    "named_topology": (lambda: named_topology("path", True), InvalidGraphError, "integer number of nodes"),
    "random_instance": (lambda: random_instance(True, 0), ShapeError, "n must be an integer >= 0"),
    "random_connected_graph": (lambda: random_connected_graph(True), ValueError, "n must be >= 1"),
    "sample_stride": (lambda: SolverConfig(sample_stride=True), ValueError, "sample_stride an integer"),
    "steps": (lambda: AnnealSchedule(steps=True), ValueError, "steps an integer >= 1"),
    "campaign n": (lambda: CampaignConfig(n=True), ValueError, "n and trials must be integers"),
    "trials": (lambda: CampaignConfig(trials=True), ValueError, "n and trials must be integers"),
    "jobs": (lambda: run_campaign(CampaignConfig(n=2, trials=1, methods=("greedy",)), jobs=True),
             ValueError, "jobs must be an integer >= 1"),
}


@pytest.mark.parametrize("site", _BOOLEAN_COUNTS)
def test_a_count_refuses_a_boolean(site):
    build, error, message = _BOOLEAN_COUNTS[site]
    with pytest.raises(error, match=message):
        build()


def test_fiedler_positive_for_connected():
    g = random_connected_graph(12, 0.1, seed=9)
    w = np.linalg.eigvalsh(g.laplacian)
    assert w[1] > 1e-10


def test_y_star_examples():
    g = Graph(2, [(0, 1)])
    assert np.allclose(y_star(g, [3.0, 1.0], [1.0, 0.0]), [-0.75, 0.75],
                       atol=1e-14)
    assert np.allclose(y_star(g, [3.0, 1.0], [0.0, 0.0]), [0.0, 0.0])


@pytest.mark.parametrize("n", [2, 5, 20, 100, 400])
@pytest.mark.parametrize("kind", ["random", "tree", "path"])
def test_y_star_matches_the_pseudo_inverse(kind, n):
    if kind == "path":
        graph = named_topology("path", n)
    else:
        graph = random_connected_graph(n, 0.2 if kind == "random" else 0.0, seed=n)
    rng = np.random.default_rng(n)
    output, x = rng.uniform(1.0, 50.0, n), rng.uniform(0.0, 1.0, n)
    ys = y_star(graph, output, x)
    want = -np.linalg.pinv(graph.laplacian, hermitian=True) @ (output * x)
    assert np.max(np.abs(ys - want)) <= 1e-9 * np.max(np.abs(want))
    assert abs(ys.sum()) <= 1e-12 * np.abs(ys).sum()


def test_y_star_equilibrium_and_residual_direction():
    rng = np.random.default_rng(21)
    for seed in range(8):
        n = int(rng.integers(3, 12))
        g = random_connected_graph(n, 0.4, seed=seed)
        p = rng.uniform(1.0, 50.0, n)
        x = rng.uniform(0.0, 1.0, n)
        ys = y_star(g, p, x)
        resid = p * x + g.laplacian @ ys
        assert np.max(np.abs(g.laplacian @ resid)) <= 1e-9
        # the penalty residual collapses onto the all-ones direction
        mean = resid.mean()
        assert np.max(np.abs(resid - mean)) <= 1e-9


def test_random_connected_graph_basics():
    g = random_connected_graph(1, 0.5, seed=0)
    assert g.n == 1 and g.edges == ()
    for seed in range(10):
        g = random_connected_graph(9, 0.0, seed=seed)
        assert len(g.edges) == 8  # spanning tree
    g = random_connected_graph(6, 1.0, seed=3)
    assert len(g.edges) == 15
    g = random_connected_graph(2000, 0.0, seed=0)
    assert len(g.edges) == 1999


def test_random_connected_graph_deterministic():
    a = random_connected_graph(10, 0.3, seed=5)
    b = random_connected_graph(10, 0.3, seed=5)
    assert a.edges == b.edges


def test_random_connected_graphs_keep_their_edges():
    # the edges each (n, fraction, seed) gave when every free pair was listed before the draw
    digest = hashlib.sha256()
    for n in [*range(1, 31), 50, 64, 100, 200, 400]:
        for fraction in (0.0, 0.05, 0.2, 0.5, 1.0):
            for seed in range(6):
                digest.update(repr(random_connected_graph(n, fraction, seed).edges).encode())
    assert digest.hexdigest() == "f1e674047e6c769ea16b66a4476e307033f862779eb938a8b00c0e6b5f4da066"


@pytest.mark.parametrize("fraction", [-0.5, np.nan, 1.5])
def test_random_connected_graph_rejects_a_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match="extra_edge_fraction"):
        random_connected_graph(6, fraction, seed=0)


def test_named_topologies():
    assert named_topology("path", 4).edges == ((0, 1), (1, 2), (2, 3))
    ring = named_topology("ring", 4)
    assert (0, 3) in ring.edges and len(ring.edges) == 4
    assert len(named_topology("complete", 5).edges) == 10
    assert len(named_topology("random", 7, seed=1).edges) >= 6  # built, so connected
    with pytest.raises(ValueError):
        named_topology("torus", 4)
    with pytest.raises(ValueError, match="n must be >= 1"):  # random_connected_graph's refusal
        named_topology("random", 2.5)


@pytest.mark.parametrize("name", ["path", "ring", "complete"])
def test_a_named_topology_refuses_a_size_that_is_not_an_integer(name):
    # Graph's own refusal, before an edge list is built from the size
    for n in (2.5, "3", None, -1):
        with pytest.raises(InvalidGraphError, match="integer number of nodes"):
            named_topology(name, n)
    assert named_topology(name, 0) == Graph(0, [])


# complete and random graphs at n=2000 have ~2M pairs: too slow to build in a unit test
@pytest.mark.parametrize(
    "n, topology",
    [(n, t) for n in (1, 2, 3, 20) for t in ("ring", "path", "tree", "complete", "random")]
    + [(2000, t) for t in ("ring", "path", "tree")],
)
def test_apply_laplacian_equals_dense_product_on_both_sides(n, topology, monkeypatch):
    if topology == "tree":
        g = random_connected_graph(n, 0.0, seed=n)
    else:
        g = named_topology(topology, n, seed=n)
    rng = np.random.default_rng(n)
    # integer entries make every sum exact, so any summation order gives the same bits
    v = rng.integers(-1000, 1000, n).astype(float)
    sides = []
    for fill in (0.0, 1.0):  # 0 stores only edgeless graphs as edge lists, 1 every graph
        monkeypatch.setattr(graphs, "_SPARSE_FILL", fill)
        sides.append(Graph(n, g.edges))
    assert sides[1].arcs is not None and (sides[0].arcs is None or not g.edges)
    for side in sides:
        got = side.apply_laplacian(v)
        assert got.shape == (n,)
        assert np.array_equal(got, g.laplacian @ v)
    w = rng.normal(size=n)
    scale = 1e-13 * (1.0 + np.abs(np.diag(g.laplacian)).max()) * np.abs(w).max()
    assert np.max(np.abs(g.apply_laplacian(w) - g.laplacian @ w)) <= scale


def _arc_sum_laplacian(graph, v):
    """L @ v as the sum over directed arcs, in the order of ``edges``, from 0.0."""
    heads, tails = np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T
    rows, cols = np.r_[heads, tails], np.r_[tails, heads]
    return np.bincount(rows, minlength=graph.n) * v - np.bincount(rows, v[cols], graph.n)


@pytest.mark.parametrize("name, edges, regular", [
    ("ring", [(i, (i + 1) % 300) for i in range(300)], True),
    ("circulant", [(i, (i + s) % 300) for i in range(300) for s in (1, 7)], True),
    ("complete", [(i, j) for i in range(12) for j in range(i)], True),
    ("path", [(i, i + 1) for i in range(299)], False),
    ("star", [(0, i) for i in range(1, 300)], False),
    ("tree", random_connected_graph(300, 0.0, seed=3).edges, False),
    ("edgeless", [], False),
])
def test_apply_laplacian_keeps_the_bits_of_the_arc_sum(name, edges, regular, monkeypatch):
    monkeypatch.setattr(graphs, "_SPARSE_FILL", 1.0)
    n = 1 + max((max(e) for e in edges), default=0)  # edgeless: one node, zero arcs
    g = Graph(n, edges)
    assert g.arcs is not None and (g.arcs[0] is None) == regular
    rng = np.random.default_rng(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(5):
            # signed zeros, overflow and underflow: any other summation order shows
            v = rng.normal(size=n) * rng.choice([1e-310, 1.0, 1e308], size=n)
            v[rng.random(n) < 0.3] = -0.0
            v[rng.random(n) < 0.1] = 0.0
            assert g.apply_laplacian(v).tobytes() == _arc_sum_laplacian(g, v).tobytes()


def test_build_graph_uses_edge_lists_only_on_sparse_graphs():
    ring = named_topology("ring", 2000)
    assert ring.arcs is not None
    ring.apply_laplacian(np.ones(2000))
    assert "laplacian" not in vars(ring)  # no n x n matrix until an oracle reads it
    assert named_topology("ring", 20).arcs is None
    assert random_connected_graph(400, 0.2, seed=0).arcs is None
