import numpy as np
import pytest

from binalloc import graphs
from binalloc.errors import ConnectivityError, InvalidGraphError
from binalloc.graphs import (
    build_graph,
    is_connected,
    named_topology,
    pseudo_inverse,
    random_connected_graph,
    y_star,
)


def test_laplacian_path3():
    lap = build_graph(3, [(0, 1), (1, 2)]).laplacian
    assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_complete2():
    assert np.array_equal(build_graph(2, [(0, 1)]).laplacian, [[1, -1], [-1, 1]])


def test_laplacian_empty():
    assert np.array_equal(build_graph(3, []).laplacian, np.zeros((3, 3)))


def test_laplacian_rejects_self_loop_and_range():
    with pytest.raises(InvalidGraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(InvalidGraphError):
        build_graph(3, [(0, 3)])


def test_laplacian_zero_row_sums_exact():
    g = random_connected_graph(17, 0.3, seed=2)
    assert np.all(g.laplacian @ np.ones(17) == 0.0)
    assert np.all(np.ones(17) @ g.laplacian == 0.0)


def test_is_connected_examples():
    assert is_connected(build_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(build_graph(2, []))
    assert is_connected(named_topology("complete", 5))


def test_fiedler_positive_for_connected():
    g = random_connected_graph(12, 0.1, seed=9)
    w = np.linalg.eigvalsh(g.laplacian)
    assert w[1] > 1e-10


def test_pseudo_inverse_complete2():
    g = build_graph(2, [(0, 1)])
    assert np.allclose(pseudo_inverse(g), 0.25 * np.array([[1, -1], [-1, 1]]),
                       atol=1e-14)


def test_pseudo_inverse_defining_property():
    for seed in range(5):
        n = 6 + seed
        g = random_connected_graph(n, 0.3, seed=seed)
        pinv = pseudo_inverse(g)
        proj = np.eye(n) - np.ones((n, n)) / n
        assert np.max(np.abs(g.laplacian @ pinv - proj)) <= 1e-10
        assert np.max(np.abs(pinv @ np.ones(n))) <= 1e-10


def test_pseudo_inverse_requires_connected():
    with pytest.raises(ConnectivityError):
        pseudo_inverse(build_graph(2, []))


def test_y_star_examples():
    g = build_graph(2, [(0, 1)])
    assert np.allclose(y_star(g, [3.0, 1.0], [1.0, 0.0]), [-0.75, 0.75],
                       atol=1e-14)
    assert np.allclose(y_star(g, [3.0, 1.0], [0.0, 0.0]), [0.0, 0.0])


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
        assert is_connected(g)
        assert len(g.edges) == 8  # spanning tree
    g = random_connected_graph(6, 1.0, seed=3)
    assert len(g.edges) == 15
    g = random_connected_graph(2000, 0.0, seed=0)
    assert is_connected(g)
    assert len(g.edges) == 1999


def test_random_connected_graph_deterministic():
    a = random_connected_graph(10, 0.3, seed=5)
    b = random_connected_graph(10, 0.3, seed=5)
    assert a.edges == b.edges


def test_named_topologies():
    assert named_topology("path", 4).edges == ((0, 1), (1, 2), (2, 3))
    ring = named_topology("ring", 4)
    assert (0, 3) in ring.edges and len(ring.edges) == 4
    assert len(named_topology("complete", 5).edges) == 10
    assert is_connected(named_topology("random", 7, seed=1))
    with pytest.raises(ValueError):
        named_topology("torus", 4)


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
        sides.append(build_graph(n, g.edges))
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
    n = 1 + max((max(e) for e in edges), default=4)
    g = build_graph(n, edges)
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
