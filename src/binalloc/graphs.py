"""Undirected communication graphs, Laplacians and the auxiliary-variable optimum."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConnectivityError, InvalidGraphError, ShapeError

_EXTRA_EDGE_FRACTION = 0.2  # share of the non-tree pairs a random graph adds, by default
# Fill of the n*n Laplacian up to which L @ v uses edge lists; an arc costs ~24 BLAS entries.
_SPARSE_FILL = 1.0 / 32.0


def _count(value, least):
    """Whether ``value`` is an integer (``operator.index``: not 2.5, nor 2.0) >= ``least``."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


@dataclass(frozen=True)
class Graph:
    """Immutable connected undirected graph with unit edge weights, built from (n, edges).

    The edges are stored as a sorted tuple of (i, j) pairs with i < j, duplicates and
    orientation ignored; an edge that is not a pair of integers, a self-loop, an endpoint
    outside 0..n-1 or a disconnected graph is refused: the one connectivity check. ``arcs``
    and ``laplacian`` derive from the edges, the adjacency's one home: graphs compare by (n, edges).
    """

    n: int
    edges: tuple
    # (rows, cols, degree) of the directed edges, if sparse; on a regular graph rows
    # is None and cols[k] holds each node's k-th neighbour in the order of ``edges``
    arcs: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _count(self.n, 0):
            raise InvalidGraphError(f"a graph needs an integer number of nodes >= 0, got {self.n!r}")
        n = operator.index(self.n)
        try:  # pairs of integer endpoints: not 1.7, nor "1", nor (0, 1, 2)
            edge_set = {tuple(sorted((operator.index(i), operator.index(j)))) for i, j in self.edges}
        except (TypeError, ValueError) as exc:
            raise InvalidGraphError(f"graph endpoints must be integers, two to an edge: {exc}") from None
        adj = [[] for _ in range(n)]
        for i, j in edge_set:
            if i == j:
                raise InvalidGraphError(f"self-loop at node {i}")
            if i < 0 or j >= n:
                raise InvalidGraphError(f"edge ({i},{j}) out of range for n={n}")
            adj[i].append(j)
            adj[j].append(i)
        reached, seen = [0][:n], {0}
        for i in reached:  # breadth-first from node 0; the list grows while it is read
            fresh = [j for j in adj[i] if j not in seen]
            seen.update(fresh)
            reached.extend(fresh)
        if len(reached) < n:
            raise ConnectivityError(f"the graph on {n} nodes is disconnected")
        edges = tuple(sorted(edge_set))
        arcs = None
        if 2 * len(edges) <= _SPARSE_FILL * n * n:
            heads, tails = np.array(edges, dtype=np.intp).reshape(-1, 2).T
            rows, cols = np.r_[heads, tails], np.r_[tails, heads]
            degree = np.bincount(rows, minlength=n).astype(float)
            if n and degree.min() == degree.max() > 0:  # regular: whole-vector gathers
                rows, cols = None, cols[np.argsort(rows, kind="stable")].reshape(n, -1).T.copy()
            arcs = (rows, cols, degree)
        for name, value in (("n", n), ("edges", edges), ("arcs", arcs)):
            object.__setattr__(self, name, value)

    @cached_property
    def laplacian(self):
        """Dense Laplacian: -1 on edges, degree on the diagonal, zero row sums.

        Built on first read and kept. Edge-list graphs never read it in a flow
        step, so they hold no n x n matrix unless an oracle asks for it.
        """
        lap = np.zeros((self.n, self.n))
        heads, tails = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        lap[heads, tails] = lap[tails, heads] = -1.0
        np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))  # the degrees, exact; a lone node's is +0.0
        return lap

    def apply_laplacian(self, v):
        """L @ v: O(n + |E|) from the edge lists, or a dense product."""
        if self.arcs is None:
            return self.laplacian @ v
        rows, cols, degree = self.arcs
        if rows is not None:
            return degree * v - np.bincount(rows, v[cols], self.n)
        # bincount's sums, slot by slot from 0.0 (an outer-axis reduce): the same bits
        acc = np.add.reduce(v[cols], axis=0, initial=0.0)
        return np.subtract(degree * v, acc, out=acc)


def y_star(graph, output, x):
    """Closed-form minimizer of the distributed penalty over the flow's set sum(y) = 0.

    That is -L^+ b for b = output * x. The graph is connected, so L + 11^T/n is
    invertible with inverse L^+ + 11^T/n, which maps b - mean(b) to L^+ b.
    """
    output = np.asarray(output, dtype=float)
    x = np.asarray(x, dtype=float)
    if output.shape != (graph.n,) or x.shape != (graph.n,):
        raise ShapeError("output and x must have length n")
    b = output * x
    return -np.linalg.solve(graph.laplacian + 1.0 / graph.n, b - b.mean())


def random_connected_graph(n, extra_edge_fraction=_EXTRA_EDGE_FRACTION, seed=None):
    """Random spanning tree plus a fraction of the remaining pairs as extra edges.

    Fraction 0 gives a tree; fraction 1 gives the complete graph. Always connected. The
    extra edges are drawn as indices into the row-major list of free pairs, which is never
    built (a seed gives the graph that list would give), and Graph reads all pairs once:
    memory is O(n + extra edges), beyond numpy's draw (8 bytes a free pair at most).
    """
    if not _count(n, 1):
        raise ValueError(f"n must be >= 1 and an integer, got {n!r}")
    if not 0 <= extra_edge_fraction <= 1:
        raise ValueError(f"extra_edge_fraction must be in [0, 1], got {extra_edge_fraction}")
    rng = np.random.default_rng(seed)
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        edges.add(tuple(sorted((int(order[k]), int(parent)))))
    free = n * (n - 1) // 2 - len(edges)  # the pairs outside the tree
    if extra_edge_fraction > 0 and free:
        drawn = rng.choice(free, size=int(round(extra_edge_fraction * free)), replace=False)
        # pair (i, j) has row-major index i(2n-i-1)/2 + j-i-1; free pair k is pair k plus
        # the tree pairs below it: those whose index less their rank is at most k
        starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # row i's pair index at j = i+1
        i, j = np.array(list(edges)).T
        tree = np.sort(starts[i] + j - i - 1)
        pair = drawn + np.searchsorted(tree - np.arange(n - 1), drawn, side="right")
        row = np.searchsorted(starts, pair, side="right") - 1
        edges = zip(np.r_[i, row].tolist(), np.r_[j, pair - starts[row] + row + 1].tolist())
    return Graph(n, edges)


def named_topology(name, n, seed=None, extra_edge_fraction=_EXTRA_EDGE_FRACTION):
    """Graphs by name: ring, path, complete, or random (seeded)."""
    if name in ("path", "ring", "complete") and not _count(n, 0):  # Graph's refusal, before range(n)
        raise InvalidGraphError(f"a graph needs an integer number of nodes >= 0, got {n!r}")
    if name == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if name == "ring":
        if n < 3:
            return named_topology("path", n)
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "random":
        return random_connected_graph(n, extra_edge_fraction, seed)
    raise ValueError(f"unknown topology {name!r}")
