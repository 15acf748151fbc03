"""Undirected communication graphs, Laplacians and the auxiliary-variable optimum."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConnectivityError, InvalidGraphError, ShapeError

# Eigenvalues of the Laplacian below this are treated as the zero mode.
_NULL_EIG_TOL = 1e-10
# Fill of the n*n Laplacian up to which L @ v uses edge lists; an arc costs ~24 BLAS entries.
_SPARSE_FILL = 1.0 / 32.0


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with unit edge weights.

    ``edges`` is a sorted tuple of (i, j) pairs with i < j. ``neighbors[i]``
    is the sorted tuple of nodes adjacent to i, for per-agent computation.
    """

    n: int
    edges: tuple
    neighbors: tuple
    # (rows, cols, degree) of the directed edges, if sparse; on a regular graph rows
    # is None and cols[k] holds each node's k-th neighbour in the order of ``edges``
    arcs: tuple | None = None

    @cached_property
    def laplacian(self):
        """Dense Laplacian: -1 on edges, degree on the diagonal, zero row sums.

        Built on first read and kept. Edge-list graphs never read it in a flow
        step, so they hold no n x n matrix unless an oracle asks for it.
        """
        lap = np.zeros((self.n, self.n))
        heads, tails = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        lap[heads, tails] = lap[tails, heads] = -1.0
        np.fill_diagonal(lap, [len(nbrs) for nbrs in self.neighbors])
        return lap

    def apply_laplacian(self, v):
        """L @ v: O(n + |E|) from the edge lists, or a dense product."""
        if self.arcs is None:
            return self.laplacian @ v
        rows, cols, degree = self.arcs
        if rows is not None:
            return degree * v - np.bincount(rows, v[cols], self.n)
        acc = np.zeros(self.n)  # bincount's sums, from 0.0 in the same order: the same bits
        for nbrs in cols:
            acc += v[nbrs]
        return degree * v - acc


def build_graph(n, edges):
    """Validate and store an undirected edge list; duplicates and orientation are ignored."""
    edge_set = {tuple(sorted((int(i), int(j)))) for i, j in edges}
    adj = [[] for _ in range(n)]
    for i, j in edge_set:
        if i == j:
            raise InvalidGraphError(f"self-loop at node {i}")
        if i < 0 or j >= n:
            raise InvalidGraphError(f"edge ({i},{j}) out of range for n={n}")
        adj[i].append(j)
        adj[j].append(i)
    edges = tuple(sorted(edge_set))
    arcs = None
    if 2 * len(edges) <= _SPARSE_FILL * n * n:
        heads, tails = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        rows, cols = np.r_[heads, tails], np.r_[tails, heads]
        degree = np.bincount(rows, minlength=n).astype(float)
        if n and degree.min() == degree.max() > 0:  # regular: whole-vector gathers
            rows, cols = None, cols[np.argsort(rows, kind="stable")].reshape(n, -1).T.copy()
        arcs = (rows, cols, degree)
    return Graph(
        n=n,
        edges=edges,
        neighbors=tuple(tuple(sorted(a)) for a in adj),
        arcs=arcs,
    )


def is_connected(graph):
    """Breadth-first reachability from node 0."""
    if graph.n == 0:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in graph.neighbors[i]:
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == graph.n


def pseudo_inverse(graph):
    """Moore-Penrose pseudoinverse of the Laplacian via eigendecomposition.

    Used only by oracles and tests; the distributed flow itself needs only
    Laplacian products.
    """
    if not is_connected(graph):
        raise ConnectivityError("pseudo_inverse requires a connected graph")
    w, q = np.linalg.eigh(graph.laplacian)
    inv = np.where(np.abs(w) > _NULL_EIG_TOL, 1.0 / np.where(w == 0, 1.0, w), 0.0)
    return (q * inv) @ q.T


def y_star(graph, output, x):
    """Closed-form minimizer of the distributed penalty over the flow's set sum(y) = 0."""
    if not is_connected(graph):
        raise ConnectivityError("y_star requires a connected graph")
    output = np.asarray(output, dtype=float)
    x = np.asarray(x, dtype=float)
    if output.shape != (graph.n,) or x.shape != (graph.n,):
        raise ShapeError("output and x must have length n")
    return -pseudo_inverse(graph) @ (output * x)


def random_connected_graph(n, extra_edge_fraction=0.2, seed=None):
    """Random spanning tree plus a fraction of the remaining pairs as extra edges.

    Fraction 0 gives a tree; fraction 1 gives the complete graph. Always
    connected; deterministic for a given seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        parent = order[rng.integers(0, k)]
        edges.add(tuple(sorted((int(order[k]), int(parent)))))
    if extra_edge_fraction > 0:
        rest = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in edges
        ]
        if rest:
            take = int(round(extra_edge_fraction * len(rest)))
            take = min(take, len(rest))
            idx = rng.choice(len(rest), size=take, replace=False)
            edges.update(rest[k] for k in idx)
    return build_graph(n, edges)


def named_topology(name, n, seed=None, extra_edge_fraction=0.2):
    """Graphs by name: ring, path, complete, or random (seeded)."""
    if name == "path":
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if name == "ring":
        if n < 3:
            return named_topology("path", n)
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "complete":
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if name == "random":
        return random_connected_graph(n, extra_edge_fraction, seed)
    raise ValueError(f"unknown topology {name!r}")
