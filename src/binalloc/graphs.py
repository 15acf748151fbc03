"""Undirected communication graphs, Laplacians and the auxiliary-variable optimum."""

from __future__ import annotations

from dataclasses import dataclass

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
    laplacian: np.ndarray
    neighbors: tuple
    arcs: tuple | None = None  # (rows, cols, degree) of the directed edges, if sparse

    def apply_laplacian(self, v):
        """L @ v: O(n + |E|) from the edge lists, or a dense product."""
        if self.arcs is None:
            return self.laplacian @ v
        rows, cols, degree = self.arcs
        return degree * v - np.bincount(rows, v[cols], self.n)

    def two_hop(self, i):
        """Nodes reachable from i in exactly one or two hops (excluding i)."""
        reach = set(self.neighbors[i])
        for j in self.neighbors[i]:
            reach.update(self.neighbors[j])
        reach.discard(i)
        return sorted(reach)


def laplacian(n, edges):
    """Dense Laplacian: -1 on edges, degree on the diagonal, zero row sums."""
    lap = np.zeros((n, n))
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise InvalidGraphError(f"self-loop at node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidGraphError(f"edge ({i},{j}) out of range for n={n}")
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def build_graph(n, edges):
    edge_set = {tuple(sorted((int(i), int(j)))) for i, j in edges}
    lap = laplacian(n, edge_set)
    adj = [[] for _ in range(n)]
    for i, j in edge_set:
        adj[i].append(j)
        adj[j].append(i)
    edges = tuple(sorted(edge_set))
    heads, tails = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    arcs = (np.r_[heads, tails], np.r_[tails, heads], lap.diagonal().copy())
    return Graph(
        n=n,
        edges=edges,
        laplacian=lap,
        neighbors=tuple(tuple(sorted(a)) for a in adj),
        arcs=arcs if 2 * len(edges) <= _SPARSE_FILL * n * n else None,
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


def y_star(graph, output, x, kappa=0.0):
    """Closed-form minimizer of the distributed penalty over the conserved-sum set."""
    if not is_connected(graph):
        raise ConnectivityError("y_star requires a connected graph")
    output = np.asarray(output, dtype=float)
    x = np.asarray(x, dtype=float)
    if output.shape != (graph.n,) or x.shape != (graph.n,):
        raise ShapeError("output and x must have length n")
    return -pseudo_inverse(graph) @ (output * x) + kappa / graph.n


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
    rest = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    if rest and extra_edge_fraction > 0:
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
