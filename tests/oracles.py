"""Independent oracles that the tests check the library against."""

import time

import numpy as np

from binalloc import bench, dynamics
from binalloc import energy as en
from binalloc.graphs import random_connected_graph
from binalloc.instances import random_instance, residual_weight


def agent_rates(state, instance, graph, thermo, alpha, agent):
    """Rates of a single agent computed from neighborhood data only.

    The decision update reads the agent's own data plus one-hop auxiliary
    values; the auxiliary update reads one- and two-hop data. Used to verify
    that the vectorized flow is implementable with local communication. Each
    agent's neighbours are read off ``graph.edges`` here, not taken from the library.
    """
    i, x, y, p = int(agent), state.x, state.y, instance.output
    ratio, weight = thermo.temp / thermo.time_const, residual_weight(instance)

    def neighbors(j):
        return [b if a == j else a for a, b in graph.edges if j in (a, b)]

    nbrs = neighbors(i)

    def lap_row(j, vec):
        return len(neighbors(j)) * vec[j] - sum(vec[k] for k in neighbors(j))

    share = instance.target / instance.n - lap_row(i, y)
    bias_i = instance.quad[i] * instance.center[i] + weight * p[i] * share
    coupling_i = instance.quad[i] + weight * p[i] ** 2
    grad_i = coupling_i * x[i] - bias_i - ratio * np.log(1.0 / x[i] - 1.0)
    gap_i = x[i] - x[i] ** 2
    inverse_i = en.pt_inverse_scalar(coupling_i + ratio / gap_i, thermo.floor)
    xdot_i = inverse_i * gap_i / thermo.temp * -grad_i

    def resid(j):  # p_j x_j + (L y)_j, one hop from j
        return p[j] * x[j] + lap_row(j, y)

    ydot_i = -alpha * weight * (len(nbrs) * resid(i) - sum(resid(j) for j in nbrs))
    return float(xdot_i), float(ydot_i)


def joint_hessian(instance, graph, thermo, x):
    """Dense blocks (A, B, C) of the Hessian [[A, B], [B^T, C]] of P2 plus barrier in (x, y),
    assembled from the definition: A = diag(quad + w p^2 + curvature), B = w diag(p) L,
    C = w L^2. It does not depend on y."""
    w, p, lap = residual_weight(instance), instance.output, graph.laplacian
    curvature = thermo.temp / thermo.time_const / (x - x**2)
    return np.diag(instance.quad + w * p**2 + curvature), w * p[:, None] * lap, w * lap @ lap


def schur_spectrum(instance, graph, thermo, x):
    """Eigenvalues of the joint Hessian's Schur complement A - B C^+ B^T: y eliminated."""
    a, b, c = joint_hessian(instance, graph, thermo, x)
    return np.linalg.eigvalsh(a - b @ np.linalg.pinv(c) @ b.T)


def median_step_time(method, n, steps=50, seed=0, repeats=3):
    """Median per-step wall time of a flow at a given problem size, timing the
    integrator's step directly (``run`` ends a round once its state freezes)."""
    flow, _ = bench.NN_METHODS[method]
    instance = random_instance(n, seed, p_ref=15.0 * n)  # a target of 15 per agent grows with n
    graph = random_connected_graph(n, seed=seed)
    config = dynamics.SolverConfig(step=1e-3)
    times = []
    for _ in range(repeats):
        x = dynamics.init_state(n, seed=seed).x
        y = np.zeros(n) if flow == "binnn-d" else None  # binnn-d's y starts at zero
        start = time.perf_counter()
        rates = dynamics.flow_rates(flow, instance, graph, config.thermo, alpha=1.0)
        for _ in range(steps):
            dynamics._step(rates, x, y, config)
        times.append((time.perf_counter() - start) / steps)
    return float(np.median(times))
