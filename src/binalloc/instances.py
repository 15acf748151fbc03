"""Problem instances: quadratic agent costs plus a squared global mismatch penalty.

An instance holds, for each of ``n`` agents, a quadratic cost
``f_i(x) = (quad_i/2)(x - center_i)^2 - quad_i*center_i^2/2 + passive_i``
so that ``f_i(0) = passive_i`` and ``f_i(1) = incr_cost_i + passive_i``,
together with per-agent outputs, a penalty weight and a target total output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConnectivityError, InvalidCoefficientError, ShapeError
from .graphs import build_graph, is_connected


def _vec(values, n=None, name="vector"):
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


@dataclass(frozen=True)
class Instance:
    """Immutable problem data. Safe to share across concurrent trials.

    Attributes
    ----------
    quad : ndarray
        Per-agent quadratic coefficient (cost units).
    center : ndarray
        Per-agent parabola center (dimensionless).
    passive : ndarray
        Per-agent cost at the off state (cost units).
    output : ndarray
        Per-agent incremental output when on (power units).
    penalty : float
        Weight of the squared mismatch term, > 0 (cost/power^2).
    target : float
        Reference total output to match (power units).
    """

    quad: np.ndarray
    center: np.ndarray
    passive: np.ndarray
    output: np.ndarray
    penalty: float
    target: float

    def __post_init__(self):
        quad = _vec(self.quad, name="quad")
        n = quad.shape[0]
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "center", _vec(self.center, n, "center"))
        object.__setattr__(self, "passive", _vec(self.passive, n, "passive"))
        object.__setattr__(self, "output", _vec(self.output, n, "output"))
        object.__setattr__(self, "penalty", float(self.penalty))
        object.__setattr__(self, "target", float(self.target))
        if self.penalty <= 0:
            raise ValueError(f"penalty must be > 0, got {self.penalty}")
        if not np.all(np.isfinite(self.incr_cost)):
            raise InvalidCoefficientError("implied incremental cost is not finite")

    @property
    def n(self) -> int:
        return self.quad.shape[0]

    @property
    def incr_cost(self) -> np.ndarray:
        """Cost of switching each agent on: f_i(1) - f_i(0)."""
        return 0.5 * self.quad * (1.0 - 2.0 * self.center)


def fit_coefficients(incr_cost, quad, passive):
    """Solve for parabola centers so each agent's on/off cost gap is met exactly.

    Returns the (quad, center, passive) triple with
    ``center_i = 1/2 - incr_cost_i / quad_i``.
    """
    c = _vec(incr_cost, name="incr_cost")
    a = _vec(quad, c.shape[0], "quad")
    d = _vec(passive, c.shape[0], "passive")
    zero = np.flatnonzero(a == 0.0)
    if zero.size:
        raise InvalidCoefficientError(
            f"quadratic coefficient is zero at index {int(zero[0])}"
        )
    return a, 0.5 - c / a, d


def default_quad(output, penalty, temp, time_const, margin=0.1, mode="centralized"):
    """Quadratic coefficients steep enough for bistable flows at the given knobs.

    Centralized mode uses the global output norm; distributed mode uses only
    each agent's own output so the value is locally computable.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if temp <= 0 or time_const <= 0:
        raise ValueError("temp and time_const must be > 0")
    p = _vec(output, name="output")
    ratio = 4.0 * temp / time_const
    if mode == "centralized":
        level = penalty * float(p @ p) + ratio
        return np.full(p.shape[0], -level * (1.0 + margin))
    if mode == "distributed":
        return -(penalty * p**2 + ratio) * (1.0 + margin)
    raise ValueError(f"unknown mode {mode!r}")


def eval_p1(instance, x):
    """Total cost: agent costs plus the squared global mismatch penalty."""
    x = _vec(x, instance.n, "x")
    agent = (
        0.5 * instance.quad * (x - instance.center) ** 2
        - 0.5 * instance.quad * instance.center**2
        + instance.passive
    )
    mismatch = float(instance.output @ x) - instance.target
    return float(agent.sum() + 0.5 * instance.penalty * mismatch**2)


def eval_p2(instance, graph, x, y):
    """Distributed-form cost with auxiliary variable y over a communication graph."""
    if graph.n != instance.n:
        raise ShapeError(f"graph has {graph.n} nodes, instance has {instance.n}")
    x = _vec(x, instance.n, "x")
    y = _vec(y, instance.n, "y")
    agent = (
        0.5 * instance.quad * (x - instance.center) ** 2
        - 0.5 * instance.quad * instance.center**2
        + instance.passive
    )
    residual = instance.output * x + graph.apply_laplacian(y) - instance.target / instance.n
    return float(agent.sum() + 0.5 * instance.penalty * float(residual @ residual))


def round_to_binary(x, threshold=0.5):
    """Map a fractional point to bits; entries at the threshold round up."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    x = _vec(x, name="x")
    return (x >= threshold).astype(int)


def random_instance(
    n,
    seed,
    p_range=(1.0, 50.0),
    exponent_range=(2.0, 3.0),
    p_ref=1500.0,
    gamma=1.0,
    temp=1.0,
    time_const=0.1,
    margin=0.1,
):
    """Draw outputs uniformly and set on-costs to a random power of each output.

    Deterministic for a given seed. Quadratic coefficients come from
    :func:`default_quad` (centralized mode, so they also satisfy the
    per-agent distributed condition), centers from :func:`fit_coefficients`,
    passive costs are zero.
    """
    lo, hi = p_range
    if not lo < hi and lo != hi:
        raise ValueError(f"bad p_range {p_range}")
    rng = np.random.default_rng(seed)
    p = rng.uniform(lo, hi, size=n)
    e = rng.uniform(exponent_range[0], exponent_range[1], size=n)
    c = p**e
    a = default_quad(p, gamma, temp, time_const, margin=margin)
    a, b, d = fit_coefficients(c, a, np.zeros(n))
    return Instance(quad=a, center=b, passive=d, output=p, penalty=gamma, target=p_ref)


def to_json_dict(instance, edges=None):
    """Serializable dict in the on-disk schema (keys n, p, a, b, d, gamma, p_ref)."""
    doc = {
        "n": instance.n,
        "p": instance.output.tolist(),
        "a": instance.quad.tolist(),
        "b": instance.center.tolist(),
        "d": instance.passive.tolist(),
        "gamma": instance.penalty,
        "p_ref": instance.target,
    }
    if edges is not None:
        doc["edges"] = [[int(i), int(j)] for i, j in edges]
    return doc


def save_instance(instance, path, edges=None):
    with open(path, "w") as fh:
        json.dump(to_json_dict(instance, edges), fh, indent=1, sort_keys=True)
        fh.write("\n")


def from_json_dict(doc):
    """Build (instance, edges-or-None) from the on-disk schema.

    Accepts either explicit a+b arrays or a c array (centers are then fitted
    with default quadratic coefficients).
    """
    n = int(doc["n"])
    p = _vec(doc["p"], n, "p")
    gamma = float(doc.get("gamma", 1.0))
    p_ref = float(doc.get("p_ref", 0.0))
    d = _vec(doc.get("d", np.zeros(n)), n, "d")
    if "a" in doc and "b" in doc:
        a = _vec(doc["a"], n, "a")
        b = _vec(doc["b"], n, "b")
    elif "c" in doc:
        c = _vec(doc["c"], n, "c")
        a = default_quad(p, gamma, temp=1.0, time_const=0.1)
        a, b, d = fit_coefficients(c, a, d)
    else:
        raise ShapeError("instance JSON needs either 'a'+'b' or 'c'")
    inst = Instance(quad=a, center=b, passive=d, output=p, penalty=gamma, target=p_ref)
    edges = doc.get("edges")
    if edges is not None:
        graph = build_graph(n, [tuple(e) for e in edges])  # validates endpoints
        if not is_connected(graph):
            raise ConnectivityError("instance edge list describes a disconnected graph")
        edges = graph.edges
    return inst, edges


def load_instance(path):
    with open(path) as fh:
        return from_json_dict(json.load(fh))
