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

from .errors import InvalidCoefficientError, ShapeError
from .graphs import Graph, _count

# random_instance's target output and penalty; the campaign and from_json_dict read them
DEFAULT_P_REF = 1500.0
DEFAULT_GAMMA = 1.0


def _vec(values, n=None, name="vector"):
    arr = np.atleast_1d(np.asarray(values))
    if arr.dtype.kind not in "biuf":  # text, null, a JSON object or an integer past 64 bits
        raise ShapeError(f"{name} must hold only numbers")
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr.astype(float, copy=False)


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
        if n == 0:
            raise ShapeError("an instance needs at least one agent")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "center", _vec(self.center, n, "center"))
        object.__setattr__(self, "passive", _vec(self.passive, n, "passive"))
        object.__setattr__(self, "output", _vec(self.output, n, "output"))
        object.__setattr__(self, "penalty", float(self.penalty))
        object.__setattr__(self, "target", float(self.target))
        data = np.concatenate((quad, self.center, self.passive, self.output, [self.target]))
        with np.errstate(over="ignore"):  # only finite factors reach incr_cost: inf * 0 would warn
            finite = np.isfinite(data).all() and np.isfinite(self.incr_cost).all()
        if not (finite and 0 < self.penalty < np.inf):
            raise InvalidCoefficientError("quad, center, passive, output, target and incremental costs must "
                                          f"be finite, and penalty finite and > 0 (got {self.penalty})")

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
        raise InvalidCoefficientError(f"quadratic coefficient is zero at index {int(zero[0])}")
    return a, 0.5 - c / a, d


def default_quad(output, penalty):
    """Quadratic coefficients steep enough, by a 10% margin, for bistable flows
    at the default ``Thermo`` knobs, read at call time.

    Uses the global output norm, so the value also meets each agent's own
    (distributed) condition.
    """
    from .energy import Thermo  # energy imports this module

    knobs = Thermo()
    p = _vec(output, name="output")
    level = penalty * float(p @ p) + 4.0 * knobs.temp / knobs.time_const
    return np.full(p.shape[0], -level * 1.1)


def _check_graph(instance, graph):  # a graph that P2 or the distributed flow reads
    if graph is None:
        raise ValueError("the distributed flow requires a graph")
    if graph.n != instance.n:
        raise ShapeError(f"the graph has {graph.n} nodes, the instance {instance.n} agents")


def _agent_costs(instance, x):
    """Each agent's own cost f_i(x_i): the part that P1 and P2 share."""
    quad, center = instance.quad, instance.center
    return 0.5 * quad * (x - center) ** 2 - 0.5 * quad * center**2 + instance.passive


def eval_p1(instance, x):
    """Total cost: agent costs plus the squared global mismatch penalty."""
    x = _vec(x, instance.n, "x")
    mismatch = float(instance.output @ x) - instance.target
    return float(_agent_costs(instance, x).sum() + 0.5 * instance.penalty * mismatch**2)


def residual_weight(instance):
    """The weight w of P2's residual term 0.5 w |output*x + L y - target/n|^2: its one home."""
    return instance.penalty


def round_to_binary(x):
    """Map a fractional point to bits; entries at 0.5 round up."""
    x = _vec(x, name="x")
    return (x >= 0.5).astype(int)


def random_instance(
    n,
    seed,
    p_range=(1.0, 50.0),
    exponent_range=(2.0, 3.0),
    p_ref=DEFAULT_P_REF,
    gamma=DEFAULT_GAMMA,
):
    """Draw outputs uniformly and set on-costs to a random power of each output.

    Deterministic for a given seed. Quadratic coefficients come from
    :func:`default_quad`, centers from :func:`fit_coefficients`, passive
    costs are zero.
    """
    if not _count(n, 0):  # as from_json_dict refuses it; zero agents are refused by Instance
        raise ShapeError(f"n must be an integer >= 0, got {n!r}")
    lo, hi = p_range
    if not lo < hi and lo != hi:
        raise ValueError(f"bad p_range {p_range}")
    rng = np.random.default_rng(seed)
    p = rng.uniform(lo, hi, size=n)
    e = rng.uniform(exponent_range[0], exponent_range[1], size=n)
    c = p**e
    a = default_quad(p, gamma)
    a, b, d = fit_coefficients(c, a, np.zeros(n))
    return Instance(quad=a, center=b, passive=d, output=p, penalty=gamma, target=p_ref)


def to_json_dict(instance, graph=None):
    """Serializable dict in the on-disk schema: keys n, p, a, b, d, gamma, p_ref (and edges)."""
    doc = {
        "n": instance.n,
        "p": instance.output.tolist(),
        "a": instance.quad.tolist(),
        "b": instance.center.tolist(),
        "d": instance.passive.tolist(),
        "gamma": instance.penalty,
        "p_ref": instance.target,
    }
    if graph is not None:
        _check_graph(instance, graph)
        doc["edges"] = [list(e) for e in graph.edges]
    return doc


def save_instance(instance, path, graph=None):
    doc = to_json_dict(instance, graph)  # a refused graph leaves no file behind
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _holds_bool(value):  # JSON true is not a number, though Python's True is an int
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def from_json_dict(doc):
    """Build (instance, graph-or-None) from the on-disk schema.

    Accepts either explicit a+b arrays or a c array (centers are then fitted
    with default quadratic coefficients).
    """
    if not (isinstance(doc, dict) and "n" in doc and "p" in doc):
        raise ShapeError("an instance is a JSON object with at least the keys 'n' and 'p'")
    gamma, p_ref = doc.get("gamma", DEFAULT_GAMMA), doc.get("p_ref", DEFAULT_P_REF)
    flagged = [k for k in ("n", "p", "a", "b", "c", "d", "gamma", "p_ref", "edges") if _holds_bool(doc.get(k))]
    if flagged:  # before _vec and Graph read a boolean as 0 or 1
        raise ShapeError(f"{flagged[0]} must hold numbers, not booleans")
    n = doc["n"]
    if not _count(n, 0):  # an integer: not 2.7, nor "2"; zero agents are refused by Instance
        raise ShapeError(f"n must be an integer >= 0, got {n!r}")
    p = _vec(doc["p"], n, "p")
    if not all(isinstance(v, (int, float)) for v in (gamma, p_ref)):  # a number: not "2", nor null
        raise ShapeError(f"gamma and p_ref must be numbers, got {gamma!r} and {p_ref!r}")
    d = _vec(doc.get("d", np.zeros(n)), n, "d")
    if "a" in doc and "b" in doc:
        a = _vec(doc["a"], n, "a")
        b = _vec(doc["b"], n, "b")
    elif "c" in doc:
        c = _vec(doc["c"], n, "c")
        a = default_quad(p, gamma)
        a, b, d = fit_coefficients(c, a, d)
    else:
        raise ShapeError("instance JSON needs either 'a'+'b' or 'c'")
    inst = Instance(quad=a, center=b, passive=d, output=p, penalty=gamma, target=p_ref)
    edges = doc.get("edges")
    return inst, None if edges is None else Graph(n, edges)


def load_instance(path):
    with open(path) as fh:
        return from_json_dict(json.load(fh))
