"""Energy functions for the neural-network flows.

Both flows descend an energy equal to the problem cost plus a logistic
barrier integral weighted by 1/time_const. The centralized energy couples
all agents through a rank-one term; the distributed energy is separable in
the decision variables given the auxiliary variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .instances import eval_p1, eval_p2

_SYM_TOL = 1e-9
_ENDPOINT_GUARD = 1e-12


@dataclass(frozen=True)
class Thermo:
    """Flow knobs: activation temperature, barrier time constant, inverse floor."""

    temp: float = 1.0
    time_const: float = 0.1
    floor: float = 0.1

    def __post_init__(self):
        if self.temp <= 0 or self.time_const <= 0 or self.floor <= 0:
            raise ValueError("temp, time_const and floor must all be > 0")


def activation(u, temp):
    """Logistic activation mapping a membrane value into (0,1)."""
    return 1.0 / (1.0 + np.exp(-np.asarray(u, dtype=float) / temp))


def activation_inv(x, temp):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError("activation_inv requires x strictly inside (0,1)")
    return -temp * np.log(1.0 / x - 1.0)


def barrier_integral(z, temp):
    """Integral of the inverse activation from 0 to z; zero at both endpoints."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise DomainError("barrier_integral requires z in [0,1]")
    interior = (z > _ENDPOINT_GUARD) & (z < 1.0 - _ENDPOINT_GUARD)
    zi = np.where(interior, z, 0.5)  # placeholder keeps logs finite
    vals = temp * (np.log1p(-zi) - zi * np.log(1.0 / zi - 1.0))
    out = np.where(interior, vals, 0.0)
    return out if out.ndim else float(out)


def _interior(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ShapeError(f"x has shape {x.shape}, expected ({n},)")
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError("derivatives require x strictly inside (0,1)^n")
    return x


@dataclass(frozen=True)
class CentralizedEnergyCtx:
    """Cached bias and coupling diag(quad) + penalty * output output^T, applied in O(n)."""

    quad: np.ndarray
    coupling_diag: np.ndarray  # quad + penalty * output**2
    output: np.ndarray
    penalty_output: np.ndarray  # penalty * output
    bias: np.ndarray  # quad*center + penalty*target*output

    def grad(self, x, ratio):
        coupled = self.quad * x + self.penalty_output * (self.output @ x)
        return coupled - self.bias - ratio * np.log(1.0 / x - 1.0)

    def hessian(self, barrier_curvature):
        """Dense Hessian, given the barrier's diagonal Hessian ratio / (x - x^2)."""
        hess = self.penalty_output[:, None] * self.output
        hess.flat[:: hess.shape[0] + 1] = self.coupling_diag + barrier_curvature
        return hess


def centralized_ctx(instance):
    p, penalty_p = instance.output, instance.penalty * instance.output
    bias = instance.quad * instance.center + instance.penalty * instance.target * p
    return CentralizedEnergyCtx(instance.quad, instance.quad + penalty_p * p, p, penalty_p, bias)


@dataclass(frozen=True)
class DistributedEnergyCtx:
    """Cached constants of the distributed energy, separable in x given L y."""

    coupling_diag: np.ndarray  # quad + penalty * output**2
    penalty_output: np.ndarray  # penalty * output
    quad_center: np.ndarray  # quad * center
    target_share: float  # target / n

    def grad(self, x, lap_y, ratio):
        bias = self.quad_center + self.penalty_output * (self.target_share - lap_y)
        return self.coupling_diag * x - bias - ratio * np.log(1.0 / x - 1.0)

    def hessian_diag(self, barrier_curvature):
        """The Hessian in x is diagonal: its diagonal, given the barrier's ratio / (x - x^2)."""
        return self.coupling_diag + barrier_curvature


def distributed_ctx(instance):
    return DistributedEnergyCtx(
        instance.quad + instance.penalty * instance.output**2,
        instance.penalty * instance.output,
        instance.quad * instance.center,
        instance.target / instance.n,
    )


def energy(instance, thermo, x):
    """Problem cost plus barrier: the Lyapunov function of the centralized flows."""
    x = np.asarray(x, dtype=float)
    barrier = np.sum(barrier_integral(x, thermo.temp)) / thermo.time_const
    return eval_p1(instance, x) + barrier


def grad(instance, thermo, x, ctx=None):
    ctx = ctx or centralized_ctx(instance)
    return ctx.grad(_interior(x, instance.n), thermo.temp / thermo.time_const)


def hessian(instance, thermo, x, ctx=None):
    ctx = ctx or centralized_ctx(instance)
    x = _interior(x, instance.n)
    return ctx.hessian(thermo.temp / thermo.time_const / (x - x**2))


def energy_tilde(instance, graph, thermo, x, y):
    x = np.asarray(x, dtype=float)
    barrier = np.sum(barrier_integral(x, thermo.temp)) / thermo.time_const
    return eval_p2(instance, graph, x, y) + barrier


def grad_x_tilde(instance, graph, thermo, x, y):
    x = _interior(x, instance.n)
    lap_y = graph.apply_laplacian(np.asarray(y, dtype=float))
    return distributed_ctx(instance).grad(x, lap_y, thermo.temp / thermo.time_const)


def grad_y_tilde(instance, graph, thermo, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return instance.penalty * (
        graph.apply_laplacian(instance.output * x + graph.apply_laplacian(y))
    )


def hessian_x_tilde(instance, graph, thermo, x):
    """Diagonal of the distributed Hessian in x (the full matrix is diagonal)."""
    x = _interior(x, instance.n)
    return distributed_ctx(instance).hessian_diag(thermo.temp / thermo.time_const / (x - x**2))


def pt_inverse(mat, floor):
    """Positive-definite truncated inverse of a symmetric matrix.

    Eigenvalues are replaced by max(|eig|, floor) before inversion, so the
    result is symmetric positive definite with spectrum in (0, 1/floor].
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.T)) > _SYM_TOL:
        raise ShapeError("matrix is not symmetric within tolerance")
    if floor <= 0:
        raise ValueError(f"floor must be > 0, got {floor}")
    sym = 0.5 * (mat + mat.T)  # absorb roundoff asymmetry
    eigvals, eigvecs = np.linalg.eigh(sym)
    truncated = np.maximum(np.abs(eigvals), floor)
    return (eigvecs / truncated) @ eigvecs.T


def pt_inverse_scalar(h, floor):
    """1x1 case, computable locally by each agent: 1/max(|h|, floor)."""
    if floor <= 0:
        raise ValueError(f"floor must be > 0, got {floor}")
    return 1.0 / np.maximum(np.abs(h), floor)
