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
from .instances import _agent_costs, _check_graph, _vec, eval_p1

_SYM_TOL = 1e-9
_ENDPOINT_GUARD = 1e-12
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SECULAR_MAX_ITER = 100  # passes per solve: 5.8 on average, 9 at most at n=200; a cap, not a budget
# Size from which ``pt_solve`` applies the PT-inverse Hessian by the O(n^2) secular
# solve instead of dense O(n^3) ``eigh``; below it numpy's per-call overhead
# makes the secular solve the slower (per annealed step, secular vs dense, 2-vCPU
# VM: 0.92 vs 0.55 ms at n=64, 1.10 vs 0.97 at 72, 1.00 vs 1.12 at 80, 1.30 vs 2.76 at 128).
_SECULAR_MIN_N = 80


@dataclass(frozen=True)
class Thermo:
    """Flow knobs: activation temperature, barrier time constant, inverse floor."""

    temp: float = 1.0
    time_const: float = 0.1
    floor: float = 0.1

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.temp, self.time_const, self.floor)):
            raise ValueError("temp, time_const and floor must all be finite and > 0")


def barrier_integral(z, temp):
    """Integral of the inverse activation from 0 to z; zero at both endpoints."""
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0.0) & (z <= 1.0)):  # a NaN fails too
        raise DomainError("barrier_integral requires z in [0,1]")
    interior = (z > _ENDPOINT_GUARD) & (z < 1.0 - _ENDPOINT_GUARD)
    zi = np.where(interior, z, 0.5)  # placeholder keeps logs finite
    vals = temp * (np.log1p(-zi) - zi * np.log(1.0 / zi - 1.0))
    out = np.where(interior, vals, 0.0)
    return out if out.ndim else float(out)


def _interior(x, n):
    x = _vec(x, n, "x")
    if not np.all((x > 0.0) & (x < 1.0)):  # a NaN fails too
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
    weight: np.ndarray  # sqrt(penalty) * output: H = diag(quad + barrier) + weight weight^T

    def grad(self, x, ratio):
        coupled = self.quad * x + self.penalty_output * (self.output @ x)
        return coupled - self.bias - ratio * np.log(1.0 / x - 1.0)

    def rates(self, thermo, newton):
        """The hnn rates ``(x, y) -> (xdot, None, grad)`` at fixed knobs, xdot = (x - x^2) / temp
        * -grad; binnn-c's (``newton``) apply the PT-inverse Hessian to that xdot by ``pt_solve``."""
        ratio = thermo.temp / thermo.time_const

        def rates(x, y):
            gap = x - x * x
            grad = self.grad(x, ratio)
            xdot = gap * -grad / thermo.temp
            return (self.pt_solve(ratio / gap, xdot, thermo.floor) if newton else xdot), None, grad

        return rates

    def hessian(self, barrier_curvature):
        """Dense Hessian, given the barrier's diagonal Hessian ratio / (x - x^2)."""
        hess = self.penalty_output[:, None] * self.output
        hess.flat[:: hess.shape[0] + 1] = self.coupling_diag + barrier_curvature
        return hess

    def pt_solve(self, barrier_curvature, v, floor):
        """PT-inverse Hessian applied to v, H = diag(d) + weight weight^T with
        d = quad + barrier_curvature, in one of three ways:

        - every pole d_i finite and >= floor: every eigenvalue of H is >= min(d) >= floor
          (Weyl), so the PT-inverse is H^-1, applied in O(n) by Sherman and Morrison;
        - otherwise, from ``_SECULAR_MIN_N`` agents, in O(n^2) by the secular equation;
        - otherwise by dense ``eigh`` and two matvecs."""
        diag = self.quad + barrier_curvature
        if floor <= diag.min() and diag.max() < np.inf:
            u, q = v / diag, self.weight / diag
            # the denominator is >= 1 here: nothing cancels
            return u - q * ((self.weight @ u) / (1.0 + self.weight @ q))
        if v.size >= _SECULAR_MIN_N:
            return pt_inverse_rank_one(diag, self.weight, v, floor)
        # the Hessian is symmetric by construction; cheaper than forming the inverse
        eigvals, eigvecs = np.linalg.eigh(self.hessian(barrier_curvature))
        np.abs(eigvals, out=eigvals)
        np.maximum(eigvals, floor, out=eigvals)
        return eigvecs @ ((eigvecs.T @ v) / eigvals)


def centralized_ctx(instance):
    p, penalty_p = instance.output, instance.penalty * instance.output
    bias = instance.quad * instance.center + instance.penalty * instance.target * p
    weight = np.sqrt(instance.penalty) * p
    coupling_diag = instance.quad + penalty_p * p
    return CentralizedEnergyCtx(instance.quad, coupling_diag, p, penalty_p, bias, weight)


@dataclass(frozen=True)
class DistributedEnergyCtx:
    """The constants of P2's residual term 0.5 w |output*x + L y - target/n|^2 and of
    the distributed energy's gradients and the fused binnn-d rates."""

    w: float  # the residual weight, set in distributed_ctx
    output: np.ndarray
    coupling_diag: np.ndarray  # quad + w * output**2
    weight_output: np.ndarray  # w * output
    quad_center: np.ndarray  # quad * center
    target_share: float  # target / n
    weight: np.ndarray  # sqrt(w / n) * output: the x-Hessian, y eliminated, is diag + weight weight^T

    def grad(self, x, lap_y, ratio):
        """The x-gradient, with ``ratio`` = temp / time_const, on two fresh arrays."""
        part = np.subtract(self.target_share, lap_y)
        part *= self.weight_output
        part += self.quad_center  # the bias
        grad = np.multiply(self.coupling_diag, x)
        grad -= part
        np.subtract(np.divide(1.0, x, out=part), 1.0, out=part)
        grad -= np.multiply(np.log(part, out=part), ratio, out=part)
        return grad

    def y_rate(self, graph, x, lap_y, gain):
        """gain * L (output*x + L y), overwriting L y; at gain = w, the y-gradient."""
        lap_y += np.multiply(self.output, x)
        rate = graph.apply_laplacian(lap_y)
        rate *= gain
        return rate

    def rates(self, graph, thermo, alpha):
        """The binnn-d rates ``(x, y) -> (xdot, ydot, grad)`` at fixed knobs, on fresh arrays: xdot =
        pt_inverse_scalar(coupling_diag + ratio / (x - x^2), the x-Hessian) * (x - x^2) / temp * -grad."""
        ratio, temp, y_gain = thermo.temp / thermo.time_const, thermo.temp, -alpha * self.w

        def rates(x, y):
            lap_y = graph.apply_laplacian(y)
            grad = self.grad(x, lap_y, ratio)
            gap = np.multiply(x, x)
            np.subtract(x, gap, out=gap)
            xdot = np.divide(ratio, gap)
            pt_inverse_scalar(np.add(self.coupling_diag, xdot, out=xdot), thermo.floor, out=xdot)
            gap /= -temp  # the sign of -grad, exactly
            xdot *= gap
            xdot *= grad
            return xdot, self.y_rate(graph, x, lap_y, y_gain), grad

        return rates


def distributed_ctx(instance):
    a, b, p, n = instance.quad, instance.center, instance.output, instance.n
    w = instance.penalty  # the residual weight's one home
    return DistributedEnergyCtx(w, p, a + w * p**2, w * p, a * b, instance.target / n, np.sqrt(w / n) * p)


def energy(instance, thermo, x):
    """Problem cost plus barrier: the Lyapunov function of the centralized flows."""
    barrier = np.sum(barrier_integral(x, thermo.temp)) / thermo.time_const
    return eval_p1(instance, x) + barrier


def grad(instance, thermo, x, ctx=None):
    ctx = ctx or centralized_ctx(instance)
    return ctx.grad(_interior(x, instance.n), thermo.temp / thermo.time_const)


def hessian(instance, thermo, x, ctx=None):
    ctx = ctx or centralized_ctx(instance)
    x = _interior(x, instance.n)
    return ctx.hessian(thermo.temp / thermo.time_const / (x - x**2))


def eval_p2(instance, graph, x, y, ctx=None):
    """P2: P1's agent costs plus the consensus residual of y over a communication graph."""
    _check_graph(instance, graph)
    x, y = _vec(x, instance.n, "x"), _vec(y, instance.n, "y")
    ctx = ctx or distributed_ctx(instance)
    residual = ctx.output * x + graph.apply_laplacian(y) - ctx.target_share
    return float(_agent_costs(instance, x).sum() + 0.5 * ctx.w * float(residual @ residual))


def energy_tilde(instance, graph, thermo, x, y, ctx=None):
    """P2 plus barrier: the Lyapunov function of the distributed flow."""
    barrier = np.sum(barrier_integral(x, thermo.temp)) / thermo.time_const
    return eval_p2(instance, graph, x, y, ctx) + barrier


def grad_y_tilde(instance, graph, thermo, x, y):
    ctx, lap_y = distributed_ctx(instance), graph.apply_laplacian(np.asarray(y, dtype=float))
    return ctx.y_rate(graph, np.asarray(x, dtype=float), lap_y, ctx.w)


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


def _deflate(diag, weight):
    """Sort diag(diag) + weight weight^T and split off its deflated eigenpairs.

    Poles equal within 8 eps ||H|| form a group g, whose coordinates hold
    weight r_g = ||weight_g||: the group's directions orthogonal to weight_g
    are eigenvectors with eigenvalue pole_g. Groups with negligible r_g are
    deflated whole. Returns ``(order, group, pole, r2, keep)``: the sorting
    permutation, each sorted coordinate's group, each group's pole (its
    smallest diag) and r_g^2, and which groups enter the secular equation.
    """
    order = np.argsort(diag, kind="stable")
    ds, w2 = diag[order], weight[order] ** 2
    norm2 = w2.sum()
    tol = 8.0 * _EPS * max(np.abs(ds).max(), norm2)
    new = np.concatenate(([True], np.diff(ds) > tol))
    group = np.cumsum(new) - 1
    r2 = np.bincount(group, w2)
    return order, group, ds[new], r2, r2 * norm2 > tol * tol


def _secular_roots(pole, z2, roots, work):
    """Roots of 1 + sum(z2 / (pole - lam)) = 0 with the given indices.

    ``pole`` ascends strictly and ``z2`` > 0. Root k lies in
    (pole[k], pole[k+1]), the last one in (pole[-1], pole[-1] + sum(z2)).
    Each root is held as its nearer pole ``origin`` plus an offset ``tau``,
    so differences to nearby poles keep full relative accuracy. Starts from
    a two-pole guess at the midpoint of each interval (as LAPACK dlaed4),
    then takes safeguarded two-pole rational steps (Bunch, Nielsen and
    Sorensen), bisecting the bracket when a step leaves it. Returns
    ``(origin, tau, dlt)`` with ``dlt[k, j] = pole[j] - lam_k``.

    ``work``, of shape (3, roots.size, pole.size), holds every k x m array
    (``dlt`` is ``work[0]``): fresh ones would cost a page fault per 4 KiB.
    """
    m, n = pole.size, roots.size
    rel, flat = work[0], work[1:].reshape(-1)
    last = roots == m - 1
    right = np.minimum(roots + 1, m - 1)
    gap = np.where(last, z2.sum(), pole[right] - pole[roots])
    lam_mid = pole[roots] + 0.5 * gap
    mid = np.subtract(pole, lam_mid[:, None], out=work[1])
    f = 1.0 + np.reciprocal(mid, out=mid) @ z2
    # f rises from -inf to +inf across the interval: its sign at the
    # midpoint says which half holds the root and hence the nearer pole
    from_left = (f >= 0.0) | last
    origin = np.where(from_left, roots, right)
    np.subtract(pole, pole[origin][:, None], out=rel)
    # per root, as rows: the offset t, its bracket (+-the smallest float where it ends at
    # the origin, a pole) and the interval's poles (for the last root, past its bracket)
    state = np.empty((5, n))
    t, lo, hi = state[:3]
    t[:] = lam_mid - pole[origin]
    lo[:] = _TINY  # right-origin roots have f < 0 here: the first bracket update moves it
    hi[:] = np.where(from_left, gap, -_TINY)
    state[3] = np.where(from_left, 0.0, -gap)
    state[4] = np.where(from_left, np.where(last, gap + gap, gap), 0.0)
    # the first step takes the rest of f as constant: the slopes at the
    # midpoint are those of the interval's two poles alone
    slope = np.stack([z2[roots], np.where(last, 0.0, z2[right])]) / np.square(state[3:] - t)
    tau, ids = np.empty(n), np.arange(n)  # ids: the roots still iterating
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_MAX_ITER):
            np.copyto(lo, t, where=f < 0.0)
            np.copyto(hi, t, where=f > 0.0)
            # the middle-way model: each side's sum as a constant plus one pole at the
            # interval's end, matched to its slope at t. With d0 < 0 < d1 the distances
            # to those poles, the step u solves c u^2 - b u + f d0 d1 = 0; its root
            # between the poles is taken in the form that does not cancel as f -> 0
            dist = state[3:] - t
            lumped = slope * dist
            b = (dist * (f - lumped[::-1])).sum(0)
            e = f * dist[0] * dist[1]
            new = t + (e + e) / (b + np.sqrt(np.square(b) - 4.0 * (f - lumped.sum(0)) * e))
            # rounding can put it outside the bracket, or make it NaN; a
            # step under an ulp of t leaves it on a bracket end, inside
            inside = (lo <= new) & (new <= hi)
            np.copyto(new, 0.5 * (lo + hi), where=~inside)  # bisect
            # near a root the rational steps shrink quadratically, so one this small
            # lands on it; a bisection only once the bracket is a few ulps wide
            going = np.abs(new / t - 1.0) > np.where(inside, 1e-8, _EPS)
            t[:] = new
            tau[ids] = t
            if not going.any():
                break
            if not going.all():
                ids, state = ids[going], state[:, going]
                t, lo, hi = state[:3]
            sides = flat[: 2 * ids.size * m].reshape(2, -1, m)
            below, above = sides
            np.take(rel, ids, axis=0, out=above, mode="clip")
            above -= t[:, None]
            np.reciprocal(above, out=above)  # 1 / (pole_j - lam): negative below lam
            f = 1.0 + above @ z2
            np.minimum(above, 0.0, out=below)
            above -= below
            np.square(sides, out=sides)
            slope = (sides.reshape(2 * ids.size, m) @ z2).reshape(2, -1)  # of each side's sum
    rel -= tau[:, None]
    return origin, tau, rel


def pt_inverse_rank_one(diag, weight, v, floor):
    """PT-inverse of diag(diag) + weight weight^T applied to v, in O(n^2).

    Equals ``pt_inverse(np.diag(diag) + np.outer(weight, weight), floor) @ v``
    without forming that matrix or calling ``eigh``. The eigenvalues are the
    roots of the secular equation (Golub 1973); the eigenvectors are
    proportional to (D - lam)^-1 z_hat, with z_hat recomputed from the roots
    so that they stay orthogonal (Gu and Eisenstat 1995). A non-finite
    diag gives NaN, as ``eigh`` does.
    """
    if floor <= 0:
        raise ValueError(f"floor must be > 0, got {floor}")
    if not np.isfinite(diag).all():
        return np.full(v.shape, np.nan)
    order, group, pole, r2, keep = _deflate(diag, weight)
    ds, ws, vs = diag[order], weight[order], v[order]
    out = vs / np.maximum(np.abs(ds), floor)  # the deflated part, then corrected
    if keep.any():
        pole_k, z2 = pole[keep], r2[keep]
        z = np.sqrt(z2)
        coef = np.bincount(group, ws * vs)[keep] / z  # v along each group's weight
        work = np.empty((3, pole_k.size, pole_k.size))
        origin, tau, dlt = _secular_roots(pole_k, z2, np.arange(pole_k.size), work)
        lam = pole_k[origin] + tau
        # z_hat_i^2 = prod_k (lam_k - d_i) / prod_{j != i} (d_j - d_i): root k
        # pairs with d_k below i and with d_(k+1) from i up, so that each
        # factor but the last root's lies in (0, 1]
        den = np.subtract(pole_k[1:, None], pole_k, out=work[1, 1:])
        np.subtract(den, np.diff(pole_k)[:, None], out=den, where=den <= 0.0)
        zhat = np.sqrt(np.abs(np.prod(np.divide(dlt[:-1], den, out=den), axis=0)) * -dlt[-1])
        inv = np.reciprocal(dlt, out=dlt)  # eigenvector k is proportional to zhat * inv[k]
        scale = np.square(inv, out=work[1]) @ np.square(zhat) * np.maximum(np.abs(lam), floor)
        y = zhat * (((inv @ (zhat * coef)) / scale) @ inv)
        corr = np.zeros(pole.size)
        corr[keep] = (y - coef / np.maximum(np.abs(pole_k), floor)) / z
        out += ws * corr[group]
    result = np.empty_like(out)
    result[order] = out
    return result


def min_eig_rank_one(diag, weight):
    """Smallest eigenvalue of diag(diag) + weight weight^T, in O(n log n).

    It is the first secular root, in (d_(1), d_(2)), or the smallest
    deflated pole, whichever is lower.
    """
    if not np.isfinite(diag).all():
        return float("nan")
    _, group, pole, r2, keep = _deflate(diag, weight)
    sizes = np.bincount(group)
    deflated = pole[~keep | (sizes > 1)]
    lowest = deflated.min() if deflated.size else np.inf
    if keep.any():
        pole_k = pole[keep]
        origin, tau, _ = _secular_roots(pole_k, r2[keep], np.zeros(1, dtype=int),
                                        np.empty((3, 1, pole_k.size)))
        lowest = min(lowest, pole_k[origin[0]] + tau[0])
    return float(lowest)


def pt_inverse_scalar(h, floor, out=None):
    """1x1 case, computable locally by each agent: 1/max(|h|, floor)."""
    if floor <= 0:
        raise ValueError(f"floor must be > 0, got {floor}")
    return np.divide(1.0, np.maximum(np.abs(h, out=out), floor, out=out), out=out)
