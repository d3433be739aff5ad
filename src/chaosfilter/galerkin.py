"""Filtering model, its differential operators, and Galerkin matrices.

The model is the pair of diffusions

    dX = b(X) dt + sigma(X) dW + rho(X) dV,
    dY = h(X) dt + dV,

whose unnormalized conditional density solves a stochastic parabolic
equation driven by Y.  Projecting that equation on the span of the first
K Hermite functions gives the matrix system

    dp = A p dt + sum_l B_l p dY_l,

with A[i, j] = (e_j, L e_i)_0 and B_l[i, j] = (e_j, M_l e_i)_0, where

    L g = (1/2) sum_ij (sigma sigma^T + rho rho^T)_ij d2g/dx_i dx_j
          + sum_i b_i dg/dx_i,
    M_l g = h_l g + sum_i rho_il dg/dx_i.

Assembly applies L and M_l to the basis functions (whose derivatives
follow exact ladder identities) and integrates against the quadrature
rule, so user coefficients are only ever evaluated, never differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermite import QuadratureGrid, SpatialBasis, basis_tables, squeeze_points


@dataclass(frozen=True)
class FilterModel:
    """Coefficient fields of the signal/observation pair.

    d, d1, r: state, signal-noise and observation dimensions.
    b, sigma, rho, h, p0: callables evaluated on batches of points
    ((npts,) for d == 1, (npts, d) otherwise), or plain constants where a
    field does not depend on x.  Expected result shapes per point:
    b -> (d,), sigma -> (d, d1), rho -> (d, r), h -> (r,), p0 -> scalar.
    Scalar returns are fine whenever the target shape has one entry.
    """

    d: int
    d1: int
    r: int
    b: object
    sigma: object
    rho: object
    h: object
    p0: object

    def drift_at(self, nodes: np.ndarray) -> np.ndarray:
        return _eval_field(self.b, nodes, self.d, (self.d,), "b")

    def sigma_at(self, nodes: np.ndarray) -> np.ndarray:
        return _eval_field(self.sigma, nodes, self.d, (self.d, self.d1), "sigma")

    def rho_at(self, nodes: np.ndarray) -> np.ndarray:
        return _eval_field(self.rho, nodes, self.d, (self.d, self.r), "rho")

    def h_at(self, nodes: np.ndarray) -> np.ndarray:
        return _eval_field(self.h, nodes, self.d, (self.r,), "h")

    def p0_at(self, nodes: np.ndarray) -> np.ndarray:
        return _eval_field(self.p0, nodes, self.d, (), "p0")

    def diffusion_matrix_at(self, nodes: np.ndarray) -> np.ndarray:
        """a = sigma sigma^T + rho rho^T, shape (npts, d, d)."""
        s = self.sigma_at(nodes)
        r = self.rho_at(nodes)
        return np.einsum("pij,pkj->pik", s, s) + np.einsum("pij,pkj->pik", r, r)


def _eval_field(field, nodes, d, suffix, name):
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    npts = nodes.shape[0]
    v = field(squeeze_points(nodes, d)) if callable(field) else field
    arr = np.asarray(v, dtype=float)
    target = (npts,) + suffix
    if arr.shape != target:
        if npts == 1 and arr.shape == suffix:
            arr = arr.reshape(target)          # cheaper than broadcast_to, same values
        elif arr.ndim == 0 or arr.shape == suffix:
            arr = np.broadcast_to(arr, target)
        elif arr.shape == (npts,) and int(np.prod(suffix, dtype=int)) == 1:
            arr = arr.reshape(target)
        else:
            raise ValueError(
                f"field '{name}' returned shape {arr.shape}, cannot coerce to {target}"
            )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field '{name}' is not finite on the requested points")
    return np.asarray(arr, dtype=float)


def validate_model(model: FilterModel, grid: QuadratureGrid) -> None:
    """Check the model invariants on a quadrature grid.

    All fields must be finite there, p0 must be nonnegative, and its
    quadrature mass must be within 1e-3 of one.
    """
    model.drift_at(grid.nodes)
    model.diffusion_matrix_at(grid.nodes)
    model.h_at(grid.nodes)
    p = model.p0_at(grid.nodes)
    if np.any(p < -1e-12):
        raise ValueError("p0 is negative on the quadrature grid")
    mass = float(np.sum(grid.weights * p))
    if abs(mass - 1.0) > 1e-3:
        raise ValueError(f"p0 quadrature mass {mass:.6f} is not within 1e-3 of 1")


@dataclass(frozen=True)
class GalerkinSystem:
    """Projected evolution matrices; independent of any time step."""

    K: int
    r: int
    A: np.ndarray          # (K, K)
    B: np.ndarray          # (r, K, K)
    basis: SpatialBasis


def assemble(model: FilterModel, basis: SpatialBasis, grid: QuadratureGrid) -> GalerkinSystem:
    """Galerkin matrices by quadrature of (e_j, L e_i) and (e_j, M_l e_i).

    The adjoint identity moves the operators onto the basis functions, so
    derivatives hit only Hermite functions (exact ladder formulas) and the
    quadrature burden falls on the smooth model coefficients.
    """
    validate_model(model, grid)
    V, G, S = basis_tables(basis, grid.nodes, derivatives=2)
    a = model.diffusion_matrix_at(grid.nodes)      # (npts, d, d)
    b = model.drift_at(grid.nodes)                 # (npts, d)
    hv = model.h_at(grid.nodes)                    # (npts, r)
    rho = model.rho_at(grid.nodes)                 # (npts, d, r)
    w = grid.weights

    LE = 0.5 * np.einsum("pij,kijp->kp", a, S) + np.einsum("pi,kip->kp", b, G)
    A = np.einsum("kp,p,jp->kj", LE, w, V)
    B = np.empty((model.r, basis.K, basis.K))
    for l in range(model.r):
        ME = hv[:, l] * V + np.einsum("pi,kip->kp", rho[:, :, l], G)
        B[l] = np.einsum("kp,p,jp->kj", ME, w, V)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("assembled matrices contain non-finite entries")
    return GalerkinSystem(K=basis.K, r=model.r, A=A, B=B, basis=basis)


def dissipativity_gap(system: GalerkinSystem) -> float:
    """Largest eigenvalue of A + A^T + sum_l B_l^T B_l.

    This is the growth-rate constant of the projected system: the mean
    square of a solution obeys d E|p|^2 / dt <= gap * E|p|^2.
    """
    S = system.A + system.A.T
    for l in range(system.r):
        S = S + system.B[l].T @ system.B[l]
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[-1])


def _batch_inputs(system, y_paths, p_init, report_stride):
    """Checked inputs of the fine-grid kernels: (dY, P).

    dY holds the path increments as (nsteps, r, npaths), P the start as
    (K, npaths), a copy the caller may overwrite.
    """
    ys = np.asarray(y_paths, dtype=float)
    if ys.ndim == 2:
        ys = ys[:, :, None]
    if ys.shape[2] != system.r:
        raise ValueError(f"paths have {ys.shape[2]} channels, system has {system.r}")
    r, K, npaths, nsteps = system.r, system.K, ys.shape[0], ys.shape[1] - 1
    p_init = np.asarray(p_init, dtype=float)
    if p_init.shape not in {(K,), (npaths, K)}:
        raise ValueError(f"p_init has shape {p_init.shape}, expected ({K},) or ({npaths}, {K})")
    if report_stride < 1:
        raise ValueError(f"report_stride must be >= 1, got {report_stride}")
    P = np.repeat(p_init[:, None], npaths, axis=1) if p_init.ndim == 1 else p_init.T.copy()
    dY = np.empty((nsteps, r, npaths))
    np.subtract(ys[:, 1:], ys[:, :-1], out=dY.transpose(2, 0, 1))
    return dY, P


def _check_reports(out, report_stride, nsteps, delta):
    """Raise on the first report holding a non-finite entry: its steps, first such path and time."""
    bad = ~np.isfinite(out[1:]).all(axis=1)          # (nreports, npaths)
    if bad.any():
        w, path = np.argwhere(bad)[0] + (1, 0)
        raise FloatingPointError(
            f"state blew up in steps {(w - 1) * report_stride + 1}..{w * report_stride}"
            f" of {nsteps}; first non-finite on path {path} at t = {w * report_stride * delta:.6g}")


def _euler_reports(system, y_paths, delta, p_init, report_stride):
    """Euler-Maruyama on the projected system for a batch of sampled paths.

    y_paths: (npaths, nsteps+1, r), or (npaths, nsteps+1) when r == 1;
    p_init: (K,) shared or (npaths, K).  Returns the states after every
    report_stride steps (a trailing partial stride is dropped), initial ones
    included, as (nreports + 1, K, npaths); raises on the first non-finite
    report, naming the steps it covers, its first non-finite path and its
    time.

    Each step is four numpy calls, Z = W P, Z *= c, Z_0 += Z_l, P += Z_0,
    made through bound methods with positional outputs.  Finiteness is
    checked once, on the reports after the loop: P changes only by
    P += Z_0, and x + y is finite only if x is, so a non-finite entry
    stays non-finite and the first report holding one is the first that
    blew up.
    """
    dY, P = _batch_inputs(system, y_paths, p_init, report_stride)
    (nsteps, r, npaths), K = dY.shape, system.K
    W = np.concatenate([system.A[None], system.B]).reshape((1 + r) * K, K)   # A; B_1 .. B_r
    # Per step, the factors of the rows of W P: delta on those of A, dY_l of
    # each path on those of B_l; filled a bounded block of steps at a time.
    block = min(report_stride, 64)
    coef = np.empty((block, (1 + r) * K, npaths))
    per_matrix = coef.reshape(block, 1 + r, K, npaths)
    per_matrix[:, 0] = delta
    rows = list(coef)
    Z = np.empty(((1 + r) * K, npaths))
    Z0, *noise = Z.reshape(1 + r, K, npaths)
    out = np.empty((nsteps // report_stride + 1,) + P.shape)
    out[0] = P
    dot, multiply, add = W.dot, np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(1, out.shape[0]):
            for s in range((w - 1) * report_stride, w * report_stride, block):
                n = min(block, w * report_stride - s)
                per_matrix[:n, 1:] = dY[s:s + n, :, None]
                for c in rows[:n]:
                    dot(P, Z)
                    multiply(Z, c, Z)
                    for Zl in noise:
                        add(Z0, Zl, Z0)
                    add(P, Z0, P)
            out[w] = P
    _check_reports(out, report_stride, nsteps, delta)
    return out


def _expm_rk4(A, delta):
    """exp(A delta) as one classical RK4 step of Y' = A Y from Y = I.

    That step is the degree-4 Taylor polynomial of the exponential; at the
    fine step of a scoring run |A delta| is small, and on cubic-sensor at
    delta = 3.125e-4 it is 5e-15 (K=16) and 3e-12 (K=48) from the
    scaling-and-squaring exponential.
    """
    from .propagator import rk4     # propagator imports this module
    return rk4(lambda s, y: A @ y, np.eye(len(A)), delta, 1)


def _splitting_reports(system, y_paths, delta, p_init, report_stride):
    """Exact-noise splitting of the projected system; _euler_reports' contract.

    For one channel with a symmetric B = V diag(lam) V^T.  Each step
    applies the drift flow exp(A delta), then the exact flow of the Ito
    equation dp = B p dY over the step, V diag(exp(lam dY - lam^2 delta/2)) V^T.
    In the eigenbasis, q = V^T p, a step is q <- d_s * (G q) with
    G = diag(exp(-lam^2 delta/2)) V^T exp(A delta) V and d_s = exp(lam dY_s):
    two numpy calls, the bound G.dot and one multiply, both with positional
    outputs.  The d_s are formed for at most 64 steps at a time, and the
    reports are mapped back by one product with V after the loop.

    Finiteness is checked once, on the reports: a non-finite entry of q
    makes its whole column non-finite at the next product, and it stays so.
    """
    if system.r != 1:
        raise ValueError(f"the splitting needs one channel, system has {system.r}")
    dY, P = _batch_inputs(system, y_paths, p_init, report_stride)
    (nsteps, _, npaths), K = dY.shape, system.K
    lam, V = np.linalg.eigh(0.5 * (system.B[0] + system.B[0].T))
    G = np.exp(-0.5 * delta * lam * lam)[:, None] * (V.T @ _expm_rk4(system.A, delta) @ V)
    q, tmp = V.T @ P, np.empty((K, npaths))
    block = min(report_stride, 64)
    factors = np.empty((block, K, npaths))
    rows = list(factors)
    out = np.empty((nsteps // report_stride + 1, K, npaths))
    out[0] = q
    dot, multiply = G.dot, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(1, out.shape[0]):
            for s in range((w - 1) * report_stride, w * report_stride, block):
                n = min(block, w * report_stride - s)
                np.multiply(lam[:, None], dY[s:s + n], factors[:n])
                np.exp(factors[:n], factors[:n])
                for d in rows[:n]:
                    dot(q, tmp)
                    multiply(tmp, d, q)
            out[w] = q
        out = np.matmul(V, out)
    _check_reports(out, report_stride, nsteps, delta)
    return out
