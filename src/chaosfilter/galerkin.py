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

import io
from dataclasses import dataclass

import numpy as np

from .hermite import (QuadratureGrid, SpatialBasis, basis_fields, basis_tables, decode_header,
                      encode_header, read_text, row_floats, squeeze_points, write_rows)


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


def apply_generator(model: FilterModel, g, x, *, grad, hess) -> float:
    """Generator L applied to g at the point x.

    grad and hess are callables returning the analytic first and second
    derivatives of g at a point ((d,) and (d, d)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pt = x.reshape(1, -1)
    a = model.diffusion_matrix_at(pt)[0]
    b = model.drift_at(pt)[0]
    gr = np.broadcast_to(np.asarray(grad(x if model.d > 1 else x[0]), dtype=float), (model.d,))
    he = np.broadcast_to(np.asarray(hess(x if model.d > 1 else x[0]), dtype=float), (model.d, model.d))
    out = 0.5 * float(np.sum(a * he)) + float(b @ gr)
    if not np.isfinite(out):
        raise ValueError("generator value is not finite")
    return out


def apply_M(model: FilterModel, l: int, g, x, *, grad) -> float:
    """Observation operator M_l g = h_l g + sum_i rho_il dg/dx_i at x.

    The channel l is 1-based, matching the multi-index convention.
    """
    if not 1 <= l <= model.r:
        raise ValueError(f"channel {l} out of range 1..{model.r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pt = x.reshape(1, -1)
    hv = model.h_at(pt)[0, l - 1]
    rho = model.rho_at(pt)[0, :, l - 1]
    xarg = x if model.d > 1 else x[0]
    gval = float(np.asarray(g(xarg), dtype=float))
    gr = np.broadcast_to(np.asarray(grad(xarg), dtype=float), (model.d,))
    out = hv * gval + float(rho @ gr)
    if not np.isfinite(out):
        raise ValueError("observation-operator value is not finite")
    return out


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


def _euler_reports(system, y_paths, delta, p_init, report_stride):
    """Euler-Maruyama on the projected system for a batch of sampled paths.

    y_paths: (npaths, nsteps+1, r), or (npaths, nsteps+1) when r == 1;
    p_init: (K,) shared or (npaths, K).  Returns the states after every
    report_stride steps (a trailing partial stride is dropped), initial ones
    included, as (nreports + 1, K, npaths); raises on the first non-finite
    report, naming the steps it covers.
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
    W = np.concatenate([system.A[None], system.B]).reshape((1 + r) * K, K)   # A; B_1 .. B_r
    dY = np.empty((nsteps, r, npaths))
    np.subtract(ys[:, 1:], ys[:, :-1], out=dY.transpose(2, 0, 1))
    # Per step, the factors of the rows of W P: delta on those of A, dY_l of
    # each path on those of B_l; filled a bounded block of steps at a time.
    block = min(report_stride, 64)
    coef = np.empty((block, (1 + r) * K, npaths))
    per_matrix = coef.reshape(block, 1 + r, K, npaths)
    per_matrix[:, 0] = delta
    Z = np.empty(((1 + r) * K, npaths))
    Z0, *noise = Z.reshape(1 + r, K, npaths)
    out = np.empty((nsteps // report_stride + 1,) + P.shape)
    out[0] = P
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(1, out.shape[0]):
            for s in range((w - 1) * report_stride, w * report_stride, block):
                n = min(block, w * report_stride - s)
                per_matrix[:n, 1:] = dY[s:s + n, :, None]
                for c in coef[:n]:
                    np.dot(W, P, out=Z)
                    np.multiply(Z, c, out=Z)
                    for Zl in noise:
                        np.add(Z0, Zl, out=Z0)
                    np.add(P, Z0, out=P)
            if not np.all(np.isfinite(P)):
                raise FloatingPointError(
                    f"state blew up in steps {(w - 1) * report_stride + 1}..{w * report_stride}"
                    f" of {nsteps}")
            out[w] = P
    return out


def integrate_galerkin_sde(system, y_path, delta, p_init, report_stride=1):
    """Euler-Maruyama on the projected system driven by a sampled path.

    y_path: (nsteps+1, r) values of the driving path at uniform spacing
    delta (a (nsteps+1,) vector is fine when r == 1).  Returns the state
    at every report_stride-th grid time, initial state included, as an
    array of shape (nreports + 1, K).  Raises on the first non-finite
    report, naming the steps it covers.
    """
    if report_stride < 1:
        raise ValueError(f"report_stride must be >= 1, got {report_stride}")
    if (len(y_path) - 1) % report_stride:
        raise ValueError("report_stride must divide the number of steps")
    y = np.reshape(y_path, (1, len(y_path), -1))
    return _euler_reports(system, y, delta, p_init, report_stride)[:, :, 0]


def save_system(path, system: GalerkinSystem) -> None:
    """Write the projected matrices as text: header then row-major entries.

    The header carries d, K, r and the basis metadata; A and each noise
    matrix follow as K lines of 17-significant-digit decimals, so the file
    round-trips bit-exactly through load_system.
    """
    b = system.basis
    write_rows(path, encode_header({"d": b.d, "K": system.K, "r": system.r, **basis_fields(b)}),
               " ".join(["%.17g"] * system.K) + "\n", np.concatenate([system.A, *system.B]))


def load_system(path) -> GalerkinSystem:
    """Inverse of save_system.

    The matrix rows are read one at a time by float().  A missing header
    key or row, a row with another number of values and a token that is
    not a float raise a ValueError naming the file and, for rows, the
    matrix (A or B_l) and the row; a byte that is not UTF-8, the line and
    the byte; a line other than whitespace after the last matrix, that
    line.
    """
    lines = [ln.rstrip("\n") for ln in io.StringIO(read_text(path))]
    header, basis = decode_header(path, lines[:6], "system file", "d", {"r": int})
    K, r = basis.K, header["r"]
    end = 6 + (1 + r) * K
    body = lines[6:end]
    if len(body) < (1 + r) * K:
        block = len(body) // K
        raise ValueError(f"{path}: truncated matrix {_matrix_name(block)}: "
                         f"expected {K} rows, found {len(body) - block * K}")
    rows = np.array([_system_row(path, line, i, K) for i, line in enumerate(body)])
    extra = next((i for i, line in enumerate(lines[end:], end + 1) if line.strip()), None)
    if extra is not None:
        raise ValueError(f"{path}: line {extra}: unexpected content after matrix "
                         f"{_matrix_name(r)}")
    mats = rows.reshape(1 + r, K, K)
    return GalerkinSystem(K=K, r=r, A=mats[0], B=mats[1:], basis=basis)


def _matrix_name(block: int) -> str:
    return "A" if block == 0 else f"B_{block}"


def _system_row(path, line: str, i: int, K: int) -> list[float]:
    """Body row i of a system file; a ValueError names the matrix and its row."""
    try:
        return row_floats(line, K)
    except ValueError as exc:
        raise ValueError(f"{path}: matrix {_matrix_name(i // K)}, row {i % K + 1}: "
                         f"{exc}") from None


def integrate_galerkin_sde_paths(system, y_paths, delta, p_init):
    """Batched Euler-Maruyama; returns only the final states.

    y_paths: (npaths, nsteps+1, r).  p_init: (K,) shared or (npaths, K).
    Finiteness is checked once at the end (use report_stride in the
    single-path variant to locate a blow-up step).
    """
    return _euler_reports(system, y_paths, delta, p_init, max(np.shape(y_paths)[1] - 1, 1))[-1].T
