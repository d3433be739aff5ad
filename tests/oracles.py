"""Reference forms that only the tests call.

Pointwise operators, a one-path Euler driver, the scalar Hermite
polynomial with the dict-keyed Wick product built on it, and a Sobolev
norm probe.  The library computes each of these in a batched form; the
tests check it against these.
"""

from __future__ import annotations

import math

import numpy as np

from chaosfilter.galerkin import FilterModel, _euler_reports
from chaosfilter.hermite import QuadratureGrid, SpatialBasis, basis_tables
from chaosfilter.multiindex import MultiIndex, factorial, hermite_table


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


def hermite_poly(nu: int, x):
    """Probabilists' Hermite polynomial H_nu (row nu of hermite_table).

    Works on scalars and numpy arrays alike.
    """
    h = hermite_table(nu, x)[nu]
    return h if h.ndim else float(h)


def xi_eval(alpha: MultiIndex, xi: dict[tuple[int, int], float]) -> float:
    """Normalized Wick product: prod H_{alpha_k^l}(xi[k,l]) / sqrt(alpha!).

    Equals 1 for the empty index.  Raises KeyError if xi lacks a slot that
    alpha touches.
    """
    out = 1.0
    for (k, l), c in alpha.entries:
        if (k, l) not in xi:
            raise KeyError(f"xi value for slot ({k}, {l}) is missing")
        out *= hermite_poly(c, xi[(k, l)])
    return out / math.sqrt(factorial(alpha))


def h1_norm(basis: SpatialBasis, k: int, grid: QuadratureGrid) -> float:
    """Numerical probe of the first Sobolev norm of basis function k."""
    V, G = basis_tables(basis, grid.nodes, derivatives=1)
    mass = np.sum(grid.weights * V[k] * V[k])
    grad = sum(np.sum(grid.weights * G[k, i] * G[k, i]) for i in range(basis.d))
    return float(np.sqrt(mass + grad))
