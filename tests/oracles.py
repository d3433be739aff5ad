"""Reference forms that only the tests call.

Pointwise operators, a one-path Euler driver, the scalar Hermite
polynomial with the dict-keyed Wick product built on it, a Sobolev norm
probe, the per-window loop of the online recursion, a one-path
simulation, a one-index flow, and the index set's count array and
lowering structure built from MultiIndex objects.  The library computes
each of these in a batched form or on the count array; the tests check
it against these.  Last, the writer of the retired version-1 table file,
which the reader must reject by name.
"""

from __future__ import annotations

import math

import numpy as np

from chaosfilter.galerkin import FilterModel, _euler_reports
from chaosfilter.hermite import QuadratureGrid, SpatialBasis, basis_tables
from chaosfilter.multiindex import (MultiIndex, enumerate_counts, factorial, hermite_table, lower,
                                    row_entries)
from chaosfilter.propagator import _integrate_stacked, default_substeps
from chaosfilter.runtime import (_FLOOR_REL, DegenerateNormalizationError, FilterState,
                                 _chaos_weights, _hermite_table, _mass_fault, functional)
from chaosfilter.simulate import SimulationConfig, simulate_paths


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


def per_window_recursion(table, xi, p_init, times, f_coeffs, one_coeffs, floor_rel=_FLOOR_REL):
    """The window loop that runtime._recursion's blocked loop replaced.

    Per window: the chaos weights and step matrices of every path, p <- Q p,
    one finiteness scan, the mass and estimate reads and the floor check,
    raising at the first failing window.  Takes and returns what
    _recursion does.
    """
    P, M = xi.shape[:2]
    K = table.K
    start = FilterState(t=times[0], p=np.asarray(p_init, dtype=float))
    floor = floor_rel * abs(functional(start, one_coeffs))
    p = np.repeat(start.p[None], P, axis=0)
    states = np.empty((P, M + 1, p.shape[1]))
    masses = np.empty((P, M + 1))
    ests = np.empty((P, M + 1))
    H = _hermite_table(table, xi)
    flows = table.matrices.reshape(-1, K * K)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(M + 1):
            if i:
                W = _chaos_weights(table, H[:, i - 1])
                Q = np.matmul(W[:, None, :], flows).reshape(-1, K, K)
                p = np.matmul(Q, p[:, :, None])[:, :, 0]
                if not np.isfinite(p).all():
                    bad = int(np.argmin(np.isfinite(p).all(axis=1)))
                    raise FloatingPointError(f"filter state of path {bad} became non-finite "
                                             f"in window {i} at t={times[i]}")
            states[:, i] = p
            masses[:, i] = den = np.matmul(p[:, None, :], one_coeffs)[:, 0]
            low = ~np.isfinite(den) | (np.abs(den) <= floor) | (den == 0.0)
            if low.any():
                bad = int(np.argmax(low))
                raise DegenerateNormalizationError(
                    f"normalization mass {den[bad]:.3e} of path {bad} in window {i} "
                    f"at t={times[i]} is {_mass_fault(den[bad], floor)}")
            ests[:, i] = np.matmul(p[:, None, :], f_coeffs)[:, 0] / den
    return states, masses, ests


def simulate(config: SimulationConfig, x0=None):
    """Single path; see simulate_paths.  Returns (times, X (n+1, d), Y (n+1, r))."""
    times, X, Y = simulate_paths(config, 1, x0=None if x0 is None else np.atleast_1d(x0))
    return times, X[0], Y[0]


def slot_counts(indices, n: int, r: int) -> np.ndarray:
    """Count array of an index list: column (k-1)*r + l-1 of row a holds alpha_k^l."""
    out = np.zeros((len(indices), n * r), dtype=np.intp)
    for a, alpha in enumerate(indices):
        for (k, l), c in alpha.entries:
            out[a, (k - 1) * r + l - 1] = c
    return out


def coupling_groups(indices):
    """Lowering structure of an index list, grouped by slot (k, l).

    Returns {(k, l): (coeffs, dst, src)} with integer positions into the
    list: d phi[dst] picks up coeff * m_k(s) * B_l phi[src].  Every source
    sits exactly one layer below its destination.
    """
    pos = {idx: i for i, idx in enumerate(indices)}
    groups: dict[tuple[int, int], list] = {}
    for i, alpha in enumerate(indices):
        for (k, l), c in alpha.entries:
            low = lower(alpha, k, l)
            if low not in pos:
                raise ValueError(f"index list is not closed under lowering at {alpha}")
            groups.setdefault((k, l), []).append((float(c), i, pos[low]))
    out = {}
    for kl, items in groups.items():
        co, dst, src = zip(*items)
        out[kl] = (np.array(co), np.array(dst, dtype=int), np.array(src, dtype=int))
    return out


def coupling_lowering(indices, r: int):
    """propagator._lowering as it was built from coupling_groups of an index list."""
    from scipy import sparse
    groups = coupling_groups(indices)
    if not groups:
        return None
    sizes = [len(co) for co, _, _ in groups.values()]
    mode, chan = (np.repeat(v, sizes) for v in zip(*groups))
    co, dst, src = (np.concatenate(parts) for parts in zip(*groups.values()))
    n_src = int(src.max()) + 1
    col = (chan - 1) * n_src + src
    order = np.lexsort((col, dst))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=len(indices)))])
    C = sparse.csr_array((co[order], col[order], indptr), shape=(len(indices), r * n_src))
    return C, co[order], mode[order] - 1


def solve_phi(system, tbasis, alpha: MultiIndex, zeta, substeps: int | None = None) -> np.ndarray:
    """phi_alpha(delta; zeta) by one 4th-order pass over the truncated set holding alpha."""
    if substeps is None:
        substeps = default_substeps(tbasis.n)
    if alpha.order > tbasis.n:
        raise ValueError(f"alpha uses mode {alpha.order} beyond the basis ({tbasis.n})")
    if alpha.r != system.r:
        raise ValueError(f"alpha has r={alpha.r} channels but the system has r={system.r}")
    zeta = np.asarray(zeta, dtype=float)
    if zeta.shape != (system.K,):
        raise ValueError(f"zeta of shape {zeta.shape} does not match the system's K={system.K}")
    # Closed under lowering, and the canonical order starts with the empty index.
    counts = enumerate_counts(alpha.length, max(alpha.order, 1), alpha.r)
    S0 = np.zeros((len(counts), system.K, 1))
    S0[0, :, 0] = zeta
    S = _integrate_stacked(system, tbasis, counts, S0, substeps)
    at = [row_entries(row, alpha.r) for row in counts.tolist()].index(alpha.entries)
    return S[at, :, 0].copy()


def save_table_v1(path, table) -> None:
    """A table file of version 1: twelve header lines, then per index its line and matrix."""
    b = table.basis
    fields = {"version": 1, "format": "binary", "K": table.K, "r": table.r,
              "delta": f"{table.delta:.17g}", "N": table.N, "n": table.n,
              "substeps": table.substeps, "basis_d": b.d,
              "basis_gammas": " ".join(",".join(str(g) for g in tup) for tup in b.gammas),
              "basis_lambdas": " ".join(f"{v:.17g}" for v in b.lambdas),
              "indices": len(table.counts)}
    data = "".join(f"{key}={val}\n" for key, val in fields.items()).encode("ascii")
    for alpha, mat in zip(table.indices, table.matrices):
        data += (str(alpha) + "\n").encode("ascii") + mat.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
