"""Reference forms that only the tests call.

Pointwise operators, one-path and final-state Euler drivers, a per-step,
per-path loop of the exact-noise splitting, the scalar Hermite
polynomial with the dict-keyed Wick product built on it, the per-index loops
of the Hermite-function basis and derivative tables, a Sobolev norm
probe, the per-window loop of the online recursion, a one-path
simulation, a one-index flow, the index helpers on MultiIndex objects
(the empty index, characteristic sets, lowering and alpha!), and the
index set's count array and lowering structure built from them.  The
library computes each of these in a batched form or on the count array;
the tests check it against these.  Last, the writer of the retired
version-1 table file, which the reader must reject by name.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from chaosfilter.galerkin import FilterModel, _euler_reports
from chaosfilter.hermite import (QuadratureGrid, SpatialBasis, basis_tables,
                                 hermite_function_values)
from chaosfilter.multiindex import (MultiIndex, count_factorial, enumerate_counts, hermite_table,
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
    report, naming the steps it covers and its time.
    """
    if report_stride < 1:
        raise ValueError(f"report_stride must be >= 1, got {report_stride}")
    if (len(y_path) - 1) % report_stride:
        raise ValueError("report_stride must divide the number of steps")
    y = np.reshape(y_path, (1, len(y_path), -1))
    return _euler_reports(system, y, delta, p_init, report_stride)[:, :, 0]


def integrate_galerkin_sde_paths(system, y_paths, delta, p_init):
    """Batched Euler-Maruyama; returns only the final states.

    y_paths: (npaths, nsteps+1, r).  p_init: (K,) shared or (npaths, K).
    Finiteness is checked once at the end (_euler_reports with a smaller
    report_stride locates a blow-up step).
    """
    return _euler_reports(system, y_paths, delta, p_init, max(np.shape(y_paths)[1] - 1, 1))[-1].T


def splitting_loop(system, y_paths, delta, p_init, report_stride):
    """The exact-noise splitting one step and one path at a time.

    For r == 1 and a symmetric B = V diag(lam) V^T: p = E p with
    E = exp(A delta) (scipy's expm), then p = V (exp(lam dY - lam^2 delta/2) * V^T p).
    y_paths: (npaths, nsteps+1); p_init: (K,) or (npaths, K).  Returns
    (nreports + 1, K, npaths), a trailing partial stride dropped.
    """
    from scipy.linalg import expm
    ys = np.asarray(y_paths, dtype=float)
    E = expm(system.A * delta)
    lam, V = np.linalg.eigh(system.B[0])
    starts = np.broadcast_to(np.asarray(p_init, dtype=float), (ys.shape[0], system.K))
    nreports = (ys.shape[1] - 1) // report_stride
    out = np.empty((nreports + 1, system.K, ys.shape[0]))
    for path, (y, p) in enumerate(zip(ys, starts)):
        out[0, :, path] = p
        for j in range(nreports * report_stride):
            p = E @ p
            p = V @ (np.exp(lam * (y[j + 1] - y[j]) - 0.5 * lam * lam * delta) * (V.T @ p))
            if (j + 1) % report_stride == 0:
                out[(j + 1) // report_stride, :, path] = p
    return out


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


def hermite_function_derivatives_loop(H: np.ndarray):
    """hermite.hermite_function_derivatives one degree at a time."""
    nmax = H.shape[0] - 1
    D1 = np.empty((nmax - 1, H.shape[1]))
    D2 = np.empty((nmax - 1, H.shape[1]))
    for n in range(nmax - 1):
        lo = np.sqrt(n / 2.0) * H[n - 1] if n >= 1 else 0.0
        D1[n] = lo - np.sqrt((n + 1) / 2.0) * H[n + 1]
        lolo = np.sqrt(n * (n - 1)) / 2.0 * H[n - 2] if n >= 2 else 0.0
        D2[n] = lolo - (2 * n + 1) / 2.0 * H[n] + np.sqrt((n + 1) * (n + 2)) / 2.0 * H[n + 2]
    return D1, D2


def basis_tables_loop(basis: SpatialBasis, nodes: np.ndarray, derivatives: int = 0):
    """hermite.basis_tables one basis index, axis and derivative pair at a time."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    npts = nodes.shape[0]
    axis_H = [hermite_function_values(basis.max_degree + 2, nodes[:, j]) for j in range(basis.d)]
    axis_D = [hermite_function_derivatives_loop(H) for H in axis_H]
    V = np.empty((basis.K, npts))
    for k, g in enumerate(basis.gammas):
        v = np.ones(npts)
        for j, n in enumerate(g):
            v = v * axis_H[j][n]
        V[k] = v
    if derivatives == 0:
        return V
    G = np.empty((basis.K, basis.d, npts))
    for k, g in enumerate(basis.gammas):
        for i in range(basis.d):
            v = axis_D[i][0][g[i]].copy()
            for j, n in enumerate(g):
                if j != i:
                    v *= axis_H[j][n]
            G[k, i] = v
    if derivatives == 1:
        return V, G
    S = np.empty((basis.K, basis.d, basis.d, npts))
    for k, g in enumerate(basis.gammas):
        for i in range(basis.d):
            for j in range(i, basis.d):
                if i == j:
                    v = axis_D[i][1][g[i]].copy()
                else:
                    v = axis_D[i][0][g[i]] * axis_D[j][0][g[j]]
                for jj, n in enumerate(g):
                    if jj != i and jj != j:
                        v *= axis_H[jj][n]
                S[k, i, j] = v
                S[k, j, i] = v
    return V, G, S


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


def empty_index(r: int) -> MultiIndex:
    return MultiIndex((), r)


@dataclass(frozen=True)
class CharacteristicSet:
    """Ordered multiset of (mode, channel) pairs encoding a multi-index.

    Pairs are sorted by mode, then channel, and the pair (k, l) appears
    exactly count(k, l) times, so the list has length |alpha|.
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def to_multiindex(self, r: int) -> MultiIndex:
        return MultiIndex.from_dict(Counter(self.pairs), r)


def characteristic_set(alpha: MultiIndex) -> CharacteristicSet:
    return CharacteristicSet(tuple(kl for kl, c in alpha.entries for _ in range(c)))


def lower(alpha: MultiIndex, k: int, l: int) -> MultiIndex:
    """Decrement entry (k, l) toward zero, leaving the rest unchanged."""
    counts = dict(alpha.entries)
    counts[(k, l)] = max(counts.get((k, l), 0) - 1, 0)     # from_dict drops the zero
    return MultiIndex.from_dict(counts, alpha.r)


def factorial(alpha: MultiIndex) -> int:
    """alpha! as the product of per-slot count factorials (1 for empty)."""
    return count_factorial(c for _, c in alpha.entries)


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
    groups = coupling_groups(indices)
    if not groups:
        return None
    sizes = [len(co) for co, _, _ in groups.values()]
    mode, chan = (np.repeat(v, sizes) for v in zip(*groups))
    co, dst, src = (np.concatenate(parts) for parts in zip(*groups.values()))
    n_src = int(src.max()) + 1
    col = (chan - 1) * n_src + src
    order = np.lexsort((col, dst))
    return dst[order], col[order], r * n_src, co[order], mode[order] - 1


def csr_lowering(lowering, J: int):
    """The CSR matrix of a coupling_lowering pattern with |J| rows, holding its coeffs."""
    from scipy import sparse
    dst, col, width, coeff, _ = lowering
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=J))])
    return sparse.csr_array((coeff, col, indptr), shape=(J, width))


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
    """A version-1 table file: twelve header lines, then per index its k:l:c line and matrix."""
    b = table.basis
    fields = {"version": 1, "format": "binary", "K": table.K, "r": table.r,
              "delta": f"{table.delta:.17g}", "N": table.N, "n": table.n,
              "substeps": table.substeps, "basis_d": b.d,
              "basis_gammas": " ".join(",".join(str(g) for g in tup) for tup in b.gammas),
              "basis_lambdas": " ".join(f"{v:.17g}" for v in b.lambdas),
              "indices": len(table.counts)}
    data = "".join(f"{key}={val}\n" for key, val in fields.items()).encode("ascii")
    for alpha, mat in zip(table.indices, table.matrices):
        line = " ".join(f"{k}:{l}:{c}" for (k, l), c in alpha.entries) or "-"
        data += (line + "\n").encode("ascii") + mat.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
