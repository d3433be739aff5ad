"""Hermite-function basis of L2(R^d) and Gauss-Hermite quadrature.

The basis functions are tensor products of normalized Hermite functions
h_n(t) = (2^n n! sqrt(pi))^{-1/2} H_n(t) exp(-t^2/2), with H_n the
physicists' Hermite polynomial.  Each product over a d-tuple gamma is an
eigenfunction of Lambda = -laplacian + (1 + |x|^2) with eigenvalue
2|gamma| + d + 1.  Tuples are ordered graded-lexicographically: by total
degree first, ties broken so that larger leading entries come first,
e.g. for d=2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .multiindex import _compositions_desc

# Rescaled Gauss-Hermite weights involve exp(+node^2); beyond ~150 nodes
# per axis the raw weights underflow before the rescale can cancel.
MAX_NODES_PER_AXIS = 150


@dataclass(frozen=True)
class SpatialBasis:
    d: int
    K: int
    gammas: tuple[tuple[int, ...], ...]
    lambdas: np.ndarray

    @property
    def max_degree(self) -> int:
        """Largest per-axis Hermite degree present in the basis."""
        return max(max(g) for g in self.gammas)


def write_rows(path, header: str, row: str, data: np.ndarray) -> None:
    """header, then one `row % tuple(line)` per line of the 2-d array data."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + (row * data.shape[0]) % tuple(data.ravel().tolist()))


def read_text(path) -> str:
    """The text of path; a byte that does not decode raises a ValueError naming line and byte."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    line.decode(exc.encoding)
                except UnicodeDecodeError as bad:
                    raise ValueError(f"{path}: line {number}: byte 0x{line[bad.start]:02x} "
                                     f"is not {exc.encoding}") from None
        raise


def first_non_float(tokens):
    """(position, token) of the first token float() rejects, or None if every one parses."""
    for j, tok in enumerate(tokens):
        try:
            float(tok)
        except ValueError:
            return j, tok
    return None


def decode_rows(lines, width: int):
    """The floats of `lines`, an iterable of str rows, as a (rows, width) array.

    One np.loadtxt pass; None where loadtxt rejects the lines, finds no
    row or finds another width.  What loadtxt accepts, float() accepts
    and parses to the same bits.  On None the caller's per-row parser
    takes over: it accepts what only float() accepts (such as '1_0') and
    names any fault.  loadtxt skips blank lines, as the replay format
    (runtime.read_observations, the one caller) does.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
        except ValueError:
            return None
    return rows if rows.shape[0] and rows.shape[1] == width else None


def _graded_tuples(d, count):
    out = []
    grade = 0
    while len(out) < count:
        for vec in _compositions_desc(grade, d):
            out.append(vec)
            if len(out) == count:
                return out
        grade += 1
    return out


def build_basis(d: int, K: int) -> SpatialBasis:
    """First K Hermite-function index tuples with their eigenvalues."""
    if d < 1 or K < 1:
        raise ValueError(f"need d >= 1 and K >= 1, got d={d}, K={K}")
    gammas = tuple(_graded_tuples(d, K))
    lambdas = np.array([2 * sum(g) + d + 1 for g in gammas], dtype=float)
    return SpatialBasis(d=d, K=K, gammas=gammas, lambdas=lambdas)


def hermite_function_values(nmax: int, t: np.ndarray) -> np.ndarray:
    """Table of normalized Hermite functions h_0..h_nmax at points t.

    Uses the stable recurrence
    h_{n+1}(t) = t sqrt(2/(n+1)) h_n(t) - sqrt(n/(n+1)) h_{n-1}(t)
    seeded with h_0(t) = pi^{-1/4} exp(-t^2/2).  Returns (nmax+1, len(t)).
    """
    t = np.asarray(t, dtype=float)
    H = np.empty((nmax + 1, t.size))
    H[0] = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    if nmax >= 1:
        H[1] = np.sqrt(2.0) * t * H[0]
    for n in range(1, nmax):
        H[n + 1] = t * np.sqrt(2.0 / (n + 1)) * H[n] - np.sqrt(n / (n + 1.0)) * H[n - 1]
    return H


def hermite_function_derivatives(H: np.ndarray):
    """First and second derivative tables from the value table.

    Ladder identities: h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1} and
    t h_n = sqrt(n/2) h_{n-1} + sqrt((n+1)/2) h_{n+1}.  The value table must
    extend two degrees beyond the largest degree whose second derivative is
    needed; the returned tables have two fewer rows than H.
    """
    nmax = H.shape[0] - 1
    if nmax < 2:
        raise ValueError("value table must go at least two degrees past the target")
    n = np.arange(nmax - 1)[:, None]
    below = np.concatenate([np.zeros((2, H.shape[1])), H])   # below[n + 2] = h_n, zero for n < 0
    D1 = np.sqrt(n / 2.0) * below[1:nmax] - np.sqrt((n + 1) / 2.0) * H[1:nmax]
    D2 = (np.sqrt(n * (n - 1)) / 2.0 * below[:nmax - 1] - (2 * n + 1) / 2.0 * H[:nmax - 1]
          + np.sqrt((n + 1) * (n + 2)) / 2.0 * H[2:])
    return D1, D2


def basis_tables(basis: SpatialBasis, nodes: np.ndarray, derivatives: int = 0):
    """Evaluate all basis functions (and derivatives) on a point set.

    nodes: (npts, d).  Returns V (K, npts); with derivatives >= 1 also
    G (K, d, npts); with derivatives == 2 also S (K, d, d, npts), the
    symmetric table of second partials.  Each table is a product of
    per-axis factor tables, gathered at the basis's degrees on each axis
    and multiplied in axis order.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    d, degrees = basis.d, np.array(basis.gammas).T          # degrees[j, k] = gamma_k[j]
    axis_H = [hermite_function_values(basis.max_degree + 2, nodes[:, j]) for j in range(d)]
    H = [axis_H[j][degrees[j]] for j in range(d)]           # H[j][k] = h_{gamma_k[j]}(x_j)
    V = reduce(np.multiply, H)
    if derivatives == 0:
        return V
    D = [hermite_function_derivatives(axis_H[j]) for j in range(d)]   # (first, second) per axis
    D1 = [D[j][0][degrees[j]] for j in range(d)]

    def times_other_axes(first, axes):
        return reduce(np.multiply, [H[j] for j in range(d) if j not in axes], first)

    G = np.stack([times_other_axes(D1[i], {i}) for i in range(d)], axis=1)
    if derivatives == 1:
        return V, G
    S = np.empty((basis.K, d, d, nodes.shape[0]))
    for i in range(d):
        for j in range(i, d):
            first = D[i][1][degrees[i]] if i == j else D1[i] * D1[j]
            S[:, i, j] = S[:, j, i] = times_other_axes(first, {i, j})
    return V, G, S


def eval_basis(basis: SpatialBasis, k: int, x) -> float | np.ndarray:
    """Value of basis function k (0-based) at x ((d,) point or (npts, d))."""
    if not 0 <= k < basis.K:
        raise IndexError(f"basis index {k} out of range for K={basis.K}")
    x = np.asarray(x, dtype=float)
    single = x.ndim <= 1
    pts = x.reshape(1, -1) if single else x
    if pts.shape[1] != basis.d:
        raise ValueError(f"points must have dimension {basis.d}")
    V = basis_tables(basis, pts)
    return float(V[k, 0]) if single else V[k]


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Hermite rule with weights rescaled by exp(+|x|^2).

    Weighted sums then approximate plain Lebesgue integrals for integrands
    with sub-Gaussian-squared decay, and are exact for P(x) exp(-|x|^2)
    with per-axis polynomial degree <= 2m - 1.
    """

    nodes: np.ndarray   # (npts, d)
    weights: np.ndarray  # (npts,)
    m: int              # nodes per axis

    @property
    def d(self) -> int:
        return self.nodes.shape[1]


@lru_cache(maxsize=None)
def _hermgauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.polynomial.hermite.hermgauss(m), computed once per m, as read-only arrays."""
    x, w = np.polynomial.hermite.hermgauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_hermite_grid(d: int, m: int) -> QuadratureGrid:
    if m < 1:
        raise ValueError(f"need m >= 1 nodes per axis, got {m}")
    if m > MAX_NODES_PER_AXIS:
        raise ValueError(f"m={m} would underflow the weight rescale; keep m <= {MAX_NODES_PER_AXIS}")
    x, w = _hermgauss(m)
    # exp(log w + x^2) keeps the tails in range where w * exp(x^2) would not.
    wt = np.exp(np.log(w) + x * x)
    if d == 1:
        return QuadratureGrid(nodes=x[:, None], weights=wt, m=m)
    grids = np.meshgrid(*([x] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(m ** d)
    wgrids = np.meshgrid(*([wt] * d), indexing="ij")
    for g in wgrids:
        weights = weights * g.ravel()
    return QuadratureGrid(nodes=nodes, weights=weights, m=m)


def squeeze_points(nodes: np.ndarray, d: int) -> np.ndarray:
    """Points as handed to user callables: (npts,) when d == 1, else (npts, d)."""
    return nodes[:, 0] if d == 1 else nodes


def project(f, basis: SpatialBasis, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature approximation of the basis coefficients of f.

    f is called with the full point set ((npts,) for d = 1, (npts, d)
    otherwise) and must return finite values; decay fast enough for the
    rule is the caller's responsibility.  Heavy-tailed or rough f gives
    uncontrolled quadrature error.
    """
    return project_many([f], basis, grid)[0]


def project_many(fs, basis: SpatialBasis, grid: QuadratureGrid) -> list[np.ndarray]:
    """project(f, basis, grid) for each f of fs, from one basis table on the grid."""
    points, npts = squeeze_points(grid.nodes, basis.d), grid.nodes.shape[0]
    V = basis_tables(basis, grid.nodes)
    out = []
    for f in fs:
        vals = np.broadcast_to(np.asarray(f(points), dtype=float), (npts,))
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(f"f is not finite at quadrature node {bad}")
        out.append(V @ (grid.weights * vals))
    return out


def lambda_power_norm(coeffs: np.ndarray, basis: SpatialBasis, nu: float) -> float:
    """sqrt(sum lambda_k^(2 nu) c_k^2); decay diagnostic for coefficient vectors."""
    c = np.asarray(coeffs, dtype=float)
    return float(np.sqrt(np.sum(basis.lambdas ** (2.0 * nu) * c * c)))


def gram_matrix(basis: SpatialBasis, grid: QuadratureGrid) -> np.ndarray:
    V = basis_tables(basis, grid.nodes)
    return (V * grid.weights) @ V.T

