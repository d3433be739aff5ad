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
from functools import lru_cache

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


def encode_header(fields: dict) -> str:
    """Table/system file header: 'version=1', then one 'key=value' line per field."""
    return "".join(f"{key}={val}\n" for key, val in {"version": 1, **fields}.items())


def write_rows(path, header: str, row: str, data: np.ndarray) -> None:
    """header, then one `row % tuple(line)` per line of the 2-d array data."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + (row * data.shape[0]) % tuple(data.ravel().tolist()))


def _gammas(value):
    return tuple(tuple(int(p) for p in tok.split(",")) for tok in value.split())


def _lambdas(value):
    return np.array([float(t) for t in value.split()])


_EXPECTED = {int: "an integer", float: "a float", _gammas: "comma-separated integer tuples",
             _lambdas: "floats"}


def decode_header(path, lines, what: str, d_key: str, fields: dict):
    """Inverse of encode_header: ({key: value} for `fields`, the basis they describe).

    `fields` maps each key past the basis to int, float or the tuple of the
    strings allowed; every int is a count, so a negative one is rejected.
    Only version 1 is read.  A missing key or a value that does not parse
    raises a ValueError naming the file and the key.
    """
    header = dict(line.partition("=")[::2] for line in lines)
    if header.get("version") != "1":
        raise ValueError(f"{path}: unsupported {what} version {header.get('version')!r}")

    def field(key, cast):
        if key not in header:
            raise ValueError(f"{path}: {what} header: missing '{key}=' line")
        value = header[key]
        if isinstance(cast, tuple):
            if value in cast:
                return value
            expected = " or ".join(repr(c) for c in cast)
        else:
            try:
                out = cast(value)
                if cast is not int or out >= 0:
                    return out
                expected = "a nonnegative integer"
            except ValueError:
                expected = _EXPECTED[cast]
        raise ValueError(f"{path}: {what} header: {key} is not {expected}: {value!r}")

    basis = SpatialBasis(d=field(d_key, int), K=field("K", int),
                         gammas=field("basis_gammas", _gammas),
                         lambdas=field("basis_lambdas", _lambdas))
    return {key: field(key, cast) for key, cast in fields.items()}, basis


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


def row_floats(line: str, width: int) -> list[float]:
    """float() of each whitespace-separated token of a matrix row of `width` values.

    A ValueError says what is wrong: the first token that is not a
    float, or the count of values found.
    """
    tokens = line.split()
    try:
        row = [float(t) for t in tokens]
    except ValueError:
        row = None
    if row is None or len(row) != width:
        bad = first_non_float(tokens)
        raise ValueError(f"expected a float as value {bad[0] + 1}, found {bad[1]!r}"
                         if bad is not None else f"expected {width} values, found {len(tokens)}")
    return row


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


def basis_fields(basis: SpatialBasis) -> dict[str, str]:
    """The basis_gammas and basis_lambdas header fields of a basis."""
    return {"basis_gammas": " ".join(",".join(str(g) for g in tup) for tup in basis.gammas),
            "basis_lambdas": " ".join(f"{v:.17g}" for v in basis.lambdas)}


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
    D1 = np.empty((nmax - 1, H.shape[1]))
    D2 = np.empty((nmax - 1, H.shape[1]))
    for n in range(nmax - 1):
        lo = np.sqrt(n / 2.0) * H[n - 1] if n >= 1 else 0.0
        D1[n] = lo - np.sqrt((n + 1) / 2.0) * H[n + 1]
        lolo = np.sqrt(n * (n - 1)) / 2.0 * H[n - 2] if n >= 2 else 0.0
        D2[n] = lolo - (2 * n + 1) / 2.0 * H[n] + np.sqrt((n + 1) * (n + 2)) / 2.0 * H[n + 2]
    return D1, D2


def basis_tables(basis: SpatialBasis, nodes: np.ndarray, derivatives: int = 0):
    """Evaluate all basis functions (and derivatives) on a point set.

    nodes: (npts, d).  Returns V (K, npts); with derivatives >= 1 also
    G (K, d, npts); with derivatives == 2 also S (K, d, d, npts), the
    symmetric table of second partials.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    npts = nodes.shape[0]
    nmax = basis.max_degree
    axis_H = [hermite_function_values(nmax + 2, nodes[:, j]) for j in range(basis.d)]
    if derivatives:
        axis_D = [hermite_function_derivatives(axis_H[j]) for j in range(basis.d)]

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


def h1_norm(basis: SpatialBasis, k: int, grid: QuadratureGrid) -> float:
    """Numerical probe of the first Sobolev norm of basis function k."""
    V, G = basis_tables(basis, grid.nodes, derivatives=1)
    mass = np.sum(grid.weights * V[k] * V[k])
    grad = sum(np.sum(grid.weights * G[k, i] * G[k, i]) for i in range(basis.d))
    return float(np.sqrt(mass + grad))
