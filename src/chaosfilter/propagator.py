"""Offline propagator tables for the chaos recursion.

For each multi-index alpha in the truncated set, the deterministic
coefficient flow phi_alpha solves the triangular linear system

    d phi_alpha / ds = A phi_alpha
                       + sum_{k,l} alpha_k^l m_k(s) B_l phi_{alpha(k,l)},
    phi_alpha(0) = zeta if alpha is empty else 0,

where alpha(k,l) lowers entry (k, l) and m_k is the cosine basis of
L2([0, Delta]).  The table stores phi_alpha(Delta; .) as a K x K matrix
per index (columns are the images of the standard unit vectors); the
online step then needs only dense matrix accumulation.

Because each right-hand side reads only indices one layer down, a single
classical 4th-order pass over the stacked system integrates every layer
consistently.  The index set is the count array of
multiindex.enumerate_counts throughout; the table file stores none, as
its header's N, n and r fix it.
"""

from __future__ import annotations

import contextvars
import math
import os
import stat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galerkin import GalerkinSystem
from .hermite import SpatialBasis, build_basis
from .multiindex import MultiIndex, count_factorial, enumerate_counts, row_entries


@dataclass(frozen=True)
class TemporalBasis:
    """Cosine basis of L2([0, delta]).

    m_1 = 1/sqrt(delta); m_k(s) = sqrt(2/delta) cos(pi (k-1) s / delta)
    for k > 1.  Modes are 1-based to match multi-index slots.
    """

    delta: float
    n: int

    def __post_init__(self):
        if self.delta <= 0 or self.n < 1:
            raise ValueError(f"need delta > 0 and n >= 1, got {self.delta}, {self.n}")

    def eval(self, k: int, s):
        if not 1 <= k <= self.n:
            raise ValueError(f"mode {k} out of range 1..{self.n}")
        s = np.asarray(s, dtype=float)
        if k == 1:
            out = np.full_like(s, 1.0 / math.sqrt(self.delta))
        else:
            out = math.sqrt(2.0 / self.delta) * np.cos(np.pi * (k - 1) * s / self.delta)
        return out if out.ndim else float(out)

    def modes(self, s) -> np.ndarray:
        """(n, *shape(s)) values m_1(s) .. m_n(s); row k-1 equals eval(k, s) bit for bit."""
        s = np.asarray(s, dtype=float)
        k = np.arange(self.n).reshape(-1, *[1] * s.ndim)
        out = math.sqrt(2.0 / self.delta) * np.cos(np.pi * k * s / self.delta)
        out[0] = 1.0 / math.sqrt(self.delta)
        return out


def cosine_basis(delta: float, n: int) -> TemporalBasis:
    return TemporalBasis(delta=delta, n=n)


def max_sample_spacing(delta: float, n: int) -> float:
    """delta/(8 n): the coarsest sample spacing that resolves the fastest of n cosine modes."""
    return delta / (8 * n)


def default_substeps(n: int) -> int:
    # The fastest cosine, cos((n-1) pi s / delta), runs (n-1)/2 periods per
    # window; 8 n substeps put at least 16 RK4 points in each.  Against 2048
    # substeps the table then differs by at most 1.0e-7 of its largest entry
    # at correlated-ou K=32 N=3 n=8 (3.2e-9 at 16 n), far below the chaos
    # truncation error there (~2e-3).  The floor of 64 keeps small n within
    # the 1e-10 of the scalar Parseval limit (n=1, N=12, delta=1).
    return max(64, 8 * n)


def rk4(rhs, y0, h: float, steps: int):
    """Classical 4th-order Runge-Kutta for y' = rhs(s, y) from s = 0; checks finiteness.

    y, the stage point z and the slope sum acc are kept buffers, summed in
    the order of y + (h/6) (k1 + 2 k2 + 2 k3 + k4), so the bits are those
    of that expression.  rhs may return a buffer of its own, not y or z.
    """
    y = np.array(y0, dtype=float)
    z, acc = np.empty_like(y), np.empty_like(y)
    for step in range(steps):
        s = step * h
        k = rhs(s, y)
        np.copyto(acc, k)
        np.add(y, np.multiply(k, 0.5 * h, out=z), out=z)
        for c in (0.5 * h, h):
            k = rhs(s + 0.5 * h, z)
            acc += np.multiply(k, 2.0, out=z)       # z is free once rhs has read it
            np.add(y, np.multiply(k, c, out=z), out=z)
        acc += rhs(s + h, z)
        y += np.multiply(acc, h / 6.0, out=acc)
        if not np.all(np.isfinite(y)):
            exc = FloatingPointError(f"flow lost finiteness at substep {step + 1} of {steps}")
            exc.substep = step + 1
            raise exc
    return y


def _lowering(counts, r: int):
    """Fixed pattern of the lowering operator C(s) of _integrate_stacked.

    Count row dst couples to the row src one layer below it that has one
    count less in slot (k-1) r + l-1, with coeff that count.  C(s) is a
    CSR matrix of shape (|J|, r n_src) holding coeff * m_k(s) at row dst,
    column (l-1) n_src + src; n_src = 1 + the largest source, so the top
    layer, which is never a source, is left out.  Returns (C, coeff, mode)
    with coeff and the 0-based mode k-1 aligned with C.data, or None when
    nothing couples (N = 0).
    """
    from scipy import sparse    # imported here for cold start: the online half never loads scipy
    dst, slot = np.nonzero(counts)
    if not dst.size:
        return None
    low = counts[dst]
    low[np.arange(dst.size), slot] -= 1
    pos = {row.tobytes(): i for i, row in enumerate(counts)}
    src = np.array([pos[row.tobytes()] for row in low])
    n_src = int(src.max()) + 1
    col = slot % r * n_src + src
    order = np.lexsort((col, dst))
    co = counts[dst, slot].astype(float)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=len(counts)))])
    C = sparse.csr_array((co, col[order], indptr), shape=(len(counts), r * n_src))
    return C, co, (slot // r)[order]


def _stage_data(tbasis: TemporalBasis, coeff, mode, h: float, steps: int) -> dict:
    """{s: coeff * m_mode(s)} for every time s at which rk4 calls rhs; read-only rows.

    The times are formed by rk4's own arithmetic (s, s + 0.5 h, s + h with
    s = step h), so each key is the float rk4 passes; (2 step + 1) h / 2
    would differ in the last bit.  Each row equals coeff * tbasis.modes(s)[mode].
    """
    s = np.arange(steps) * h
    times = np.unique(np.concatenate([s, s + 0.5 * h, s + h]))     # s + h is mostly next s
    rows = coeff * tbasis.modes(times).T[:, mode]
    rows.flags.writeable = False
    return dict(zip(times.tolist(), rows))


# Fewest entries (|J| K cols) per column block.  Two blocks on threads
# against one pass, medians of 11 interleaved runs on a 2-core VM: 0.56x
# at 3840 entries (mc-cubic, K=16, |J|=15), 0.7-0.86x from 15k to 46k
# (K=16 and 32), 1.24x at 86k, 1.58x at 123k and 1.56x at 169k (K=32,
# |J|=84, 120, 165).  So two blocks start at 82k entries.
_BLOCK_ENTRIES = 40960


def _column_blocks(shape) -> list[slice]:
    """Contiguous column blocks of a stacked (|J|, K, cols) state, at most one per core.

    Blocks hold at least _BLOCK_ENTRIES entries and start on multiples of
    8 columns, where GEMM kernels tile columns, so each column is summed
    as in one product over all.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cols = shape[-1]
    tiles = -(-cols // 8)
    w = max(1, min(cores or 1, tiles, math.prod(shape) // _BLOCK_ENTRIES))
    edges = [min(cols, 8 * (tiles * i // w)) for i in range(w + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _integrate_stacked(system: GalerkinSystem, tbasis: TemporalBasis, counts, S0, substeps):
    """RK4 over the stacked flows S (|J|, K, cols), in column blocks on threads.

    Each right-hand side is the sparse lowering C(s) of _lowering, with
    only C.data set to the row of _stage_data at s, applied to B_l S over
    the source indices (one batched product for all channels), plus A S.
    Both dense products and the sum write into buffers kept across calls:
    fresh (|J|, K, cols) temporaries page-fault anew on every call.

    Columns never exchange a number (the flows are linear in their start),
    so each block of _column_blocks is its own pass with its own buffers
    and C, sharing the stage rows; the calling thread runs the first.  A
    blow-up reports the earliest failing substep over all blocks, as one
    pass would.
    """
    A, B = system.A, system.B
    lowering = _lowering(counts, system.r)
    h = tbasis.delta / substeps
    if lowering is not None:
        C0, coeff, mode = lowering
        stage = _stage_data(tbasis, coeff, mode, h, substeps)

    def flow(cols):
        y0 = S0[:, :, cols]
        out = np.empty(y0.shape)
        if lowering is None:
            return rk4(lambda s, S: np.matmul(A, S, out=out), y0, h, substeps)
        C = C0.copy()
        n_src = C.shape[1] // system.r
        BS = np.empty((system.r, n_src) + y0.shape[1:])

        def rhs(s, S):
            C.data = stage[s]
            np.matmul(B[:, None], S[None, :n_src], out=BS)
            np.matmul(A, S, out=out)
            return np.add(out, (C @ BS.reshape(C.shape[1], -1)).reshape(out.shape), out=out)

        return rk4(rhs, y0, h, substeps)

    first, *rest = _column_blocks(S0.shape)
    if not rest:
        return flow(first)
    S = np.empty(S0.shape)

    def into(cols):
        """Fill S[:, :, cols]; the block's FloatingPointError, or None."""
        try:
            S[:, :, cols] = flow(cols)
        except FloatingPointError as exc:
            return exc

    with ThreadPoolExecutor(len(rest)) as pool:
        # a copy of the caller's context per block, so np.errstate holds there too
        futures = [pool.submit(contextvars.copy_context().run, into, cols) for cols in rest]
        failed = [exc for exc in [into(first)] + [f.result() for f in futures] if exc]
    if failed:
        # one numpy raises itself (np.errstate(over="raise")) names no substep: it goes first
        raise min(failed, key=lambda exc: getattr(exc, "substep", 0))
    return S


@dataclass(frozen=True)
class PropagatorTable:
    """Per-index flow matrices over the truncated chaos set.

    matrices[a][:, k] is phi_alpha(delta; u^k) for the index of count row
    counts[a] (multiindex.enumerate_counts) and the k-th standard unit
    vector.  counts is stored as a read-only copy, so pick cannot go stale.
    """

    K: int
    r: int
    delta: float
    N: int
    n: int
    substeps: int
    basis: SpatialBasis
    counts: np.ndarray      # (n_indices, n*r): alpha_k^l at column (k-1) r + l-1
    matrices: np.ndarray    # (n_indices, K, K)

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.intp)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @cached_property
    def indices(self) -> tuple[MultiIndex, ...]:
        """The rows of counts as MultiIndex objects, for offline bookkeeping."""
        return tuple(MultiIndex(row_entries(row, self.r), self.r) for row in self.counts.tolist())

    def matrix_for(self, alpha: MultiIndex) -> np.ndarray:
        return self.matrices[self.indices.index(alpha)]

    @cached_property
    def pick(self) -> np.ndarray:
        """(R, n_indices) positions c n r + slot of each index's used slots.

        R = max(1, min(N, n r)) is the most slots an index can use.
        Column a lists the slots with a nonzero count c in ascending slot
        order and pads with position 0.  In the runtime's H_c / c! table
        position 0 holds H_0 / 0! = 1, so the product down a column is
        the index's chaos weight, bit for bit the product over all slots.
        """
        counts = self.counts
        slots = counts.shape[1]
        a, s = np.nonzero(counts)                      # row-major: slots ascend within an index
        first = np.searchsorted(a, a)                  # position of each index's first used slot
        out = np.zeros((max(1, min(self.N, slots)), len(counts)), dtype=np.intp)
        out[np.arange(a.size) - first, a] = counts[a, s] * slots + s
        return out


def precompute_table(system: GalerkinSystem, tbasis: TemporalBasis, N: int, n: int,
                     substeps: int | None = None) -> PropagatorTable:
    """Solve the coefficient flows for every index with |alpha| <= N, d(alpha) <= n.

    All K columns of every index evolve in the same stacked pass, so the
    cost is one 4th-order integration of n_indices K x K matrices.
    """
    if n > tbasis.n:
        raise ValueError(f"truncation n={n} exceeds the temporal basis ({tbasis.n})")
    if substeps is None:
        substeps = default_substeps(n)
    counts = enumerate_counts(N, n, system.r)
    S0 = np.zeros((len(counts), system.K, system.K))
    S0[0] = np.eye(system.K)     # canonical order starts with the empty index
    S = _integrate_stacked(system, tbasis, counts, S0, substeps)
    return PropagatorTable(K=system.K, r=system.r, delta=tbasis.delta, N=N, n=n,
                           substeps=substeps, basis=system.basis, counts=counts, matrices=S)


def closed_form_order1(system: GalerkinSystem, tbasis: TemporalBasis, alpha: MultiIndex,
                       zeta, panels: int = 64, points: int = 5) -> np.ndarray:
    """Independent oracle for a length-one index.

    For alpha with single unit entry (k0, l0) the flow has the closed form
    integral of exp(A (delta - s)) B_{l0} exp(A s) zeta m_{k0}(s), which is
    evaluated here with a composite Gauss-Legendre rule and the
    scaling-and-squaring matrix exponential.
    """
    from scipy.linalg import expm    # imported here for cold start: only this oracle needs it
    if alpha.length != 1:
        raise ValueError("closed form is implemented for |alpha| = 1 only")
    (k0, l0), _ = alpha.entries[0]
    zeta = np.asarray(zeta, dtype=float)
    gl_x, gl_w = np.polynomial.legendre.leggauss(points)
    out = np.zeros(system.K)
    width = tbasis.delta / panels
    Bz = system.B[l0 - 1]
    for p in range(panels):
        a = p * width
        s_nodes = a + 0.5 * width * (gl_x + 1.0)
        w_nodes = 0.5 * width * gl_w
        for s, w in zip(s_nodes, w_nodes):
            v = expm(system.A * s) @ zeta
            v = expm(system.A * (tbasis.delta - s)) @ (Bz @ v)
            out += w * tbasis.eval(k0, s) * v
    return out


def parseval_mass(table: PropagatorTable, zeta):
    """Truncated chaos mass sum |phi_alpha(delta; zeta)|^2 / alpha!.

    Returns (total, by_layer) with per-|alpha| subtotals.  For a Brownian
    driving path this approximates the second moment of the projected
    solution from below, layer by layer.
    """
    zeta = np.asarray(zeta, dtype=float)
    vectors = table.matrices @ zeta
    by_layer: dict[int, float] = {}
    for row, v in zip(table.counts.tolist(), vectors):
        by_layer[sum(row)] = by_layer.get(sum(row), 0.0) + float(v @ v) / count_factorial(row)
    return sum(by_layer.values()), by_layer


def _moment_flow(A, B, M0, delta: float, substeps: int) -> np.ndarray:
    """M(delta) of M' = A M + M A^T + sum_l B_l M B_l^T from M(0) = M0, by rk4."""

    def rhs(s, M):
        out = A @ M + M @ A.T
        for Bl in B:
            out += Bl @ M @ Bl.T
        return out

    return rk4(rhs, M0, delta / substeps, substeps)


def brownian_second_moment(system: GalerkinSystem, delta: float, zeta,
                           substeps: int = 256) -> float:
    """Exact E|U(delta)|^2 for Brownian driving, via the moment flow.

    The outer-product moment M = E[U U^T] obeys the deterministic system
    M' = A M + M A^T + sum_l B_l M B_l^T; this integrates it with a
    classical 4th-order scheme and returns the trace.  Serves as an
    independent check on both the Monte Carlo and the chaos mass.
    """
    zeta = np.asarray(zeta, dtype=float)
    return float(np.trace(_moment_flow(system.A, system.B, np.outer(zeta, zeta), delta,
                                       substeps)))


def _certificate_pencil(system: GalerkinSystem, table: PropagatorTable):
    """(G, P): the exact and the table's one-window second-moment forms.

    Under Brownian driving the window's solution U = Phi zeta has
    E|U|^2 = zeta^T G zeta, where G = E[Phi^T Phi] solves the adjoint
    moment flow G' = A^T G + G A + sum_l B_l^T G B_l, G(0) = I, over the
    table's substeps.  By the Cameron-Martin/Parseval identity the
    table's chaos terms carry zeta^T P zeta of it, with
    P = sum_alpha phi_alpha^T phi_alpha / alpha!: one product of the
    stacked 1/sqrt(alpha!)-scaled matrices with themselves.
    """
    if (table.K, table.r) != (system.K, system.r):
        raise ValueError(f"table has K={table.K}, r={table.r} but the system has "
                         f"K={system.K}, r={system.r}")
    G = _moment_flow(system.A.T, system.B.transpose(0, 2, 1), np.eye(system.K), table.delta,
                     table.substeps)
    scale = np.array([1.0 / math.sqrt(count_factorial(row)) for row in table.counts.tolist()])
    S = (table.matrices * scale[:, None, None]).reshape(-1, table.K)
    return G, S.T @ S


def truncation_certificate(system: GalerkinSystem, table: PropagatorTable) -> float:
    """rho = lambda_max(G - P, G) of _certificate_pencil, with numpy only.

    rho is the largest relative mean-square error 1 - zeta^T P zeta /
    zeta^T G zeta over starts zeta that the table's truncation leaves in
    one window under the Brownian reference measure: 0 for a complete
    chaos series, 1 when some start loses all of its second moment.  The
    Cholesky factor L of G whitens the pencil to L^-1 (G - P) L^-T.  G and
    P come from two RK4 flows, so rho holds their O(h^4) gap: with B = 0
    it is 2e-8 at K=4, delta=0.3, 64 substeps; 3e-13 at cubic-sensor
    K=16, delta=0.01.
    """
    G, P = _certificate_pencil(system, table)
    L = np.linalg.cholesky(G)
    W = np.linalg.solve(L, np.linalg.solve(L, G - P).T)
    return float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])


# ---------------------------------------------------------------------------
# table files


# The header keys in file order, each with its type; every int is a count,
# and those of _POSITIVE are at least 1, as build_basis and enumerate_counts need.
_HEADER = {"version": int, "K": int, "r": int, "delta": float, "N": int, "n": int,
           "substeps": int, "basis_d": int}
_POSITIVE = ("K", "r", "n", "basis_d")


def encode_header(fields: dict) -> str:
    """Table file header: 'version=2', then one 'key=value' line per field."""
    return "".join(f"{key}={val}\n" for key, val in {"version": 2, **fields}.items())


def decode_header(path, lines) -> dict:
    """Inverse of encode_header: {key: value} of the header lines `lines`.

    Only version 2 is read.  The lines must hold the keys of _HEADER, in
    order; a count below its least value (0, or 1 for _POSITIVE) is
    rejected.  A fault raises a ValueError naming the file and the key.
    """
    if lines and lines[0] != "version=2":
        key, _, value = lines[0].partition("=")
        version = value if key == "version" else None
        raise ValueError(f"{path}: unsupported table version {version!r}; write the table "
                         f"again with `precompute`")
    if len(lines) < len(_HEADER):
        raise ValueError(f"{path}: truncated header: expected {len(_HEADER)} lines, "
                         f"found {len(lines)}")
    header = {}
    for number, ((key, cast), line) in enumerate(zip(_HEADER.items(), lines), 1):
        name, eq, value = line.partition("=")
        if (name, eq) != (key, "="):
            raise ValueError(f"{path}: table header: line {number}: expected '{key}=', "
                             f"found {line!r}")
        try:
            header[key] = cast(value)
        except ValueError:
            raise ValueError(f"{path}: table header: {key} is not "
                             f"{'an integer' if cast is int else 'a float'}: {value!r}") from None
        if cast is int and header[key] < (key in _POSITIVE):
            sign = "nonnegative" if header[key] < 0 else "positive"
            raise ValueError(f"{path}: table header: {key} is not a {sign} integer: {value!r}")
    return header


def _index_count(N: int, slots: int):
    """binom(slots + N, N) if it is at most 2**63, else None.

    The product runs over the smaller of N and slots, and each factor
    (larger + i) / i is at least 2, so it stops within 64 steps however
    large the header's counts are (math.comb would form every digit).
    """
    count, larger = 1, max(N, slots)
    for i in range(1, min(N, slots) + 1):
        count = count * (larger + i) // i
        if count > 2 ** 63:
            return None
    return count


def save_table(path, table: PropagatorTable) -> None:
    """Write a table file: the header, then the matrices as one block of raw LE floats."""
    header = encode_header({
        "K": table.K, "r": table.r, "delta": f"{table.delta:.17g}", "N": table.N,
        "n": table.n, "substeps": table.substeps, "basis_d": table.basis.d})
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(table.matrices, dtype="<f8"))


def load_table(path) -> PropagatorTable:
    """Inverse of save_table, at a cost bounded by the size of the file.

    The header's counts are outside input: the index count is never
    formed past 2**63 (_index_count), the body must hold exactly its
    matrices before anything is built, and neither the count rows nor
    the basis may have more entries than the file has bytes.  A fault
    raises a ValueError naming the file: the key of a bad header line;
    for a short body the expected against the found bytes; for a long
    one the byte offset where the extra content starts.
    """
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if not stat.S_ISREG(st.st_mode):     # the body is read by the file's size
            raise ValueError(f"{path}: not a regular file")
        lines = []
        while len(lines) < len(_HEADER) and (line := fh.readline()).endswith(b"\n"):
            lines.append(line[:-1].decode("ascii", errors="replace"))
        h = decode_header(path, lines)
        K, N, n, r, d = h["K"], h["N"], h["n"], h["r"], h["basis_d"]
        start, size = fh.tell(), st.st_size
        count, block, body = _index_count(N, n * r), 8 * K * K, size - start
        if count is None or count * block > body:
            expected = f"more than {body}" if count is None else count * block
            raise ValueError(f"{path}: truncated: expected {expected} bytes of matrices after "
                             f"the header (N={N}, n={n}, r={r}, K={K}), found {body}")
        if count * block < body:
            raise ValueError(f"{path}: byte offset {start + count * block}: unexpected content "
                             f"after the {count} matrices")
        for what, entries in ((f"the index set of N={N}, n={n}, r={r}", count * n * r),
                              (f"the basis of basis_d={d}, K={K}", K * d)):
            if entries > size:
                raise ValueError(f"{path}: table header: {what} has {entries} entries, more "
                                 f"than the file's {size} bytes")
        mats = np.empty((count, K, K), dtype="<f8")
        if fh.readinto(mats) != body:
            raise ValueError(f"{path}: truncated while it was read")
    return PropagatorTable(K=K, r=r, delta=h["delta"], N=N, n=n, substeps=h["substeps"],
                           basis=build_basis(d, K), counts=enumerate_counts(N, n, r),
                           matrices=mats.astype(float, copy=False))
