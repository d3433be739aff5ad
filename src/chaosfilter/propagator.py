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
consistently; the dependency structure is exposed for inspection through
coupling_groups.
"""

from __future__ import annotations

import contextvars
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galerkin import GalerkinSystem
from .hermite import SpatialBasis, basis_fields, decode_header, encode_header
from .multiindex import (MultiIndex, enumerate_truncated, factorial, from_line, lower, slot_counts,
                         to_line)


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


def _lowering(indices, r: int):
    """Fixed pattern of the lowering operator C(s) of _integrate_stacked.

    C(s) is a CSR matrix of shape (|J|, r n_src) holding coeff * m_k(s)
    at row dst, column (l-1) n_src + src for each coupling of
    coupling_groups; n_src = 1 + the largest source, so the top layer,
    which is never a source, is left out.  Returns (C, coeff, mode) with
    coeff and the 0-based mode k-1 aligned with C.data, or None when
    nothing couples (N = 0).
    """
    from scipy import sparse    # imported here for cold start: the online half never loads scipy
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


def _integrate_stacked(system: GalerkinSystem, tbasis: TemporalBasis, indices, S0, substeps):
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
    lowering = _lowering(indices, system.r)
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


def solve_phi(system: GalerkinSystem, tbasis: TemporalBasis, alpha: MultiIndex, zeta,
              substeps: int | None = None) -> np.ndarray:
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
    indices = enumerate_truncated(alpha.length, max(alpha.order, 1), alpha.r)
    S0 = np.zeros((len(indices), system.K, 1))
    S0[0, :, 0] = zeta
    S = _integrate_stacked(system, tbasis, indices, S0, substeps)
    return S[indices.index(alpha), :, 0].copy()


@dataclass(frozen=True)
class PropagatorTable:
    """Per-index flow matrices over the truncated chaos set.

    matrices[a][:, k] is phi_alpha(delta; u^k) for the a-th index in the
    canonical enumeration and the k-th standard unit vector.
    """

    K: int
    r: int
    delta: float
    N: int
    n: int
    substeps: int
    basis: SpatialBasis
    indices: tuple[MultiIndex, ...]
    matrices: np.ndarray    # (n_indices, K, K)

    def matrix_for(self, alpha: MultiIndex) -> np.ndarray:
        return self.matrices[self.indices.index(alpha)]

    @cached_property
    def counts(self) -> np.ndarray:
        """(n_indices, n*r) per-slot counts of the indices (multiindex.slot_counts)."""
        return slot_counts(self.indices, self.n, self.r)

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
        out = np.zeros((max(1, min(self.N, slots)), len(self.indices)), dtype=np.intp)
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
    indices = enumerate_truncated(N, n, system.r)
    S0 = np.zeros((len(indices), system.K, system.K))
    S0[0] = np.eye(system.K)     # canonical order starts with the empty index
    S = _integrate_stacked(system, tbasis, indices, S0, substeps)
    return PropagatorTable(K=system.K, r=system.r, delta=tbasis.delta, N=N, n=n,
                           substeps=substeps, basis=system.basis,
                           indices=tuple(indices), matrices=S)


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
    for alpha, v in zip(table.indices, vectors):
        m = float(v @ v) / factorial(alpha)
        by_layer[alpha.length] = by_layer.get(alpha.length, 0.0) + m
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
    scale = np.array([1.0 / math.sqrt(factorial(alpha)) for alpha in table.indices])
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


def save_table(path, table: PropagatorTable) -> None:
    """Write a table file: the header, then per index its line and K*K raw LE floats."""
    b = table.basis
    header = encode_header({
        "format": "binary", "K": table.K, "r": table.r,
        "delta": f"{table.delta:.17g}", "N": table.N, "n": table.n, "substeps": table.substeps,
        "basis_d": b.d, **basis_fields(b), "indices": len(table.indices)})
    mats = np.ascontiguousarray(table.matrices, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for alpha, mat in zip(table.indices, mats):
            fh.write((to_line(alpha) + "\n").encode("ascii"))
            fh.write(mat.tobytes(order="C"))


def _line(fh):
    """The next line of fh without its newline, or None when no newline is left.

    Bytes that are not ASCII decode to U+FFFD, so that the parse of the
    line, not the decode, names them.
    """
    line = fh.readline()
    return line[:-1].decode("ascii", errors="replace") if line.endswith(b"\n") else None


def _index(path, header: dict, a: int, line: str | None):
    """The index on line `line` of block a; a ValueError names a missing or bad line."""
    count = header["indices"]
    if line is None:
        raise ValueError(f"{path}: truncated at index line {a + 1}: expected {count} "
                         f"index blocks, found {a}")
    try:
        alpha = from_line(line, header["r"])
    except ValueError as exc:
        raise ValueError(f"{path}: index line {a + 1} of {count}: expected 'k:l:count' "
                         f"triples or '-', found {line!r} ({exc})") from None
    if alpha.length > header["N"] or alpha.order > header["n"]:
        raise ValueError(f"{path}: index line {a + 1} of {count}: {line!r} has "
                         f"|alpha| = {alpha.length} and d(alpha) = {alpha.order}, "
                         f"expected at most N = {header['N']} and n = {header['n']}")
    return alpha


def _walk(path, fh, header: dict, K: int):
    """(indices, mats) of every block, read one at a time.

    The matrices are stacked once all are read, so a header that declares
    more than the file holds costs no more memory than the file.  Raises a
    ValueError naming the file and the block of the first fault in file
    order.
    """
    count, nbytes = header["indices"], K * K * 8
    indices, mats = [], []
    for a in range(count):
        indices.append(_index(path, header, a, _line(fh)))
        raw = fh.read(nbytes)
        if len(raw) < nbytes:
            raise ValueError(f"{path}: truncated matrix {a + 1} of {count}: expected "
                             f"{nbytes} bytes, found {len(raw)}")
        mats.append(np.frombuffer(raw, dtype="<f8"))
    return indices, np.array(mats, dtype=float).reshape(count, K, K)


def _reject_trailing(path, fh, count: int) -> None:
    """Raise a ValueError if anything but whitespace follows the declared blocks.

    fh stands right after the last block; the error names the byte offset
    where the extra content starts.
    """
    start, rest = fh.tell(), fh.read()
    if tail := rest.lstrip():
        raise ValueError(f"{path}: byte offset {start + len(rest) - len(tail)}: unexpected "
                         f"content after the {count} declared index blocks")


def load_table(path) -> PropagatorTable:
    """Inverse of save_table.

    A truncated or malformed file, or one whose format is not binary,
    raises a ValueError naming the file and the header key or the index
    block; content other than whitespace after the declared blocks, the
    byte offset it starts at.
    """
    with open(path, "rb") as raw:
        fh = io.BytesIO(raw.read())
    lines = [_line(fh) for _ in range(12)]      # past a None, every line is None
    if None in lines:
        raise ValueError(f"{path}: truncated header: expected 12 lines, "
                         f"found {lines.index(None)}")
    header, basis = decode_header(path, lines, {
        "format": ("binary",), "r": int, "delta": float, "N": int, "n": int,
        "substeps": int, "indices": int})
    indices, mats = _walk(path, fh, header, basis.K)
    _reject_trailing(path, fh, header["indices"])
    return PropagatorTable(K=basis.K, r=header["r"], delta=header["delta"], N=header["N"],
                           n=header["n"], substeps=header["substeps"], basis=basis,
                           indices=tuple(indices), matrices=mats)
