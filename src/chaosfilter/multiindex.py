"""Sparse multi-indices over (temporal mode, channel) slots.

A multi-index assigns a nonnegative count to each pair ``(k, l)`` with
``k >= 1`` a temporal mode and ``1 <= l <= r`` a noise channel; only
finitely many counts are nonzero and zeros are never stored.  This
module does the bookkeeping for truncated chaos expansions: enumeration
of the truncated index set, the factorial alpha! of a count row, and the
table of Hermite polynomials behind the Wick products xi_alpha.  The
truncated set itself is stored as a count array (see enumerate_counts);
MultiIndex objects are built from its rows on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Factorials of per-slot counts above this are refused; chaos orders in
# practice stay below 10, so the guard is purely diagnostic.
MAX_ENTRY_FOR_FACTORIAL = 20


@dataclass(frozen=True)
class MultiIndex:
    """Immutable sparse multi-index.

    entries: tuple of ((k, l), count), sorted by (k, l), all counts >= 1.
    r: number of channels (bounds l).
    """

    entries: tuple[tuple[tuple[int, int], int], ...]
    r: int

    def __post_init__(self):
        _check_entries(self.entries, self.r)

    @classmethod
    def from_dict(cls, counts: dict[tuple[int, int], int], r: int) -> "MultiIndex":
        items = tuple(sorted(((k, l), c) for (k, l), c in counts.items() if c != 0))
        return cls(items, r)

    def count(self, k: int, l: int) -> int:
        for slot, c in self.entries:
            if slot == (k, l):
                return c
        return 0

    @property
    def length(self) -> int:
        """|alpha|: total of all counts."""
        return sum(c for _, c in self.entries)

    @property
    def order(self) -> int:
        """d(alpha): largest temporal mode carrying mass, 0 if empty."""
        return max((k for (k, _), _ in self.entries), default=0)

    def is_empty(self) -> bool:
        return not self.entries


def _check_entries(entries, r: int) -> None:
    """A ValueError unless entries are those of a MultiIndex with r channels."""
    if r < 1:
        raise ValueError(f"channel count r must be >= 1, got {r}")
    prev = None
    for (k, l), count in entries:
        if k < 1 or not 1 <= l <= r:
            raise ValueError(f"slot ({k}, {l}) out of range for r={r}")
        if count < 1:
            raise ValueError(f"stored count must be >= 1, got {count} at ({k}, {l})")
        if prev is not None and (k, l) <= prev:
            raise ValueError("entries must be strictly sorted by (k, l)")
        prev = (k, l)


def _compositions_desc(total, slots):
    # Compositions of `total` into `slots` parts, descending lexicographic.
    # The next one moves a unit from the last nonzero part before the final
    # part into the part after it, together with the whole final part.
    vec = [total] + [0] * (slots - 1)
    while True:
        yield tuple(vec)
        i = slots - 2
        while i >= 0 and not vec[i]:
            i -= 1
        if i < 0:
            return
        vec[i] -= 1
        rest, vec[-1] = vec[-1], 0
        vec[i + 1] = rest + 1


def row_entries(row, r: int) -> tuple:
    """((k, l), count) entries of a count row: column (k-1) r + l-1 holds alpha_k^l."""
    return tuple(((s // r + 1, s % r + 1), c) for s, c in enumerate(row) if c)


def canonical_rows(N: int, n: int, r: int):
    """Count rows of every index with |alpha| <= N and d(alpha) <= n, in canonical order.

    The order is graded by |alpha|; within a grade, the rows are listed in
    descending lexicographic order, so mass on low temporal modes and
    channels comes first.  There are binom(n*r + N, N) of them, each a
    tuple of n*r counts.
    """
    if N < 0 or n < 1 or r < 1:
        raise ValueError(f"need N >= 0, n >= 1, r >= 1, got N={N}, n={n}, r={r}")
    for grade in range(N + 1):
        yield from _compositions_desc(grade, n * r)


def enumerate_counts(N: int, n: int, r: int) -> np.ndarray:
    """(binom(n*r + N, N), n*r) array of canonical_rows: the truncated index set."""
    return np.array(list(canonical_rows(N, n, r)), dtype=np.intp)


def enumerate_truncated(N: int, n: int, r: int) -> list[MultiIndex]:
    """The indices of canonical_rows as MultiIndex objects, in the same order."""
    return [MultiIndex(row_entries(row, r), r) for row in canonical_rows(N, n, r)]


def count_factorial(counts) -> int:
    """The product of c! over an index's per-slot counts: alpha! (1 for none)."""
    out = 1
    for c in counts:
        if c > MAX_ENTRY_FOR_FACTORIAL:
            raise ValueError(f"entry count {c} exceeds the factorial guard "
                             f"({MAX_ENTRY_FOR_FACTORIAL}); refusing to overflow")
        out *= math.factorial(c)
    return out


def hermite_table(N: int, x) -> np.ndarray:
    """(N + 1, *shape(x)) values H_0(x) .. H_N(x) from one pass of the recurrence.

    Probabilists' Hermite polynomials: H_0 = 1, H_1 = x,
    H_{m+1}(x) = x H_m(x) - m H_{m-1}(x).
    """
    if N < 0:
        raise ValueError(f"degree must be >= 0, got {N}")
    x = np.asarray(x, dtype=float)
    out = np.empty((N + 1,) + x.shape)
    out[0] = 1.0
    if N:
        out[1] = x
    for m in range(1, N):
        row = out[m + 1, ...]                   # a view, also for scalar x
        np.multiply(x, out[m], out=row)
        row -= m * out[m - 1]
    return out
