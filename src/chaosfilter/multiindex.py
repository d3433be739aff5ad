"""Sparse multi-indices over (temporal mode, channel) slots.

A multi-index assigns a nonnegative count to each pair ``(k, l)`` with
``k >= 1`` a temporal mode and ``1 <= l <= r`` a noise channel; only
finitely many counts are nonzero and zeros are never stored.  These
objects do the bookkeeping for truncated chaos expansions: enumeration
of the truncated index set, characteristic sets, Hermite polynomials
and the evaluation of the normalized Wick products xi_alpha.
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
        if self.r < 1:
            raise ValueError(f"channel count r must be >= 1, got {self.r}")
        prev = None
        for (k, l), count in self.entries:
            if k < 1 or not 1 <= l <= self.r:
                raise ValueError(f"slot ({k}, {l}) out of range for r={self.r}")
            if count < 1:
                raise ValueError(f"stored count must be >= 1, got {count} at ({k}, {l})")
            if prev is not None and (k, l) <= prev:
                raise ValueError("entries must be strictly sorted by (k, l)")
            prev = (k, l)

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

    def __str__(self) -> str:
        return to_line(self)


def empty_index(r: int) -> MultiIndex:
    return MultiIndex((), r)


def _compositions_desc(total, slots):
    # Compositions of `total` into `slots` parts, descending lexicographic.
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, slots - 1):
            yield (first,) + rest


def _from_slot_vector(vec, n, r):
    counts = {}
    for s, c in enumerate(vec):
        if c:
            counts[(s // r + 1, s % r + 1)] = c
    return MultiIndex.from_dict(counts, r)


def slot_counts(indices, n: int, r: int) -> np.ndarray:
    """Inverse of _from_slot_vector, row by row: column (k-1)*r + l-1 holds alpha_k^l."""
    out = np.zeros((len(indices), n * r), dtype=np.intp)
    for a, alpha in enumerate(indices):
        for (k, l), c in alpha.entries:
            out[a, (k - 1) * r + l - 1] = c
    return out


def enumerate_truncated(N: int, n: int, r: int) -> list[MultiIndex]:
    """All multi-indices with |alpha| <= N and d(alpha) <= n, in canonical order.

    The order is graded by |alpha|; within a grade, the count vectors over
    the flattened slots (k-1)*r + l are listed in descending lexicographic
    order, so mass on low temporal modes and channels comes first.  The
    list has length binom(n*r + N, N).
    """
    if N < 0 or n < 1 or r < 1:
        raise ValueError(f"need N >= 0, n >= 1, r >= 1, got N={N}, n={n}, r={r}")
    slots = n * r
    out = []
    for grade in range(N + 1):
        for vec in _compositions_desc(grade, slots):
            out.append(_from_slot_vector(vec, n, r))
    return out


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
        counts: dict[tuple[int, int], int] = {}
        for pair in self.pairs:
            counts[pair] = counts.get(pair, 0) + 1
        return MultiIndex.from_dict(counts, r)


def characteristic_set(alpha: MultiIndex) -> CharacteristicSet:
    pairs = []
    for (k, l), c in alpha.entries:
        pairs.extend([(k, l)] * c)
    return CharacteristicSet(tuple(pairs))


def lower(alpha: MultiIndex, k: int, l: int) -> MultiIndex:
    """Decrement entry (k, l) toward zero, leaving the rest unchanged."""
    counts = dict(alpha.entries)
    c = counts.get((k, l), 0)
    if c <= 1:
        counts.pop((k, l), None)
    else:
        counts[(k, l)] = c - 1
    return MultiIndex.from_dict({kl: v for kl, v in counts.items()}, alpha.r)


def factorial(alpha: MultiIndex) -> int:
    """alpha! as the product of per-slot count factorials (1 for empty)."""
    out = 1
    for _, c in alpha.entries:
        if c > MAX_ENTRY_FOR_FACTORIAL:
            raise ValueError(
                f"entry count {c} exceeds the factorial guard "
                f"({MAX_ENTRY_FOR_FACTORIAL}); refusing to overflow"
            )
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


def to_line(alpha: MultiIndex) -> str:
    """Serialize as 'k:l:count' triples separated by spaces, '-' if empty."""
    if alpha.is_empty():
        return "-"
    return " ".join(f"{k}:{l}:{c}" for (k, l), c in alpha.entries)


def from_line(line: str, r: int) -> MultiIndex:
    """Inverse of to_line; a ValueError for a line to_line cannot write."""
    line = line.strip()
    if line == "-":
        return empty_index(r)
    if not line:
        raise ValueError("blank index line (the empty index is '-')")
    counts = {}
    for tok in line.split():
        k, l, c = (int(p) for p in tok.split(":"))
        if c < 1 or (k, l) in counts:
            raise ValueError(f"entry {tok!r}: each slot appears once, with a count >= 1")
        counts[(k, l)] = c
    return MultiIndex.from_dict(counts, r)
