"""Online recursion: observation windows to density coefficients.

Each window of length delta is reduced to the stochastic integrals
xi_{k,l} of the cosine modes against the observation path, the Wick
products of those integrals weight the precomputed flow matrices into a
single step matrix Q, and the coefficient vector advances by p <- Q p.
Densities and conditional estimates are then linear reads of p.  One
window loop advances a stack of paths together; run_filter feeds it one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import (SpatialBasis, basis_tables, decode_rows, first_non_float, read_text,
                      write_rows)
from .multiindex import hermite_table
from .propagator import PropagatorTable, TemporalBasis, max_sample_spacing


class DegenerateNormalizationError(RuntimeError):
    """Normalization mass overflowed or fell below the floor; estimates are meaningless."""


def _mass_fault(den: float, floor: float) -> str:
    """How a normalization mass fails the floor check, for the error message."""
    return "not finite" if not math.isfinite(den) else f"below the floor {floor:.3e}"


_FLOOR_REL = 1e-12  # default degenerate-normalization floor, relative to the initial mass


@dataclass(frozen=True)
class ObservationWindow:
    """Uniformly sampled observation slice covering one step window."""

    t_start: float
    t_end: float
    times: np.ndarray    # (npts,), includes both endpoints
    values: np.ndarray   # (npts, r)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("window needs at least two samples")
        spacing = np.diff(t)
        if np.any(spacing <= 0):
            raise ValueError("window times must be strictly increasing")
        if abs(t[0] - self.t_start) > 1e-12 or abs(t[-1] - self.t_end) > 1e-12:
            raise ValueError("window samples must span exactly [t_start, t_end]")
        ref = (self.t_end - self.t_start) / (t.size - 1)
        if np.max(np.abs(spacing - ref)) > 1e-12 * max(1.0, abs(ref)):
            raise ValueError("window sampling must be uniform")

    @property
    def delta(self) -> float:
        return self.t_end - self.t_start


@functools.lru_cache(maxsize=32)
def _trapezoid_weights(tbasis: TemporalBasis, npts: int) -> np.ndarray:
    """(n, npts) weights of the by-parts trapezoid rule on linspace(0, delta, npts).

    Row k-1 applied to the samples gives m_k(delta) Y_end - m_k(0) Y_0
    - sum_j (Y_j + Y_{j+1})/2 * (m_k(s_{j+1}) - m_k(s_j)).  Read-only.
    """
    m = tbasis.modes(np.linspace(0.0, tbasis.delta, npts))
    half = 0.5 * np.diff(m, axis=1)
    w = np.zeros_like(m)
    w[:, :-1] -= half
    w[:, 1:] -= half
    w[:, 0] -= m[:, 0]
    w[:, -1] += m[:, -1]
    w.flags.writeable = False
    return w


def _xi_weights(tbasis: TemporalBasis, length: float, npts: int) -> np.ndarray:
    """Trapezoid weights for a window of `length` sampled at npts points, after checking both."""
    if abs(length - tbasis.delta) > 1e-9 * tbasis.delta:
        raise ValueError(f"window length {length:.17g} differs from the temporal basis "
                         f"length {tbasis.delta:.17g}")
    spacing, max_spacing = length / (npts - 1), max_sample_spacing(tbasis.delta, tbasis.n)
    if spacing > max_spacing * (1.0 + 1e-9):
        raise ValueError(
            f"window spacing {spacing:.3g} too coarse: need <= delta/(8 n) "
            f"= {max_spacing:.3g} to resolve the fastest cosine"
        )
    return _trapezoid_weights(tbasis, npts)


def xi_integrals(window: ObservationWindow, tbasis: TemporalBasis) -> np.ndarray:
    """Mode integrals of the observation increments over one window; row k-1 holds mode k.

    Each mode integrates by parts and discretizes the remaining Riemann
    term with the trapezoidal rule, whose m-differences telescope, so
    constant paths give zero up to rounding and mode 1 gives the scaled
    increment (Y(t_end) - Y(t_start))/sqrt(delta).  The rule is linear in
    the samples: one cached (n, npts) weight matrix per sample count.
    """
    weights = _xi_weights(tbasis, window.delta, window.times.size)
    return weights @ np.ascontiguousarray(window.values, dtype=float)


@functools.lru_cache(maxsize=32)
def _factorials(N: int) -> np.ndarray:
    """(N + 1,) factorials 0! .. N! as floats.  Read-only."""
    out = np.array([math.factorial(c) for c in range(N + 1)], dtype=float)
    out.flags.writeable = False
    return out


def _hermite_table(table: PropagatorTable, xi: np.ndarray) -> np.ndarray:
    """(..., (N+1) n r) values H_c(xi_slot) / c!, c <= N, at c n r + slot.

    xi is (..., n', r) with n' >= n; only its first n modes are read.
    """
    n, r, N = table.n, table.r, table.N
    if xi.shape[-2] < n or xi.shape[-1] != r:
        raise ValueError(f"xi of shape {xi.shape[-2:]} does not cover the table's ({n}, {r}) slots")
    x = xi[..., :n, :].reshape(-1, n * r)      # slot (k-1)*r + l-1
    H = hermite_table(N, x)
    H /= _factorials(N)[:, None, None]
    return H.transpose(1, 0, 2).reshape(*xi.shape[:-2], (N + 1) * n * r)


def _chaos_weights(table: PropagatorTable, H: np.ndarray) -> np.ndarray:
    """(..., |J|) chaos weights from a Hermite table of _hermite_table.

    The weight of an index is its Wick product divided by alpha!, the
    product of H_c(xi_slot) / c! over its used slots: at most N factors,
    gathered with the table's pick and multiplied in ascending slot
    order, the padding factors being exactly 1.  C-contiguous, so that
    each row takes the same BLAS path in a stacked product as on its own.
    """
    return np.multiply.reduce(H.take(table.pick, axis=-1), axis=-2)


def _weighted_sum(table: PropagatorTable, W: np.ndarray) -> np.ndarray:
    """(P, K, K) step matrices sum_a W[p, a] matrices[a], one gemv per path."""
    K = table.K
    return np.matmul(W[:, None, :], table.matrices.reshape(W.shape[1], K * K)).reshape(-1, K, K)


def step_matrix(table: PropagatorTable, xi) -> np.ndarray:
    """One-window transition matrix Q from the table and the (n', r) xi integrals, n' >= n.

    Each index contributes its flow matrix weighted by the Wick product
    divided by alpha!, so that p <- Q p reproduces the truncated chaos
    recursion.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 2:
        raise ValueError(f"xi of shape {xi.shape} does not cover the table's "
                         f"({table.n}, {table.r}) slots")
    return _weighted_sum(table, _chaos_weights(table, _hermite_table(table, xi))[None])[0]


@dataclass(frozen=True, slots=True)
class FilterState:
    t: float
    p: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.p).all():
            raise ValueError("filter state has non-finite entries")


def advance(state: FilterState, Q: np.ndarray, delta: float) -> FilterState:
    """p <- Q p, t <- t + delta."""
    t = state.t + delta
    try:
        return FilterState(t=t, p=Q @ state.p)
    except ValueError:
        raise FloatingPointError(f"filter state became non-finite at t={t}") from None


def density_at(state: FilterState, basis: SpatialBasis, x):
    """Pointwise synthesis sum_j p_j e_j(x).

    Truncation can make this negative; values are reported as-is because
    clipping would destroy linearity in the state.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 0 or (x.ndim == 1 and basis.d > 1)
    pts = np.atleast_1d(x).reshape(-1, basis.d)
    V = basis_tables(basis, pts)
    vals = state.p @ V
    return float(vals[0]) if single else vals


def negative_mass_fraction(state: FilterState, basis: SpatialBasis, grid) -> float:
    """Diagnostic: |negative part| / total |mass| of the synthesized density."""
    V = basis_tables(basis, grid.nodes)
    vals = state.p @ V
    neg = -np.sum(grid.weights * np.minimum(vals, 0.0))
    tot = np.sum(grid.weights * np.abs(vals))
    return float(neg / tot) if tot > 0 else 0.0


def functional(state: FilterState, f_coeffs) -> float:
    """Unnormalized estimate sum_j f_j p_j."""
    return float(state.p @ np.asarray(f_coeffs, dtype=float))


def _reads(p: np.ndarray, f_coeffs) -> np.ndarray:
    """functional for each row of p (P, K): the same dot product per row, stacked."""
    return np.matmul(p[:, None, :], np.asarray(f_coeffs, dtype=float))[:, 0]


def estimate(state: FilterState, f_coeffs, one_coeffs, floor: float = 0.0) -> float:
    """Normalized estimate functional(f) / functional(1).

    Raises DegenerateNormalizationError when the normalizing mass is not
    finite or falls to the floor in magnitude: past that point the filter
    has diverged or the truncation collapsed, and a silent value would be
    meaningless.
    """
    num = functional(state, f_coeffs)
    den = functional(state, one_coeffs)
    if not math.isfinite(den) or abs(den) <= floor or den == 0.0:
        raise DegenerateNormalizationError(
            f"normalization mass {den:.3e} at t={state.t} is {_mass_fault(den, floor)}")
    return num / den


# ---------------------------------------------------------------------------
# replay files and the multi-window driver


def write_samples(path, delta_obs: float, width_key: str, times, values) -> None:
    """Replay/truth file: 'delta_obs=', '<width_key>=m', then 't v_1 .. v_m' lines."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and np.asarray(times).size != 1:
        values = values.T
    write_rows(path, f"delta_obs={delta_obs:.17g}\n{width_key}={values.shape[1]}\n",
               "%.17g " + " ".join(["%.17g"] * values.shape[1]) + "\n",
               np.column_stack([np.asarray(times, dtype=float), values]))


def write_observations(path, delta_obs: float, times, values) -> None:
    """Replay file: 'delta_obs=', 'r=', then one 't y_1 .. y_r' line per sample."""
    write_samples(path, delta_obs, "r", times, values)


def _header_value(path, lines, k: int, key: str, cast):
    """cast of the value on the k-th (number, line) pair, which must read '<key>=<value>'."""
    if k >= len(lines):
        raise ValueError(f"{path}: missing header line '{key}=', found {len(lines)} lines")
    number, line = lines[k]
    name, eq, value = line.partition("=")
    if not eq or name.strip() != key:
        raise ValueError(f"{path}: line {number}: expected '{key}=', found {line!r}")
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{path}: line {number}: {key} is not "
                         f"{'an integer' if cast is int else 'a float'}: {value!r}") from None


def read_observations(path):
    """Inverse of write_observations; returns (delta_obs, r, times, values).

    The sample rows are decoded in bulk; a file that does not decode is
    read again line by line, which accepts exactly what float() accepts.
    A malformed file raises a ValueError naming the file and the line.
    """
    lines = read_text(path).split("\n")     # read_text translated the newlines, as open() does
    numbered = ((number, line) for number, raw in enumerate(lines, 1) if (line := raw.strip()))
    head = list(itertools.islice(numbered, 2))
    delta_obs = _header_value(path, head, 0, "delta_obs", float)
    r = _header_value(path, head, 1, "r", int)
    if r < 1:
        raise ValueError(f"{path}: line {head[1][0]}: r must be >= 1, got {r}")
    data = decode_rows(lines[head[1][0]:], 1 + r)      # the lines after 'r='
    if data is None:
        data = _sample_rows(path, list(numbered), r)
    return delta_obs, r, data[:, 0], data[:, 1:1 + r]


def _sample_rows(path, lines, r: int) -> np.ndarray:
    """The (rows, 1 + r) samples of (number, line) pairs, line by line; names the first bad line."""
    try:
        rows = [[float(tok) for tok in line.split()] for _, line in lines]
    except ValueError:
        number, (_, tok) = next((number, bad) for number, line in lines
                                if (bad := first_non_float(line.split())) is not None)
        raise ValueError(f"{path}: line {number}: expected a float, found {tok!r}") from None
    bad = next((i for i, row in enumerate(rows) if len(row) != 1 + r), None)
    if bad is not None:
        raise ValueError(f"{path}: line {lines[bad][0]}: expected {1 + r} columns, "
                         f"found {len(rows[bad])}")
    return np.array(rows).reshape(len(rows), 1 + r)


def _samples_per_window(times: np.ndarray, delta: float) -> int:
    """Sample steps per window of length delta on the uniform grid `times` (>= 2 samples)."""
    if times.size == 1:
        raise ValueError("cutting windows needs at least two samples, got one")
    spacing = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - spacing)) > 1e-12 * max(1.0, abs(spacing)):
        raise ValueError("window sampling must be uniform")
    per = delta / spacing
    per_i = int(round(per))
    if abs(per - per_i) > 1e-9 or per_i < 1:
        raise ValueError(f"window length {delta} is not a multiple of the sampling step {spacing}")
    rest = (times.size - 1) % per_i
    if rest:
        raise ValueError(f"{rest} samples from t={times[-rest]:.17g} do not fill "
                         f"a window of length {delta}")
    return per_i


def cut_windows(times, values, delta: float) -> list[ObservationWindow]:
    """Slice a uniformly sampled path into consecutive windows of length delta."""
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != times.size:
        values = values.T
    if times.size == 0:
        return []
    per_i = _samples_per_window(times, delta)
    return [ObservationWindow(t_start=float(times[i]), t_end=float(times[i + per_i]),
                              times=times[i:i + per_i + 1], values=values[i:i + per_i + 1])
            for i in range(0, times.size - 1, per_i)]


@dataclass
class FilterRun:
    times: np.ndarray       # (M+1,)
    states: np.ndarray      # (M+1, K)
    masses: np.ndarray      # (M+1,)
    estimates: np.ndarray   # (M+1,)


def _recursion(table: PropagatorTable, xi: np.ndarray, p_init, times, f_coeffs, one_coeffs,
               floor_rel: float = _FLOOR_REL):
    """Advance P paths together over M windows from their (P, M, n', r) xi integrals.

    Per window: chaos weights (P, |J|), step matrices Q (P, K, K), p <- Q p,
    one finiteness scan, the mass and estimate reads, the floor check.
    Every product is a stacked matmul, which makes the same BLAS call per
    path as on one path alone, so each path's numbers do not depend on
    the others.  `times` (M+1,) only labels errors.  Returns states
    (P, M+1, K), masses (P, M+1) and estimates (P, M+1).
    """
    P, M = xi.shape[:2]
    start = FilterState(t=times[0], p=np.asarray(p_init, dtype=float))
    floor = floor_rel * abs(functional(start, one_coeffs))
    p = np.repeat(start.p[None], P, axis=0)
    states = np.empty((P, M + 1, p.shape[1]))
    masses = np.empty((P, M + 1))
    ests = np.empty((P, M + 1))
    H = _hermite_table(table, xi)
    # the checks below name every overflow and NaN, so numpy's warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(M + 1):
            if i:
                Q = _weighted_sum(table, _chaos_weights(table, H[:, i - 1]))
                p = np.matmul(Q, p[:, :, None])[:, :, 0]
                if not np.isfinite(p).all():
                    bad = int(np.argmin(np.isfinite(p).all(axis=1)))
                    raise FloatingPointError(f"filter state of path {bad} became non-finite "
                                             f"in window {i} at t={times[i]}")
            states[:, i] = p
            masses[:, i] = den = _reads(p, one_coeffs)
            low = ~np.isfinite(den) | (np.abs(den) <= floor) | (den == 0.0)
            if low.any():
                bad = int(np.argmax(low))
                raise DegenerateNormalizationError(
                    f"normalization mass {den[bad]:.3e} of path {bad} in window {i} "
                    f"at t={times[i]} is {_mass_fault(den[bad], floor)}")
            ests[:, i] = _reads(p, f_coeffs) / den
    return states, masses, ests


def run_filter(table: PropagatorTable, tbasis: TemporalBasis, p_init, windows,
               f_coeffs, one_coeffs, floor_rel: float = _FLOOR_REL) -> FilterRun:
    """Advance the recursion over consecutive windows and read the estimate of f after each.

    The degenerate-normalization floor is floor_rel times the initial
    mass, per-run; one_coeffs is the projection of the constant 1.
    """
    xi = (np.array([xi_integrals(win, tbasis) for win in windows]) if windows
          else np.empty((0, tbasis.n, table.r)))[None]
    times = np.cumsum([windows[0].t_start if windows else 0.0, *(w.delta for w in windows)])
    states, masses, ests = _recursion(table, xi, p_init, times, f_coeffs, one_coeffs, floor_rel)
    return FilterRun(times=times, states=states[0], masses=masses[0], estimates=ests[0])


def write_state_csv(path, run: FilterRun) -> None:
    K = run.states.shape[1]
    write_rows(path, "t," + ",".join(f"p_{j + 1}" for j in range(K)) + "\n",
               ",".join(["%.17g"] * (1 + K)) + "\n", np.column_stack([run.times, run.states]))


def write_estimate_csv(path, run: FilterRun) -> None:
    write_rows(path, "t,estimate,mass\n", "%.17g,%.17g,%.17g\n",
               np.column_stack([run.times, run.estimates, run.masses]))
