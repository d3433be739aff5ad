"""Online recursion: observation windows to density coefficients.

Each window of length delta is reduced to the stochastic integrals
xi_{k,l} of the cosine modes against the observation path, the Wick
products of those integrals weight the precomputed flow matrices into a
single step matrix Q, and the coefficient vector advances by p <- Q p.
Densities and conditional estimates are then linear reads of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import SpatialBasis, basis_tables
from .multiindex import hermite_poly
from .propagator import PropagatorTable, TemporalBasis


class DegenerateNormalizationError(RuntimeError):
    """Normalization mass fell below the floor; estimates are meaningless."""


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

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.times.size - 1)


def xi_integrals(window: ObservationWindow, tbasis: TemporalBasis) -> np.ndarray:
    """Mode integrals of the observation increments over one window; row k-1 holds mode k.

    Each mode integrates by parts and discretizes the remaining Riemann
    term with the trapezoidal rule in the form
    m_k(delta) Y_end - m_k(0) Y_0 - sum_j (Y_j + Y_{j+1})/2 * (m_k diff),
    whose m-differences telescope, so constant paths give exactly zero and
    mode 1 gives the scaled increment (Y(t_end) - Y(t_start))/sqrt(delta).
    """
    max_spacing = window.delta / (8.0 * tbasis.n)
    if window.spacing > max_spacing * (1.0 + 1e-9):
        raise ValueError(
            f"window spacing {window.spacing:.3g} too coarse: need <= delta/(8 n) "
            f"= {max_spacing:.3g} to resolve the fastest cosine"
        )
    Y = np.asarray(window.values, dtype=float)
    s = window.times - window.t_start
    m = np.array([tbasis.eval(k, s) for k in range(1, tbasis.n + 1)])    # (n, npts)
    return (m[:, -1:] * Y[-1] - m[:, :1] * Y[0]
            - np.diff(m, axis=1) @ (0.5 * (Y[:-1] + Y[1:])))


def step_matrix(table: PropagatorTable, xi) -> np.ndarray:
    """One-window transition matrix Q from the table and the (n', r) xi integrals, n' >= n.

    Each index contributes its flow matrix weighted by the Wick product
    divided by alpha!, the product over slots of H_c(xi_slot) / c!, so
    that p <- Q p reproduces the truncated chaos recursion.
    """
    xi = np.asarray(xi, dtype=float)
    n, r = table.n, table.r
    if xi.ndim != 2 or xi.shape[0] < n or xi.shape[1] != r:
        raise ValueError(f"xi of shape {xi.shape} does not cover the table's ({n}, {r}) slots")
    x = xi[:n].reshape(-1)                  # slot (k-1)*r + l-1
    scaled = np.array([hermite_poly(c, x) / math.factorial(c) for c in range(table.N + 1)])
    weights = np.prod(scaled[table.counts, np.arange(x.size)], axis=1)
    return np.tensordot(weights, table.matrices, axes=(0, 0))


@dataclass(frozen=True)
class FilterState:
    t: float
    p: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.p)):
            raise ValueError("filter state has non-finite entries")


def advance(state: FilterState, Q: np.ndarray, delta: float) -> FilterState:
    """p <- Q p, t <- t + delta."""
    p = Q @ state.p
    if not np.all(np.isfinite(p)):
        raise FloatingPointError(f"filter state became non-finite at t={state.t + delta}")
    return FilterState(t=state.t + delta, p=p)


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
    return float(np.asarray(f_coeffs, dtype=float) @ state.p)


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
            f"normalization mass {den:.3e} at t={state.t} is below the floor {floor:.3e}"
        )
    return num / den


# ---------------------------------------------------------------------------
# replay files and the multi-window driver


def write_samples(path, delta_obs: float, width_key: str, times, values) -> None:
    """Replay/truth file: 'delta_obs=', '<width_key>=m', then 't v_1 .. v_m' lines."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and np.asarray(times).size != 1:
        values = values.T
    with open(path, "w", newline="\n") as fh:
        fh.write(f"delta_obs={delta_obs:.17g}\n")
        fh.write(f"{width_key}={values.shape[1]}\n")
        for t, row in zip(np.asarray(times, dtype=float), values):
            fh.write(f"{t:.17g} " + " ".join(f"{v:.17g}" for v in row) + "\n")


def write_observations(path, delta_obs: float, times, values) -> None:
    """Replay file: 'delta_obs=', 'r=', then one 't y_1 .. y_r' line per sample."""
    write_samples(path, delta_obs, "r", times, values)


def read_observations(path):
    """Inverse of write_observations; returns (delta_obs, r, times, values)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    delta_obs = float(lines[0].split("=", 1)[1])
    r = int(lines[1].split("=", 1)[1])
    rows = [[float(tok) for tok in ln.split()] for ln in lines[2:]]
    if rows:
        try:
            data = np.array(rows).reshape(len(rows), 1 + r)
        except ValueError:
            bad = next(i for i, row in enumerate(rows) if len(row) != 1 + r)
            with open(path) as fh:
                lineno = [n for n, ln in enumerate(fh, 1) if ln.strip()][bad + 2]
            raise ValueError(f"{path}: line {lineno}: expected {1 + r} columns, "
                             f"found {len(rows[bad])}") from None
        times, values = data[:, 0], data[:, 1:1 + r]
    else:
        times, values = np.empty(0), np.empty((0, r))
    return delta_obs, r, times, values


def cut_windows(times, values, delta: float) -> list[ObservationWindow]:
    """Slice a uniformly sampled path into consecutive windows of length delta."""
    times = np.asarray(times, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] != times.size:
        values = values.T
    if times.size == 0:
        return []
    if times.size == 1:
        raise ValueError("cutting windows needs at least two samples, got one")
    spacing = float(times[1] - times[0])
    per = delta / spacing
    per_i = int(round(per))
    if abs(per - per_i) > 1e-9 or per_i < 1:
        raise ValueError(f"window length {delta} is not a multiple of the sampling step {spacing}")
    rest = (times.size - 1) % per_i
    if rest:
        raise ValueError(f"{rest} samples from t={times[-rest]:.17g} do not fill "
                         f"a window of length {delta}")
    return [ObservationWindow(t_start=float(times[i]), t_end=float(times[i + per_i]),
                              times=times[i:i + per_i + 1], values=values[i:i + per_i + 1])
            for i in range(0, times.size - 1, per_i)]


@dataclass
class FilterRun:
    times: np.ndarray       # (M+1,)
    states: np.ndarray      # (M+1, K)
    masses: np.ndarray      # (M+1,)
    estimates: np.ndarray | None   # (M+1,) when f was requested


def run_filter(table: PropagatorTable, tbasis: TemporalBasis, p_init, windows,
               f_coeffs=None, one_coeffs=None, floor_rel: float = 1e-12) -> FilterRun:
    """Advance the recursion over consecutive windows.

    The degenerate-normalization floor is floor_rel times the initial
    mass, per-run.  Estimates are emitted only when f_coeffs is given
    (one_coeffs then defaults to nothing sensible and must be supplied).
    """
    state = FilterState(t=windows[0].t_start if windows else 0.0,
                        p=np.asarray(p_init, dtype=float).copy())
    want_est = f_coeffs is not None
    if want_est and one_coeffs is None:
        raise ValueError("estimates need one_coeffs (projection of the constant 1)")
    floor = 0.0
    if one_coeffs is not None:
        floor = floor_rel * abs(functional(state, one_coeffs))
    times, states, masses, ests = [], [], [], []
    for win in [None, *windows]:
        if win is not None:
            state = advance(state, step_matrix(table, xi_integrals(win, tbasis)), win.delta)
        times.append(state.t)
        states.append(state.p)
        masses.append(functional(state, one_coeffs) if one_coeffs is not None else math.nan)
        if want_est:
            ests.append(estimate(state, f_coeffs, one_coeffs, floor))
    return FilterRun(times=np.array(times), states=np.array(states), masses=np.array(masses),
                     estimates=np.array(ests) if want_est else None)


def write_state_csv(path, run: FilterRun) -> None:
    K = run.states.shape[1]
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(f"p_{j + 1}" for j in range(K)) + "\n")
        for t, row in zip(run.times, run.states):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def write_estimate_csv(path, run: FilterRun) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,estimate,mass\n")
        est = run.estimates if run.estimates is not None else np.full(run.times.shape, math.nan)
        for t, e, m in zip(run.times, est, run.masses):
            fh.write(f"{t:.17g},{e:.17g},{m:.17g}\n")
