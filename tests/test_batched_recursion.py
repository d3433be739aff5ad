"""The path-batched window loop behind run_filter and chaos_estimates.

The benchmark compares these outputs bit for bit (stepwise loop against
chaos_estimates, chaos_estimates against per-path run_filter), so the
same comparisons run here first.  The per-window loop that the batched
one replaced is kept below as its oracle.
"""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from chaosfilter import experiments
from chaosfilter.config import parse_config
from chaosfilter.galerkin import GalerkinSystem
from chaosfilter.hermite import build_basis
from chaosfilter.propagator import cosine_basis, precompute_table
from chaosfilter.runtime import (DegenerateNormalizationError, FilterState, ObservationWindow,
                                 advance, cut_windows, estimate, functional, run_filter,
                                 step_matrix, xi_integrals)

from oracles import hermite_poly


def model_setup(model, K, N, n, T, paths, seed, delta_sim=None):
    extra = f"discretization.delta_sim = {delta_sim}\n" if delta_sim else ""
    cfg = parse_config(f"model.name = {model}\ndiscretization.K = {K}\ndiscretization.N = {N}\n"
                       f"discretization.n = {n}\ndiscretization.delta = 0.01\n"
                       f"discretization.T = {T}\n{extra}run.paths = {paths}\nrun.seed = {seed}\n")
    pipe = experiments.build_pipeline(cfg)
    times, _, Y = experiments.simulate_full(cfg, pipe, paths)
    stride = int(round(cfg.resolved_delta_obs() / cfg.resolved_delta_sim()))
    return pipe, experiments.make_table(pipe), times, Y, stride


def path_windows(pipe, times, y, stride):
    return cut_windows(times[::stride], y[::stride], pipe.tbasis.delta)


def per_path_runs(pipe, table, times, Y, stride):
    return [run_filter(table, pipe.tbasis, pipe.p_init, path_windows(pipe, times, y, stride),
                       f_coeffs=pipe.f_coeffs, one_coeffs=pipe.one_coeffs) for y in Y]


def test_chaos_estimates_equal_per_path_run_filter_cubic_sensor():
    # the mc-cubic setting: delta_sim = delta_obs, so the windows are unstrided
    pipe, table, times, Y, stride = model_setup("cubic-sensor", 16, 2, 4, 1.0, 10, 5,
                                                delta_sim=0.0003125)
    assert stride == 1 and len(table.indices) == 15
    _, est = experiments.chaos_estimates(pipe, table, times, Y, stride)
    ref = np.array([run.estimates for run in per_path_runs(pipe, table, times, Y, stride)])
    assert est.shape == (10, 101)
    assert np.array_equal(est, ref)
    _, one = experiments.chaos_estimates(pipe, table, times, Y[3:4], stride)
    assert np.array_equal(one, ref[3:4])


def test_chaos_estimates_equal_per_path_run_filter_two_channels():
    rng = np.random.default_rng(21)
    K, r, delta, n, per, M, P = 4, 2, 0.1, 3, 48, 6, 5
    system = GalerkinSystem(K=K, r=r, A=rng.normal(size=(K, K)),
                            B=0.5 * rng.normal(size=(r, K, K)), basis=build_basis(1, K))
    tb = cosine_basis(delta, n)
    table = precompute_table(system, tb, 2, n)
    pipe = SimpleNamespace(cfg=SimpleNamespace(delta=delta, T=M * delta), tbasis=tb,
                           p_init=np.abs(rng.normal(size=K)) + 1.0, f_coeffs=rng.normal(size=K),
                           one_coeffs=np.abs(rng.normal(size=K)) + 1.0)
    stride, npts = 2, 2 * per * M + 1                    # strided windows, as cut from a fine path
    times = np.linspace(0.0, M * delta, npts)
    dY = rng.normal(scale=math.sqrt(M * delta / (npts - 1)), size=(P, npts - 1, r))
    Y = np.concatenate([np.zeros((P, 1, r)), np.cumsum(dY, axis=1)], axis=1)
    _, est = experiments.chaos_estimates(pipe, table, times, Y, stride)
    ref = np.array([run.estimates for run in per_path_runs(pipe, table, times, Y, stride)])
    assert np.array_equal(est, ref)
    _, one = experiments.chaos_estimates(pipe, table, times, Y[:1], stride)
    assert np.array_equal(one, ref[:1])


def test_stepwise_loop_equals_run_filter_bitwise():
    # the live-correlated setting, on a shorter horizon
    pipe, table, times, Y, stride = model_setup("correlated-ou", 32, 3, 8, 0.2, 1, 3,
                                                delta_sim=0.00015625)
    windows = path_windows(pipe, times, Y[0], stride)
    run = run_filter(table, pipe.tbasis, pipe.p_init, windows,
                     f_coeffs=pipe.f_coeffs, one_coeffs=pipe.one_coeffs)
    state = FilterState(t=windows[0].t_start, p=pipe.p_init.copy())
    floor = 1e-12 * abs(functional(state, pipe.one_coeffs))
    states, masses = [state.p], [functional(state, pipe.one_coeffs)]
    ests = [estimate(state, pipe.f_coeffs, pipe.one_coeffs, floor)]
    for win in windows:
        state = advance(state, step_matrix(table, xi_integrals(win, pipe.tbasis)), win.delta)
        states.append(state.p)
        masses.append(functional(state, pipe.one_coeffs))
        ests.append(estimate(state, pipe.f_coeffs, pipe.one_coeffs, floor))
    assert np.array_equal(np.array(states), run.states)
    assert np.array_equal(np.array(masses), run.masses)
    assert np.array_equal(np.array(ests), run.estimates)
    assert state.t == run.times[-1]
    _, est = experiments.chaos_estimates(pipe, table, times, Y, stride)
    assert np.array_equal(est[0], run.estimates)


# The per-window run_filter loop that the batched loop replaced: a cosine
# table per window, the Wick weights, tensordot, then p <- Q p.

def parent_run_filter(table, tbasis, p_init, windows, f_coeffs, one_coeffs):
    p = np.asarray(p_init, dtype=float).copy()
    states = [p]
    for win in windows:
        Y = np.asarray(win.values, dtype=float)
        s = win.times - win.t_start
        m = np.array([tbasis.eval(k, s) for k in range(1, tbasis.n + 1)])
        xi = (m[:, -1:] * Y[-1] - m[:, :1] * Y[0]
              - np.diff(m, axis=1) @ (0.5 * (Y[:-1] + Y[1:])))
        x = xi[:table.n].reshape(-1)
        scaled = np.array([hermite_poly(c, x) / math.factorial(c) for c in range(table.N + 1)])
        weights = np.prod(scaled[table.counts, np.arange(x.size)], axis=1)
        p = np.tensordot(weights, table.matrices, axes=(0, 0)) @ p
        states.append(p)
    states = np.array(states)
    masses = states @ one_coeffs
    return states, masses, (states @ f_coeffs) / masses


def assert_matches_parent_loop(pipe, table, times, Y, stride):
    for y in Y:
        windows = path_windows(pipe, times, y, stride)
        run = run_filter(table, pipe.tbasis, pipe.p_init, windows,
                         f_coeffs=pipe.f_coeffs, one_coeffs=pipe.one_coeffs)
        states, masses, ests = parent_run_filter(table, pipe.tbasis, pipe.p_init, windows,
                                                 pipe.f_coeffs, pipe.one_coeffs)
        scale = np.max(np.abs(states), axis=1)
        assert np.all(np.max(np.abs(run.states - states), axis=1) <= 1e-13 * scale)
        # the estimate is a ratio; compare it where the mass is well away from zero
        healthy = np.abs(masses) >= 0.1
        assert np.all(np.abs(run.estimates - ests)[healthy]
                      <= 1e-13 * np.maximum(1.0, np.abs(ests[healthy])))


def test_run_filter_matches_parent_loop_correlated_ou():
    pipe, table, times, Y, stride = model_setup("correlated-ou", 32, 3, 8, 0.3, 3, 7)
    assert len(table.indices) == 165
    assert_matches_parent_loop(pipe, table, times, Y, stride)


def test_run_filter_matches_parent_loop_cubic_sensor():
    pipe, table, times, Y, stride = model_setup("cubic-sensor", 16, 2, 4, 0.3, 5, 7)
    assert_matches_parent_loop(pipe, table, times, Y, stride)
    below = precompute_table(pipe.system, pipe.tbasis, 2, 2)
    assert below.n < pipe.tbasis.n
    assert_matches_parent_loop(pipe, below, times, Y, stride)


# Failures of the batched loop name the path, the window and t.

def scalar_pipe(b=0.5, windows=4):
    """K = 1, A = 0, one chaos layer: Q = 1 + b dY over a window of length 1."""
    system = GalerkinSystem(K=1, r=1, A=np.zeros((1, 1)), B=np.full((1, 1, 1), b),
                            basis=build_basis(1, 1))
    tb = cosine_basis(1.0, 1)
    pipe = SimpleNamespace(cfg=SimpleNamespace(delta=1.0, T=float(windows)), tbasis=tb,
                           p_init=np.array([1.0]), f_coeffs=np.array([2.0]),
                           one_coeffs=np.array([1.0]))
    times = np.linspace(0.0, windows, 8 * windows + 1)
    return pipe, precompute_table(system, tb, 1, 1), times


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_diverging_path_is_named_among_good_ones():
    pipe, table, times = scalar_pipe()
    Y = np.zeros((4, times.size, 1))
    Y[2, 8 * 2 + 3] = np.inf        # inside the third window of path 2
    with pytest.raises(FloatingPointError, match=r"path 2 .*window 3 at t=3\.0"):
        experiments.chaos_estimates(pipe, table, times, Y, 1)
    _, est = experiments.chaos_estimates(pipe, table, times, Y[[0, 1, 3]], 1)
    assert np.array_equal(est, np.full((3, 5), 2.0))


def test_collapsed_path_is_named_with_mass_and_floor():
    pipe, table, times = scalar_pipe()
    Y = np.zeros((3, times.size, 1))
    Y[1, 9:] = -2.0                # dY = -2 over the second window: Q = 1 + b dY = 0
    message = r"mass .* of path 1 in window 2 at t=2\.0 is below the floor 1\.000e-12"
    with pytest.raises(DegenerateNormalizationError, match=message):
        experiments.chaos_estimates(pipe, table, times, Y, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowed_mass_is_named_not_finite():
    pipe, table, times = scalar_pipe()
    pipe.one_coeffs = np.array([1e300])
    Y = np.zeros((2, times.size, 1))
    Y[1, 1:] = 1e10                # Q = 1 + b dY = 5e9 over the first window: mass 5e309
    message = r"mass inf of path 1 in window 1 at t=1\.0 is not finite"
    with pytest.raises(DegenerateNormalizationError, match=message):
        experiments.chaos_estimates(pipe, table, times, Y, 1)
    with pytest.raises(DegenerateNormalizationError, match=r"mass inf at t=0\.5 is not finite"):
        estimate(FilterState(0.5, np.array([5e9])), np.array([2.0]), np.array([1e300]))


def test_overflowed_mass_raises_the_named_error_and_no_numpy_warning():
    pipe, table, times = scalar_pipe()
    pipe.one_coeffs = np.array([1e300])
    Y = np.zeros((2, times.size, 1))
    Y[1, 1:] = 1e10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateNormalizationError, match="is not finite"):
            experiments.chaos_estimates(pipe, table, times, Y, 1)


def test_advance_non_finite_names_t():
    with pytest.raises(FloatingPointError, match=r"non-finite at t=0\.75"):
        advance(FilterState(0.25, np.array([1.0, 2.0])),
                np.array([[np.inf, 0.0], [0.0, 1.0]]), 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        FilterState(0.0, np.array([np.nan]))


def test_xi_integrals_rejects_window_of_other_length():
    t = np.linspace(0.0, 0.5, 65)
    win = ObservationWindow(0.0, 0.5, t, t[:, None])
    with pytest.raises(ValueError, match=r"window length 0\.5 differs .* length 1\b"):
        xi_integrals(win, cosine_basis(1.0, 3))
    xi = xi_integrals(ObservationWindow(0.0, 1.0, 2 * t, 2 * t[:, None]), cosine_basis(1.0, 3))
    assert xi[0, 0] == pytest.approx(1.0, rel=1e-14)     # the scaled increment 1/sqrt(1)


def test_chaos_estimates_rejects_non_uniform_sampling():
    pipe, table, times = scalar_pipe()
    times = times.copy()
    times[5] += 1e-3
    with pytest.raises(ValueError, match="uniform"):
        experiments.chaos_estimates(pipe, table, times, np.zeros((2, times.size, 1)), 1)
