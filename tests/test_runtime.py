import math

import numpy as np
import pytest
from scipy.linalg import expm

from chaosfilter import experiments
from chaosfilter.config import parse_config
from chaosfilter.galerkin import GalerkinSystem
from chaosfilter.hermite import build_basis, project
from chaosfilter.multiindex import hermite_table
from chaosfilter.propagator import cosine_basis, precompute_table
from chaosfilter.runtime import (DegenerateNormalizationError, FilterRun, FilterState,
                                 ObservationWindow, _chaos_weights, _hermite_table,
                                 _weighted_sum, advance, cut_windows, density_at, estimate,
                                 functional, negative_mass_fraction, read_observations,
                                 run_filter, step_matrix, write_estimate_csv, write_observations,
                                 write_samples, write_state_csv, xi_integrals)

from conftest import gaussian_p0
from oracles import factorial, integrate_galerkin_sde_paths, xi_eval


def make_window(delta=1.0, npts=129, fn=None, r=1):
    t = np.linspace(0.0, delta, npts)
    y = np.zeros((npts, r)) if fn is None else np.asarray(fn(t), dtype=float).reshape(npts, r)
    return ObservationWindow(0.0, delta, t, y)


def scalar_table(b=0.5, delta=1.0, N=1, n=1):
    sys_ = GalerkinSystem(K=1, r=1, A=np.array([[0.0]]), B=np.array([[[b]]]),
                          basis=build_basis(1, 1))
    return precompute_table(sys_, cosine_basis(delta, max(n, 1)), N, n)


def test_window_validation():
    t = np.linspace(0, 1, 65)
    with pytest.raises(ValueError, match="uniform"):
        ObservationWindow(0.0, 1.0, np.concatenate([t[:32], t[33:]]), np.zeros((64, 1)))
    with pytest.raises(ValueError, match="increasing"):
        ObservationWindow(0.0, 1.0, t[::-1], np.zeros((65, 1)))
    with pytest.raises(ValueError, match="span"):
        ObservationWindow(0.0, 2.0, t, np.zeros((65, 1)))
    # every comparison with NaN is False: a NaN time must fail the bound, not pass it
    with pytest.raises(ValueError, match="uniform"):
        ObservationWindow(0.0, 1.0, np.where(np.arange(65) == 7, np.nan, t), np.zeros((65, 1)))
    for t_start, t_end in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="span"):
            ObservationWindow(t_start, t_end, t, np.zeros((65, 1)))
    with pytest.raises(ValueError, match="span"):
        ObservationWindow(0.0, 1.0, np.where(np.arange(65) == 64, np.nan, t), np.zeros((65, 1)))


def test_xi_integrals_constant_path_is_exactly_zero():
    tb = cosine_basis(1.0, 6)
    win = make_window(fn=lambda t: 3.7 * np.ones_like(t))
    xi = xi_integrals(win, tb)
    for (k, l), v in np.ndenumerate(np.abs(xi)):
        assert abs(v) < 1e-12, (k, l)


def test_xi_integrals_linear_path():
    tb = cosine_basis(1.0, 2)
    win = make_window(fn=lambda t: t)
    xi = xi_integrals(win, tb)
    assert xi[0, 0] == pytest.approx(1.0, rel=1e-14)
    assert abs(xi[1, 0]) < 1e-4


def test_xi_integrals_trapezoid_refinement_second_order():
    tb = cosine_basis(1.0, 4)
    fn = lambda t: np.sin(2.1 * t) + 0.3 * t * t
    exact = {}
    x, w = np.polynomial.legendre.leggauss(256)
    s, ws = 0.5 * (x + 1), 0.5 * w
    dfn = lambda t: 2.1 * np.cos(2.1 * t) + 0.6 * t
    for k in (2, 3, 4):
        exact[k] = float(np.sum(ws * tb.eval(k, s) * dfn(s)))
    errs = {}
    for npts in (129, 257):
        xi = xi_integrals(make_window(npts=npts, fn=fn), tb)
        errs[npts] = max(abs(xi[k - 1, 0] - exact[k]) for k in (2, 3, 4))
    assert errs[129] / errs[257] == pytest.approx(4.0, rel=0.15)


def test_xi_integrals_rejects_coarse_sampling():
    tb = cosine_basis(1.0, 8)
    win = make_window(npts=17)    # spacing 1/16 > 1/(8*8)
    with pytest.raises(ValueError, match="8 n"):
        xi_integrals(win, tb)


def test_step_matrix_n0_is_matrix_exponential(ou_system_k8):
    tb = cosine_basis(0.25, 1)
    table = precompute_table(ou_system_k8, tb, 0, 1, substeps=256)
    rng = np.random.default_rng(0)
    xi = np.array([[rng.normal()]])
    Q = step_matrix(table, xi)
    assert np.max(np.abs(Q - expm(ou_system_k8.A * 0.25))) < 1e-10


def test_step_matrix_zero_integrals_at_N1(ou_system_k8):
    tb = cosine_basis(0.25, 2)
    table = precompute_table(ou_system_k8, tb, 1, 2, substeps=256)
    xi = np.array([[0.0], [0.0]])
    Q = step_matrix(table, xi)
    assert np.max(np.abs(Q - expm(ou_system_k8.A * 0.25))) < 1e-10


def test_step_matrix_scalar_one_mode():
    b, delta = 0.5, 1.0
    table = scalar_table(b=b, delta=delta)
    dY = 0.37
    xi = np.array([[dY / math.sqrt(delta)]])
    Q = step_matrix(table, xi)
    assert Q[0, 0] == pytest.approx(1.0 + b * dY, rel=1e-12)


def test_advance_identity_and_composition():
    s0 = FilterState(t=0.0, p=np.array([1.0, 2.0]))
    s1 = advance(s0, np.eye(2), 0.5)
    assert s1.t == 0.5 and np.array_equal(s1.p, s0.p)
    rng = np.random.default_rng(3)
    Q1, Q2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    two = advance(advance(s0, Q1, 0.5), Q2, 0.5)
    one = advance(s0, Q2 @ Q1, 1.0)
    assert np.allclose(two.p, one.p, rtol=1e-14)
    assert two.t == one.t


def test_advance_scalar_window_reproduces_increment():
    b, delta = 0.5, 1.0
    table = scalar_table(b=b, delta=delta)
    tb = cosine_basis(delta, 1)
    win = make_window(fn=lambda t: 0.2 * t)    # dY over window = 0.2
    xi = xi_integrals(win, tb)
    state = advance(FilterState(0.0, np.array([2.0])), step_matrix(table, xi), delta)
    assert state.p[0] == pytest.approx(2.0 * (1.0 + b * 0.2), rel=1e-12)


def test_density_synthesis(grid64):
    basis = build_basis(1, 6)
    zero = FilterState(0.0, np.zeros(6))
    xs = np.linspace(-2, 2, 9)
    assert np.array_equal(density_at(zero, basis, xs[:, None]), np.zeros(9))
    e1 = FilterState(0.0, np.eye(6)[0])
    vals = density_at(e1, basis, xs[:, None])
    assert vals[4] == pytest.approx(math.pi ** -0.25, rel=1e-12)
    # projected Gaussian stays L2-close to the true density
    coeffs = project(gaussian_p0, basis, grid64)
    st = FilterState(0.0, coeffs)
    synth = density_at(st, basis, grid64.nodes)
    l2 = math.sqrt(np.sum(grid64.weights * (synth - gaussian_p0(grid64.nodes[:, 0])) ** 2))
    assert l2 < 5e-3


def test_functional_examples(grid64):
    basis = build_basis(1, 6)
    coeffs = project(gaussian_p0, basis, grid64)
    st = FilterState(0.0, coeffs)
    assert functional(st, np.zeros(6)) == 0.0
    assert functional(st, np.eye(6)[0]) == pytest.approx(coeffs[0])
    one = project(lambda x: np.ones_like(x), basis, grid64)
    mass = functional(st, one)
    assert mass == pytest.approx(1.0, abs=2e-3)


def test_estimate_identities(grid64):
    basis = build_basis(1, 6)
    st = FilterState(0.0, project(gaussian_p0, basis, grid64))
    one = project(lambda x: np.ones_like(x), basis, grid64)
    f = project(lambda x: x, basis, grid64)
    assert estimate(st, one, one) == 1.0
    base = estimate(st, f, one)
    for c in (1e-3, 1.0, 1e3):
        scaled = FilterState(0.0, c * st.p)
        assert estimate(scaled, f, one) == pytest.approx(base, rel=1e-13)
    with pytest.raises(DegenerateNormalizationError):
        estimate(FilterState(0.0, np.zeros(6)), f, one)
    with pytest.raises(DegenerateNormalizationError):
        estimate(st, f, one, floor=10.0)


def test_pipeline_linearity(ou_system_k8):
    tb = cosine_basis(0.25, 2)
    table = precompute_table(ou_system_k8, tb, 2, 2)
    rng = np.random.default_rng(8)
    xi = np.array([[rng.normal()], [rng.normal()]])
    Q = step_matrix(table, xi)
    p1, p2 = rng.normal(size=8), rng.normal(size=8)
    a, b = 0.3, -1.7
    lhs = advance(FilterState(0.0, a * p1 + b * p2), Q, 0.25).p
    rhs = a * advance(FilterState(0.0, p1), Q, 0.25).p + b * advance(FilterState(0.0, p2), Q, 0.25).p
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))
    f = rng.normal(size=8)
    assert functional(FilterState(0.0, a * p1 + b * p2), f) == pytest.approx(
        a * functional(FilterState(0.0, p1), f) + b * functional(FilterState(0.0, p2), f),
        rel=1e-12)


def test_negative_mass_fraction_diagnostic(grid64):
    basis = build_basis(1, 4)
    pos = FilterState(0.0, project(gaussian_p0, basis, grid64))
    assert negative_mass_fraction(pos, basis, grid64) < 0.05
    wobble = FilterState(0.0, np.array([0.0, 1.0, 0.0, 0.0]))
    assert 0.4 < negative_mass_fraction(wobble, basis, grid64) <= 0.5


def test_cut_windows_shares_endpoints():
    t = np.linspace(0.0, 1.0, 101)
    y = np.sin(t)[:, None]
    wins = cut_windows(t, y, 0.25)
    assert len(wins) == 4
    assert wins[0].times[-1] == wins[1].times[0]
    assert wins[0].values.shape == (26, 1)
    with pytest.raises(ValueError, match="multiple"):
        cut_windows(t, y, 0.3001)


def test_run_filter_replay_determinism(ou_system_k8, ou_p_init_k8, grid64, tmp_path):
    delta = 0.25
    tb = cosine_basis(delta, 2)
    table = precompute_table(ou_system_k8, tb, 2, 2)
    rng = np.random.default_rng(123)
    nsteps = 64 * 4
    t = np.linspace(0, 1.0, nsteps + 1)
    y = np.concatenate([[0.0], np.cumsum(rng.normal(scale=math.sqrt(1.0 / nsteps), size=nsteps))])
    f = project(lambda x: x, ou_system_k8.basis, grid64)
    one = project(lambda x: np.ones_like(x), ou_system_k8.basis, grid64)
    wins = cut_windows(t, y[:, None], delta)
    r1 = run_filter(table, tb, ou_p_init_k8, wins, f_coeffs=f, one_coeffs=one)
    r2 = run_filter(table, tb, ou_p_init_k8, wins, f_coeffs=f, one_coeffs=one)
    assert np.array_equal(r1.states, r2.states)
    assert np.array_equal(r1.estimates, r2.estimates)
    assert r1.states.shape == (5, 8)


def test_observation_file_round_trip(tmp_path):
    t = np.linspace(0.0, 0.5, 11)
    y = np.stack([np.sin(t), np.cos(t)], axis=1)
    path = tmp_path / "obs.txt"
    write_observations(path, 0.05, t, y)
    delta_obs, r, t2, y2 = read_observations(path)
    assert delta_obs == 0.05 and r == 2
    assert np.array_equal(t, t2) and np.array_equal(y, y2)
    # rewrite is byte-identical
    path2 = tmp_path / "obs2.txt"
    write_observations(path2, 0.05, t2, y2)
    assert path.read_bytes() == path2.read_bytes()


def test_one_window_agreement_with_fine_grid_oracle(ou_system_k8, ou_p_init_k8):
    # light version of the scaling benchmark: the recursion state tracks
    # the fine-grid integration, and more chaos layers help
    delta, nsteps, npaths = 0.5, 1024, 64
    rng = np.random.default_rng(99)
    dW = rng.normal(scale=math.sqrt(delta / nsteps), size=(npaths, nsteps))
    Y = np.concatenate([np.zeros((npaths, 1)), np.cumsum(dW, axis=1)], axis=1)
    fine = integrate_galerkin_sde_paths(ou_system_k8, Y, delta / nsteps, ou_p_init_k8)
    t = np.linspace(0, delta, nsteps + 1)
    mses = {}
    for N in (1, 3):
        tb = cosine_basis(delta, 4)
        table = precompute_table(ou_system_k8, tb, N, 4)
        errs = []
        for p in range(npaths):
            win = ObservationWindow(0.0, delta, t, Y[p][:, None])
            Q = step_matrix(table, xi_integrals(win, tb))
            errs.append(np.sum((Q @ ou_p_init_k8 - fine[p]) ** 2))
        mses[N] = np.mean(errs)
    assert mses[3] < 0.2 * mses[1]
    assert mses[3] < 1e-2


def test_cut_windows_rejects_single_sample():
    with pytest.raises(ValueError, match="at least two samples"):
        cut_windows(np.array([0.0]), np.array([[0.0]]), 0.25)


def test_read_observations_names_first_ragged_line(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("delta_obs=0.1\nr=2\n0 1 2\n\n0.1 1 2\n0.2 1\n0.3 1 2 3\n")
    with pytest.raises(ValueError, match=r"obs\.txt: line 6: expected 3 columns, found 2"):
        read_observations(path)


def test_read_observations_rejects_too_few_columns(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("delta_obs=0.1\nr=2\n0 1\n0.1 1\n0.2 1\n")
    with pytest.raises(ValueError, match=r"obs\.txt: line 3: expected 3 columns, found 2"):
        read_observations(path)


def test_read_observations_rejects_extra_columns(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("delta_obs=0.1\nr=1\n0 1 2\n0.1 1 2\n")
    with pytest.raises(ValueError, match=r"obs\.txt: line 3: expected 2 columns, found 3"):
        read_observations(path)


def test_cut_windows_rejects_trailing_partial_window():
    t = np.arange(106) * 0.01
    with pytest.raises(ValueError, match=r"5 samples from t=1\.01 do not fill a window"):
        cut_windows(t, np.sin(t)[:, None], 0.25)


# The dict-based xi integrals and step matrix that the array forms replaced,
# kept as their oracle.

def dict_xi_integrals(window, tbasis):
    delta = window.delta
    n, r = tbasis.n, window.values.shape[1]
    Y = np.asarray(window.values, dtype=float)
    s = window.times - window.t_start
    out = {}
    for l in range(1, r + 1):
        out[(1, l)] = float((Y[-1, l - 1] - Y[0, l - 1]) / math.sqrt(delta))
    for k in range(2, n + 1):
        mk = tbasis.eval(k, s)
        dm = np.diff(mk)
        for l in range(1, r + 1):
            y = Y[:, l - 1]
            stieltjes = float(np.sum(0.5 * (y[:-1] + y[1:]) * dm))
            out[(k, l)] = float(mk[-1] * y[-1] - mk[0] * y[0] - stieltjes)
    return out


def dict_step_matrix(table, xi):
    weights = np.array([xi_eval(alpha, xi) / math.sqrt(factorial(alpha))
                        for alpha in table.indices])
    return np.tensordot(weights, table.matrices, axes=(0, 0))


def brownian_windows(delta, n, r, count, seed):
    npts = 8 * n * 4 + 1
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, delta, npts)
    out = []
    for _ in range(count):
        dY = rng.normal(scale=math.sqrt(delta / (npts - 1)), size=(npts - 1, r))
        Y = np.concatenate([np.zeros((1, r)), np.cumsum(dY, axis=0)]) + rng.normal(size=r)
        out.append(ObservationWindow(0.0, delta, t, Y))
    return out


def assert_matches_dict_path(table, tb, windows):
    for win in windows:
        xi = xi_integrals(win, tb)
        ref = dict_xi_integrals(win, tb)
        assert xi.shape == (tb.n, win.values.shape[1])
        for (k, l), v in ref.items():
            assert abs(xi[k - 1, l - 1] - v) <= 1e-13 * max(1.0, abs(v)), (k, l)
        Q, Q_ref = step_matrix(table, xi), dict_step_matrix(table, ref)
        assert np.max(np.abs(Q - Q_ref)) <= 1e-13 * np.max(np.abs(Q_ref))


def test_array_step_matches_dict_path_correlated_ou():
    cfg = parse_config("model.name = correlated-ou\ndiscretization.K = 32\n"
                       "discretization.N = 3\ndiscretization.n = 8\n"
                       "discretization.delta = 0.01\ndiscretization.T = 0.05\n")
    pipe = experiments.build_pipeline(cfg)
    table = experiments.make_table(pipe)
    assert len(table.indices) == 165
    assert_matches_dict_path(table, pipe.tbasis, brownian_windows(0.01, 8, 1, 5, seed=4))


def test_array_step_matches_dict_path_two_channels():
    rng = np.random.default_rng(17)
    sys_ = GalerkinSystem(K=4, r=2, A=rng.normal(size=(4, 4)), B=rng.normal(size=(2, 4, 4)),
                          basis=build_basis(1, 4))
    tb = cosine_basis(0.1, 3)
    table = precompute_table(sys_, tb, 3, 3)
    assert_matches_dict_path(table, tb, brownian_windows(0.1, 3, 2, 5, seed=5))


def test_array_step_matches_dict_path_table_below_basis(ou_system_k8):
    tb = cosine_basis(0.25, 4)
    table = precompute_table(ou_system_k8, tb, 2, 2)
    assert table.n < tb.n
    assert_matches_dict_path(table, tb, brownian_windows(0.25, 4, 1, 5, seed=6))


# The full-slot kernel that the per-index pick replaced: every index
# multiplies one factor per slot, H_0 / 0! = 1 on its unused ones.  Kept as
# the oracle of the chaos weights and the step matrix, which must equal it
# bit for bit.

def full_slot_hermite_table(table, xi):
    n, r = table.n, table.r
    x = xi[..., :n, :].reshape(*xi.shape[:-2], n * r)
    fact = np.array([math.factorial(c) for c in range(table.N + 1)], dtype=float)
    H = hermite_table(table.N, x) / fact.reshape(-1, *[1] * x.ndim)
    return np.moveaxis(H, 0, -2).reshape(*x.shape[:-1], -1)


def full_slot_weights(table, H):
    slots = table.counts.shape[1]
    pick = table.counts.T * slots + np.arange(slots)[:, None]     # (n r, |J|) positions in H
    return np.ascontiguousarray(np.multiply.reduce(np.take(H, pick, axis=-1), axis=-2))


def full_slot_step_matrix(table, xi):
    H = full_slot_hermite_table(table, np.asarray(xi, dtype=float)[None])
    return _weighted_sum(table, full_slot_weights(table, H))[0]


def assert_kernel_equals_full_slot(table, xis):
    R = max(1, min(table.N, table.n * table.r))
    assert table.pick.shape == (R, len(table.indices))
    # the empty index uses no slot: its column is all padding, position 0
    assert np.array_equal(table.pick[:, 0], np.zeros(R))
    for xi in xis:
        assert np.array_equal(step_matrix(table, xi), full_slot_step_matrix(table, xi))
    # the window loop's layout: a (paths, windows, n', r) stack, read window by window
    stack = np.asarray(xis, dtype=float).reshape(2, -1, *np.shape(xis[0]))
    H = _hermite_table(table, stack)
    assert np.array_equal(H, full_slot_hermite_table(table, stack))
    W = _chaos_weights(table, H[:, 1])
    assert W.flags.c_contiguous and np.array_equal(W, full_slot_weights(table, H[:, 1]))


def test_kernel_equals_full_slot_correlated_ou():
    cfg = parse_config("model.name = correlated-ou\ndiscretization.K = 32\n"
                       "discretization.N = 3\ndiscretization.n = 8\n"
                       "discretization.delta = 0.01\ndiscretization.T = 0.05\n")
    pipe = experiments.build_pipeline(cfg)
    table = experiments.make_table(pipe)
    xis = [xi_integrals(win, pipe.tbasis) for win in brownian_windows(0.01, 8, 1, 40, seed=7)]
    assert_kernel_equals_full_slot(table, xis)
    # each column holds exactly its index's used slots; the busiest index uses N
    used = (table.counts > 0).sum(axis=1)
    assert used.max() == table.N == table.pick.shape[0]
    assert np.all((table.pick != 0).sum(axis=0) == used)


def test_kernel_equals_full_slot_two_channels():
    rng = np.random.default_rng(23)
    sys_ = GalerkinSystem(K=5, r=2, A=rng.normal(size=(5, 5)), B=rng.normal(size=(2, 5, 5)),
                          basis=build_basis(1, 5))
    table = precompute_table(sys_, cosine_basis(0.1, 4), 3, 3)
    assert_kernel_equals_full_slot(table, list(3.0 * rng.normal(size=(20, 4, 2))))


def test_kernel_equals_full_slot_N0(ou_system_k8):
    table = precompute_table(ou_system_k8, cosine_basis(0.25, 2), 0, 2)
    assert len(table.indices) == 1 and table.pick.shape == (1, 1)
    xis = list(np.random.default_rng(2).normal(size=(6, 2, 1)))
    assert_kernel_equals_full_slot(table, xis)
    assert np.array_equal(_chaos_weights(table, _hermite_table(table, xis[0])), [1.0])


def test_kernel_equals_full_slot_N12_one_slot():
    table = scalar_table(N=12, n=1)
    assert table.pick.shape == (1, 13)                 # R = min(N, n r) = 1
    assert np.array_equal(table.pick[0], np.arange(13))   # count c of the one slot at c n r
    xis = list(2.0 * np.random.default_rng(3).normal(size=(8, 1, 1)))
    assert_kernel_equals_full_slot(table, xis)


def test_step_matrix_rejects_xi_of_wrong_shape(ou_system_k8):
    table = precompute_table(ou_system_k8, cosine_basis(0.25, 2), 1, 2)
    with pytest.raises(ValueError, match=r"\(1, 1\).*\(2, 1\)"):
        step_matrix(table, np.zeros((1, 1)))
    with pytest.raises(ValueError, match=r"\(2, 2\).*\(2, 1\)"):
        step_matrix(table, np.zeros((2, 2)))


@pytest.mark.parametrize("text, message", [
    ("", r"missing header line 'delta_obs=', found 0 lines"),
    ("delta_obs=0.1\n", r"missing header line 'r=', found 1 lines"),
    ("delta_obs=0.1\n0 1\n0.1 1\n", r"line 2: expected 'r=', found '0 1'"),
    ("delta_obs 0.1\nr=1\n0 1\n", r"line 1: expected 'delta_obs=', found 'delta_obs 0.1'"),
    ("delta_obs=0.1\n\nr\n0 1\n", r"line 3: expected 'r=', found 'r'"),
    ("delta_obs=0.1\nr=one\n0 1\n", r"line 2: r is not an integer: 'one'"),
    ("delta_obs=fast\nr=1\n0 1\n", r"line 1: delta_obs is not a float: 'fast'"),
    ("delta_obs=0.1\nr=0\n0\n", r"line 2: r must be >= 1, got 0"),
])
def test_read_observations_names_bad_header(tmp_path, text, message):
    path = tmp_path / "obs.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"obs\.txt: " + message):
        read_observations(path)


def test_read_observations_names_line_of_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_bytes(b"delta_obs=0.1\nr=1\n0 1\n0.1 \x80\n")
    with pytest.raises(ValueError, match=r"obs\.txt: line 4: byte 0x80 is not utf-8"):
        read_observations(path)


def test_read_observations_names_line_of_non_float_sample(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("delta_obs=0.1\nr=2\n0 1 2\n\n0.1 1 2\n0.2 1 nan2\n0.3 1 x\n")
    with pytest.raises(ValueError, match=r"obs\.txt: line 6: expected a float, found 'nan2'"):
        read_observations(path)


# The per-value writers that the one-template writers replaced, kept as
# byte oracles.

def _state_csv_oracle(path, run):
    K = run.states.shape[1]
    with open(path, "w", newline="\n") as fh:
        fh.write("t," + ",".join(f"p_{j + 1}" for j in range(K)) + "\n")
        for t, row in zip(run.times, run.states):
            fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _estimate_csv_oracle(path, run):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,estimate,mass\n")
        for t, e, m in zip(run.times, run.estimates, run.masses):
            fh.write(f"{t:.17g},{e:.17g},{m:.17g}\n")


def _samples_oracle(path, delta_obs, width_key, times, values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and np.asarray(times).size != 1:
        values = values.T
    with open(path, "w", newline="\n") as fh:
        fh.write(f"delta_obs={delta_obs:.17g}\n")
        fh.write(f"{width_key}={values.shape[1]}\n")
        for t, row in zip(np.asarray(times, dtype=float), values):
            fh.write(f"{t:.17g} " + " ".join(f"{v:.17g}" for v in row) + "\n")


EXTREMES = np.array([-0.0, 0.0, 1e-300, -5e-324, 5e-324, 1e300, -1e300, 0.1, 1 / 3, math.nan,
                     math.inf, -math.inf])


def _same_bytes(tmp_path, write, oracle, *args):
    write(tmp_path / "new", *args)
    oracle(tmp_path / "old", *args)
    return (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def test_filter_csv_writers_match_per_value_oracles(tmp_path):
    M, K = len(EXTREMES), 3
    states = np.random.default_rng(4).normal(size=(M, K))
    states[:, 1] = EXTREMES
    run = FilterRun(times=np.linspace(0.0, 1.0, M), states=states, masses=EXTREMES[::-1].copy(),
                    estimates=EXTREMES.copy())
    assert _same_bytes(tmp_path, write_state_csv, _state_csv_oracle, run)
    assert _same_bytes(tmp_path, write_estimate_csv, _estimate_csv_oracle, run)
    empty = FilterRun(times=np.empty(0), states=np.empty((0, K)), masses=np.empty(0),
                      estimates=np.empty(0))
    assert _same_bytes(tmp_path, write_state_csv, _state_csv_oracle, empty)
    assert _same_bytes(tmp_path, write_estimate_csv, _estimate_csv_oracle, empty)


@pytest.mark.parametrize("width_key, shape", [("r", (12,)), ("r", (12, 1)), ("r", (12, 2)),
                                              ("d", (12, 3)), ("r", (0, 2)), ("r", (1, 1))])
def test_samples_writer_matches_per_value_oracle(tmp_path, width_key, shape):
    values = np.resize(EXTREMES, shape)
    times = EXTREMES[::-1][:shape[0]]
    assert _same_bytes(tmp_path, write_samples, _samples_oracle, 1e-300, width_key, times, values)
