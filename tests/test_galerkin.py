import math

import numpy as np
import pytest
from scipy.linalg import expm

from chaosfilter.config import parse_config
from chaosfilter.galerkin import (FilterModel, GalerkinSystem, _euler_reports, _expm_rk4,
                                  _splitting_reports, assemble, dissipativity_gap, validate_model)
from chaosfilter.experiments import (build_pipeline, galerkin_oracle_estimates, oracle_estimates,
                                     simulate_full)
from chaosfilter.hermite import basis_tables, build_basis
from chaosfilter.models import cubic_sensor

from conftest import gaussian_p0, ou_test_model
from oracles import (apply_M, apply_generator, integrate_galerkin_sde, integrate_galerkin_sde_paths,
                     splitting_loop)


def test_apply_generator_examples():
    m = ou_test_model()
    for x in (0.0, 0.7, -2.0):
        val = apply_generator(m, lambda t: 1.0, [x], grad=lambda t: 0.0, hess=lambda t: 0.0)
        assert val == 0.0
        val = apply_generator(m, lambda t: t * t, [x], grad=lambda t: 2 * t, hess=lambda t: 2.0)
        assert val == pytest.approx(2.0 - 2.0 * x * x)
    m2 = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=1.0, h=0.0, p0=gaussian_p0)
    assert apply_generator(m2, lambda t: t, [1.3], grad=lambda t: 1.0, hess=lambda t: 0.0) == 0.0


def test_apply_M_examples():
    mult = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=0.0,
                       h=lambda x: np.asarray(x, float), p0=gaussian_p0)
    assert apply_M(mult, 1, lambda t: 1.0, [0.8], grad=lambda t: 0.0) == pytest.approx(0.8)
    const = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=2.5, h=0.0, p0=gaussian_p0)
    assert apply_M(const, 1, lambda t: t, [1.1], grad=lambda t: 1.0) == pytest.approx(2.5)
    both = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0,
                       rho=lambda x: np.asarray(x, float),
                       h=lambda x: np.asarray(x, float), p0=gaussian_p0)
    x = 0.9
    assert apply_M(both, 1, lambda t: t, [x], grad=lambda t: 1.0) == pytest.approx(x * x + x)
    with pytest.raises(ValueError):
        apply_M(both, 2, lambda t: t, [x], grad=lambda t: 1.0)


def test_assemble_zero_model(grid64):
    zero = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=0.0, rho=0.0, h=0.0, p0=gaussian_p0)
    sys_ = assemble(zero, build_basis(1, 4), grid64)
    assert np.allclose(sys_.A, 0.0, atol=1e-14)
    assert np.allclose(sys_.B, 0.0, atol=1e-14)


def test_assemble_heat_and_multiplication_entries(grid64):
    m = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=math.sqrt(2.0), rho=0.0,
                    h=lambda x: np.asarray(x, float), p0=gaussian_p0)
    sys_ = assemble(m, build_basis(1, 4), grid64)
    assert sys_.A[0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert sys_.B[0][0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_assemble_adjoint_consistency(grid64):
    # For the reference model, (L* e_j, e_i) computed symbolically via
    # L* g = g'' + g + x g' must match the adjoint-identity assembly.
    basis = build_basis(1, 8)
    sys_ = assemble(ou_test_model(), basis, grid64)
    V, G, S = basis_tables(basis, grid64.nodes, derivatives=2)
    x = grid64.nodes[:, 0]
    Lstar = S[:, 0, 0, :] + V + x * G[:, 0, :]      # rows: L* e_j
    A_direct = np.einsum("jp,p,ip->ij", Lstar, grid64.weights, V)
    assert np.max(np.abs(A_direct - sys_.A)) < 1e-8


def test_multiplication_operator_when_rho_zero(grid64):
    basis = build_basis(1, 6)
    sys_ = assemble(ou_test_model(), basis, grid64)
    V = basis_tables(basis, grid64.nodes)
    x = grid64.nodes[:, 0]
    direct = np.einsum("ip,p,jp->ij", V, grid64.weights * x, V)
    assert np.max(np.abs(sys_.B[0] - direct)) < 1e-10


def test_validate_model_rejects_bad_density(grid64):
    bad = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=0.0, h=0.0,
                      p0=lambda x: 2.0 * gaussian_p0(x))
    with pytest.raises(ValueError, match="mass"):
        validate_model(bad, grid64)
    neg = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=0.0, h=0.0,
                      p0=lambda x: np.asarray(x, float))
    with pytest.raises(ValueError, match="negative"):
        validate_model(neg, grid64)


def test_dissipativity_gap_examples():
    basis2 = build_basis(1, 2)
    zero = GalerkinSystem(K=2, r=1, A=np.zeros((2, 2)), B=np.zeros((1, 2, 2)), basis=basis2)
    assert dissipativity_gap(zero) == 0.0
    neg = GalerkinSystem(K=2, r=1, A=-np.eye(2), B=np.zeros((1, 2, 2)), basis=basis2)
    assert dissipativity_gap(neg) == pytest.approx(-2.0)


def test_dissipativity_gap_regression_ou(grid64):
    # Regression values for the unbounded-observation reference model.  The
    # multiplication by x is unbounded on the full space, so the projected
    # constant grows roughly linearly with K; only the values themselves
    # are pinned here.
    gaps = {K: dissipativity_gap(assemble(ou_test_model(), build_basis(1, K), grid64))
            for K in (4, 8, 16)}
    assert gaps[4] == pytest.approx(1.8452078799, rel=1e-6)
    assert gaps[8] == pytest.approx(6.8873910109, rel=1e-6)
    assert gaps[16] == pytest.approx(19.1477962112, rel=1e-6)


def test_dissipativity_gap_regression_bounded_for_regular_model(grid64):
    # With a bounded observation field the constant settles under a
    # K-independent bound: increments shrink as K doubles.
    model = cubic_sensor(eps=1.0).filter_model
    gaps = [dissipativity_gap(assemble(model, build_basis(1, K), grid64)) for K in (4, 8, 16)]
    assert all(g <= 2.0 for g in gaps)
    assert gaps[2] - gaps[1] <= (gaps[1] - gaps[0]) + 1e-9


def test_integrate_constant_when_all_zero():
    basis = build_basis(1, 3)
    sys_ = GalerkinSystem(K=3, r=1, A=np.zeros((3, 3)), B=np.zeros((1, 3, 3)), basis=basis)
    y = np.linspace(0.0, 1.0, 33)
    out = integrate_galerkin_sde(sys_, y, 1 / 32, np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(out[0], out[-1])


def test_integrate_deterministic_matches_expm(ou_system_k4):
    sys_ = GalerkinSystem(K=4, r=1, A=ou_system_k4.A, B=np.zeros((1, 4, 4)),
                          basis=ou_system_k4.basis)
    p0 = np.array([1.0, 0.2, -0.3, 0.1])
    T = 0.5
    exact = expm(sys_.A * T) @ p0
    errs = []
    for nsteps in (256, 512):
        y = np.zeros(nsteps + 1)
        out = integrate_galerkin_sde(sys_, y, T / nsteps, p0)
        errs.append(np.linalg.norm(out[-1] - exact))
    # first-order deterministic error, Richardson-consistent
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)


def test_integrate_scalar_geometric_closed_form():
    basis = build_basis(1, 1)
    a, b = -0.4, 0.8
    sys_ = GalerkinSystem(K=1, r=1, A=np.array([[a]]), B=np.array([[[b]]]), basis=basis)
    rng = np.random.default_rng(11)
    T, nsteps = 1.0, 2 ** 14
    dY = rng.normal(scale=math.sqrt(T / nsteps), size=nsteps)
    y = np.concatenate([[0.0], np.cumsum(dY)])
    out = integrate_galerkin_sde(sys_, y, T / nsteps, np.array([1.0]))
    exact = math.exp((a - 0.5 * b * b) * T + b * y[-1])
    assert out[-1, 0] == pytest.approx(exact, rel=5e-2)


def test_integrate_strong_convergence(ou_system_k4):
    # mean-square error against a delta/4 reference halves per step halving
    rng = np.random.default_rng(5)
    npaths, T = 128, 0.25
    nfine = 1024
    dW = rng.normal(scale=math.sqrt(T / nfine), size=(npaths, nfine))
    Y = np.concatenate([np.zeros((npaths, 1)), np.cumsum(dW, axis=1)], axis=1)
    p0 = np.array([0.5, 0.1, 0.05, 0.0])
    ref = integrate_galerkin_sde_paths(ou_system_k4, Y, T / nfine, p0)
    errs = []
    for stride in (8, 4):     # delta and delta/2, each vs the delta/4-finer path
        coarse = integrate_galerkin_sde_paths(ou_system_k4, Y[:, ::stride], stride * T / nfine, p0)
        errs.append(np.mean(np.sum((coarse - ref) ** 2, axis=1)))
    assert errs[0] / errs[1] >= 1.5


def test_integrate_reports_blowup_step():
    basis = build_basis(1, 1)
    sys_ = GalerkinSystem(K=1, r=1, A=np.array([[1e4]]), B=np.array([[[0.0]]]), basis=basis)
    with pytest.raises(FloatingPointError, match="step"):
        integrate_galerkin_sde(sys_, np.zeros(401), 1.0, np.array([1.0]))


def test_integrate_rejects_channel_mismatch(ou_system_k4):
    with pytest.raises(ValueError, match="channels"):
        integrate_galerkin_sde(ou_system_k4, np.zeros((10, 2)), 0.1, np.zeros(4))


def _euler_single_path_oracle(system, y_path, delta, p_init, report_stride=1):
    # The single-path loop integrate_galerkin_sde used before it became a
    # one-column call of the shared batched loop; kept as an oracle.
    y = np.asarray(y_path, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    dY = np.diff(y, axis=0)
    p = np.array(p_init, dtype=float).copy()
    out = [p.copy()]
    for j in range(y.shape[0] - 1):
        incr = delta * (system.A @ p)
        for l in range(system.r):
            incr += dY[j, l] * (system.B[l] @ p)
        p = p + incr
        if (j + 1) % report_stride == 0:
            out.append(p.copy())
    return np.array(out)


@pytest.mark.parametrize("stride", [1, 8])
def test_integrate_matches_single_path_loop(ou_system_k8, ou_p_init_k8, stride):
    rng = np.random.default_rng(21)
    nsteps, delta = 256, 1.0 / 256
    y = np.concatenate([[0.0], np.cumsum(rng.normal(scale=math.sqrt(delta), size=nsteps))])
    got = integrate_galerkin_sde(ou_system_k8, y, delta, ou_p_init_k8, report_stride=stride)
    ref = _euler_single_path_oracle(ou_system_k8, y, delta, ou_p_init_k8, report_stride=stride)
    assert got.shape == ref.shape == (nsteps // stride + 1, 8)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_integrate_blowup_names_report_steps():
    basis = build_basis(1, 1)
    sys_ = GalerkinSystem(K=1, r=1, A=np.array([[1e4]]), B=np.array([[[0.0]]]), basis=basis)
    # 10001^78 overflows, so the report covering steps 76..100 is the first bad one
    with pytest.raises(FloatingPointError, match=r"steps 76\.\.100 of 400; first non-finite "
                                                 r"on path 0 at t = 100$"):
        integrate_galerkin_sde(sys_, np.zeros(401), 1.0, np.array([1.0]), report_stride=25)


# The batched Euler loop before it became one stacked product per step,
# kept as the oracle: same products, same sums in the same order, so the
# reports are equal bit for bit.

def seed_euler_reports(system, y_paths, delta, p_init, report_stride):
    ys = np.asarray(y_paths, dtype=float)
    if ys.ndim == 2:
        ys = ys[:, :, None]
    dY = np.diff(ys, axis=1)
    p_init = np.asarray(p_init, dtype=float)
    P = np.repeat(p_init[:, None], ys.shape[0], axis=1) if p_init.ndim == 1 else p_init.T.copy()
    A, B, r, nsteps = system.A, system.B, system.r, dY.shape[1]
    out = np.empty((nsteps // report_stride + 1,) + P.shape)
    out[0] = P
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(1, out.shape[0]):
            for j in range((w - 1) * report_stride, w * report_stride):
                incr = delta * (A @ P)
                for l in range(r):
                    incr += (B[l] @ P) * dY[:, j, l]
                P = P + incr
            if not np.all(np.isfinite(P)):
                path = np.flatnonzero(~np.isfinite(P).all(axis=0))[0]
                raise FloatingPointError(
                    f"state blew up in steps {(w - 1) * report_stride + 1}..{w * report_stride}"
                    f" of {nsteps}; first non-finite on path {path} at t ="
                    f" {w * report_stride * delta:.6g}")
            out[w] = P
    return out


def random_system(K, r, seed):
    rng = np.random.default_rng(seed)
    return GalerkinSystem(K=K, r=r, A=rng.normal(size=(K, K)), B=rng.normal(size=(r, K, K)),
                          basis=build_basis(1, K))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("npaths, stride, shared", [(1, 1, True), (5, 8, True), (7, 4, False)])
def test_euler_reports_equal_seed_loop(r, npaths, stride, shared):
    K, nsteps, delta = 6, 64, 1.0 / 64
    system = random_system(K, r, seed=10 * r + npaths)
    rng = np.random.default_rng(r + npaths)
    Y = np.cumsum(rng.normal(scale=math.sqrt(delta), size=(npaths, nsteps + 1, r)), axis=1)
    y_paths = Y[:, :, 0] if r == 1 else Y
    p_init = rng.normal(size=K) if shared else rng.normal(size=(npaths, K))
    got = _euler_reports(system, y_paths, delta, p_init, stride)
    ref = seed_euler_reports(system, y_paths, delta, p_init, stride)
    assert got.shape == ref.shape == (nsteps // stride + 1, K, npaths)
    assert np.array_equal(got, ref)


def test_euler_reports_blowup_message_equals_seed_loop():
    system = random_system(3, 2, seed=4)
    system = GalerkinSystem(K=3, r=2, A=system.A * 1e3, B=system.B, basis=system.basis)
    y = np.cumsum(np.random.default_rng(8).normal(size=(4, 201, 2)), axis=1)
    messages = []
    for fn in (_euler_reports, seed_euler_reports):
        with pytest.raises(FloatingPointError) as info:
            fn(system, y, 0.1, np.ones(3), 10)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("state blew up in steps ")


def _growth_system(K, r, rate):
    # dp = rate p dt: the Euler state grows by 1 + rate * delta per step in every path
    return GalerkinSystem(K=K, r=r, A=rate * np.eye(K), B=np.zeros((r, K, K)),
                          basis=build_basis(1, K))


def _blowup_first_report():
    # 10001**78 overflows at step 78
    return (_growth_system(3, 1, 1e4), np.zeros((2, 401)), 1.0, np.ones(3), 100,
            "steps 1..100 of 400; first non-finite on path 0 at t = 100")


def _blowup_last_report_before_dropped_steps():
    # 7.6**350 overflows at step 350, in the last whole report; steps 401..410 are dropped
    return (_growth_system(3, 1, 6.6), np.zeros((2, 411)), 1.0, np.ones(3), 100,
            "steps 301..400 of 410; first non-finite on path 0 at t = 400")


def _blowup_one_path_of_several():
    p_init = np.zeros((4, 3))
    p_init[2] = 1.0                     # the other paths stay 0
    return (_growth_system(3, 1, 6.6), np.zeros((4, 401)), 1.0, p_init, 50,
            "steps 301..350 of 400; first non-finite on path 2 at t = 350")


def _nan_observation_mid_run():
    # a NaN at sample 250 of path 1 makes the increments of steps 250 and 251 NaN
    system = random_system(4, 1, seed=6)
    system = GalerkinSystem(K=4, r=1, A=0.3 * system.A, B=0.3 * system.B, basis=system.basis)
    y = np.cumsum(np.random.default_rng(9).normal(scale=0.05, size=(3, 401)), axis=1)
    y[1, 250] = np.nan
    return (system, y, 1.0 / 400, np.ones(4), 100,
            "steps 201..300 of 400; first non-finite on path 1 at t = 0.75")


@pytest.mark.parametrize("case", [_blowup_first_report, _blowup_last_report_before_dropped_steps,
                                  _blowup_one_path_of_several, _nan_observation_mid_run])
def test_euler_reports_blowup_message_equals_seed_loop_in_every_case(case):
    # _euler_reports checks finiteness once after its loop, the seed loop after every
    # report; test_euler_reports_blowup_message_equals_seed_loop is the r=2 case
    system, y, delta, p_init, stride, expected = case()
    messages = []
    for fn in (_euler_reports, seed_euler_reports):
        with pytest.raises(FloatingPointError) as info:
            fn(system, y, delta, p_init, stride)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert expected in messages[0]


def test_integrate_paths_blowup_message_equals_seed_loop():
    system, y, delta, p_init, _, _ = _blowup_one_path_of_several()
    messages = []
    for call in (lambda: integrate_galerkin_sde_paths(system, y, delta, p_init),
                 lambda: seed_euler_reports(system, y, delta, p_init, y.shape[1] - 1)):
        with pytest.raises(FloatingPointError) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1] == ("state blew up in steps 1..400 of 400; first non-finite"
                                          " on path 2 at t = 400")


# _euler_reports calls the bound W.dot and the ufuncs with positional outputs,
# which skip numpy's argument dispatch; they must compute what np.dot and the
# out= forms compute, bit for bit.  Shapes: mc-cubic's oracle (K=16, r=1, 10
# paths) and an r=2 system.
@pytest.mark.parametrize("K, r, npaths", [(16, 1, 10), (6, 2, 3)])
def test_positional_out_calls_equal_their_dispatched_forms(K, r, npaths):
    rng = np.random.default_rng(K + r)
    W, P = rng.normal(size=((1 + r) * K, K)), rng.normal(size=(K, npaths))
    c = rng.normal(size=((1 + r) * K, npaths))
    Z = np.empty(((1 + r) * K, npaths))
    assert W.dot(P, Z) is Z
    assert np.array_equal(Z, np.dot(W, P))
    ref = np.empty_like(Z)
    np.dot(W, P, out=ref)
    assert np.array_equal(Z, ref)
    for ufunc in (np.multiply, np.add):
        got, want = Z.copy(), Z.copy()
        assert ufunc(got, c, got) is got
        ufunc(want, c, out=want)
        assert np.array_equal(got, want)


# (K, r, npaths, nsteps, stride): the mc-cubic oracle block, a trailing partial
# stride, one report for all steps, and strides over the 64-step coefficient
# block, so that block boundaries fall inside a report window.
@pytest.mark.parametrize("K, r, npaths, nsteps, stride", [
    (16, 1, 10, 3200, 32), (16, 1, 10, 70, 32), (16, 1, 10, 3200, 3200),
    (6, 2, 3, 200, 100), (6, 3, 1, 130, 130), (5, 1, 4, 129, 65)])
def test_euler_reports_equal_seed_loop_across_blocks(K, r, npaths, nsteps, stride):
    delta = 1.0 / nsteps
    system = random_system(K, r, seed=K + r)
    system = GalerkinSystem(K=K, r=r, A=0.3 * system.A, B=0.3 * system.B, basis=system.basis)
    rng = np.random.default_rng(nsteps + stride)
    Y = np.cumsum(rng.normal(scale=math.sqrt(delta), size=(npaths, nsteps + 1, r)), axis=1)
    for p_init in (rng.normal(size=K), rng.normal(size=(npaths, K))):
        got = _euler_reports(system, Y, delta, p_init, stride)
        ref = seed_euler_reports(system, Y, delta, p_init, stride)
        assert got.shape == ref.shape == (nsteps // stride + 1, K, npaths)
        assert np.all(np.isfinite(ref))
        assert np.array_equal(got, ref)


def test_oracle_estimates_equal_per_report_reads():
    K, npaths, nsteps, stride, delta = 16, 10, 320, 32, 1.0 / 320
    system = random_system(K, 1, seed=2)
    system = GalerkinSystem(K=K, r=1, A=0.3 * system.A, B=0.3 * system.B, basis=system.basis)
    rng = np.random.default_rng(5)
    Y = np.cumsum(rng.normal(scale=math.sqrt(delta), size=(npaths, nsteps + 1)), axis=1)
    p_init, f, one = rng.normal(size=K), rng.normal(size=K), rng.normal(size=K) + 5.0
    got = galerkin_oracle_estimates(system, p_init, f, one, Y, delta, stride)
    reports = seed_euler_reports(system, Y, delta, p_init, stride)
    ref = np.stack([(f @ R) / (one @ R) for R in reports], axis=1)
    assert got.shape == ref.shape == (npaths, nsteps // stride + 1)
    assert np.array_equal(got, ref)


def _pipeline(model, K, paths=10, seed=801):
    # mc-cubic's discretization: fine step delta/32, so 3200 steps over T = 1
    cfg = parse_config(f"model.name = {model}\ndiscretization.K = {K}\n"
                       "discretization.N = 2\ndiscretization.n = 4\n"
                       "discretization.delta = 0.01\ndiscretization.T = 1.0\n"
                       "discretization.delta_sim = 0.0003125\n"
                       f"run.paths = {paths}\nrun.seed = {seed}\n")
    pipe = build_pipeline(cfg)
    times, _, Y = simulate_full(cfg, pipe, paths)
    return pipe, times, Y


def _reads(reports, f, one):
    return (np.matmul(f, reports) / np.matmul(one, reports)).T


def symmetric_system(K, seed):
    # |A| about 0.4: one RK4 step's exp(A delta) is then expm's to rounding at delta = 1/130
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(K, K))
    return GalerkinSystem(K=K, r=1, A=0.1 * rng.normal(size=(K, K)), B=0.5 * (M + M.T)[None],
                          basis=build_basis(1, K))


@pytest.mark.parametrize("shared", [True, False])
def test_splitting_reports_equal_per_step_loop(shared):
    # 130 steps at stride 32: four reports and a trailing partial stride of two steps
    K, npaths, nsteps, stride, delta = 6, 3, 130, 32, 1.0 / 130
    system = symmetric_system(K, seed=3)
    rng = np.random.default_rng(4)
    Y = np.cumsum(rng.normal(scale=math.sqrt(delta), size=(npaths, nsteps + 1)), axis=1)
    p_init = rng.normal(size=K) if shared else rng.normal(size=(npaths, K))
    got = _splitting_reports(system, Y, delta, p_init, stride)
    ref = splitting_loop(system, Y, delta, p_init, stride)
    assert got.shape == ref.shape == (nsteps // stride + 1, K, npaths)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rk4_step_exponential_equals_expm_at_the_mc_step():
    pipe, _, _ = _pipeline("cubic-sensor", 16, paths=1)
    delta = 3.125e-4
    assert np.max(np.abs(_expm_rk4(pipe.system.A, delta) - expm(pipe.system.A * delta))) <= 1e-12


def test_splitting_reports_blowup_names_report_steps():
    # one step multiplies by the degree-4 Taylor value of e^(1e4), about 4.2e14: 22 steps
    # overflow path 1; path 0 starts at 0 and stays there
    system = GalerkinSystem(K=1, r=1, A=np.array([[1e4]]), B=np.zeros((1, 1, 1)),
                            basis=build_basis(1, 1))
    with pytest.raises(FloatingPointError, match=r"steps 21\.\.25 of 100; first non-finite "
                                                 r"on path 1 at t = 25$"):
        _splitting_reports(system, np.zeros((2, 101)), 1.0, np.array([[0.0], [1.0]]), 5)


def test_splitting_reports_needs_one_channel():
    with pytest.raises(ValueError, match="one channel, system has 2"):
        _splitting_reports(random_system(4, 2, seed=1), np.zeros((2, 9, 2)), 0.1, np.ones(4), 2)


def test_asymmetric_b_keeps_the_euler_reads():
    K, npaths, nsteps, stride, delta = 6, 4, 96, 32, 1.0 / 96
    system = random_system(K, 1, seed=8)
    system = GalerkinSystem(K=K, r=1, A=0.3 * system.A, B=0.3 * system.B, basis=system.basis)
    rng = np.random.default_rng(9)
    Y = np.cumsum(rng.normal(scale=math.sqrt(delta), size=(npaths, nsteps + 1)), axis=1)
    p_init, f, one = rng.normal(size=K), rng.normal(size=K), rng.normal(size=K) + 5.0
    got = galerkin_oracle_estimates(system, p_init, f, one, Y, delta, stride)
    assert np.array_equal(got, _reads(_euler_reports(system, Y, delta, p_init, stride), f, one))


def test_correlated_noise_keeps_the_euler_reads():
    # rho = 0.5 adds rho d/dx to M, so B is far from symmetric
    pipe, _, Y = _pipeline("correlated-ou", 8, paths=3)
    reports = _euler_reports(pipe.system, Y, 3.125e-4, pipe.p_init, 32)
    got = galerkin_oracle_estimates(pipe.system, pipe.p_init, pipe.f_coeffs, pipe.one_coeffs,
                                    Y, 3.125e-4, 32)
    assert np.array_equal(got, _reads(reports, pipe.f_coeffs, pipe.one_coeffs))


def test_cubic_sensor_oracle_is_the_splitting():
    pipe, times, Y = _pipeline("cubic-sensor", 16, paths=3)
    got = oracle_estimates(pipe, times, Y, 1)
    fine = galerkin_oracle_estimates(pipe.system, pipe.p_init, pipe.f_coeffs, pipe.one_coeffs,
                                     Y, 3.125e-4, 32)
    reports = _splitting_reports(pipe.system, Y, 3.125e-4, pipe.p_init, 32)
    assert np.array_equal(got, fine)
    assert np.array_equal(fine, _reads(reports, pipe.f_coeffs, pipe.one_coeffs))


@pytest.mark.parametrize("K, bound", [(16, 1.5e-3), (24, 3e-4)])
def test_oracle_close_to_kalman_bucy_on_ou_linear(K, bound):
    # rho = 0, so the Kalman-Bucy filter is the exact conditional mean
    pipe, times, Y = _pipeline("ou-linear", K, paths=20)
    kb = oracle_estimates(pipe, times, Y, 1)
    fine = galerkin_oracle_estimates(pipe.system, pipe.p_init, pipe.f_coeffs, pipe.one_coeffs,
                                     Y, 3.125e-4, 32)
    assert fine.shape == kb.shape == (20, 101)
    assert float(np.sqrt(np.mean((fine - kb) ** 2))) <= bound


@pytest.mark.parametrize("symmetric", [True, False])
def test_oracle_names_the_first_path_without_mass(symmetric):
    # path 1 starts at zero, so its mass 1.R is 0 at every report: 0/0
    K, delta = 4, 0.01
    system = symmetric_system(K, seed=5) if symmetric else random_system(K, 1, seed=5)
    rng = np.random.default_rng(6)
    Y = np.cumsum(rng.normal(scale=0.1, size=(3, 17)), axis=1)
    p_init = rng.normal(size=(3, K))
    p_init[1] = 0.0
    with pytest.raises(FloatingPointError,
                       match=r"not finite on path 1 at report 0 \(t = 0\)"):
        galerkin_oracle_estimates(system, p_init, rng.normal(size=K), np.ones(K), Y, delta, 4)
    with pytest.raises(FloatingPointError,
                       match=r"not finite on path 0 at report 0 \(t = 0\)"):
        galerkin_oracle_estimates(system, p_init[0], np.ones(K), np.zeros(K), Y, delta, 4)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (3, 4)])
def test_euler_reports_names_malformed_p_init(shape):
    system = random_system(4, 1, seed=1)
    y = np.zeros((5, 9))
    with pytest.raises(ValueError, match=rf"p_init has shape \({shape[0]},"
                                         rf".*expected \(4,\) or \(5, 4\)"):
        _euler_reports(system, y, 0.1, np.ones(shape), 2)


def test_report_stride_zero_is_named():
    system = random_system(4, 1, seed=1)
    with pytest.raises(ValueError, match="report_stride must be >= 1, got 0"):
        integrate_galerkin_sde(system, np.zeros(9), 0.1, np.ones(4), report_stride=0)
    with pytest.raises(ValueError, match="report_stride must be >= 1, got 0"):
        _euler_reports(system, np.zeros((2, 9)), 0.1, np.ones(4), 0)


@pytest.mark.parametrize("npts", [2, 3])
def test_field_of_wrong_shape_on_many_points_raises(npts):
    # (npts, 1) has as many entries as the (npts, 1, 1) sigma needs, yet is malformed
    model = FilterModel(d=1, d1=1, r=1, b=0.0, h=0.0, rho=0.0, p0=gaussian_p0,
                        sigma=lambda x: np.ones((len(x), 1)))
    with pytest.raises(ValueError, match=rf"field 'sigma' returned shape \({npts}, 1\)"):
        model.sigma_at(np.zeros((npts, 1)))


def test_one_point_field_of_per_point_shape_is_reshaped():
    model = FilterModel(d=2, d1=1, r=2, b=lambda x: np.array([1.0, -2.0]), sigma=1.0, rho=0.0,
                        h=lambda x: np.array([3.0]), p0=gaussian_p0)
    got = model.drift_at(np.zeros((1, 2)))
    assert got.shape == (1, 2) and np.array_equal(got, [[1.0, -2.0]])
    assert np.array_equal(model.sigma_at(np.zeros((1, 2))), np.ones((1, 2, 1)))
    with pytest.raises(ValueError, match=r"field 'h' returned shape \(1,\), cannot coerce to \(1, 2\)"):
        model.h_at(np.zeros((1, 2)))
