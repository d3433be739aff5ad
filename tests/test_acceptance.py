"""Acceptance benchmark.

One test per criterion; each prints a single pass/fail line (run with
`pytest -s tests/test_acceptance.py` to see them live) and enforces its
runtime budget.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from chaosfilter.config import ExperimentConfig
from chaosfilter.experiments import (build_pipeline, chaos_estimates, galerkin_oracle_estimates,
                                     make_table, oracle_estimates, simulate_full)
from chaosfilter.galerkin import assemble
from chaosfilter.hermite import basis_tables, build_basis, gram_matrix, project
from chaosfilter.models import ou_linear
from chaosfilter.multiindex import MultiIndex, enumerate_truncated
from chaosfilter.propagator import closed_form_order1, cosine_basis, parseval_mass, precompute_table
from chaosfilter.runtime import (FilterState, ObservationWindow, advance, cut_windows, estimate,
                                 functional, run_filter, step_matrix, write_estimate_csv,
                                 write_state_csv, xi_integrals)

from conftest import gaussian_p0
from oracles import characteristic_set, factorial, integrate_galerkin_sde_paths, lower, solve_phi


class Criterion:
    def __init__(self, num, name, budget_s):
        self.num, self.name, self.budget = num, name, budget_s
        self.t0 = time.time()
        self.checks = []

    def check(self, ok, label):
        self.checks.append((bool(ok), label))

    def finish(self):
        elapsed = time.time() - self.t0
        in_budget = elapsed < self.budget
        ok = all(c for c, _ in self.checks) and in_budget
        detail = "; ".join(label for _, label in self.checks)
        print(f"[ACCEPTANCE] criterion {self.num} ({self.name}): "
              f"{'PASS' if ok else 'FAIL'} [{elapsed:.1f}s/{self.budget:.0f}s] {detail}")
        for good, label in self.checks:
            assert good, f"criterion {self.num}: {label}"
        assert in_budget, f"criterion {self.num} exceeded its {self.budget:.0f}s budget"


def test_criterion_1_basis_integrity(grid64):
    c = Criterion(1, "basis integrity", 5.0)
    basis = build_basis(1, 16)
    gram_err = np.max(np.abs(gram_matrix(basis, grid64) - np.eye(16)))
    c.check(gram_err <= 1e-8, f"gram error {gram_err:.2e} <= 1e-8")
    V, _, S = basis_tables(basis, grid64.nodes, derivatives=2)
    x = grid64.nodes[:, 0]
    LamV = -S[:, 0, 0, :] + (1.0 + x * x) * V
    eig_err = np.max(np.abs((LamV * grid64.weights) @ V.T - np.diag(basis.lambdas)))
    c.check(eig_err <= 1e-6, f"eigen-relation error {eig_err:.2e} <= 1e-6")
    exact = basis.lambdas == np.array([2.0 * sum(g) + 2.0 for g in basis.gammas])
    c.check(np.all(exact), "lambda_k = 2|gamma_k| + d + 1 exact")
    c.finish()


def test_criterion_2_combinatorics():
    c = Criterion(2, "combinatorics", 1.0)
    card_ok, trip_ok = True, True
    for N in range(6):
        for n in range(1, 5):
            for r in range(1, 4):
                out = enumerate_truncated(N, n, r)
                card_ok &= len(out) == math.comb(n * r + N, N)
                trip_ok &= all(characteristic_set(a).to_multiindex(r) == a for a in out)
    c.check(card_ok, "|J_N^n| = binom(n r + N, N) for N<=5, n<=4, r<=3")
    c.check(trip_ok, "characteristic-set round trip on every enumerated index")
    ref = MultiIndex.from_dict({(2, 1): 1, (4, 1): 2, (5, 1): 3,
                                (1, 2): 1, (2, 2): 2, (6, 2): 1}, r=2)
    expected = ((1, 2), (2, 1), (2, 2), (2, 2), (4, 1), (4, 1),
                (5, 1), (5, 1), (5, 1), (6, 2))
    c.check(characteristic_set(ref).pairs == expected, "r=2 worked example reproduced verbatim")
    c.check(factorial(ref) == 24 and lower(ref, 5, 1).count(5, 1) == 2,
            "factorial and lowering on the worked example")
    c.finish()


def test_criterion_3_propagator_oracles(grid64):
    c = Criterion(3, "propagator oracles", 30.0)
    bundle = ou_linear()
    system = assemble(bundle.filter_model, build_basis(1, 8), grid64)
    zeta = project(bundle.filter_model.p0, system.basis, grid64)
    delta, n = 0.25, 4
    tb = cosine_basis(delta, n)
    table = precompute_table(system, tb, 2, n, substeps=256)
    e_expm = np.max(np.abs(table.matrices[0] - expm(system.A * delta)))
    c.check(e_expm <= 1e-10, f"empty-index block vs expm {e_expm:.2e} <= 1e-10")
    worst = 0.0
    for k in range(1, n + 1):
        alpha = MultiIndex.from_dict({(k, 1): 1}, r=1)
        cf = closed_form_order1(system, tb, alpha, zeta)
        worst = max(worst, float(np.max(np.abs(cf - table.matrix_for(alpha) @ zeta))))
    c.check(worst <= 1e-8, f"order-1 flows vs closed-form quadrature {worst:.2e} <= 1e-8")
    alpha = MultiIndex.from_dict({(1, 1): 1, (2, 1): 1}, r=1)
    vals = {s: solve_phi(system, tb, alpha, zeta, substeps=s) for s in (32, 64, 128)}
    r1 = np.linalg.norm(vals[64] - vals[32]) / np.linalg.norm(vals[128] - vals[64])
    c.check(r1 >= 12.0, f"step-halving ratio {r1:.1f} >= 12 (4th order)")
    c.finish()


def test_criterion_4_parseval(ou_system_k4, grid64):
    c = Criterion(4, "chaos mass vs Monte Carlo", 180.0)
    zeta = project(gaussian_p0, ou_system_k4.basis, grid64)
    delta = 0.1
    table = precompute_table(ou_system_k4, cosine_basis(delta, 8), 4, 8)
    mass, _ = parseval_mass(table, zeta)
    nsteps, npaths = 512, 100_000
    rng = np.random.default_rng(90210)
    total, total_sq, count = 0.0, 0.0, 0
    for start in range(0, npaths, 20_000):
        block = min(20_000, npaths - start)
        dW = rng.normal(scale=math.sqrt(delta / nsteps), size=(block, nsteps))
        Y = np.concatenate([np.zeros((block, 1)), np.cumsum(dW, axis=1)], axis=1)
        fin = integrate_galerkin_sde_paths(ou_system_k4, Y, delta / nsteps, zeta)
        sq = np.sum(fin * fin, axis=1)
        total += sq.sum()
        total_sq += (sq * sq).sum()
        count += block
    mean = total / count
    se = math.sqrt((total_sq / count - mean * mean) / count)
    dev = abs(mass - mean) / se
    c.check(dev <= 3.0, f"|mass - MC| = {dev:.2f} se (mass {mass:.6f}, MC {mean:.6f} +- {se:.1e})")
    c.finish()


def test_criterion_5_chaos_scaling(grid64):
    # The n-sensitive regime: with the standard unit observation gain the
    # mode-truncation error sits orders of magnitude below the other error
    # floors (single noise channel, commuting noise family), so the
    # benchmark fixes a gain of 0.3 where the n = 4 truncation is the
    # leading error term.
    c = Criterion(5, "chaos truncation scaling", 300.0)
    bundle = ou_linear(hslope=0.3)
    system = assemble(bundle.filter_model, build_basis(1, 8), grid64)
    zeta = project(bundle.filter_model.p0, system.basis, grid64)
    delta, nsteps, npaths = 1.5, 1024, 200
    rng = np.random.default_rng(42)
    dW = rng.normal(scale=math.sqrt(delta / nsteps), size=(npaths, nsteps))
    Y = np.concatenate([np.zeros((npaths, 1)), np.cumsum(dW, axis=1)], axis=1)
    oracle = integrate_galerkin_sde_paths(system, Y, delta / nsteps, zeta)
    t = np.linspace(0.0, delta, nsteps + 1)

    def mse(N, n):
        tb = cosine_basis(delta, n)
        table = precompute_table(system, tb, N, n)
        errs = np.empty(npaths)
        for p in range(npaths):
            win = ObservationWindow(0.0, delta, t, Y[p][:, None])
            Q = step_matrix(table, xi_integrals(win, tb))
            errs[p] = np.sum((Q @ zeta - oracle[p]) ** 2)
        return float(errs.mean())

    m_n4, m_n8 = mse(3, 4), mse(3, 8)
    ratio = m_n4 / m_n8
    c.check(1.5 <= ratio <= 2.7,
            f"n-doubling 4->8 at N=3: MSE ratio {ratio:.2f} in [1.5, 2.7]")
    series = [mse(N, 8) for N in (1, 2, 3)]
    floor = series[-1]
    monotone = all(b <= a or a <= 2.0 * floor for a, b in zip(series, series[1:]))
    c.check(monotone,
            "N-sweep 1->2->3 at n=8 monotone until within 2x of the n-floor: "
            + " > ".join(f"{v:.2e}" for v in series))
    c.finish()


def _kalman_benchmark(c, model_name, params, seed, rel_tol):
    cfg = ExperimentConfig(model_name=model_name, model_params=params,
                           K=16, N=2, n=4, delta=0.01, T=1.0, seed=seed,
                           paths=100).validate()
    pipe = build_pipeline(cfg)
    table = make_table(pipe)
    times, _, Y = simulate_full(cfg, pipe, cfg.paths)
    stride = int(round(cfg.resolved_delta_obs() / cfg.resolved_delta_sim()))
    _, est = chaos_estimates(pipe, table, times, Y, stride)
    kb = oracle_estimates(pipe, times, Y, stride)
    err = (est - kb)[:, 1:]
    rmse = float(np.sqrt(np.mean(err * err)))
    sd = math.sqrt(pipe.bundle.linear.steady_state_variance())
    c.check(rmse <= rel_tol * sd,
            f"time-averaged RMSE {rmse:.4f} <= {rel_tol} x steady-state sd ({rel_tol * sd:.4f})")
    return cfg, pipe, times, Y, stride, est, kb


def test_criterion_6_kalman_benchmark():
    c = Criterion(6, "multi-step filter vs exact filter", 600.0)
    _kalman_benchmark(c, "ou-linear", dict(a=-1.0, sigma=1.0, h=1.0), seed=4242, rel_tol=0.10)
    c.finish()


def test_criterion_7_correlated_noise():
    c = Criterion(7, "correlated noise and spatial refinement", 900.0)
    params = dict(a=-1.0, sigma=1.0, rho=0.5, h=1.0)
    _kalman_benchmark(c, "correlated-ou", params, seed=777, rel_tol=0.15)
    rmse_chaos, rmse_fine = {}, {}
    for K in (8, 16):
        cfg = ExperimentConfig(model_name="correlated-ou", model_params=params,
                               K=K, N=2, n=4, delta=0.01, T=1.0, seed=777,
                               paths=100).validate()
        pipe = build_pipeline(cfg)
        table = make_table(pipe)
        times, _, Y = simulate_full(cfg, pipe, cfg.paths)
        stride = int(round(cfg.resolved_delta_obs() / cfg.resolved_delta_sim()))
        _, est = chaos_estimates(pipe, table, times, Y, stride)
        kb = oracle_estimates(pipe, times, Y, stride)
        fine = galerkin_oracle_estimates(pipe.system, pipe.p_init, pipe.f_coeffs,
                                         pipe.one_coeffs, Y, cfg.resolved_delta_sim(),
                                         int(round(cfg.delta / cfg.resolved_delta_sim())))
        rmse_chaos[K] = float(np.sqrt(np.mean((est - kb)[:, 1:] ** 2)))
        rmse_fine[K] = float(np.sqrt(np.mean((fine - kb)[:, 1:] ** 2)))
    c.check(rmse_chaos[16] <= rmse_chaos[8],
            f"recursion error vs exact filter nonincreasing in K: "
            f"{rmse_chaos[8]:.4f} -> {rmse_chaos[16]:.4f}")
    c.check(rmse_fine[16] <= rmse_fine[8],
            f"fine-grid spatial-truncation error nonincreasing in K: "
            f"{rmse_fine[8]:.4f} -> {rmse_fine[16]:.4f}")
    c.finish()


def test_criterion_8_exact_identities(ou_system_k8, ou_p_init_k8, grid64, tmp_path):
    c = Criterion(8, "exact identities", 5.0)
    basis = ou_system_k8.basis
    one = project(lambda x: np.ones_like(x), basis, grid64)
    f = project(lambda x: x, basis, grid64)
    st = FilterState(0.0, ou_p_init_k8)
    c.check(estimate(st, one, one) == 1.0, "estimate of f = 1 equals 1 exactly")
    base = estimate(st, f, one)
    scale_ok = all(
        abs(estimate(FilterState(0.0, s * ou_p_init_k8), f, one) - base) <= 1e-13 * abs(base)
        for s in (1e-3, 1.0, 1e3))
    c.check(scale_ok, "estimate invariant under state scaling")

    delta = 0.25
    tb = cosine_basis(delta, 2)
    table = precompute_table(ou_system_k8, tb, 2, 2)
    rng = np.random.default_rng(2718)
    nfine = 512
    y = np.concatenate([[0.0], np.cumsum(rng.normal(scale=math.sqrt(1.0 / nfine), size=nfine))])
    wins = cut_windows(np.linspace(0, 1, nfine + 1), y[:, None], delta)
    runs = [run_filter(table, tb, ou_p_init_k8, wins, f_coeffs=f, one_coeffs=one)
            for _ in range(2)]
    byte_pairs = []
    for tag, writer in (("states", write_state_csv), ("estimates", write_estimate_csv)):
        paths = [tmp_path / f"{tag}{i}.csv" for i in (0, 1)]
        for p, r in zip(paths, runs):
            writer(p, r)
        byte_pairs.append(paths[0].read_bytes() == paths[1].read_bytes())
    c.check(np.array_equal(runs[0].states, runs[1].states) and all(byte_pairs),
            "replay determinism byte-exact")

    xi = xi_integrals(wins[0], tb)
    Q = step_matrix(table, xi)
    p1, p2 = rng.normal(size=8), rng.normal(size=8)
    a, b = 0.6, -2.5
    lin_adv = np.max(np.abs(advance(FilterState(0.0, a * p1 + b * p2), Q, delta).p
                            - a * (Q @ p1) - b * (Q @ p2)))
    lin_fun = abs(functional(FilterState(0.0, a * p1 + b * p2), f)
                  - a * functional(FilterState(0.0, p1), f)
                  - b * functional(FilterState(0.0, p2), f))
    c.check(lin_adv <= 1e-12 and lin_fun <= 1e-12,
            f"advance/functional linear to 1e-12 (got {lin_adv:.1e}, {lin_fun:.1e})")
    c.finish()
