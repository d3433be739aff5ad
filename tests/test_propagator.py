import dataclasses
import math
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from chaosfilter import experiments, propagator
from chaosfilter.config import parse_config
from chaosfilter.galerkin import GalerkinSystem
from chaosfilter.hermite import build_basis, project
from chaosfilter.multiindex import MultiIndex, enumerate_counts, enumerate_truncated
from chaosfilter.propagator import (PropagatorTable, brownian_second_moment, closed_form_order1,
                                    cosine_basis, default_substeps, load_table, parseval_mass,
                                    precompute_table, rk4, save_table, truncation_certificate)
from chaosfilter.runtime import ObservationWindow, step_matrix, xi_integrals

from conftest import gaussian_p0
from oracles import (coupling_groups, coupling_lowering, csr_lowering, empty_index,
                     integrate_galerkin_sde_paths, save_table_v1, solve_phi)


def scalar_system(a=0.0, b=0.7):
    return GalerkinSystem(K=1, r=1, A=np.array([[a]]), B=np.array([[[b]]]),
                          basis=build_basis(1, 1))


def random_stable_system(K, r=1, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(K, K)) / math.sqrt(K)
    A = A - (max(np.linalg.eigvals(A).real) + 0.1) * np.eye(K)
    B = rng.normal(size=(r, K, K)) / K
    return GalerkinSystem(K=K, r=r, A=A, B=B, basis=build_basis(1, K))


def test_cosine_basis_values():
    tb = cosine_basis(2.5, 4)
    s = np.linspace(0, 2.5, 7)
    assert np.allclose(tb.eval(1, s), 1.0 / math.sqrt(2.5))
    tb1 = cosine_basis(1.0, 4)
    assert tb1.eval(2, 0.0) == pytest.approx(math.sqrt(2.0))


def test_cosine_basis_mean_of_higher_modes():
    # Gauss-Legendre oracle: higher modes integrate to zero over the window
    tb = cosine_basis(1.0, 5)
    x, w = np.polynomial.legendre.leggauss(64)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    assert abs(np.sum(ws * tb.eval(2, s))) < 1e-14
    assert np.sum(ws * tb.eval(1, s)) == pytest.approx(1.0, abs=1e-14)


def test_cosine_basis_orthonormality():
    tb = cosine_basis(0.7, 8)
    x, w = np.polynomial.legendre.leggauss(256)
    s, ws = 0.35 * (x + 1.0), 0.35 * w
    G = np.empty((8, 8))
    vals = np.array([tb.eval(k, s) for k in range(1, 9)])
    for i in range(8):
        for j in range(8):
            G[i, j] = np.sum(ws * vals[i] * vals[j])
    assert np.max(np.abs(G - np.eye(8))) < 1e-12


def test_solve_phi_empty_index():
    sys0 = GalerkinSystem(K=3, r=1, A=np.zeros((3, 3)), B=np.zeros((1, 3, 3)),
                          basis=build_basis(1, 3))
    tb = cosine_basis(0.8, 2)
    zeta = np.array([1.0, -1.0, 2.0])
    out = solve_phi(sys0, tb, empty_index(1), zeta)
    assert np.allclose(out, zeta, atol=1e-14)


def test_solve_phi_empty_matches_matrix_exponential():
    sys_ = random_stable_system(8, seed=3)
    tb = cosine_basis(0.25, 4)
    zeta = np.arange(1.0, 9.0)
    out = solve_phi(sys_, tb, empty_index(1), zeta, substeps=128)
    exact = expm(sys_.A * 0.25) @ zeta
    assert np.max(np.abs(out - exact)) < 1e-10


def test_solve_phi_scalar_first_mode():
    tb = cosine_basis(0.49, 1)
    alpha = MultiIndex.from_dict({(1, 1): 1}, r=1)
    out = solve_phi(scalar_system(a=0.0, b=0.7), tb, alpha, np.array([2.0]))
    assert out[0] == pytest.approx(0.7 * 2.0 * math.sqrt(0.49), rel=1e-12)


def test_solve_phi_step_halving_fourth_order(ou_system_k8, ou_p_init_k8):
    tb = cosine_basis(0.5, 4)
    alpha = MultiIndex.from_dict({(1, 1): 1, (2, 1): 1}, r=1)
    vals = {s: solve_phi(ou_system_k8, tb, alpha, ou_p_init_k8, substeps=s)
            for s in (32, 64, 128)}
    c1 = np.linalg.norm(vals[64] - vals[32])
    c2 = np.linalg.norm(vals[128] - vals[64])
    assert c2 <= c1 / 15.0


def test_solve_phi_linearity(ou_system_k8):
    tb = cosine_basis(0.3, 3)
    alpha = MultiIndex.from_dict({(2, 1): 2}, r=1)
    z1, z2 = np.arange(8.0), np.cos(np.arange(8.0))
    a, b = 1.7, -0.4
    lhs = solve_phi(ou_system_k8, tb, alpha, a * z1 + b * z2)
    rhs = a * solve_phi(ou_system_k8, tb, alpha, z1) + b * solve_phi(ou_system_k8, tb, alpha, z2)
    scale = max(1.0, np.max(np.abs(lhs)))
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_coupling_is_strictly_triangular():
    indices = enumerate_truncated(3, 3, 2)
    groups = coupling_groups(indices)
    for (k, l), (co, dst, src) in groups.items():
        for c, d_, s_ in zip(co, dst, src):
            assert indices[s_].length == indices[d_].length - 1
            assert c == indices[d_].count(k, l)


def test_precompute_table_shapes_and_empty_column(ou_system_k8):
    tb = cosine_basis(0.25, 4)
    table = precompute_table(ou_system_k8, tb, 2, 4, substeps=256)
    assert len(table.indices) == math.comb(4 + 2, 2)
    assert table.matrices.shape == (15, 8, 8)
    exact = expm(ou_system_k8.A * 0.25)
    assert np.max(np.abs(table.matrices[0] - exact)) < 1e-10


def test_default_substeps_table_is_within_1e_6_of_four_times_the_substeps():
    # at least 16 RK4 points per period of the fastest cosine, cos((n-1) pi s / delta)
    assert all(default_substeps(n) >= max(64, 8 * (n - 1)) for n in range(1, 17))
    # correlated-ou at the live N, n and delta; K=16 keeps it fast.  The error is
    # taken relative to the table's largest entry: every layer enters the window
    # update with a weight xi_alpha of order one, so this is the error the update
    # sees.  Half the default (32 substeps) measures 1.7e-6 here, the default 5.5e-8.
    cfg = parse_config("model.name = correlated-ou\ndiscretization.K = 16\n"
                       "discretization.N = 3\ndiscretization.n = 8\n"
                       "discretization.delta = 0.01\ndiscretization.T = 1\n")
    pipe = experiments.build_pipeline(cfg)
    table = precompute_table(pipe.system, pipe.tbasis, 3, 8)
    fine = precompute_table(pipe.system, pipe.tbasis, 3, 8, substeps=4 * table.substeps)
    assert table.substeps == default_substeps(8)
    err = np.max(np.abs(table.matrices - fine.matrices)) / np.max(np.abs(fine.matrices))
    assert err < 1e-6


def test_precompute_table_n0():
    sys_ = random_stable_system(4, seed=9)
    tb = cosine_basis(0.2, 1)
    table = precompute_table(sys_, tb, 0, 1)
    assert len(table.indices) == 1
    assert np.max(np.abs(table.matrices[0] - expm(sys_.A * 0.2))) < 1e-10


def test_precompute_scalar_first_mode_entry():
    tb = cosine_basis(0.36, 2)
    table = precompute_table(scalar_system(a=0.0, b=0.5), tb, 1, 2)
    alpha = MultiIndex.from_dict({(1, 1): 1}, r=1)
    assert table.matrix_for(alpha)[0, 0] == pytest.approx(0.5 * math.sqrt(0.36), rel=1e-12)


def test_closed_form_order1_zero_generator():
    sys_ = scalar_system(a=0.0, b=1.3)
    tb = cosine_basis(0.81, 3)
    zeta = np.array([2.0])
    first = closed_form_order1(sys_, tb, MultiIndex.from_dict({(1, 1): 1}, 1), zeta)
    assert first[0] == pytest.approx(1.3 * 2.0 * math.sqrt(0.81), rel=1e-12)
    higher = closed_form_order1(sys_, tb, MultiIndex.from_dict({(3, 1): 1}, 1), zeta)
    assert abs(higher[0]) < 1e-12


def test_closed_form_order1_matches_solve_phi():
    sys_ = random_stable_system(2, seed=12)
    tb = cosine_basis(0.4, 3)
    zeta = np.array([0.3, -1.1])
    for k in (1, 2, 3):
        alpha = MultiIndex.from_dict({(k, 1): 1}, r=1)
        cf = closed_form_order1(sys_, tb, alpha, zeta)
        ode = solve_phi(sys_, tb, alpha, zeta, substeps=256)
        assert np.max(np.abs(cf - ode)) < 1e-8
    with pytest.raises(ValueError):
        closed_form_order1(sys_, tb, MultiIndex.from_dict({(1, 1): 2}, 1), zeta)


def test_parseval_mass_deterministic_case():
    sys_ = random_stable_system(3, seed=21)
    nonoise = GalerkinSystem(K=3, r=1, A=sys_.A, B=np.zeros((1, 3, 3)), basis=sys_.basis)
    tb = cosine_basis(0.3, 2)
    table = precompute_table(nonoise, tb, 2, 2)
    zeta = np.array([1.0, 0.5, -0.2])
    total, layers = parseval_mass(table, zeta)
    expect = float(np.sum((expm(sys_.A * 0.3) @ zeta) ** 2))
    assert total == pytest.approx(expect, rel=1e-9)
    assert set(k for k, v in layers.items() if v > 1e-20) == {0}


def test_parseval_mass_scalar_geometric_limit():
    b, delta = 0.7, 1.0
    tb = cosine_basis(delta, 1)
    table = precompute_table(scalar_system(a=0.0, b=b), tb, 12, 1)
    total, layers = parseval_mass(table, np.array([1.0]))
    assert total == pytest.approx(math.exp(b * b * delta), rel=1e-10)
    # geometric layer masses (b^2 delta)^j / j!
    for j in range(5):
        assert layers[j] == pytest.approx((b * b * delta) ** j / math.factorial(j), rel=1e-9)


def test_parseval_mass_monotone_in_truncation(ou_system_k4, ou_p_init_k8):
    zeta = np.arange(1.0, 5.0)
    tb8 = cosine_basis(0.2, 8)
    prev = 0.0
    for N in (0, 1, 2, 3):
        total, _ = parseval_mass(precompute_table(ou_system_k4, tb8, N, 4), zeta)
        assert total >= prev - 1e-15
        prev = total
    prev = 0.0
    for n in (1, 2, 4):
        total, _ = parseval_mass(precompute_table(ou_system_k4, cosine_basis(0.2, n), 3, n), zeta)
        assert total >= prev - 1e-15
        prev = total


def test_parseval_mass_approaches_moment_flow(ou_system_k4, grid64):
    zeta = project(gaussian_p0, ou_system_k4.basis, grid64)
    delta = 0.1
    table = precompute_table(ou_system_k4, cosine_basis(delta, 8), 4, 8)
    total, _ = parseval_mass(table, zeta)
    exact = brownian_second_moment(ou_system_k4, delta, zeta, substeps=2048)
    assert 0.0 <= exact - total < 1e-5
    assert total == pytest.approx(exact, rel=1e-4)


# The truncation certificate rho = lambda_max(G - P, G) of one window.

def test_truncation_certificate_vanishes_without_noise(ou_system_k4):
    # G and P come from two RK4 flows, so rho keeps their O(h^4) gap: with
    # B = 0 it is 2e-8 at K=4, delta=0.3 and 64 substeps, and within 1e-10
    # at the workloads' window delta=0.01.
    for system in (ou_system_k4, random_stable_system(3, r=2, seed=4)):
        nonoise = dataclasses.replace(system, B=np.zeros_like(system.B))
        table = precompute_table(nonoise, cosine_basis(0.01, 3), 2, 3)
        assert abs(truncation_certificate(nonoise, table)) <= 1e-10


def test_truncation_certificate_does_not_increase_with_N(ou_system_k4):
    tb = cosine_basis(0.5, 2)
    rhos = [truncation_certificate(ou_system_k4, precompute_table(ou_system_k4, tb, N, 2))
            for N in range(5)]
    assert 0.0 < rhos[-1] and rhos[0] < 1.0
    assert all(b <= a for a, b in zip(rhos, rhos[1:])), rhos


@pytest.mark.parametrize("system", [None, random_stable_system(4, r=2, seed=9)])
def test_truncation_certificate_zeta_form_is_parseval_over_second_moment(ou_system_k4, system):
    system = system or ou_system_k4
    table = precompute_table(system, cosine_basis(0.4, 3), 2, 3)
    G, P = propagator._certificate_pencil(system, table)
    rho = truncation_certificate(system, table)
    assert rho == pytest.approx(eigh(G - P, G, eigvals_only=True)[-1], abs=1e-12)
    for zeta in np.random.default_rng(3).normal(size=(4, system.K)):
        form = 1.0 - (zeta @ P @ zeta) / (zeta @ G @ zeta)
        moment = brownian_second_moment(system, table.delta, zeta, substeps=table.substeps)
        assert abs(form - (1.0 - parseval_mass(table, zeta)[0] / moment)) <= 1e-10
        assert form <= rho + 1e-12


def test_truncation_certificate_is_the_monte_carlo_error_of_the_worst_start(ou_system_k4):
    # As in acceptance criterion 4: fine-grid Euler paths are the exact
    # window solution; the table's one-window step from the maximising
    # start misses rho of its mean-square under Brownian driving.
    delta, nsteps, npaths = 0.25, 128, 10_000
    tb = cosine_basis(delta, 2)
    table = precompute_table(ou_system_k4, tb, 1, 2)
    rho = truncation_certificate(ou_system_k4, table)
    G, P = propagator._certificate_pencil(ou_system_k4, table)
    zeta = eigh(G - P, G)[1][:, -1]         # the maximising start, zeta^T G zeta = 1
    rng = np.random.default_rng(5)
    dW = rng.normal(scale=math.sqrt(delta / nsteps), size=(npaths, nsteps))
    Y = np.concatenate([np.zeros((npaths, 1)), np.cumsum(dW, axis=1)], axis=1)[:, :, None]
    exact = integrate_galerkin_sde_paths(ou_system_k4, Y, delta / nsteps, zeta)
    t = np.linspace(0.0, delta, nsteps + 1)
    chaos = np.array([step_matrix(table, xi_integrals(ObservationWindow(0.0, delta, t, y), tb))
                      @ zeta for y in Y])
    err = np.sum((exact - chaos) ** 2, axis=1)
    se = err.std() / math.sqrt(npaths)
    assert 0.1 < rho < 0.3
    assert abs(err.mean() - rho) <= 3.0 * se, (err.mean(), se, rho)


def test_truncation_certificate_rejects_table_of_other_system(ou_system_k4, ou_system_k8):
    table = precompute_table(ou_system_k8, cosine_basis(0.2, 2), 1, 2)
    with pytest.raises(ValueError, match="table has K=8, r=1 but the system has K=4, r=1"):
        truncation_certificate(ou_system_k4, table)


def test_table_round_trip(tmp_path, ou_system_k8):
    tb = cosine_basis(0.25, 3)
    table = precompute_table(ou_system_k8, tb, 2, 3, substeps=64)
    path = tmp_path / "t.bin"
    save_table(path, table)
    back = load_table(path)
    assert back.K == table.K and back.r == table.r
    assert back.delta == table.delta and back.N == table.N and back.n == table.n
    assert back.substeps == table.substeps
    assert back.indices == table.indices
    assert np.array_equal(back.matrices, table.matrices)
    assert back.basis.gammas == table.basis.gammas
    assert np.array_equal(back.basis.lambdas, table.basis.lambdas)


def test_table_files_byte_identical_on_rewrite(tmp_path, ou_system_k8):
    tb = cosine_basis(0.25, 2)
    table = precompute_table(ou_system_k8, tb, 1, 2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_table(p1, table)
    save_table(p2, table)
    assert p1.read_bytes() == p2.read_bytes()


def test_brownian_second_moment_matches_inline_rk4(ou_system_k4, grid64):
    # The moment flow's RK4 loop before it moved onto the shared stepper,
    # kept as an oracle: same arithmetic, so the results are equal.
    zeta = project(gaussian_p0, ou_system_k4.basis, grid64)
    A, B = ou_system_k4.A, ou_system_k4.B

    def rhs(M):
        out = A @ M + M @ A.T
        for l in range(ou_system_k4.r):
            out += B[l] @ M @ B[l].T
        return out

    delta, substeps = 0.1, 64
    h = delta / substeps
    M = np.outer(zeta, zeta)
    for _ in range(substeps):
        k1 = rhs(M)
        k2 = rhs(M + 0.5 * h * k1)
        k3 = rhs(M + 0.5 * h * k2)
        k4 = rhs(M + h * k3)
        M = M + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert brownian_second_moment(ou_system_k4, delta, zeta, substeps=substeps) == np.trace(M)


def test_brownian_second_moment_reports_blowup():
    with pytest.raises(FloatingPointError, match="substep 1 of 4"), np.errstate(over="ignore"):
        brownian_second_moment(scalar_system(a=1e200), 1.0, np.array([1.0]), substeps=4)


def _truncated_table(tmp_path, ou_system_k4, cut):
    # 3 matrices of a K=4 table, 128 bytes each, cut to cut(bytes) bytes
    path = tmp_path / "t.bin"
    save_table(path, precompute_table(ou_system_k4, cosine_basis(0.25, 2), 1, 2, substeps=64))
    path.write_bytes(path.read_bytes()[:cut(path.read_bytes())])
    return path


def test_load_table_rejects_truncated_binary_matrix(tmp_path, ou_system_k4):
    path = _truncated_table(tmp_path, ou_system_k4, lambda buf: len(buf) - 40)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: truncated: expected 384 bytes of matrices after the header (N=1, n=2, "
            f"r=1, K=4), found 344")):
        load_table(path)


def test_load_table_rejects_content_after_the_declared_blocks(tmp_path, ou_system_k4):
    path = _truncated_table(tmp_path, ou_system_k4, len)
    data = path.read_bytes()
    for tail in (b"\n", b"\x00" * 128, b"\n 1:1:1\n"):
        path.write_bytes(data + tail)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: byte offset {len(data)}: unexpected content after the 3 matrices")):
            load_table(path)


def test_load_table_rejects_truncated_header(tmp_path, ou_system_k4):
    path = _truncated_table(tmp_path, ou_system_k4, lambda buf: buf.index(b"basis_d"))
    with pytest.raises(ValueError, match=r"t\.bin: truncated header: expected 8 lines, found 7"):
        load_table(path)


def test_load_table_rejects_a_file_that_is_not_regular():
    # the body is read by the file's size, which a device or a pipe does not have
    with pytest.raises(ValueError, match=re.escape(f"{os.devnull}: not a regular file")):
        load_table(os.devnull)


def test_load_table_rejects_version_1_by_name(tmp_path, ou_system_k4):
    path = tmp_path / "v1.tbl"
    save_table_v1(path, precompute_table(ou_system_k4, cosine_basis(0.25, 2), 1, 2))
    assert path.read_bytes().startswith(b"version=1\nformat=binary\nK=4\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: unsupported table version '1'; write the table again with `precompute`")):
        load_table(path)


@pytest.mark.parametrize("N", [0, 1])
@pytest.mark.parametrize("keys", ["N", "n", "r", "K", "basis_d", "N n"])
def test_load_table_rejects_huge_header_counts_at_a_cost_bounded_by_the_file(tmp_path, N, keys):
    # header values are outside input: a count of 1e9 must fail fast, building nothing large;
    # with N and n both 1e9 the index count binom(n + N, N) has some 6e8 digits
    K = 4
    table = PropagatorTable(K=K, r=1, delta=0.1, N=N, n=2, substeps=64, basis=build_basis(1, K),
                            counts=enumerate_counts(N, 2, 1),
                            matrices=np.ones((1 + 2 * N, K, K)))
    path = tmp_path / "t.tbl"
    save_table(path, table)
    data = path.read_bytes()
    for key in keys.split():
        data = re.sub(rf"(?m)^{key}=.*$".encode(), f"{key}=1000000000".encode(), data, count=1)
    path.write_bytes(data)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as info:
            load_table(path)
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "1000000000" in str(info.value)
    assert seconds < 1.0 and peak < 2 ** 20, (seconds, peak, str(info.value))


# The right-hand side that the sparse lowering replaced: one pass per slot
# group (k, l), each gathering S[src], forming B_l S[src] and scattering
# coeff * m_k(s) times it into out[dst].  Kept as the oracle for the
# coefficient flows; the sparse product sums in another order, so the
# agreement is to rounding, scaled by the table's largest entry.

def per_slot_integrate(system, tbasis, indices, S0, substeps):
    groups = coupling_groups(indices)
    A, B = system.A, system.B

    def rhs(s, S):
        out = np.matmul(A, S)
        for (k, l), (co, dst, src) in groups.items():
            out[dst] += (co * tbasis.eval(k, s))[:, None, None] * np.matmul(B[l - 1], S[src])
        return out

    return rk4(rhs, S0, tbasis.delta / substeps, substeps)


def per_slot_table(system, tbasis, N, n):
    indices = enumerate_truncated(N, n, system.r)
    S0 = np.zeros((len(indices), system.K, system.K))
    S0[0] = np.eye(system.K)
    return per_slot_integrate(system, tbasis, indices, S0, default_substeps(n))


def assert_table_matches_per_slot(system, tbasis, N, n):
    table = precompute_table(system, tbasis, N, n)
    oracle = per_slot_table(system, tbasis, N, n)
    assert table.matrices.shape == oracle.shape
    assert np.max(np.abs(table.matrices - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    return table


def test_precompute_matches_per_slot_rhs_ou(ou_system_k8):
    assert_table_matches_per_slot(ou_system_k8, cosine_basis(0.25, 3), 2, 3)


def test_precompute_matches_per_slot_rhs_two_channels():
    table = assert_table_matches_per_slot(random_stable_system(5, r=2, seed=4),
                                          cosine_basis(0.3, 3), 3, 3)
    assert table.r == 2 and len(table.indices) == math.comb(3 * 2 + 3, 3)


# The right-hand side before the stage rows of _stage_data: C's entries
# formed from tbasis.modes(s) in every call.  Kept as the oracle for the
# whole table; C is dense or CSR as propagator._dense_lowering picks, and
# the products and their order are the same, so the bits are too.  Its
# CSR branch is the right-hand side as it was before dense lowerings, so
# a table that runs as CSR keeps its bits.

def per_call_table(system, tbasis, N, n):
    indices = enumerate_truncated(N, n, system.r)
    S0 = np.zeros((len(indices), system.K, system.K))
    S0[0] = np.eye(system.K)
    A, B = system.A, system.B
    lowering = coupling_lowering(indices, system.r)
    dst, col, width, coeff, mode = lowering
    n_src = width // system.r
    out = np.empty(S0.shape)
    BS = np.empty((system.r, n_src) + S0.shape[1:])
    if propagator._dense_lowering(len(indices), system.K, width):
        C = np.zeros((len(indices), width))

        def put(values):
            C[dst, col] = values
    else:
        C = csr_lowering(lowering, len(indices))

        def put(values):
            C.data = values

    def rhs(s, S):
        put(coeff * tbasis.modes(s)[mode])
        np.matmul(B[:, None], S[None, :n_src], out=BS)
        np.matmul(A, S, out=out)
        return np.add(out, (C @ BS.reshape(width, -1)).reshape(out.shape), out=out)

    substeps = default_substeps(n)
    return rk4(rhs, S0, tbasis.delta / substeps, substeps)


def lowering_is_dense(K, N, n, r=1):
    _, _, width, _, _ = propagator._lowering(enumerate_counts(N, n, r), r)
    return propagator._dense_lowering(math.comb(n * r + N, N), K, width)


@pytest.mark.parametrize("system, tbasis, N, n", [
    (random_stable_system(16, seed=2), cosine_basis(0.01, 4), 2, 4),     # mc-cubic sizes: dense
    (random_stable_system(5, r=2, seed=4), cosine_basis(0.3, 3), 3, 3),  # CSR
    (random_stable_system(4, seed=7), cosine_basis(0.01, 8), 4, 8)])     # CSR
def test_precompute_equals_per_call_rhs_bit_for_bit(system, tbasis, N, n):
    table = precompute_table(system, tbasis, N, n)
    assert np.array_equal(table.matrices, per_call_table(system, tbasis, N, n))


@pytest.mark.parametrize("K, N, n, r, dense", [
    (16, 2, 4, 1, True),        # mc-cubic: |J|=15, width 5
    (48, 3, 2, 1, True),        # |J|=10, width 6
    (32, 3, 8, 1, False),       # live-correlated: two column blocks at two cores
    (16, 4, 8, 1, False),       # |J|=495: two column blocks
    (4, 4, 8, 1, False),        # one block, but width 165 > K
    (5, 3, 3, 2, False),        # one block, but width 56 > K
    (5, 2, 4, 1, True),         # width 5 = K
    (4, 2, 4, 1, False),        # width 5 > K
    (63, 3, 3, 1, True),        # |J| K^2 = 79380, just under 2 _BLOCK_ENTRIES
    (64, 3, 3, 1, False)])      # |J| K^2 = 81920: two column blocks at two cores
def test_lowering_representation_follows_the_table_shape_alone(monkeypatch, K, N, n, r, dense):
    J = math.comb(n * r + N, N)
    for cores in (1, 2, 64):
        set_cores(monkeypatch, cores)
        assert lowering_is_dense(K, N, n, r) == dense
        if dense:
            assert len(propagator._column_blocks((J, K, K))) == 1


@pytest.mark.parametrize("system, tbasis, N, n", [
    (random_stable_system(16, seed=2), cosine_basis(0.01, 4), 2, 4),     # mc-cubic sizes
    (random_stable_system(16, r=2, seed=9), cosine_basis(0.3, 3), 2, 3)])  # one block, r=2
def test_dense_lowering_agrees_with_csr(monkeypatch, system, tbasis, N, n):
    assert lowering_is_dense(system.K, N, n, system.r)
    dense = precompute_table(system, tbasis, N, n).matrices
    monkeypatch.setattr(propagator, "_dense_lowering", lambda J, K, width: False)
    csr = precompute_table(system, tbasis, N, n).matrices
    assert np.max(np.abs(dense - csr)) <= 1e-13 * np.max(np.abs(csr))


@pytest.mark.parametrize("N, n", [(3, 8), (2, 4)])      # live-correlated, mc-cubic
def test_stage_rows_equal_modes_at_every_time_rk4_passes(N, n):
    tbasis, substeps = cosine_basis(0.01, n), default_substeps(n)
    h = tbasis.delta / substeps
    _, _, _, coeff, mode = coupling_lowering(enumerate_truncated(N, n, 1), 1)
    stage = propagator._stage_data(tbasis, coeff, mode, h, substeps)
    passed = []
    rk4(lambda s, y: passed.append(s) or np.zeros(1), np.zeros(1), h, substeps)
    assert set(stage) == set(passed) and len(passed) == 4 * substeps
    for s in passed:
        row = stage[s]
        assert not row.flags.writeable
        assert np.array_equal(row, coeff * tbasis.modes(s)[mode])


def test_precompute_matches_per_slot_rhs_no_coupling_at_n0(ou_system_k8):
    assert_table_matches_per_slot(ou_system_k8, cosine_basis(0.25, 2), 0, 2)


def test_precompute_matches_per_slot_rhs_deep_single_mode():
    assert_table_matches_per_slot(random_stable_system(3, seed=8), cosine_basis(0.5, 1), 12, 1)


def test_precompute_matches_per_slot_rhs_without_noise():
    sys_ = random_stable_system(4, seed=5)
    nonoise = GalerkinSystem(K=4, r=1, A=sys_.A, B=np.zeros((1, 4, 4)), basis=sys_.basis)
    table = assert_table_matches_per_slot(nonoise, cosine_basis(0.2, 3), 2, 3)
    assert np.max(np.abs(table.matrices[1:])) == 0.0


def test_solve_phi_agrees_with_table_columns():
    # solve_phi integrates a smaller index set than the table, so the
    # lowering pattern is rebuilt for another |J|.
    sys_ = random_stable_system(5, r=2, seed=6)
    tb = cosine_basis(0.3, 3)
    table = precompute_table(sys_, tb, 3, 3)
    zeta = np.linspace(-1.0, 1.5, 5)
    scale = np.max(np.abs(table.matrices))
    for alpha in (MultiIndex.from_dict({(2, 2): 1}, 2), MultiIndex.from_dict({(1, 1): 2}, 2),
                  MultiIndex.from_dict({(1, 2): 1, (3, 1): 2}, 2)):
        got = solve_phi(sys_, tb, alpha, zeta, substeps=table.substeps)
        assert np.max(np.abs(got - table.matrix_for(alpha) @ zeta)) <= 1e-13 * scale


def test_temporal_modes_equal_eval():
    tb = cosine_basis(0.7, 6)
    s = np.linspace(0.0, 0.7, 13)
    assert np.array_equal(tb.modes(s), np.array([tb.eval(k, s) for k in range(1, 7)]))
    assert np.array_equal(tb.modes(0.3), np.array([tb.eval(k, 0.3) for k in range(1, 7)]))


def test_solve_phi_rejects_channel_mismatch(ou_system_k4):
    alpha = MultiIndex.from_dict({(1, 1): 1}, r=2)
    with pytest.raises(ValueError, match=r"alpha has r=2 channels but the system has r=1"):
        solve_phi(ou_system_k4, cosine_basis(0.2, 2), alpha, np.ones(4))


def test_solve_phi_rejects_zeta_of_wrong_length(ou_system_k4):
    alpha = MultiIndex.from_dict({(1, 1): 1}, r=1)
    with pytest.raises(ValueError, match=r"zeta of shape \(3,\) does not match the system's K=4"):
        solve_phi(ou_system_k4, cosine_basis(0.2, 2), alpha, np.ones(3))


@pytest.mark.parametrize("key, value", [("K", "-4"), ("r", "-1"), ("N", "-2"),
                                        ("n", "-2"), ("substeps", "-64")])
def test_load_table_names_negative_header_count(tmp_path, ou_system_k4, key, value):
    path = _truncated_table(tmp_path, ou_system_k4, len)
    path.write_bytes(re.sub(rf"(?m)^{key}=.*$".encode("ascii"), f"{key}={value}".encode("ascii"),
                            path.read_bytes(), count=1))
    with pytest.raises(ValueError, match=re.escape(
            f"t.bin: table header: {key} is not a nonnegative integer: '{value}'")):
        load_table(path)


# The stacked RK4 pass before it ran in column blocks on threads, with a
# stepper that formed every stage in fresh arrays.  Kept as the oracle for
# the blocked pass; on x86-64 OpenBLAS the tables are equal bit for bit,
# the bound below leaves room for another BLAS.

def serial_rk4(rhs, y0, h, steps):
    y = y0
    for step in range(steps):
        s = step * h
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"flow lost finiteness at substep {step + 1} of {steps}")
    return y


def serial_integrate_stacked(system, tbasis, indices, S0, substeps):
    A, B = system.A, system.B
    lowering = coupling_lowering(indices, system.r)
    if lowering is None:
        return serial_rk4(lambda s, S: np.matmul(A, S), S0, tbasis.delta / substeps, substeps)
    _, _, width, coeff, mode = lowering
    C = csr_lowering(lowering, len(indices))
    n_src = width // system.r
    AS = np.empty(S0.shape)
    BS = np.empty((system.r, n_src) + S0.shape[1:])

    def rhs(s, S):
        C.data = coeff * tbasis.modes(s)[mode]
        np.matmul(B[:, None], S[None, :n_src], out=BS)
        out = C @ BS.reshape(C.shape[1], -1)
        out += np.matmul(A, S, out=AS).reshape(out.shape)
        return out.reshape(S.shape)

    return serial_rk4(rhs, S0, tbasis.delta / substeps, substeps)


def serial_table(system, tbasis, N, n, substeps=None):
    indices = enumerate_truncated(N, n, system.r)
    S0 = np.zeros((len(indices), system.K, system.K))
    S0[0] = np.eye(system.K)
    return serial_integrate_stacked(system, tbasis, indices, S0, substeps or default_substeps(n))


def set_cores(monkeypatch, cores):
    monkeypatch.setattr(propagator.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


def force_blocks(monkeypatch, cores):
    """Run precompute on `cores` column blocks whatever the machine and the size."""
    set_cores(monkeypatch, cores)
    monkeypatch.setattr(propagator, "_BLOCK_ENTRIES", 1)


def assert_close_to(table, oracle):
    assert table.matrices.shape == oracle.shape
    assert np.max(np.abs(table.matrices - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.fixture(scope="module")
def correlated_ou_k32():
    # the live-correlated setting: K=32, N=3, n=8, |J|=165
    cfg = parse_config("model.name = correlated-ou\ndiscretization.K = 32\n"
                       "discretization.N = 3\ndiscretization.n = 8\n"
                       "discretization.delta = 0.01\ndiscretization.T = 1\n")
    pipe = experiments.build_pipeline(cfg)
    # 32 substeps in place of the default 64: the columns' sums are the same at any count
    return pipe.system, pipe.tbasis, serial_table(pipe.system, pipe.tbasis, 3, 8, substeps=32)


@pytest.mark.parametrize("cores", [2, 4])
def test_blocked_precompute_matches_serial_pass_correlated_ou(monkeypatch, correlated_ou_k32,
                                                              cores):
    system, tbasis, oracle = correlated_ou_k32
    force_blocks(monkeypatch, cores)
    assert len(propagator._column_blocks(oracle.shape)) == cores
    assert_close_to(precompute_table(system, tbasis, 3, 8, substeps=32), oracle)


def test_blocked_precompute_matches_serial_pass_two_channels(monkeypatch):
    system, tbasis = random_stable_system(16, r=2, seed=9), cosine_basis(0.3, 3)
    force_blocks(monkeypatch, 2)
    first = precompute_table(system, tbasis, 2, 3)
    assert_close_to(first, serial_table(system, tbasis, 2, 3))
    # mc-cubic rebuilds its table every round and compares each with the first
    assert np.array_equal(precompute_table(system, tbasis, 2, 3).matrices, first.matrices)


def test_blocked_precompute_matches_serial_pass_at_n0(monkeypatch):
    system, tbasis = random_stable_system(16, seed=3), cosine_basis(0.25, 2)
    force_blocks(monkeypatch, 2)
    assert_close_to(precompute_table(system, tbasis, 0, 2), serial_table(system, tbasis, 0, 2))


def test_column_blocks_are_aligned_and_never_more_than_cols(monkeypatch):
    force_blocks(monkeypatch, 64)
    for cols in range(1, 41):
        blocks = propagator._column_blocks((3, 5, cols))
        assert 1 <= len(blocks) <= cols
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == cols
        assert all(b.start % 8 == 0 and b.stop > b.start for b in blocks)


def test_column_blocks_by_size(monkeypatch):
    set_cores(monkeypatch, 2)
    assert len(propagator._column_blocks((15, 16, 16))) == 1       # mc-cubic: serial
    assert len(propagator._column_blocks((165, 32, 32))) == 2      # live-correlated
    assert len(propagator._column_blocks((165, 32, 1))) == 1       # solve_phi: one column


def test_one_core_runs_serial_on_the_calling_thread(monkeypatch, ou_system_k8):
    class NoPool:
        def __init__(self, *args):
            raise AssertionError("a thread pool was started on one core")

    force_blocks(monkeypatch, 1)
    monkeypatch.setattr(propagator, "ThreadPoolExecutor", NoPool)
    table = precompute_table(ou_system_k8, cosine_basis(0.25, 3), 2, 3)
    assert_close_to(table, serial_table(ou_system_k8, cosine_basis(0.25, 3), 2, 3))


def blowing_system(fast_cols):
    # dS/ds = A S from S(0) = I: column j grows like exp(a_j s).  Over 4
    # substeps of 0.25, a = 1.6e31 overflows at substep 3, a = 1e200 at 1.
    a = np.full(16, 1.6e31)
    a[fast_cols] = 1e200
    return GalerkinSystem(K=16, r=1, A=np.diag(a), B=np.zeros((1, 16, 16)),
                          basis=build_basis(1, 16))


@pytest.mark.parametrize("fast_cols, substep", [(slice(8, 16), 1), (slice(0, 8), 1),
                                                (slice(0, 0), 3)])
def test_blocked_blowup_reports_earliest_substep(monkeypatch, fast_cols, substep):
    system, tbasis = blowing_system(fast_cols), cosine_basis(1.0, 1)
    message = f"flow lost finiteness at substep {substep} of 4"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=message):
            serial_table(system, tbasis, 0, 1, substeps=4)
        force_blocks(monkeypatch, 2)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match=message):
            precompute_table(system, tbasis, 0, 1, substeps=4)
    assert threading.active_count() == threads      # no block left running


def test_blocked_blowup_under_errstate_raise_passes_numpy_error(monkeypatch):
    # numpy's own FloatingPointError names no substep; it is raised as it is
    system, tbasis = blowing_system(slice(8, 16)), cosine_basis(1.0, 1)
    force_blocks(monkeypatch, 2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        precompute_table(system, tbasis, 0, 1, substeps=4)
