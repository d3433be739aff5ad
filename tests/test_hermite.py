import math

import numpy as np
import pytest

from chaosfilter import experiments, galerkin, hermite
from chaosfilter.config import parse_config
from chaosfilter.hermite import (basis_tables, build_basis, eval_basis, gauss_hermite_grid,
                                 gram_matrix, hermite_function_derivatives,
                                 hermite_function_values, lambda_power_norm, project)

from oracles import basis_tables_loop, h1_norm, hermite_function_derivatives_loop


def test_build_basis_d1():
    b = build_basis(1, 3)
    assert b.gammas == ((0,), (1,), (2,))
    assert np.array_equal(b.lambdas, [2.0, 4.0, 6.0])


def test_build_basis_d2():
    b = build_basis(2, 4)
    assert b.gammas == ((0, 0), (1, 0), (0, 1), (2, 0))
    assert np.array_equal(b.lambdas, [3.0, 5.0, 5.0, 7.0])


def test_build_basis_trivial():
    b = build_basis(2, 1)
    assert b.gammas == ((0, 0),)
    assert np.array_equal(b.lambdas, [3.0])


def test_build_basis_ordering_invariant():
    for d, K in [(1, 20), (2, 25), (3, 30)]:
        b = build_basis(d, K)
        for g0, g1 in zip(b.gammas, b.gammas[1:]):
            assert sum(g0) < sum(g1) or (sum(g0) == sum(g1) and g0 > g1)
        assert np.all(np.diff(b.lambdas) >= 0)


def test_eigenvalue_growth_rate():
    # lambda_k / k^(1/d) stays in a fixed band: the polynomial growth law.
    expected = {(1, 16): (2.0, 2.0), (2, 12): (2.84, 3.54), (3, 10): (3.71, 4.77)}
    for (d, K), (lo, hi) in expected.items():
        b = build_basis(d, K)
        ratios = b.lambdas / np.arange(1, K + 1) ** (1.0 / d)
        assert lo - 0.01 <= ratios.min() and ratios.max() <= hi + 0.01


def test_eval_basis_examples():
    b1 = build_basis(1, 2)
    assert eval_basis(b1, 0, [0.0]) == pytest.approx(math.pi ** -0.25, rel=1e-14)
    assert eval_basis(b1, 1, [0.0]) == 0.0
    b2 = build_basis(2, 1)
    assert eval_basis(b2, 0, [0.0, 0.0]) == pytest.approx(math.pi ** -0.5, rel=1e-14)
    with pytest.raises(IndexError):
        eval_basis(b1, 2, [0.0])


def test_gauss_hermite_one_point():
    g = gauss_hermite_grid(1, 1)
    assert g.nodes.shape == (1, 1)
    assert g.nodes[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert g.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gauss_hermite_orthonormality_and_moment():
    g8 = gauss_hermite_grid(1, 8)
    b = build_basis(1, 1)
    val = np.sum(g8.weights * basis_tables(b, g8.nodes)[0] ** 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    g2 = gauss_hermite_grid(1, 2)
    x = g2.nodes[:, 0]
    val = np.sum(g2.weights * x * x * np.exp(-x * x))
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)


def test_gauss_hermite_tensor_structure():
    g = gauss_hermite_grid(2, 5)
    assert g.nodes.shape == (25, 2)
    assert np.all(g.weights > 0)
    val = np.sum(g.weights * np.exp(-np.sum(g.nodes ** 2, axis=1)))
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_gauss_hermite_guards():
    with pytest.raises(ValueError):
        gauss_hermite_grid(1, 0)
    with pytest.raises(ValueError):
        gauss_hermite_grid(1, 200)


@pytest.mark.parametrize("m", [1, 2, 17, 64, 150])
def test_cached_hermite_rule_is_read_only_and_equals_fresh_rule(m):
    x, w = hermite._hermgauss(m)
    fresh = np.polynomial.hermite.hermgauss(m)
    assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
    assert not x.flags.writeable and not w.flags.writeable
    assert hermite._hermgauss(m)[0] is x
    with pytest.raises(ValueError, match="read-only"):
        gauss_hermite_grid(1, m).nodes[0, 0] = 1.0


def test_project_recovers_basis_function(grid64):
    basis = build_basis(1, 8)
    g16 = gauss_hermite_grid(1, 16)
    f = lambda x: basis_tables(basis, np.atleast_1d(x)[:, None])[2]
    coeffs = project(f, basis, g16)
    expect = np.zeros(8)
    expect[2] = 1.0
    assert np.max(np.abs(coeffs - expect)) < 1e-10


def test_project_zero(grid64):
    basis = build_basis(1, 4)
    assert np.array_equal(project(lambda x: np.zeros_like(x), basis, grid64), np.zeros(4))


def test_project_gaussian_density(grid64):
    # closed form: int N(0,1)(x) h_0(x) dx = (4 pi)^(-1/4)
    basis = build_basis(1, 1)
    f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    val = project(f, basis, grid64)[0]
    assert val == pytest.approx((4 * math.pi) ** -0.25, rel=1e-12)


def test_project_rejects_nonfinite(grid64):
    basis = build_basis(1, 2)
    with pytest.raises(ValueError):
        project(lambda x: np.where(x > 0, np.inf, 1.0), basis, grid64)


@pytest.mark.parametrize("model", ["ou-linear", "correlated-ou", "cubic-sensor"])
def test_pipeline_projections_equal_separate_project_calls(model):
    cfg = parse_config(f"model.name = {model}\ndiscretization.K = 12\n"
                       "discretization.delta = 0.01\ndiscretization.T = 1\n")
    pipe = experiments.build_pipeline(cfg)
    basis, grid = pipe.basis, pipe.grid
    assert np.array_equal(pipe.p_init, project(pipe.bundle.filter_model.p0, basis, grid))
    assert np.array_equal(pipe.f_coeffs, project(lambda x: x, basis, grid))
    assert np.array_equal(pipe.one_coeffs, project(np.ones_like, basis, grid))


def test_lambda_power_norm():
    basis = build_basis(1, 2)
    c = np.array([3.0, 4.0])
    assert lambda_power_norm(c, basis, 0) == pytest.approx(5.0)
    e2 = np.array([0.0, 1.0])
    assert lambda_power_norm(e2, basis, 3) == pytest.approx(4.0 ** 3)
    assert lambda_power_norm(np.ones(2), basis, 1) == pytest.approx(math.sqrt(20.0))


def test_gram_matrix_identity(grid64):
    basis = build_basis(1, 16)
    G = gram_matrix(basis, grid64)
    assert np.max(np.abs(G - np.eye(16))) < 1e-8


def test_eigen_relation(grid64):
    basis = build_basis(1, 16)
    V, _, S = basis_tables(basis, grid64.nodes, derivatives=2)
    x = grid64.nodes[:, 0]
    LamV = -S[:, 0, 0, :] + (1.0 + x * x) * V
    M = (LamV * grid64.weights) @ V.T
    assert np.max(np.abs(M - np.diag(basis.lambdas))) < 1e-6


def test_basis_tables_gradients_match_finite_differences():
    basis = build_basis(2, 6)
    pts = np.array([[0.3, -0.7], [1.1, 0.4]])
    V, G, S = basis_tables(basis, pts, derivatives=2)
    eps = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        Vp = basis_tables(basis, pts + shift)
        Vm = basis_tables(basis, pts - shift)
        fd = (Vp - Vm) / (2 * eps)
        assert np.max(np.abs(fd - G[:, axis, :])) < 1e-7
        fd2 = (Vp - 2 * V + Vm) / eps ** 2
        assert np.max(np.abs(fd2 - S[:, axis, axis, :])) < 1e-4


def test_h1_norm_probe_grows(grid64):
    basis = build_basis(1, 16)
    norms = [h1_norm(basis, k, grid64) for k in range(16)]
    assert norms[0] == pytest.approx(math.sqrt(1.0 + 0.5), rel=1e-10)
    assert norms[-1] > norms[0]
    assert all(n > 0 for n in norms)


def _same_bits(got, ref):
    return got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("K", [1, 2, 7, 16, 21, 32, 45])
@pytest.mark.parametrize("derivatives", [0, 1, 2])
def test_basis_tables_equal_the_per_index_loop_bit_for_bit(d, K, derivatives):
    basis = build_basis(d, K)
    assert (basis.max_degree == 0) == (K == 1)
    # quadrature nodes, where the library evaluates the tables, and points off the grid
    nodes = np.concatenate([gauss_hermite_grid(d, 5).nodes,
                            np.random.default_rng(10 * d + K).normal(scale=3.0, size=(9, d))])
    got = basis_tables(basis, nodes, derivatives)
    ref = basis_tables_loop(basis, nodes, derivatives)
    if derivatives == 0:
        got, ref = (got,), (ref,)
    assert len(got) == len(ref) == derivatives + 1
    assert all(_same_bits(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("nmax", [2, 3, 34])
def test_hermite_function_derivatives_equal_the_degree_loop_bit_for_bit(nmax):
    t = np.concatenate([np.linspace(-9.0, 9.0, 37), [0.0, -0.0, 40.0]])
    H = hermite_function_values(nmax, t)
    got, ref = hermite_function_derivatives(H), hermite_function_derivatives_loop(H)
    assert got[0].shape == (nmax - 1, t.size)
    assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


def test_hermite_function_derivatives_need_two_degrees_past_the_target():
    with pytest.raises(ValueError, match="two degrees past"):
        hermite_function_derivatives(hermite_function_values(1, np.zeros(3)))


@pytest.mark.parametrize("model", ["cubic-sensor", "correlated-ou"])
def test_galerkin_matrices_are_unchanged_by_the_array_tables(model, monkeypatch):
    cfg = parse_config(f"model.name = {model}\ndiscretization.K = 16\n")
    pipe = experiments.build_pipeline(cfg)
    args = pipe.bundle.filter_model, pipe.basis, pipe.grid
    got = galerkin.assemble(*args)
    monkeypatch.setattr(galerkin, "basis_tables", basis_tables_loop)
    ref = galerkin.assemble(*args)
    assert _same_bits(got.A, ref.A) and _same_bits(got.B, ref.B)
