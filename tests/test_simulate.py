import math

import numpy as np
import pytest

from chaosfilter.galerkin import FilterModel
from chaosfilter.simulate import SimulationConfig, sample_initial, simulate, simulate_paths, write_truth

from conftest import gaussian_p0


def drift_only_model(rate=-0.8):
    return FilterModel(d=1, d1=1, r=1, b=lambda x: rate * np.asarray(x, float),
                       sigma=0.0, rho=0.0, h=0.0, p0=gaussian_p0)


def test_config_validation():
    m = drift_only_model()
    with pytest.raises(ValueError, match="need 0 < delta_sim <= T"):
        SimulationConfig(model=m, T=1.0, delta_sim=2.0, seed=0)
    with pytest.raises(ValueError, match="T must be an integer multiple of delta_sim"):
        SimulationConfig(model=m, T=1.0, delta_sim=0.03, seed=0)


def test_seed_determinism():
    cfg = SimulationConfig(model=drift_only_model(), T=1.0, delta_sim=0.01, seed=42)
    t1, X1, Y1 = simulate_paths(cfg, 3)
    t2, X2, Y2 = simulate_paths(cfg, 3)
    assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)
    other = SimulationConfig(model=drift_only_model(), T=1.0, delta_sim=0.01, seed=43)
    _, X3, _ = simulate_paths(other, 3)
    assert not np.array_equal(X1, X3)


def test_noise_free_path_matches_ode():
    rate = -0.8
    cfg = SimulationConfig(model=drift_only_model(rate), T=1.0, delta_sim=1e-4, seed=1)
    times, X, Y = simulate(cfg, x0=np.array([2.0]))
    times, X = times[::2500], X[::2500]
    exact = 2.0 * np.exp(rate * times)
    assert np.max(np.abs(X[:, 0] - exact)) < 2e-4
    # with h = 0 the observation is the Brownian V itself
    assert Y[0, 0] == 0.0


def test_brownian_variance():
    m = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=0.0, h=0.0, p0=gaussian_p0)
    cfg = SimulationConfig(model=m, T=1.0, delta_sim=0.02, seed=7)
    _, X, _ = simulate_paths(cfg, 10_000, x0=np.zeros(10_000))
    final = X[:, -1, 0]
    var = final.var(ddof=1)
    se = var * math.sqrt(2.0 / (len(final) - 1))
    assert abs(var - 1.0) <= 3 * se


def test_callable_sigma_gives_the_paths_of_the_constant_and_is_evaluated_every_step():
    calls = []

    def sigma(x):
        calls.append(x.shape)
        return np.full(x.shape, 0.7)

    def model(sigma):
        return FilterModel(d=1, d1=1, r=1, b=lambda x: -0.8 * np.asarray(x, float),
                           sigma=sigma, rho=0.4, h=lambda x: np.sin(x), p0=gaussian_p0)

    cfg = dict(T=0.5, delta_sim=0.01, seed=11)
    constant = simulate_paths(SimulationConfig(model=model(0.7), **cfg), 4)
    varying = simulate_paths(SimulationConfig(model=model(sigma), **cfg), 4)
    assert len(calls) == 50 and set(calls) == {(4,)}
    for a, b in zip(constant, varying):
        assert np.array_equal(a, b)


def test_state_dependent_sigma_follows_inline_euler():
    def sigma(x):
        return 0.5 + 0.1 * np.cos(x)

    m = FilterModel(d=1, d1=1, r=1, b=0.3, sigma=sigma, rho=0.2, h=1.0, p0=gaussian_p0)
    cfg = SimulationConfig(model=m, T=0.2, delta_sim=0.01, seed=5)
    _, X, Y = simulate_paths(cfg, 2, x0=np.array([0.0, 1.0]))
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(5).spawn(2)]
    sq = math.sqrt(0.01)
    for p, rng in enumerate(rngs):
        dW, dV = rng.normal(scale=sq, size=(20, 1)), rng.normal(scale=sq, size=(20, 1))
        x, y = X[p, 0, 0], 0.0
        for i in range(20):
            x, y = x + 0.3 * 0.01 + sigma(x) * dW[i, 0] + 0.2 * dV[i, 0], y + 0.01 + dV[i, 0]
            assert X[p, i + 1, 0] == pytest.approx(x, abs=1e-14)
            assert Y[p, i + 1, 0] == pytest.approx(y, abs=1e-14)


def test_shared_noise_correlates_increments():
    m = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=0.0, rho=1.0, h=0.0, p0=gaussian_p0)
    cfg = SimulationConfig(model=m, T=1.0, delta_sim=0.05, seed=3)
    _, X, Y = simulate_paths(cfg, 50, x0=np.zeros(50))
    dx = np.diff(X[:, :, 0], axis=1).ravel()
    dy = np.diff(Y[:, :, 0], axis=1).ravel()
    corr = np.corrcoef(dx, dy)[0, 1]
    assert corr > 0.999999


def test_observation_increment_variance_small_window():
    m = FilterModel(d=1, d1=1, r=1, b=0.0, sigma=1.0, rho=0.0,
                    h=lambda x: 0.2 * np.tanh(np.asarray(x, float)), p0=gaussian_p0)
    delta = 0.01
    cfg = SimulationConfig(model=m, T=0.1, delta_sim=delta / 4, seed=5)
    _, _, Y = simulate_paths(cfg, 4000)
    Y = Y[:, ::4]
    incr = np.diff(Y[:, :, 0], axis=1).ravel()
    var = incr.var(ddof=1)
    assert abs(var - delta) <= 0.05 * delta


def test_strong_self_consistency_order_half():
    m = FilterModel(d=1, d1=1, r=1, b=lambda x: -np.asarray(x, float),
                    sigma=lambda x: 0.2 + 0.4 * np.tanh(np.asarray(x, float)) ** 2,
                    rho=0.0, h=0.0, p0=gaussian_p0)
    # shared Brownian refinement: build increments at the finest level by hand
    rng = np.random.default_rng(17)
    npaths, T, nfine = 100, 1.0, 1024
    dW = rng.normal(scale=math.sqrt(T / nfine), size=(npaths, nfine))

    def euler(stride):
        dt = stride * T / nfine
        x = np.full(npaths, 0.5)
        dWc = dW.reshape(npaths, nfine // stride, stride).sum(axis=2)
        for j in range(nfine // stride):
            sig = 0.2 + 0.4 * np.tanh(x) ** 2
            x = x - x * dt + sig * dWc[:, j]
        return x

    ref = euler(1)
    e_coarse = np.mean((euler(8) - ref) ** 2)
    e_fine = np.mean((euler(4) - ref) ** 2)
    assert e_coarse / e_fine >= 1.5


def test_sample_initial_gaussian_moments():
    xs = sample_initial(gaussian_p0, 10_000, seed=11)
    assert abs(xs.mean()) <= 3.0 / math.sqrt(10_000)
    assert abs(xs.std(ddof=1) - 1.0) < 0.05


def test_sample_initial_kolmogorov_smirnov():
    from math import erf
    xs = np.sort(sample_initial(gaussian_p0, 10_000, seed=23))
    cdf = 0.5 * (1.0 + np.vectorize(erf)(xs / math.sqrt(2.0)))
    emp_hi = np.arange(1, xs.size + 1) / xs.size
    emp_lo = np.arange(0, xs.size) / xs.size
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
    assert ks <= 1.63 / math.sqrt(xs.size)    # 1% significance band


def test_sample_initial_edge_cases():
    assert sample_initial(gaussian_p0, 0, seed=0).size == 0
    uni = sample_initial(lambda x: ((x >= 0) & (x <= 1)).astype(float), 5000, seed=2,
                         support=(-2.0, 3.0), grid_points=5001)
    assert uni.min() >= 0.0 and uni.max() <= 1.0
    with pytest.raises(ValueError, match="negative"):
        sample_initial(lambda x: np.asarray(x, float), 10, seed=0)


def test_write_truth_format(tmp_path):
    t = np.linspace(0, 1, 5)
    x = np.arange(5.0)[:, None]
    path = tmp_path / "truth.txt"
    write_truth(path, t, x)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("delta_obs=") and lines[1] == "d=1"
    assert len(lines) == 7
