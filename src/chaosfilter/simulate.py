"""Simulation of the signal/observation pair under the physical measure.

The pair follows

    dX = b(X) dt + sigma(X) dW + rho(X) dV,
    dY = h(X) dt + dV,        Y(0) = 0,

with independent Wiener processes W and V; reusing the V increments in
both equations is what realizes the noise correlation.  Paths are
generated by Euler-Maruyama and reported at every step.  Reproducibility
comes from numpy seed sequences keyed by (seed, path index); no specific
generator family is promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import FilterModel
from .runtime import write_samples


@dataclass(frozen=True)
class SimulationConfig:
    model: FilterModel
    T: float
    delta_sim: float
    seed: int

    def __post_init__(self):
        if not 0 < self.delta_sim <= self.T:
            raise ValueError("need 0 < delta_sim <= T")
        if abs(self.T / self.delta_sim - self.n_steps) > 1e-9:
            raise ValueError("T must be an integer multiple of delta_sim")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.delta_sim))


def sample_initial(p0, count: int, seed: int, support=(-10.0, 10.0),
                   grid_points: int = 4001) -> np.ndarray:
    """Inverse-CDF draws from a one-dimensional density.

    The density is tabulated at cell midpoints of a uniform grid over
    `support` (so compact supports aligned with cell edges are preserved
    exactly), normalized by its total mass, and inverted by linear
    interpolation.  Raises if the density goes negative or carries no
    mass on the grid.
    """
    if count == 0:
        return np.empty(0)
    x = np.linspace(support[0], support[1], grid_points)
    mids = 0.5 * (x[:-1] + x[1:])
    pdf = np.broadcast_to(np.asarray(p0(mids) if callable(p0) else p0, dtype=float), mids.shape)
    if np.any(pdf < -1e-12):
        raise ValueError("p0 takes negative values; not a density")
    pdf = np.maximum(pdf, 0.0)
    cdf = np.concatenate([[0.0], np.cumsum(pdf * np.diff(x))])
    if cdf[-1] <= 0:
        raise ValueError("p0 has no mass on the sampling grid")
    cdf /= cdf[-1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = rng.random(count)
    return np.interp(u, cdf, x)


def _path_rngs(seed: int, npaths: int):
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(npaths)]


def simulate_paths(config: SimulationConfig, npaths: int, x0=None):
    """Euler-Maruyama for a batch of independent paths.

    Returns (times, X, Y) with X of shape (npaths, n_steps+1, d) and Y of
    shape (npaths, n_steps+1, r), both reported at every step.
    x0 overrides the initial states ((npaths, d) or (npaths,) for d = 1);
    by default they are drawn from p0 (d = 1 only).
    """
    model = config.model
    d, d1, r = model.d, model.d1, model.r
    if x0 is None:
        if d != 1:
            raise ValueError("built-in initial sampling is 1-d; pass x0 for d > 1")
        x0 = sample_initial(model.p0, npaths, seed=config.seed ^ 0x5EED)
    X = np.atleast_2d(np.asarray(x0, dtype=float).reshape(npaths, d)).copy()
    Y = np.zeros((npaths, r))
    steps = config.n_steps
    dt, sq = config.delta_sim, math.sqrt(config.delta_sim)
    rngs = _path_rngs(config.seed, npaths)
    dW = np.empty((npaths, steps, d1))
    dV = np.empty((npaths, steps, r))
    for p, rng in enumerate(rngs):
        dW[p] = rng.normal(scale=sq, size=(steps, d1))
        dV[p] = rng.normal(scale=sq, size=(steps, r))

    def per_step(at, field):
        """at for a callable field; a constant one does not depend on x and is evaluated once."""
        if callable(field):
            return at
        value = at(X)
        return lambda _: value

    drift, sigma = per_step(model.drift_at, model.b), per_step(model.sigma_at, model.sigma)
    rho, h = per_step(model.rho_at, model.rho), per_step(model.h_at, model.h)
    Xout = np.empty((npaths, steps + 1, d))
    Yout = np.empty((npaths, steps + 1, r))
    Xout[:, 0], Yout[:, 0] = X, Y
    for step in range(steps):
        bX = drift(X)
        sX = sigma(X)
        rX = rho(X)
        hX = h(X)
        Y = Y + hX * dt + dV[:, step]
        X = (X + bX * dt
             + np.einsum("pij,pj->pi", sX, dW[:, step])
             + np.einsum("pij,pj->pi", rX, dV[:, step]))
        if not np.all(np.isfinite(X)):
            raise FloatingPointError(f"state blew up in simulation step {step + 1}")
        Xout[:, step + 1], Yout[:, step + 1] = X, Y
    times = np.arange(steps + 1) * config.delta_sim
    return times, Xout, Yout


def write_truth(path, times, x) -> None:
    """Truth file: 'delta_obs=', 'd=', then one 't x_1 .. x_d' line per sample."""
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    write_samples(path, dt, "d", times, x)
