"""Experiment pipeline shared by the CLI and the benchmark suite.

Glues the pieces together: build model and spaces from a configuration,
precompute propagator tables, generate observation paths, run the online
recursion, and score it against the exact or fine-grid oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, ExperimentConfig
from .galerkin import (GalerkinSystem, _euler_reports, _splitting_reports, assemble,
                       validate_model)
from .hermite import SpatialBasis, build_basis, gauss_hermite_grid, project_many
from .models import ModelBundle, build_model
from .propagator import (PropagatorTable, TemporalBasis, cosine_basis, max_sample_spacing,
                         precompute_table, truncation_certificate)
from .reference import kalman_bucy
from .runtime import _run_samples
from .simulate import SimulationConfig, simulate_paths


def _bundle(cfg: ExperimentConfig) -> ModelBundle:
    """The model of cfg; the config key model.h is the builders' hslope."""
    kwargs = {"hslope" if key == "h" else key: value for key, value in cfg.model_params.items()}
    try:
        return build_model(cfg.model_name, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"model parameters not valid for {cfg.model_name}: {exc}") from exc


@dataclass
class Pipeline:
    cfg: ExperimentConfig
    bundle: ModelBundle
    basis: SpatialBasis
    grid: object
    tbasis: TemporalBasis
    p_init: np.ndarray
    f_coeffs: np.ndarray      # projection of f(x) = x_1
    one_coeffs: np.ndarray    # projection of the constant 1

    @functools.cached_property
    def system(self) -> GalerkinSystem:
        """The Galerkin matrices of the filter model, assembled on the first read."""
        return assemble(self.bundle.filter_model, self.basis, self.grid)


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    """The model, basis and grid of cfg, and the projections of p0, x_1 and 1.

    The model is checked on the grid (galerkin.validate_model) before it
    is projected, so an invalid model fails here; the matrices are
    assembled only when Pipeline.system is first read.
    """
    bundle = _bundle(cfg)
    d = bundle.filter_model.d
    basis = build_basis(d, cfg.K)
    grid = gauss_hermite_grid(d, cfg.quad_m)
    validate_model(bundle.filter_model, grid)
    coord = (lambda x: x) if d == 1 else (lambda x: x[:, 0])
    one = (lambda x: np.ones(np.size(x))) if d == 1 else (lambda x: np.ones(np.shape(x)[0]))
    p_init, f_coeffs, one_coeffs = project_many([bundle.filter_model.p0, coord, one], basis, grid)
    return Pipeline(cfg=cfg, bundle=bundle, basis=basis, grid=grid,
                    tbasis=cosine_basis(cfg.delta, cfg.n), p_init=p_init, f_coeffs=f_coeffs,
                    one_coeffs=one_coeffs)


def make_table(pipe: Pipeline) -> PropagatorTable:
    cfg = pipe.cfg
    return precompute_table(pipe.system, pipe.tbasis, cfg.N, cfg.n,
                            substeps=cfg.resolved_substeps())


def check_consistency(cfg: ExperimentConfig, table: PropagatorTable,
                      delta_obs: float, r: int) -> None:
    """The metadata checks the filter command performs before any work.

    A table of fewer temporal modes n than the config's is valid: the xi integrals cover it.
    """
    if table.K != cfg.K:
        raise ConfigError(f"table has K={table.K} basis functions, config has "
                          f"discretization.K={cfg.K}")
    d = _bundle(cfg).filter_model.d
    if table.basis.d != d:
        raise ConfigError(f"table has basis_d={table.basis.d}, the model {cfg.model_name} "
                          f"has dimension d={d}")
    if table.n > cfg.n:
        raise ConfigError(f"table has n={table.n} temporal modes, more than the config's "
                          f"discretization.n={cfg.n}")
    if not abs(table.delta - cfg.delta) <= 1e-12 * max(1.0, cfg.delta):
        raise ConfigError(f"table delta {table.delta} does not match config delta {cfg.delta}")
    if table.r != r:
        raise ConfigError(f"table has r={table.r} channels, observations have r={r}")
    max_dobs = max_sample_spacing(cfg.delta, table.n)
    if not delta_obs <= max_dobs * (1 + 1e-9):
        raise ConfigError(f"observation spacing {delta_obs:.3g} too coarse for n={table.n}: "
                          f"need <= {max_dobs:.3g}")


def simulate_full(cfg: ExperimentConfig, pipe: Pipeline, npaths: int, seed=None):
    """Simulate npaths at full resolution delta_sim; returns (times, X, Y)."""
    sim = SimulationConfig(model=pipe.bundle.filter_model, T=cfg.T,
                           delta_sim=cfg.resolved_delta_sim(),
                           seed=cfg.seed if seed is None else seed)
    return simulate_paths(sim, npaths)


def chaos_estimates(pipe: Pipeline, table: PropagatorTable, times, Y, stride: int):
    """Run the recursion on all paths together; returns (window times, estimates (npaths, M+1)).

    Y is (P, samples, r), as simulate_full returns it; every stride-th
    sample is filtered.  Each row equals that path's run_filter estimates.
    """
    cfg = pipe.cfg
    _, _, _, est = _run_samples(table, pipe.tbasis, pipe.p_init,
                                np.asarray(times, dtype=float)[::stride],
                                np.asarray(Y, dtype=float)[:, ::stride],
                                pipe.f_coeffs, pipe.one_coeffs)
    nwin = int(round(cfg.T / cfg.delta))
    return np.arange(nwin + 1) * cfg.delta, est


def oracle_estimates(pipe: Pipeline, times, Y, stride: int):
    """Conditional-mean oracle at the window ends.

    Linear models use the exact Gaussian filter on the full-resolution
    path; the nonlinear models fall back to the fine-grid integration of
    the projected system (the spatially-truncated reference,
    galerkin_oracle_estimates).  stride is not read: the window stride
    follows from cfg.delta and the sample spacing of times.
    """
    cfg = pipe.cfg
    delta_fine = float(times[1] - times[0])
    win_stride = int(round(cfg.delta / delta_fine))
    if pipe.bundle.linear is not None:
        means, _ = kalman_bucy(pipe.bundle.linear, Y[:, :, 0], delta_fine)
        return means[:, ::win_stride]
    return galerkin_oracle_estimates(pipe.system, pipe.p_init, pipe.f_coeffs,
                                     pipe.one_coeffs, Y, delta_fine, win_stride)


def galerkin_oracle_estimates(system, p_init, f_coeffs, one_coeffs, Y,
                              delta_fine: float, win_stride: int):
    """Estimates (npaths, nreports + 1) from the projected system integrated on fine Y.

    One channel with a symmetric B (rho = 0, so M_1 is the multiplication
    by h) takes the exact-noise splitting (galerkin._splitting_reports);
    any other system takes Euler-Maruyama (galerkin._euler_reports).
    Raises FloatingPointError naming the first path whose estimate is not
    finite, with the report and its time.
    """
    B = system.B[0]
    symmetric = system.r == 1 and np.max(np.abs(B - B.T)) <= 1e-12 * np.max(np.abs(B))
    kernel = _splitting_reports if symmetric else _euler_reports
    reports = kernel(system, Y, delta_fine, p_init, win_stride)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ests = (np.matmul(f_coeffs, reports) / np.matmul(one_coeffs, reports)).T
    bad = ~np.isfinite(ests)
    if bad.any():
        path, report = np.argwhere(bad)[0]
        raise FloatingPointError(
            f"fine-grid oracle estimate is not finite on path {path} at report {report}"
            f" (t = {report * win_stride * delta_fine:.6g})")
    return ests


def run_sweep(cfg: ExperimentConfig, axis: str, values) -> list[dict]:
    """Re-run the benchmark at each value of one knob and score against the oracle.

    Observation paths share the seed across sweep points, so rows are
    directly comparable.  Each row reports the mean-square estimate error
    against the oracle and the table's truncation certificate.
    """
    if axis not in {"K", "N", "n", "delta"}:
        raise ConfigError(f"sweep axis must be one of K, N, n, delta, got '{axis}'")
    rows = []
    for value in values:
        sub = replace(cfg, **{axis: float(value) if axis == "delta" else int(value)}).validate()
        pipe = build_pipeline(sub)
        table = make_table(pipe)
        times, _, Y = simulate_full(sub, pipe, sub.paths)
        stride = int(round(sub.resolved_delta_obs() / sub.resolved_delta_sim()))
        _, est = chaos_estimates(pipe, table, times, Y, stride)
        oracle = oracle_estimates(pipe, times, Y, stride)
        err = est - oracle
        rows.append({
            "axis": axis,
            "value": value,
            "mse": float(np.mean(err * err)),
            "rmse": float(np.sqrt(np.mean(err * err))),
            "max_abs": float(np.max(np.abs(err))),
            "certificate": truncation_certificate(pipe.system, table),
        })
    return rows
