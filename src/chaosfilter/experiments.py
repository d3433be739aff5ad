"""Experiment pipeline shared by the CLI and the benchmark suite.

Glues the pieces together: build model and spaces from a configuration,
precompute propagator tables, generate observation paths, run the online
recursion, and score it against the exact or fine-grid oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig
from .galerkin import GalerkinSystem, _euler_reports, assemble
from .hermite import SpatialBasis, build_basis, gauss_hermite_grid, project_many
from .models import ModelBundle, build_model
from .propagator import (ErrorBudget, PropagatorTable, TemporalBasis, chaos_error_bound,
                         cosine_basis, precompute_table)
from .reference import kalman_bucy
from .runtime import _recursion, _samples_per_window, _xi_weights
from .simulate import SimulationConfig, simulate_paths


def _builder_kwargs(params: dict) -> dict:
    out = dict(params)
    if "h" in out:
        out["hslope"] = out.pop("h")
    return out


@dataclass
class Pipeline:
    cfg: ExperimentConfig
    bundle: ModelBundle
    basis: SpatialBasis
    grid: object
    system: GalerkinSystem
    tbasis: TemporalBasis
    p_init: np.ndarray
    f_coeffs: np.ndarray      # projection of f(x) = x_1
    one_coeffs: np.ndarray    # projection of the constant 1


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    try:
        bundle = build_model(cfg.model_name, **_builder_kwargs(cfg.model_params))
    except TypeError as exc:
        raise ConfigError(f"model parameters not valid for {cfg.model_name}: {exc}") from exc
    basis = build_basis(bundle.filter_model.d, cfg.K)
    grid = gauss_hermite_grid(bundle.filter_model.d, cfg.quad_m)
    system = assemble(bundle.filter_model, basis, grid)
    tbasis = cosine_basis(cfg.delta, cfg.n)
    d = bundle.filter_model.d
    coord = (lambda x: x) if d == 1 else (lambda x: x[:, 0])
    one = (lambda x: np.ones(np.size(x))) if d == 1 else (lambda x: np.ones(np.shape(x)[0]))
    p_init, f_coeffs, one_coeffs = project_many([bundle.filter_model.p0, coord, one], basis, grid)
    return Pipeline(cfg=cfg, bundle=bundle, basis=basis, grid=grid, system=system,
                    tbasis=tbasis, p_init=p_init, f_coeffs=f_coeffs, one_coeffs=one_coeffs)


def make_table(pipe: Pipeline) -> PropagatorTable:
    cfg = pipe.cfg
    return precompute_table(pipe.system, pipe.tbasis, cfg.N, cfg.n,
                            substeps=cfg.resolved_substeps())


def check_consistency(cfg: ExperimentConfig, table: PropagatorTable,
                      delta_obs: float, r: int) -> None:
    """The metadata checks the filter command performs before any work."""
    if abs(table.delta - cfg.delta) > 1e-12 * max(1.0, cfg.delta):
        raise ConfigError(f"table delta {table.delta} does not match config delta {cfg.delta}")
    if table.r != r:
        raise ConfigError(f"table has r={table.r} channels, observations have r={r}")
    if delta_obs > cfg.delta / (8 * table.n) * (1 + 1e-9):
        raise ConfigError(
            f"observation spacing {delta_obs:.3g} too coarse for n={table.n}: "
            f"need <= {cfg.delta / (8 * table.n):.3g}")


def simulate_full(cfg: ExperimentConfig, pipe: Pipeline, npaths: int, seed=None):
    """Simulate npaths at full resolution delta_sim; returns (times, X, Y)."""
    sim = SimulationConfig(model=pipe.bundle.filter_model, T=cfg.T,
                           delta_sim=cfg.resolved_delta_sim(),
                           seed=cfg.seed if seed is None else seed,
                           delta_obs=cfg.resolved_delta_sim())
    return simulate_paths(sim, npaths)


def chaos_estimates(pipe: Pipeline, table: PropagatorTable, times, Y, stride: int):
    """Run the recursion on all paths together; returns (window times, estimates (npaths, M+1)).

    The xi integrals of every window of every path come from one stacked
    product of the trapezoid weights with the (P, M, npts, r) window
    samples; the paths then advance together through the same window loop
    as run_filter, and each row equals that path's run_filter estimates.
    """
    cfg = pipe.cfg
    sub_t = np.asarray(times, dtype=float)[::stride]
    Y = np.asarray(Y, dtype=float)
    Y = (Y if Y.ndim == 3 else Y[:, :, None])[:, ::stride]
    per = _samples_per_window(sub_t, cfg.delta)
    starts = np.arange(0, sub_t.size - 1, per)
    weights = _xi_weights(pipe.tbasis, sub_t[per] - sub_t[0], per + 1)
    xi = np.matmul(weights, Y[:, starts[:, None] + np.arange(per + 1)])
    _, _, est = _recursion(table, xi, pipe.p_init, sub_t[::per], pipe.f_coeffs, pipe.one_coeffs)
    nwin = int(round(cfg.T / cfg.delta))
    return np.arange(nwin + 1) * cfg.delta, est


def oracle_estimates(pipe: Pipeline, times, Y, stride: int):
    """Conditional-mean oracle at the window ends.

    Linear models use the exact Gaussian filter on the full-resolution
    path; the nonlinear models fall back to the fine-grid integration of
    the projected system (the spatially-truncated reference).
    """
    cfg = pipe.cfg
    delta_fine = float(times[1] - times[0])
    win_stride = int(round(cfg.delta / delta_fine))
    if pipe.bundle.linear is not None:
        means, _ = kalman_bucy(pipe.bundle.linear, Y[:, :, 0], delta_fine)
        return means[:, ::win_stride]
    ests = galerkin_oracle_estimates(pipe.system, pipe.p_init, pipe.f_coeffs,
                                     pipe.one_coeffs, Y, delta_fine, win_stride)
    return ests


def galerkin_oracle_estimates(system, p_init, f_coeffs, one_coeffs, Y,
                              delta_fine: float, win_stride: int):
    """Estimates from Euler integration of the projected system on fine Y."""
    reports = _euler_reports(system, Y, delta_fine, p_init, win_stride)
    ests = (np.matmul(f_coeffs, reports) / np.matmul(one_coeffs, reports)).T
    if not np.all(np.isfinite(ests)):
        raise FloatingPointError("fine-grid oracle produced non-finite estimates")
    return ests


def run_sweep(cfg: ExperimentConfig, axis: str, values) -> list[dict]:
    """Re-run the benchmark at each value of one knob and score against the oracle.

    Observation paths share the seed across sweep points, so rows are
    directly comparable.  Each row reports the mean-square estimate error
    against the oracle plus, when budget constants were supplied, the
    matching bound terms.
    """
    if axis not in {"K", "N", "n", "delta"}:
        raise ConfigError(f"sweep axis must be one of K, N, n, delta, got '{axis}'")
    rows = []
    for value in values:
        sub = ExperimentConfig(**{**cfg.__dict__})
        sub.model_params = dict(cfg.model_params)
        sub.budget = dict(cfg.budget)
        setattr(sub, "delta" if axis == "delta" else axis,
                float(value) if axis == "delta" else int(value))
        sub.validate()
        pipe = build_pipeline(sub)
        table = make_table(pipe)
        times, _, Y = simulate_full(sub, pipe, sub.paths)
        stride = int(round(sub.resolved_delta_obs() / sub.resolved_delta_sim()))
        _, est = chaos_estimates(pipe, table, times, Y, stride)
        oracle = oracle_estimates(pipe, times, Y, stride)
        err = est - oracle
        row = {
            "axis": axis,
            "value": value,
            "mse": float(np.mean(err * err)),
            "rmse": float(np.sqrt(np.mean(err * err))),
            "max_abs": float(np.max(np.abs(err))),
        }
        if "C" in sub.budget:
            bud = ErrorBudget(delta=sub.delta, N=sub.N, n=sub.n, K=sub.K,
                              r=pipe.bundle.filter_model.r, d=pipe.bundle.filter_model.d,
                              C=sub.budget["C"], eps_B=sub.budget.get("eps_B", 0.0))
            N_term, n_term, total = chaos_error_bound(bud)
            row.update(bound_N_term=N_term, bound_n_term=n_term, bound_total=total)
        rows.append(row)
    return rows
