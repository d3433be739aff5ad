"""Experiment driver: precompute, simulate, filter, compare, sweep.

Run as `python -m chaosfilter <subcommand>`.  Exit codes: 0 on success,
2 on validation failure (bad config, inconsistent metadata, malformed
table or replay file), 1 on runtime error.  Output CSV columns are in
docs/formats.md; all commands are deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .config import ConfigError, load_config
from .experiments import (build_pipeline, check_consistency, make_table, project_model, run_sweep,
                          simulate_full)
from .hermite import write_rows
from .propagator import cosine_basis, load_table, save_table, truncation_certificate
from .reference import compare_on_path, kalman_bucy
from .runtime import (FilterRun, _run_samples, read_observations, write_estimate_csv,
                      write_observations, write_state_csv)
from .simulate import write_truth


def _parse(path, fn, *args):
    """fn(*args); a ValueError about the malformed file `path` is a validation failure."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(exc if str(path) in str(exc) else f"{path}: {exc}") from None


def _cmd_precompute(args) -> int:
    cfg = load_config(args.config)
    pipe = build_pipeline(cfg)
    table = make_table(pipe)
    save_table(args.out, table)
    print(f"wrote {len(table.counts)} flow matrices to {args.out}; truncation certificate "
          f"rho = {truncation_certificate(pipe.system, table):.3g}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed_override is not None:
        cfg.seed = args.seed_override
        cfg.validate()
    pipe = build_pipeline(cfg)
    times, X, Y = simulate_full(cfg, pipe, cfg.paths)
    stride = int(round(cfg.resolved_delta_obs() / cfg.resolved_delta_sim()))
    os.makedirs(args.out, exist_ok=True)
    for p in range(cfg.paths):
        obs = os.path.join(args.out, f"obs_{p:03d}.txt")
        tru = os.path.join(args.out, f"truth_{p:03d}.txt")
        write_observations(obs, cfg.resolved_delta_obs(), times[::stride], Y[p, ::stride])
        write_truth(tru, times[::stride], X[p, ::stride])
    print(f"wrote {cfg.paths} path(s) to {args.out}")
    return 0


def _cmd_filter(args) -> int:
    cfg = load_config(args.config)
    table = _parse(args.table, load_table, args.table)
    delta_obs, r, times, values = _parse(args.obs, read_observations, args.obs)
    check_consistency(cfg, table, delta_obs, r)
    os.makedirs(args.out, exist_ok=True)
    state_csv = os.path.join(args.out, "states.csv")
    est_csv = os.path.join(args.out, "estimates.csv")
    if times.size == 0:
        empty = FilterRun(times=np.empty(0), states=np.empty((0, table.K)), masses=np.empty(0),
                          estimates=np.empty(0))
        write_state_csv(state_csv, empty)
        write_estimate_csv(est_csv, empty)
        print("no samples; wrote header-only CSVs")
        return 0
    _, _, _, (p_init, f_coeffs, one_coeffs) = project_model(cfg)
    # a table of fewer modes than the config is sampled by its own n (check_consistency)
    t, states, masses, ests = _parse(args.obs, _run_samples, table,
                                     cosine_basis(cfg.delta, table.n), p_init, times,
                                     values[None], f_coeffs, one_coeffs)
    run = FilterRun(times=t, states=states[0], masses=masses[0], estimates=ests[0])
    write_state_csv(state_csv, run)
    write_estimate_csv(est_csv, run)
    print(f"filtered {t.size - 1} windows; wrote {state_csv} and {est_csv}")
    return 0


def _read_estimate_csv(path):
    """(t, estimate) columns of an estimates CSV; a ValueError says what is missing."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] < 1 or rows.shape[1] < 2:
        raise ValueError(f"expected rows of 't,estimate,...' after the header, found "
                         f"{rows.shape[0]} rows of {rows.shape[1]} columns")
    return rows[:, 0], rows[:, 1]


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    pipe = build_pipeline(cfg)
    if pipe.bundle.linear is None:
        raise ConfigError(f"model.name: no exact oracle for '{cfg.model_name}'")
    delta_obs, _, times, values = _parse(args.obs, read_observations, args.obs)
    est_t, est = _parse(args.est, _read_estimate_csv, args.est)
    means, _ = kalman_bucy(pipe.bundle.linear, values[:, 0], delta_obs)
    stride = int(round(cfg.delta / delta_obs))
    oracle_t, oracle = times[::stride], means[::stride]
    if oracle.size != est.size:
        raise ConfigError(f"{args.est}: estimate rows ({est.size}) do not match windows "
                          f"({oracle.size})")
    off = np.flatnonzero(~(np.abs(est_t - oracle_t) <= 1e-9))   # NaN is off the grid too
    if off.size:
        i = off[0]
        raise ConfigError(f"{args.est}: row {i + 1}: t = {float(est_t[i])!r} is off the "
                          f"replay's window grid, expected {float(oracle_t[i])!r}")
    summary = compare_on_path(est, oracle, est_t, oracle_t)
    os.makedirs(args.out, exist_ok=True)
    write_rows(os.path.join(args.out, "compare.csv"), "t,estimate,oracle,error\n",
               "%.17g,%.17g,%.17g,%.17g\n", np.column_stack([est_t, est, oracle, est - oracle]))
    summary_path = os.path.join(args.out, "summary.csv")
    write_rows(summary_path, "rmse,max_abs\n", "%.17g,%.17g\n",
               np.array([[summary.rmse, summary.max_abs]]))
    print(f"rmse={summary.rmse:.6g} max={summary.max_abs:.6g}; wrote {summary_path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep.values: no values given")
    cast = float if args.axis == "delta" else int
    try:
        typed = [cast(v) for v in values]
    except ValueError as exc:     # the message quotes the token
        raise ConfigError(f"sweep.values: {exc}") from None
    rows = run_sweep(cfg, args.axis, typed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"sweep_{args.axis}.csv")
    keys = list(rows[0].keys())
    # one row template: %.17g for the float columns, %s for axis and integer values
    template = ",".join("%.17g" if isinstance(rows[0][k], float) else "%s" for k in keys)
    write_rows(path, ",".join(keys) + "\n", template + "\n",
               np.array([[row[k] for k in keys] for row in rows], dtype=object))
    for row in rows:
        print(f"{args.axis}={row['value']}: rmse={row['rmse']:.6g}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chaosfilter", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute", help="assemble matrices and write the propagator table")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_precompute)

    p = sub.add_parser("simulate", help="simulate signal/observation paths to replay files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed-override", type=int, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("filter", help="run the online recursion over an observation file")
    p.add_argument("--config", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("compare", help="score an estimate CSV against the exact oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("sweep", help="re-run the benchmark along one knob")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=["K", "N", "n", "delta"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"invalid input [{args.command}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failure: report the stage and fail with 1
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
