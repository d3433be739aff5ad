"""The benchmark's three workloads.

Each workload builds its inputs from the seed, sets up, then repeats its
operation until the time budget is spent, checking the program's outputs
as it goes.  Given a tracer, set-up and checks run with the layer
patches of `tracing.patch_layers` active, and operations alternate
between untraced and traced, so that the tracing overhead is measured
under the same machine conditions as the operations it slows.

All workloads run in this one process.  numpy's BLAS keeps its default
thread count, which is at most the number of cores.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chaosfilter import cli, experiments, propagator, runtime
from chaosfilter.config import parse_config

from measure import classify_path, rmse
from tracing import patch_layers

SETUP_REPEATS = 3
# mc-cubic scores MC_PATHS paths in rounds of MC_BLOCK paths, simulated
# once at the observation step.  On a shared machine whose speed changes
# from one second to the next, a round of a fifth of a second can land in
# an undisturbed stretch where a 100-path round with simulation at the
# default step (4 s) cannot.  The share of failed paths is the same either
# way (about 0.75).
MC_PATHS, MC_BLOCK = 100, 10
MC_BLOCKS = MC_PATHS // MC_BLOCK
# A failed path raises one of these out of the recursion or the oracle.
FAILURES = (runtime.DegenerateNormalizationError, FloatingPointError, ValueError)
# Shipped default of run_filter; the stepwise loop must use the same floor.
FLOOR_REL = inspect.signature(runtime.run_filter).parameters["floor_rel"].default
# Fixed accuracy gate for live-correlated against the exact filter.  Over
# seeds 0-119 the seed code measures a median of 8e-4 and at most 2.8e-2;
# a broken recursion is off by O(0.1-1).
LIVE_RMSE_TOLERANCE = 0.1

clock = time.perf_counter


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    op_name: str                     # root span of one operation
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)         # untraced operations
    traced_op_s: list = field(default_factory=list)  # traced operations
    attempted: int = 0               # timed operations (windows, rounds, commands)
    failed: int = 0                  # of which raised or failed an output check
    paths: int = 0                   # filter paths run by timed operations
    failed_paths: int = 0            # of which failed (measure.classify_path)
    failure_reasons: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)       # (name, passed, detail)
    rmse_vs_oracle: float = math.nan
    failed_share: float = 0.0
    counts: dict = field(default_factory=dict)       # computed from shapes; repeat exactly
    table: object = None
    table_bytes: int = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def count_paths(self, reasons) -> None:
        """Add the classified filter paths of one timed operation."""
        self.paths += len(reasons)
        for reason in filter(None, reasons):
            self.failed_paths += 1
            self.failure_reasons[reason] = self.failure_reasons.get(reason, 0) + 1

    def record(self, seconds, traced: bool) -> None:
        seconds = np.atleast_1d(seconds)
        (self.traced_op_s if traced else self.op_s).extend(seconds)
        self.attempted += seconds.size

    def fail(self, check: str, detail: str, operations: int = 1, recorded: bool = True) -> None:
        """Count timed operations that raised or gave a wrong output, and fail the check.

        An operation that raised was never recorded, so it is added to `attempted` here.
        """
        self.failed += operations
        if not recorded:
            self.attempted += operations
        self.check(check, False, detail)

    def running(self, deadline: float, tracer) -> bool:
        """Keep going until the deadline, and until each kind of operation ran once."""
        return clock() < deadline or not self.op_s or (tracer is not None and not self.traced_op_s)


def _span(tracer, name: str, new_trace: bool = False):
    return tracer.span(name, new_trace) if tracer else contextlib.nullcontext()


def _layers(tracer, active: bool = True):
    return patch_layers(tracer) if tracer and active else contextlib.nullcontext()


def _config(model: str, K: int, N: int, n: int, T: float, paths: int, seed: int,
            extra: str = "") -> str:
    return (f"model.name = {model}\n"
            f"discretization.K = {K}\ndiscretization.N = {N}\ndiscretization.n = {n}\n"
            f"discretization.delta = 0.01\ndiscretization.T = {T}\n{extra}"
            f"run.paths = {paths}\nrun.seed = {seed}\n")


def _stride(cfg) -> int:
    return int(round(cfg.resolved_delta_obs() / cfg.resolved_delta_sim()))


def _setup(out: Outcome, tracer, fn, repeats: int = SETUP_REPEATS):
    result = None
    for _ in range(repeats):
        with _span(tracer, "bench.setup", new_trace=True):
            t0 = clock()
            result = fn()
            out.setup_s.append(clock() - t0)
    return result


def _pipeline_and_table(cfg):
    pipe = experiments.build_pipeline(cfg)
    return pipe, experiments.make_table(pipe)


def _counts(out: Outcome, cfg, table, windows: int, sim_paths: int, oracle_paths: int) -> None:
    """Work counts derived from the configuration, checked against the program's arrays."""
    J, K, r = len(table.indices), table.K, table.r
    expected_J = math.comb(cfg.n * r + cfg.N, cfg.N)
    out.check("count.indices", J == expected_J, f"|J|={J}, C(n r + N, N)={expected_J}")
    out.check("count.windows", windows == round(cfg.T / cfg.delta),
              f"{windows} windows for T/delta={cfg.T / cfg.delta:g}")
    out.check("count.substeps", table.substeps == cfg.resolved_substeps(),
              f"table substeps {table.substeps}")
    couplings = sum(len(alpha.entries) for alpha in table.indices)
    rhs_evals = 4 * table.substeps                   # classical RK4
    sim_steps = round(cfg.T / cfg.resolved_delta_sim())
    out.counts.update({
        "indices": J,
        "windows": windows,
        "step_flops": 2 * J * K * K,                 # weighted sum of J K x K matrices
        "step_bytes": 8 * J * K * K,                 # the table, read once per window
        "rhs_evals": rhs_evals,
        "precompute_flops": rhs_evals * (J + couplings) * 2 * K ** 3,
        "sim_path_steps": sim_paths * sim_steps,
        "oracle_path_steps": oracle_paths * sim_steps,
    })


# ---------------------------------------------------------------------------
# live-correlated


def _closed_loop(pipe, table, windows, tracer):
    """One path, one window at a time; each window starts when the last estimate is out.

    Calls the same runtime functions in the same order as run_filter, so
    its estimates must equal run_filter's bit for bit.
    """
    xi_integrals, step_matrix = runtime.xi_integrals, runtime.step_matrix
    advance, estimate, functional = runtime.advance, runtime.estimate, runtime.functional
    f, one, tbasis = pipe.f_coeffs, pipe.one_coeffs, pipe.tbasis
    state = runtime.FilterState(t=windows[0].t_start, p=np.asarray(pipe.p_init, dtype=float).copy())
    floor = FLOOR_REL * abs(functional(state, one))
    ests = [estimate(state, f, one, floor)]
    masses = [functional(state, one)]
    lat = np.empty(len(windows))
    for i, win in enumerate(windows):
        span = tracer.open("bench.window", new_trace=True) if tracer else -1
        t0 = clock()
        state = advance(state, step_matrix(table, xi_integrals(win, tbasis)), win.delta)
        est = estimate(state, f, one, floor)
        lat[i] = clock() - t0
        if tracer:
            tracer.close(span)
        ests.append(est)
        masses.append(functional(state, one))
    return np.array(ests), np.array(masses), lat


def run_live(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    out = Outcome(op_name="bench.window")
    cfg = parse_config(_config("correlated-ou", 32, 3, 8, 10.0, 1, seed,
                               "discretization.delta_sim = 0.00015625\n"))
    with _layers(tracer):
        pipe, table = _setup(out, tracer, lambda: _pipeline_and_table(cfg))
        with _span(tracer, "bench.inputs"):
            times, _, Y = experiments.simulate_full(cfg, pipe, 1)
            stride = _stride(cfg)
            windows = runtime.cut_windows(times[::stride], Y[0, ::stride], cfg.delta)
        with _span(tracer, "bench.check"):
            _, ref = experiments.chaos_estimates(pipe, table, times, Y, stride)
            oracle = experiments.oracle_estimates(pipe, times, Y, stride)
    out.table = table
    _counts(out, cfg, table, len(windows), sim_paths=1, oracle_paths=0)
    out.rmse_vs_oracle = rmse(ref[0], oracle[0])
    out.check("live.rmse_vs_kalman_bucy", out.rmse_vs_oracle <= LIVE_RMSE_TOLERANCE,
              f"rmse {out.rmse_vs_oracle:.3g} <= {LIVE_RMSE_TOLERANCE}")

    deadline, passes = clock() + seconds, 0
    while out.running(deadline, tracer):
        traced = tracer is not None and passes % 2 == 1
        passes += 1
        try:
            with _layers(tracer, traced):
                ests, masses, lat = _closed_loop(pipe, table, windows, tracer if traced else None)
            reason = classify_path(masses, ests)
        except FAILURES as exc:
            out.count_paths([classify_path(error=exc)])
            out.fail("live.stepwise_equals_run_filter", f"pass {passes} raised {exc}",
                     recorded=False)
            break
        out.record(lat, traced)
        out.count_paths([reason])
        if not np.array_equal(ests, ref[0], equal_nan=True):
            differ = max(1, int(np.sum(ests[1:] != ref[0][1:])))
            out.fail("live.stepwise_equals_run_filter",
                     f"pass {passes}: {differ} window estimates differ", differ)
            break
    else:
        out.check("live.stepwise_equals_run_filter", True, f"{passes} passes")
    out.failed_share = out.failed_paths / out.paths
    return out


# ---------------------------------------------------------------------------
# mc-cubic


def _chaos_scores(pipe, table, times, Y, stride):
    """chaos_estimates over all paths; a path that raises gets a NaN row.

    One raising path aborts the batched call, so the paths are then
    re-run one by one to keep the others.
    """
    try:
        return experiments.chaos_estimates(pipe, table, times, Y, stride)[1]
    except FAILURES:
        rows = []
        for p in range(Y.shape[0]):
            try:
                rows.append(experiments.chaos_estimates(pipe, table, times, Y[p:p + 1], stride)[1][0])
            except FAILURES:
                rows.append(np.full(round(pipe.cfg.T / pipe.cfg.delta) + 1, np.nan))
        return np.array(rows)


def _reference_block(cfg, pipe, table, block_seed, stride, nwin):
    """Inputs, per-path reference estimates, oracle and failure reasons of one block.

    Per-path run_filter calls give the masses that chaos_estimates does not return.
    """
    times, _, Y = experiments.simulate_full(cfg, pipe, MC_BLOCK, seed=block_seed)
    reasons, ref = [], np.full((MC_BLOCK, nwin + 1), np.nan)
    for p in range(MC_BLOCK):
        windows = runtime.cut_windows(times[::stride], Y[p, ::stride], cfg.delta)
        try:
            run = runtime.run_filter(table, pipe.tbasis, pipe.p_init, windows,
                                     f_coeffs=pipe.f_coeffs, one_coeffs=pipe.one_coeffs)
            reasons.append(classify_path(run.masses, run.estimates))
            ref[p] = run.estimates
        except FAILURES as exc:
            reasons.append(classify_path(error=exc))
    return times, Y, ref, experiments.oracle_estimates(pipe, times, Y, stride), reasons


def run_mc(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    """Rounds of MC_BLOCK paths, cycling through MC_BLOCKS input blocks.

    Each round is one sweep point on simulated inputs: set-up (timed as
    set-up), then chaos_estimates -> oracle -> error (timed as the round).
    """
    out = Outcome(op_name="bench.round")
    if tracer:
        tracer.new_trace_per_call("runtime.run_filter")      # one trace id per path
    cfg = parse_config(_config("cubic-sensor", 16, 2, 4, 1.0, MC_BLOCK, seed,
                               "discretization.delta_sim = 0.0003125\n"))   # = delta_obs
    stride, nwin = _stride(cfg), round(cfg.T / cfg.delta)
    block_seeds = [seed * MC_BLOCKS + b for b in range(MC_BLOCKS)]
    with _layers(tracer):
        pipe, table = _setup(out, tracer, lambda: _pipeline_and_table(cfg), repeats=1)
        with _span(tracer, "bench.check"):
            blocks = [_reference_block(cfg, pipe, table, s, stride, nwin) for s in block_seeds]
    out.table = table
    _counts(out, cfg, table, nwin, sim_paths=MC_BLOCK, oracle_paths=MC_BLOCK)
    ok = np.array([r is None for b in blocks for r in b[4]])
    out.failed_share = float(np.mean(~ok))
    out.rmse_vs_oracle = rmse(np.concatenate([b[2] for b in blocks])[ok],
                              np.concatenate([b[3] for b in blocks])[ok])
    out.check("mc.oracle_finite", all(np.all(np.isfinite(b[3])) for b in blocks), "fine-grid oracle")

    deadline, rounds = clock() + seconds, 0
    while out.running(deadline, tracer):
        traced = tracer is not None and rounds % 2 == 1
        b = rounds % MC_BLOCKS
        rounds += 1
        times, Y, ref, oracle_ref, reasons = blocks[b]
        block_ok = np.array([r is None for r in reasons])
        try:
            with _layers(tracer, traced):
                pipe, table = _setup(out, tracer if traced else None,
                                     lambda: _pipeline_and_table(cfg), repeats=1)
                with _span(tracer if traced else None, "bench.round", new_trace=True):
                    t0 = clock()
                    est = _chaos_scores(pipe, table, times, Y, stride)
                    oracle = experiments.oracle_estimates(pipe, times, Y, stride)
                    rmse(est[block_ok], oracle[block_ok])     # the score's error step
                    out.record(clock() - t0, traced)
        except FAILURES as exc:
            out.fail("mc.rounds_repeat_per_path_runs", f"round {rounds} raised {exc}",
                     recorded=False)
            break
        # A path that loses mass does not fail the round: the round still
        # scores it, and the path counts in the failed-path share.
        out.count_paths(reasons)
        if not (np.array_equal(est, ref, equal_nan=True) and np.array_equal(oracle, oracle_ref)):
            out.fail("mc.rounds_repeat_per_path_runs", f"round {rounds}")
            break
    else:
        out.check("mc.rounds_repeat_per_path_runs", True, f"{rounds} rounds")
    return out


# ---------------------------------------------------------------------------
# cli-replay


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def run_cli(seed: int, seconds: float, tracer=None, workdir=None) -> Outcome:
    out = Outcome(op_name="bench.command")
    text = _config("correlated-ou", 32, 3, 8, 1.0, 1, seed)
    cfg = parse_config(text)
    work = Path(workdir) / f"cli-replay-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cfg_path, replay = work / "exp.cfg", work / "obs.txt"
        table_path, run_dir = work / "table.tbl", work / "run"
        cfg_path.write_text(text)
        with _layers(tracer):
            with _span(tracer, "bench.inputs"):
                pipe = experiments.build_pipeline(cfg)
                times, _, Y = experiments.simulate_full(cfg, pipe, 1)
                stride = _stride(cfg)
                runtime.write_observations(replay, cfg.resolved_delta_obs(),
                                           times[::stride], Y[0, ::stride])
            code = _setup(out, tracer, lambda: _cli("precompute", "--config", cfg_path,
                                                    "--out", table_path))
            with _span(tracer, "bench.check"):
                table = propagator.load_table(table_path)
                _, _, obs_t, obs_y = runtime.read_observations(replay)
                windows = runtime.cut_windows(obs_t, obs_y, cfg.delta)
                ref = runtime.run_filter(table, pipe.tbasis, pipe.p_init, windows,
                                         f_coeffs=pipe.f_coeffs, one_coeffs=pipe.one_coeffs)
                oracle = experiments.oracle_estimates(pipe, obs_t, obs_y[None], 1)
        out.check("cli.precompute_exit_0", code == 0, f"exit {code}")
        out.table, out.table_bytes = table, table_path.stat().st_size
        _counts(out, cfg, table, len(windows), sim_paths=1, oracle_paths=0)
        out.rmse_vs_oracle = rmse(ref.estimates, oracle[0])
        reason = classify_path(ref.masses, ref.estimates)
        expected = np.column_stack([ref.times, ref.estimates, ref.masses])

        deadline, commands = clock() + seconds, 0
        while out.running(deadline, tracer):
            traced = tracer is not None and commands % 2 == 1
            commands += 1
            with _layers(tracer, traced), _span(tracer if traced else None, "bench.command",
                                                new_trace=True):
                t0 = clock()
                code = _cli("filter", "--config", cfg_path, "--table", table_path,
                            "--obs", replay, "--out", run_dir)
                out.record(clock() - t0, traced)
            got = np.loadtxt(run_dir / "estimates.csv", delimiter=",", skiprows=1, ndmin=2)
            out.count_paths([reason])
            if code != 0 or not np.array_equal(got, expected):
                out.fail("cli.estimates_csv_equals_run_filter", f"command {commands}: exit {code}")
                break
        else:
            out.check("cli.estimates_csv_equals_run_filter", True, f"{commands} commands")
        out.failed_share = out.failed_paths / out.paths
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    op: str
    run: object
    p50_chunk: int = 1       # operations per chunk for the reported percentiles
    p99_chunk: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "live-correlated",
        "The real-time user: one correlated-ou path (K=32, N=3, n=8, |J|=165, "
        "delta=0.01, T=10) fed window by window in a closed loop.  At this |J| the "
        "online step dominates each window and propagator precompute dominates set-up.  "
        "A single path, so path batching must show no change here.",
        loads="runtime (xi_integrals, step_matrix, advance, estimate); propagator in set-up",
        bypasses="table codec, replay parsing, CSV writing, path batching; simulation is untimed",
        op="one observation window", run=run_live, p50_chunk=20, p99_chunk=1000),
    Workload(
        "mc-cubic",
        "Monte-Carlo scoring: 100 short cubic-sensor paths (K=16, N=2, n=4, |J|=15, "
        "delta=0.01, T=1, simulated once at the observation step) in rounds of 10, "
        "each round set-up, then chaos_estimates -> fine-grid oracle -> error: the "
        "cost of one sweep point.  Per-path Python overhead and the Euler oracle "
        "carry the load; "
        "precompute is cheap.  Keeps delta=0.01, where most paths lose positive mass "
        "(a known defect, counted as failed paths in experiments.failed_share).",
        loads="experiments (chaos_estimates, fine-grid oracle), runtime per path",
        bypasses="propagator precompute (0.02 s), table codec, CLI; simulation is untimed",
        op="one 10-path score round", run=run_mc),
    Workload(
        "cli-replay",
        "The file workflow through cli.main in-process: `precompute` writes the text "
        "table, `filter` replays an observation file written by write_observations "
        "(correlated-ou, K=32, N=3, n=8, delta=0.01, T=1).  The only workload with "
        "config parsing, the table codec, replay parsing and CSV writing on the timed path.",
        loads="cli, config, propagator save_table/load_table, runtime replay and CSV I/O",
        bypasses="simulation and oracles (untimed inputs), path batching",
        op="one `filter` command", run=run_cli),
)}
