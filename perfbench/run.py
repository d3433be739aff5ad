"""chaosfilter benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload live-correlated --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 the result holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics: operations then alternate between
untraced and traced, and the spans are written to .perfbench_out/.  Exits 1 when
an output check fails and 2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from measure import fastest_chunk, highest_supported_percentile, median, samples_beyond
from tracing import LAYERS, Tracer, durations, op_layer_self

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


# (name, unit, better, computed): computed values come from array shapes and repeat exactly.
PER_LAYER = (
    ("multiindex.indices", "count", "lower", True),
    ("runtime.windows", "count", "lower", True),
    ("runtime.step_flops", "flop", "lower", True),
    ("runtime.step_bytes", "B", "lower", True),
    ("runtime.step_ops_per_byte", "flop/B", "higher", True),
    ("propagator.rhs_evals", "count", "lower", True),
    ("propagator.flops", "flop", "lower", True),
    ("simulate.path_steps", "count", "lower", True),
    ("galerkin.oracle_path_steps", "count", "lower", True),
    ("runtime.step_matrix_us", "us", "lower", False),
    ("runtime.xi_integrals_us", "us", "lower", False),
    ("runtime.advance_us", "us", "lower", False),
    ("runtime.estimate_us", "us", "lower", False),
    ("runtime.kernel_floor_us", "us", "lower", False),
    ("runtime.step_over_floor", "ratio", "lower", False),
    ("runtime.run_filter_s", "s", "lower", False),
    ("runtime.read_observations_s", "s", "lower", False),
    ("runtime.cut_windows_s", "s", "lower", False),
    ("runtime.write_csv_s", "s", "lower", False),
    ("experiments.build_pipeline_s", "s", "lower", False),
    ("experiments.chaos_estimates_s", "s", "lower", False),
    ("experiments.oracle_estimates_s", "s", "lower", False),
    ("experiments.chaos_over_oracle", "ratio", "lower", False),
    ("experiments.rmse_vs_oracle", "state", "lower", False),
    ("experiments.failed_share", "fraction", "lower", False),
    ("propagator.precompute_table_s", "s", "lower", False),
    ("propagator.gflops", "GFLOP/s", "higher", False),
    ("propagator.save_table_s", "s", "lower", False),
    ("propagator.load_table_s", "s", "lower", False),
    ("propagator.table_bytes", "B", "lower", False),
    ("multiindex.enumerate_truncated_s", "s", "lower", False),
    ("galerkin.assemble_s", "s", "lower", False),
    ("galerkin.oracle_ns_per_path_step", "ns", "lower", False),
    ("simulate.simulate_paths_s", "s", "lower", False),
    ("simulate.ns_per_path_step", "ns", "lower", False),
    ("reference.kalman_bucy_s", "s", "lower", False),
    ("cli.import_s", "s", "lower", False),
    *((f"{layer}.self_ms", "ms", "lower", False) for layer in LAYERS),
    ("trace.untraced_op_p50_ms", "ms", "lower", False),
    ("trace.traced_op_p50_ms", "ms", "lower", False),
    ("trace.overhead_share", "fraction", "lower", False),
    ("trace.op_in_layers_share", "fraction", "higher", False),
)


IMPORT_REPEATS = 3
KERNEL_REPEATS = 200


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded; None if unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def end_to_end(workload, outcome) -> dict:
    # Each percentile is taken within chunks of consecutive operations, and
    # the fastest chunk is reported: on a shared machine, stretches of
    # seconds run up to twice as slow, and the fastest chunk is the one
    # least disturbed by other tenants.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": median(outcome.setup_s),
        "op_p50_ms": fastest_chunk(outcome.op_s, workload.p50_chunk, 50) * 1e3,
        "op_p99_ms": fastest_chunk(outcome.op_s, workload.p99_chunk, 99) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chaosfilter"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def _kernel_floor_us(table) -> float:
    """The bare weighted sum of the table's matrices, as step_matrix ends with it."""
    w = np.random.default_rng(0).standard_normal(len(table.indices))
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        np.tensordot(w, table.matrices, 1)
        times.append(time.perf_counter() - t0)
    return median(times) * 1e6


def per_layer(workload, outcome, tracer) -> dict:
    spans = tracer.spans

    def med(name):
        return median(durations(spans, name))

    c = outcome.counts
    m = {
        "multiindex.indices": c["indices"],
        "runtime.windows": c["windows"],
        "runtime.step_flops": c["step_flops"],
        "runtime.step_bytes": c["step_bytes"],
        "runtime.step_ops_per_byte": c["step_flops"] / c["step_bytes"],
        "propagator.rhs_evals": c["rhs_evals"],
        "propagator.flops": c["precompute_flops"],
        "simulate.path_steps": c["sim_path_steps"],
        "galerkin.oracle_path_steps": c["oracle_path_steps"],
    }
    for fn in ("step_matrix", "xi_integrals", "advance", "estimate"):
        m[f"runtime.{fn}_us"] = med(f"runtime.{fn}") * 1e6
    m["runtime.kernel_floor_us"] = _kernel_floor_us(outcome.table)
    m["runtime.step_over_floor"] = m["runtime.step_matrix_us"] / m["runtime.kernel_floor_us"]
    for fn in ("run_filter", "read_observations", "cut_windows"):
        m[f"runtime.{fn}_s"] = med(f"runtime.{fn}")
    m["runtime.write_csv_s"] = med("runtime.write_state_csv") + med("runtime.write_estimate_csv")
    for fn in ("build_pipeline", "chaos_estimates", "oracle_estimates"):
        m[f"experiments.{fn}_s"] = med(f"experiments.{fn}")
    oracle_s = m["experiments.oracle_estimates_s"]
    m["experiments.chaos_over_oracle"] = m["experiments.chaos_estimates_s"] / oracle_s if oracle_s else 0.0
    m["experiments.rmse_vs_oracle"] = outcome.rmse_vs_oracle
    m["experiments.failed_share"] = outcome.failed_share
    pre = med("propagator.precompute_table")
    m["propagator.precompute_table_s"] = pre
    m["propagator.gflops"] = c["precompute_flops"] / pre / 1e9 if pre else 0.0
    m["propagator.save_table_s"] = med("propagator.save_table")
    m["propagator.load_table_s"] = med("propagator.load_table")
    m["propagator.table_bytes"] = outcome.table_bytes
    m["multiindex.enumerate_truncated_s"] = med("multiindex.enumerate_truncated")
    m["galerkin.assemble_s"] = med("galerkin.assemble")
    oracle_fine = med("experiments.galerkin_oracle_estimates")
    steps = c["oracle_path_steps"]
    m["galerkin.oracle_ns_per_path_step"] = oracle_fine / steps * 1e9 if steps else 0.0
    sim = med("simulate.simulate_paths")
    m["simulate.simulate_paths_s"] = sim
    m["simulate.ns_per_path_step"] = sim / c["sim_path_steps"] * 1e9
    m["reference.kalman_bucy_s"] = med("reference.kalman_bucy")
    m["cli.import_s"] = _import_seconds()
    ops, layer_self, op_total = op_layer_self(spans, outcome.op_name)
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self.get(layer, 0.0) / ops * 1e3
    # Traced and untraced operations alternate within the run.
    untraced_p50, traced_p50 = (fastest_chunk(ops_s, workload.p50_chunk, 50) * 1e3
                                for ops_s in (outcome.op_s, outcome.traced_op_s))
    m["trace.untraced_op_p50_ms"] = untraced_p50
    m["trace.traced_op_p50_ms"] = traced_p50
    m["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    m["trace.op_in_layers_share"] = 1.0 - layer_self.get("bench", 0.0) / op_total
    return m


def _report(workload, outcome, metrics, units, computed=()):
    n = len(outcome.op_s)
    tail = highest_supported_percentile(n)

    def reads(chunk, p):
        if chunk == 1:
            return "the fastest operation"
        size = min(chunk, n)
        return f"p{p} of the fastest chunk of {size} ({samples_beyond(size, p)} beyond)"
    print(f"workload {workload.name}: operation = {workload.op}")
    print(f"  loads: {workload.loads}")
    print(f"  bypasses: {workload.bypasses}")
    print(f"  why: {workload.why}")
    print(f"  operations timed: {n}; samples beyond p99: {samples_beyond(n, 99.0)}; "
          f"highest percentile with >= 10 beyond: {'none' if tail is None else f'p{tail:g}'}")
    print(f"  op_p50_ms reads {reads(workload.p50_chunk, 50)}; "
          f"op_p99_ms reads {reads(workload.p99_chunk, 99)}")
    print(f"  set-up repeats: {len(outcome.setup_s)}")
    print(f"  operations attempted {outcome.attempted}, failed {outcome.failed} "
          "(raised, or failed an output check)")
    print(f"  filter paths run {outcome.paths}, failed {outcome.failed_paths}; "
          f"failed share of the workload's paths {outcome.failed_share:.4g}" +
          (f"; reasons {outcome.failure_reasons}" if outcome.failure_reasons else ""))
    if outcome.failed_share:
        print("  KNOWN DEFECT: paths whose normalization mass goes <= 0 or non-finite, "
              "or that raise, count as failed paths (experiments.failed_share); "
              "rmse excludes them")
    print(f"  rmse_vs_oracle (non-failed paths): {outcome.rmse_vs_oracle:.6g}")
    for name, passed, detail in outcome.checks:
        print(f"  check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    for name, value in metrics.items():
        label = " (computed)" if name in computed else ""
        print(f"  {name} = {value:.6g} {units[name]}{label}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "chaosfilter" / "__init__.py").is_file():
        print(f"chaosfilter sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print("environment " + json.dumps(env))
    OUT.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    outcome = workload.run(args.seed, args.seconds, tracer, OUT)
    if tracer:
        metrics = per_layer(workload, outcome, tracer)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        computed = {name for name, _, _, is_computed in PER_LAYER if is_computed}
        trace_path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path, {"environment": env, "metrics": metrics})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        _report(workload, outcome, metrics, units, computed)
    else:
        metrics = end_to_end(workload, outcome)
        units = dict(END_TO_END)
        _report(workload, outcome, metrics, units)
    correct = all(passed for _, passed, _ in outcome.checks)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
