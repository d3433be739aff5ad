"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mc-cubic --seeds 1-10

Runs perfbench/run.py once per seed, one run at a time, with the
run_seconds of BENCHMARK.json, and prints each metric's median and
quartile spread (Q3 - Q1) / median next to a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{name}: median {statistics.median(vals):.6g} spread {spread:.4f} "
              f"(bound {bounds[name]}, a third {bounds[name] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
