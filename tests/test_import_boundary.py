"""Which commands load scipy, each checked in a fresh interpreter.

The online half (the package import, filter, compare, simulate) runs on
numpy alone, and so do precompute and sweep on a small table, whose
lowering is a dense product; a large table loads scipy.sparse for its
CSR lowering, and only the closed-form oracle loads scipy.linalg.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """
model.name = ou-linear
model.a = -1.0
model.sigma = 1.0
model.h = 1.0
discretization.K = 6
discretization.N = 1
discretization.n = 2
discretization.delta = 0.1
discretization.T = 0.4
discretization.quad_m = 32
run.seed = 12
run.paths = 1
"""

# the cli-replay table: K=32, |J|=165, two column blocks, a CSR lowering
LARGE_CONFIG = """
model.name = correlated-ou
discretization.K = 32
discretization.N = 3
discretization.n = 8
discretization.delta = 0.01
discretization.T = 1
"""

# Prints, as JSON, the scipy modules loaded after each step; `commands` is
# a list of (label, argv) for cli.main, and each must exit 0.
PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import chaosfilter
seen["import chaosfilter"] = scipy_modules()
from chaosfilter.cli import main
seen["import chaosfilter.cli"] = scipy_modules()
for label, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, label
    seen[label] = scipy_modules()
if sys.argv[2] == "closed-form":
    import numpy as np
    from chaosfilter.galerkin import GalerkinSystem
    from chaosfilter.hermite import build_basis
    from chaosfilter.multiindex import MultiIndex
    from chaosfilter.propagator import TemporalBasis, closed_form_order1
    system = GalerkinSystem(K=1, r=1, A=np.zeros((1, 1)), B=np.ones((1, 1, 1)),
                            basis=build_basis(1, 1))
    value = closed_form_order1(system, TemporalBasis(0.25, 2),
                               MultiIndex.from_dict({(1, 1): 1}, 1), [1.0])
    assert abs(value[0] - 0.5) < 1e-12, value     # integral of m_1 = sqrt(delta)
    seen["closed_form_order1"] = scipy_modules()
print(json.dumps(seen))
"""


def _probe(commands, extra="none"):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands), extra], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", ["precompute", "sweep"])
def test_small_tables_load_no_scipy_and_closed_form_loads_linalg(tmp_path, command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    argv = {"precompute": ["--out", str(tmp_path / "table.tbl")],
            "sweep": ["--axis", "n", "--values", "2", "--out", str(tmp_path / "sweep")]}[command]
    seen = _probe([[command, [command, "--config", str(cfg)] + argv]], "closed-form")
    assert seen["import chaosfilter.cli"] == []
    assert seen[command] == []
    assert "scipy.linalg" in seen["closed_form_order1"]


def test_large_table_precompute_loads_only_scipy_sparse(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LARGE_CONFIG)
    seen = _probe([["precompute", ["precompute", "--config", str(cfg), "--out",
                                   str(tmp_path / "table.tbl")]]])
    assert "scipy.sparse" in seen["precompute"]
    assert not any(m.startswith("scipy.linalg") for m in seen["precompute"])


def test_online_commands_never_load_scipy(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    table = tmp_path / "table.tbl"
    _probe([["precompute", ["precompute", "--config", str(cfg), "--out", str(table)]]])
    sim, run, cmp = tmp_path / "sim", tmp_path / "run", tmp_path / "cmp"
    obs = sim / "obs_000.txt"
    seen = _probe([
        ["simulate", ["simulate", "--config", str(cfg), "--out", str(sim)]],
        ["filter", ["filter", "--config", str(cfg), "--table", str(table), "--obs", str(obs),
                    "--out", str(run)]],
        ["compare", ["compare", "--config", str(cfg), "--obs", str(obs),
                     "--est", str(run / "estimates.csv"), "--out", str(cmp)]],
    ])
    assert list(seen) == ["import chaosfilter", "import chaosfilter.cli", "simulate", "filter",
                          "compare"]
    assert seen == {step: [] for step in seen}
    assert (cmp / "summary.csv").exists()
