import re
import typing
import warnings

import numpy as np
import pytest

from chaosfilter import experiments
from chaosfilter.cli import main
from chaosfilter.config import ConfigError, parse_config
from chaosfilter.propagator import TemporalBasis, load_table
from chaosfilter.reference import compare_on_path, kalman_bucy
from chaosfilter.runtime import read_observations, write_observations

BASE = """
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


def write_cfg(tmp_path, text=BASE, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_defaults_and_values():
    cfg = parse_config(BASE)
    assert cfg.model_name == "ou-linear" and cfg.K == 6 and cfg.N == 1
    assert cfg.resolved_delta_obs() == pytest.approx(0.1 / 16)
    assert cfg.resolved_delta_sim() == pytest.approx(0.1 / 64)
    assert cfg.resolved_substeps() == 64
    assert cfg.seed == 12 and cfg.paths == 1


def test_parse_config_comments_and_budget():
    cfg = parse_config(BASE + "\n# comment\nrun.seed = 3   # trailing comment\n")
    assert cfg.seed == 3 and cfg.K == 6
    with pytest.raises(ConfigError, match=r"budget\.C: unknown section 'budget'"):
        parse_config(BASE + "\n# comment\nbudget.C = 1.5\n")


@pytest.mark.parametrize("line,field", [
    ("model.name = bogus", "model.name"),
    ("discretization.K = 0", "discretization.K"),
    ("discretization.n = 0", "discretization.n"),
    ("discretization.delta = -1", "discretization.delta"),
    ("discretization.T = 0.45", "discretization.T"),
    ("discretization.delta_obs = 0.05", "discretization.delta_obs"),
    ("discretization.delta_sim = 0.007", "discretization.delta_sim"),
    ("discretization.quad_m = 500", "discretization.quad_m"),
    ("run.paths = 0", "run.paths"),
    ("budget.C = -2", "budget.C"),
    ("budget.nu = 3", "budget.nu"),
])
def test_validation_names_fields(line, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        parse_config(BASE + "\n" + line + "\n")


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(BASE + "\nmodel.zeta = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(BASE + "\nfoo.bar = 1\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("just nonsense\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_config(BASE + "\ndiscretization.K = 2.5\n")


@pytest.mark.parametrize("line, message", [
    ("foo.bar = abc", "foo.bar: unknown section 'foo'"),
    ("model.zeta = abc", "model.zeta: unknown key"),
    ("run.outdir = x", "run.outdir: unknown key"),
])
def test_parse_config_checks_the_key_before_the_value(line, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(BASE + "\n" + line + "\n")


def test_model_params_must_fit_builder(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE + "\nmodel.eps = 0.5\n")
    out = tmp_path / "t.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(out)]) == 2


def test_precompute_block_count_and_determinism(tmp_path):
    text = BASE.replace("discretization.K = 6", "discretization.K = 8")
    text = text.replace("discretization.N = 1", "discretization.N = 2")
    text = text.replace("discretization.n = 2", "discretization.n = 4")
    cfg_path = write_cfg(tmp_path, text)
    out1, out2 = tmp_path / "t1.tbl", tmp_path / "t2.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["precompute", "--config", cfg_path, "--out", str(out2)]) == 0
    assert b"indices=15" in out1.read_bytes()
    assert out1.read_bytes() == out2.read_bytes()
    table = load_table(out1)
    assert len(table.indices) == 15 and table.K == 8


def test_precompute_depth_zero_single_block(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.replace("discretization.N = 1",
                                                "discretization.N = 0"))
    out = tmp_path / "t0.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(out)]) == 0
    assert b"indices=1" in out.read_bytes()
    assert len(load_table(out).indices) == 1


def test_simulate_filter_compare_pipeline(tmp_path):
    cfg_path = write_cfg(tmp_path)
    simdir = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(simdir)]) == 0
    obs = simdir / "obs_000.txt"
    assert obs.exists() and (simdir / "truth_000.txt").exists()

    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0

    outdir = tmp_path / "run"
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(outdir)]) == 0
    states = (outdir / "states.csv").read_text().splitlines()
    ests = (outdir / "estimates.csv").read_text().splitlines()
    assert states[0] == "t," + ",".join(f"p_{j}" for j in range(1, 7))
    assert ests[0] == "t,estimate,mass"
    assert len(states) == 6 and len(ests) == 6    # header + initial row + 4 windows

    outdir2 = tmp_path / "run2"
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(outdir2)]) == 0
    assert (outdir / "states.csv").read_bytes() == (outdir2 / "states.csv").read_bytes()
    assert (outdir / "estimates.csv").read_bytes() == (outdir2 / "estimates.csv").read_bytes()

    cmpdir = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_path, "--obs", str(obs),
                 "--est", str(outdir / "estimates.csv"), "--out", str(cmpdir)]) == 0
    summary = (cmpdir / "summary.csv").read_text().splitlines()
    assert summary[0] == "rmse,max_abs"
    rmse = float(summary[1].split(",")[0])
    assert rmse < 0.5


def test_filter_empty_observations(tmp_path):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "empty.txt"
    obs.write_text("delta_obs=0.00625\nr=1\n")
    outdir = tmp_path / "empty_run"
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(outdir)]) == 0
    assert (outdir / "states.csv").read_text() == "t," + ",".join(
        f"p_{j}" for j in range(1, 7)) + "\n"
    assert (outdir / "estimates.csv").read_text() == "t,estimate,mass\n"


def test_filter_metadata_mismatch_is_validation_failure(tmp_path):
    cfg_path = write_cfg(tmp_path)
    other = write_cfg(tmp_path, BASE.replace("discretization.delta = 0.1",
                                             "discretization.delta = 0.2"), name="other.cfg")
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", other, "--out", str(table)]) == 0
    t = np.linspace(0.0, 0.4, 65)
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, t, np.zeros((65, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("old,new,message", [
    ("discretization.K = 6", "discretization.K = 4",
     "table has K=4 basis functions, config has discretization.K=6"),
    ("discretization.n = 2", "discretization.n = 4",
     "table has n=4 temporal modes, more than the config's discretization.n=2"),
])
def test_table_of_other_K_or_more_modes_is_validation_failure(tmp_path, capsys, old, new,
                                                              message):
    cfg_path = write_cfg(tmp_path)
    other = write_cfg(tmp_path, BASE.replace(old, new), name="other.cfg")
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", other, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"     # fine enough for n = 4, so only the new check can fail
    write_observations(obs, 0.003125, np.linspace(0.0, 0.4, 129), np.zeros((129, 1)))
    capsys.readouterr()
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def test_table_of_fewer_modes_than_the_config_filters(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.replace("discretization.n = 2", "discretization.n = 4"))
    small = write_cfg(tmp_path, name="small.cfg")
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", small, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.003125, np.linspace(0.0, 0.4, 129), np.zeros((129, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 0


def test_precompute_writes_binary_unless_asked_for_text(tmp_path):
    cfg_path = write_cfg(tmp_path)
    binary, text = tmp_path / "table.tbl", tmp_path / "table.txt"
    assert main(["precompute", "--config", cfg_path, "--out", str(binary)]) == 0
    assert main(["precompute", "--config", cfg_path, "--out", str(text), "--text"]) == 0
    assert b"\nformat=binary\n" in binary.read_bytes()
    assert "\nformat=text\n" in text.read_text()
    a, b = load_table(binary), load_table(text)
    assert a.indices == b.indices
    assert a.matrices.tobytes() == b.matrices.tobytes()
    obs = tmp_path / "obs.txt"
    t = np.linspace(0.0, 0.4, 65)
    write_observations(obs, 0.00625, t, np.sin(7.0 * t)[:, None])
    for table, run in ((binary, "run_b"), (text, "run_t")):
        assert main(["filter", "--config", cfg_path, "--table", str(table),
                     "--obs", str(obs), "--out", str(tmp_path / run)]) == 0
    for name in ("estimates.csv", "states.csv"):
        assert (tmp_path / "run_b" / name).read_bytes() == (tmp_path / "run_t" / name).read_bytes()


def test_truncated_table_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    table.write_bytes(table.read_bytes()[:-8])
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "table.tbl: truncated matrix 3 of 3" in capsys.readouterr().err


def test_ragged_replay_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    obs.write_text("delta_obs=0.00625\nr=1\n0 0\n0.00625 0\n0.0125\n")
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "obs.txt: line 5: expected 2 columns, found 1" in capsys.readouterr().err


def test_malformed_table_row_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table), "--text"]) == 0
    lines = table.read_text().splitlines(keepends=True)
    lines[14] = lines[14].split(" ", 1)[1]          # drop a value of matrix 1, row 2
    table.write_text("".join(lines))
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "table.tbl: matrix 1 of 3, row 2: expected 6 values, found 5" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("indices=", "indicez=", "table header: missing 'indices=' line"),
    ("format=text", "format=foo", "table header: format is not 'text' or 'binary': 'foo'"),
    ("K=6", "K=abc", "table header: K is not an integer: 'abc'"),
    ("indices=3", "indices=-1", "table header: indices is not a nonnegative integer: '-1'"),
])
def test_bad_table_header_field_is_validation_failure(tmp_path, capsys, old, new, message):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table), "--text"]) == 0
    table.write_text(table.read_text().replace(old, new, 1))
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert f"table.tbl: {message}" in capsys.readouterr().err


def test_replay_byte_that_is_not_utf8_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    obs.write_bytes(b"delta_obs=0.00625\nr=1\n0 0\n\xff0.00625 0\n")
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "obs.txt: line 4: byte 0xff is not utf-8" in capsys.readouterr().err


def test_replay_without_width_line_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    obs.write_text("delta_obs=0.00625\n0 0\n0.00625 0\n")
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "obs.txt: line 2: expected 'r=', found '0 0'" in capsys.readouterr().err


def test_missing_file_is_runtime_error(tmp_path):
    cfg_path = write_cfg(tmp_path)
    assert main(["filter", "--config", cfg_path, "--table", str(tmp_path / "nope.tbl"),
                 "--obs", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x")]) == 1


def test_sweep_single_value_single_row(tmp_path):
    cfg_path = write_cfg(tmp_path)
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axis", "n", "--values", "2",
                 "--out", str(outdir)]) == 0
    rows = (outdir / "sweep_n.csv").read_text().splitlines()
    assert rows[0] == "axis,value,mse,rmse,max_abs,certificate"
    assert len(rows) == 2
    assert 0.0 < float(rows[1].split(",")[-1]) < 1.0
    # rerun is byte-identical
    outdir2 = tmp_path / "sweep2"
    assert main(["sweep", "--config", cfg_path, "--axis", "n", "--values", "2",
                 "--out", str(outdir2)]) == 0
    assert (outdir / "sweep_n.csv").read_bytes() == (outdir2 / "sweep_n.csv").read_bytes()


def test_sweep_csv_float_cells_parse_back_to_the_same_bits(tmp_path):
    cfg_path = write_cfg(tmp_path)
    outdir = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg_path, "--axis", "delta", "--values", "0.1,0.2",
                 "--out", str(outdir)]) == 0
    rows = experiments.run_sweep(parse_config((tmp_path / "exp.cfg").read_text()), "delta",
                                 [0.1, 0.2])
    lines = (outdir / "sweep_delta.csv").read_text().splitlines()
    keys = lines[0].split(",")
    assert keys == list(rows[0]) and keys[-1] == "certificate"
    for line, row in zip(lines[1:], rows, strict=True):
        cells = dict(zip(keys, line.split(","), strict=True))
        assert cells.pop("axis") == "delta"
        assert {k: np.float64(v).tobytes() for k, v in cells.items()} == {
            k: np.float64(row[k]).tobytes() for k in cells}
    # byte for byte what the per-cell writer made before the shared row template
    assert (outdir / "sweep_delta.csv").read_text() == lines[0] + "\n" + "".join(
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row.values()) + "\n"
        for row in rows)


def test_sweep_error_decreases_with_chaos_order(tmp_path):
    text = BASE.replace("discretization.delta = 0.1", "discretization.delta = 0.2")
    text = text.replace("discretization.T = 0.4", "discretization.T = 0.6")
    text = text.replace("run.paths = 1", "run.paths = 6")
    cfg_path = write_cfg(tmp_path, text)
    outdir = tmp_path / "sweepN"
    assert main(["sweep", "--config", cfg_path, "--axis", "N", "--values", "0,1,2",
                 "--out", str(outdir)]) == 0
    rows = (outdir / "sweep_N.csv").read_text().splitlines()[1:]
    mses = [float(r.split(",")[2]) for r in rows]
    assert mses[0] > mses[1] >= mses[2]


def test_pipeline_annotations_resolve():
    hints = typing.get_type_hints(experiments.Pipeline)
    assert hints["tbasis"] is TemporalBasis


@pytest.mark.parametrize("axis, values, token", [("K", "4,x", "'x'"),
                                                 ("delta", "0.1,0.2y", "'0.2y'")])
def test_malformed_sweep_value_is_validation_failure(tmp_path, capsys, axis, values, token):
    cfg_path = write_cfg(tmp_path)
    assert main(["sweep", "--config", cfg_path, "--axis", axis, "--values", values,
                 "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err
    assert "sweep.values" in err and token in err


def _compare_inputs(tmp_path, est_text):
    # the BASE config's replay (65 samples, 5 windows) and an estimates CSV holding est_text
    cfg_path = write_cfg(tmp_path)
    obs = tmp_path / "obs.txt"
    t = np.linspace(0.0, 0.4, 65)
    write_observations(obs, 0.00625, t, np.sin(7 * t)[:, None])
    est = tmp_path / "estimates.csv"
    est.write_text(est_text)
    return cfg_path, obs, est


@pytest.mark.parametrize("est_text, message", [
    ("t,estimate,mass\n0,0.5,abc\n", "could not convert string 'abc'"),
    ("t,estimate,mass\n", "expected rows of 't,estimate,...' after the header"),
    ("t,estimate,mass\n0,0.5,1\n0.1,0.5,1\n", "estimate rows (2) do not match windows (5)"),
])
def test_malformed_estimates_csv_is_validation_failure(tmp_path, capsys, est_text, message):
    cfg_path, obs, est = _compare_inputs(tmp_path, est_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare", "--config", cfg_path, "--obs", str(obs), "--est", str(est),
                     "--out", str(tmp_path / "cmp")]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert f"{est}: " in err and message in err


@pytest.mark.parametrize("shift, row", [(np.full(5, 0.05), 1), (np.eye(5)[2] * 1e-6, 3)])
def test_misaligned_estimates_csv_is_validation_failure(tmp_path, capsys, shift, row):
    # the replay's window ends are 0, 0.1, ..., 0.4; shift moves the estimates' t column
    t = (np.linspace(0.0, 0.4, 5) + shift).tolist()
    cfg_path, obs, est = _compare_inputs(tmp_path, "t,estimate,mass\n" + "".join(
        f"{a!r},0.5,1\n" for a in t))
    assert main(["compare", "--config", cfg_path, "--obs", str(obs), "--est", str(est),
                 "--out", str(tmp_path / "cmp")]) == 2
    expected = np.linspace(0.0, 0.4, 5).tolist()[row - 1]
    assert (f"invalid input [compare]: {est}: row {row}: t = {t[row - 1]!r} is off the "
            f"replay's window grid, expected {expected!r}") in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_compare_csvs_match_the_f_string_writer_byte_for_byte(tmp_path):
    t = np.linspace(0.0, 0.4, 5)
    est = np.array([1 / 3, -0.0, 1e-300, -2.5e17, np.pi])
    cfg_path, obs, est_path = _compare_inputs(tmp_path, "t,estimate,mass\n" + "".join(
        f"{a:.17g},{b:.17g},1\n" for a, b in zip(t, est)))
    outdir = tmp_path / "cmp"
    assert main(["compare", "--config", cfg_path, "--obs", str(obs), "--est", str(est_path),
                 "--out", str(outdir)]) == 0

    # the writer compare used before the shared row template
    delta_obs, _, times, values = read_observations(obs)
    linear = experiments.build_pipeline(parse_config(BASE)).bundle.linear
    oracle = kalman_bucy(linear, values[:, 0], delta_obs)[0][::16]
    summary = compare_on_path(est, oracle, t, times[::16])
    expected = "t,estimate,oracle,error\n" + "".join(
        f"{a:.17g},{e:.17g},{o:.17g},{e - o:.17g}\n" for a, e, o in zip(t, est, oracle))
    assert (outdir / "compare.csv").read_bytes() == expected.encode()
    assert (outdir / "summary.csv").read_bytes() == (
        f"rmse,max_abs\n{summary.rmse:.17g},{summary.max_abs:.17g}\n").encode()
