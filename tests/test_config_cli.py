import re
import typing
import warnings

import numpy as np
import pytest

from chaosfilter import experiments
from chaosfilter.cli import main
from chaosfilter.config import ConfigError, parse_config
from chaosfilter.propagator import TemporalBasis, cosine_basis, load_table
from chaosfilter.reference import compare_on_path, kalman_bucy
from chaosfilter.runtime import (_BLOCK_ENTRIES, cut_windows, read_observations, run_filter,
                                 write_estimate_csv, write_observations, write_state_csv)

from oracles import save_table_v1

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
    ("run.seed = -3", "run.seed"),
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
    ("discretization.substeps = 64", "discretization.substeps: unknown key"),
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
    assert len(out1.read_bytes().split(b"\nbasis_d=1\n", 1)[1]) == 15 * 8 * 8 * 8  # 15 matrices
    assert out1.read_bytes() == out2.read_bytes()
    table = load_table(out1)
    assert len(table.indices) == 15 and table.K == 8


def test_precompute_depth_zero_single_block(tmp_path):
    cfg_path = write_cfg(tmp_path, BASE.replace("discretization.N = 1",
                                                "discretization.N = 0"))
    out = tmp_path / "t0.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(out)]) == 0
    assert len(out.read_bytes().split(b"\nbasis_d=1\n", 1)[1]) == 6 * 6 * 8     # one matrix
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


# filter cuts no window objects: it takes the replay's sample arrays whole.
# Its CSVs must be those of run_filter over cut_windows, byte for byte.

@pytest.mark.parametrize("t0", [0.0, 0.03], ids=["from-0", "first-time-inside-a-window"])
def test_filter_csvs_equal_run_filter_over_cut_windows(tmp_path, monkeypatch, t0):
    text = (BASE.replace("discretization.K = 6", "discretization.K = 32")
            .replace("discretization.T = 0.4", "discretization.T = 7.0")
            .replace("discretization.quad_m = 32", "discretization.quad_m = 64"))
    cfg_path = write_cfg(tmp_path, text)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    steps = np.random.default_rng(4).normal(scale=0.08, size=(1121, 1))
    write_observations(obs, 0.00625, t0 + 0.00625 * np.arange(1121), np.cumsum(steps, axis=0))
    with monkeypatch.context() as m:     # filter needs the projections, not the Galerkin matrices
        m.setattr(experiments, "assemble", None)
        assert main(["filter", "--config", cfg_path, "--table", str(table),
                     "--obs", str(obs), "--out", str(tmp_path / "run")]) == 0
    cfg = parse_config(text)
    pipe = experiments.build_pipeline(cfg)
    _, _, times, values = read_observations(obs)
    windows = cut_windows(times, values, cfg.delta)
    assert len(windows) == 70 > _BLOCK_ENTRIES // 32 ** 2     # several blocks of windows
    run = run_filter(load_table(table), cosine_basis(cfg.delta, cfg.n), pipe.p_init, windows,
                     f_coeffs=pipe.f_coeffs, one_coeffs=pipe.one_coeffs)
    write_state_csv(tmp_path / "states.csv", run)
    write_estimate_csv(tmp_path / "estimates.csv", run)
    for name in ("states.csv", "estimates.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()


GRID = np.linspace(0.0, 0.4, 65)


@pytest.mark.parametrize("times, message", [
    (GRID[:62], f"13 samples from t={GRID[49]:.17g} do not fill a window of length 0.1"),
    (np.where(np.arange(65) == 5, GRID + 1e-4, GRID), "window sampling must be uniform"),
    (GRID[:1], "cutting windows needs at least two samples, got one"),
    (np.zeros(5), "window times must be strictly increasing"),
    (GRID[::4], "window spacing 0.025 too coarse: need <= delta/(8 n) = 0.00625"),
], ids=["partial-window", "non-uniform", "single-sample", "repeated-time", "too-coarse"])
def test_replay_off_the_window_grid_is_validation_failure(tmp_path, capsys, times, message):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, times, np.zeros((times.size, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert f"invalid input [filter]: {obs}: {message}" in capsys.readouterr().err


def test_filter_rejects_an_invalid_model_as_build_pipeline_does(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, GRID, np.zeros((65, 1)))
    narrow = BASE + "model.P0 = 1e-6\n"        # p0 too narrow for the quadrature grid
    message = "p0 quadrature mass 0.000000 is not within 1e-3 of 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        experiments.build_pipeline(parse_config(narrow))
    capsys.readouterr()
    assert main(["filter", "--config", write_cfg(tmp_path, narrow, name="narrow.cfg"),
                 "--table", str(table), "--obs", str(obs), "--out", str(tmp_path / "x")]) == 1
    assert f"error [filter]: {message}" in capsys.readouterr().err


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


def test_filter_checks_the_table_of_an_empty_replay(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    other = write_cfg(tmp_path, BASE.replace("discretization.K = 6", "discretization.K = 8"),
                      name="other.cfg")
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", other, "--out", str(table)]) == 0
    obs = tmp_path / "empty.txt"
    obs.write_text("delta_obs=0.00625\nr=1\n")
    capsys.readouterr()
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "table has K=8 basis functions, config has discretization.K=6" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_replay_sampled_for_a_table_of_fewer_modes_filters_as_under_its_config(tmp_path):
    # table and replay from an n=4 config (delta_obs = delta/32), too coarse for the n=8
    # config's own sampling rule: the table's modes set the rule, and the outputs are those
    # of the n=4 config bit for bit
    small_text = ("model.name = ou-linear\ndiscretization.K = 8\ndiscretization.N = 2\n"
                  "discretization.n = 4\ndiscretization.delta = 0.01\ndiscretization.T = 0.1\n"
                  "run.seed = 3\n")
    small = write_cfg(tmp_path, small_text, name="small.cfg")
    large = write_cfg(tmp_path, small_text.replace("n = 4", "n = 8"), name="large.cfg")
    table, sim = tmp_path / "table.tbl", tmp_path / "sim"
    assert main(["precompute", "--config", small, "--out", str(table)]) == 0
    assert main(["simulate", "--config", small, "--out", str(sim)]) == 0
    for cfg_path, out in ((small, tmp_path / "small"), (large, tmp_path / "large")):
        assert main(["filter", "--config", cfg_path, "--table", str(table),
                     "--obs", str(sim / "obs_000.txt"), "--out", str(out)]) == 0
    for name in ("states.csv", "estimates.csv"):
        assert (tmp_path / "large" / name).read_bytes() == (tmp_path / "small" / name).read_bytes()


def test_negative_seed_is_validation_failure(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"run\.seed: must be >= 0, got -3"):
        parse_config(BASE + "run.seed = -3\n")
    cfg_path = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                 "--seed-override", "-1"]) == 2
    assert "run.seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()
    negative = write_cfg(tmp_path, BASE + "run.seed = -3\n", name="negative.cfg")
    assert main(["sweep", "--config", negative, "--axis", "n", "--values", "2",
                 "--out", str(tmp_path / "sweep")]) == 2
    assert "run.seed: must be >= 0, got -3" in capsys.readouterr().err


def test_truncated_table_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    table.write_bytes(table.read_bytes()[:-8])
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert ("table.tbl: truncated: expected 864 bytes of matrices after the header (N=1, n=2, "
            "r=1, K=6), found 856" in capsys.readouterr().err)


def test_ragged_replay_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    obs.write_text("delta_obs=0.00625\nr=1\n0 0\n0.00625 0\n0.0125\n")
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert "obs.txt: line 5: expected 2 columns, found 1" in capsys.readouterr().err


def test_table_of_huge_declared_size_is_validation_failure(tmp_path, capsys):
    # K=60000: the 3 matrices would take 86.4 GB, and the file holds 864 bytes of them
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    table.write_bytes(table.read_bytes().replace(b"\nK=6\n", b"\nK=60000\n", 1))
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    capsys.readouterr()
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert ("table.tbl: truncated: expected 86400000000 bytes of matrices after the header "
            "(N=1, n=2, r=1, K=60000), found 864\n" in capsys.readouterr().err)


@pytest.mark.parametrize("old, new, message", [
    ("version=2", "version=3",
     "unsupported table version '3'; write the table again with `precompute`"),
    ("K=6", "K=abc", "table header: K is not an integer: 'abc'"),
    ("delta=", "delta=x", "table header: delta is not a float: 'x0.10000000000000001'"),
    ("\nK=6\n", "\nK=0\n", "table header: K is not a positive integer: '0'"),
    ("\nr=1\n", "\nr=0\n", "table header: r is not a positive integer: '0'"),
    ("\nn=2\n", "\nn=0\n", "table header: n is not a positive integer: '0'"),
    ("\nbasis_d=1\n", "\nbasis_d=0\n", "table header: basis_d is not a positive integer: '0'"),
    ("\nr=1\n", "\nr=-1\n", "table header: r is not a nonnegative integer: '-1'"),
    ("\nN=1\nn=2\n", "\nn=2\nN=1\n", "table header: line 5: expected 'N=', found 'n=2'"),
    ("substeps=64", "steps=64", "table header: line 7: expected 'substeps=', found 'steps=64'"),
    ("N=1", "N=2", "truncated: expected 1728 bytes of matrices after the header (N=2, n=2, r=1, "
     "K=6), found 864"),
])
def test_bad_table_header_field_is_validation_failure(tmp_path, capsys, old, new, message):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    table.write_bytes(table.read_bytes().replace(old.encode(), new.encode(), 1))
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert f"table.tbl: {message}" in capsys.readouterr().err


def test_version_1_table_is_validation_failure(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    save_table_v1(table, load_table(table))
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    capsys.readouterr()
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert (f"invalid input [filter]: {table}: unsupported table version '1'; write the table "
            f"again with `precompute`" in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_table_of_another_basis_dimension_is_validation_failure(tmp_path, capsys):
    # the matrices of a K=6 table do not depend on basis_d, so only the model can tell
    cfg_path = write_cfg(tmp_path)
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", cfg_path, "--out", str(table)]) == 0
    table.write_bytes(table.read_bytes().replace(b"\nbasis_d=1\n", b"\nbasis_d=2\n", 1))
    assert load_table(table).basis.d == 2
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65), np.zeros((65, 1)))
    capsys.readouterr()
    assert main(["filter", "--config", cfg_path, "--table", str(table),
                 "--obs", str(obs), "--out", str(tmp_path / "x")]) == 2
    assert ("table has basis_d=2, the model ou-linear has dimension d=1"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


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
