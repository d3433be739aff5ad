"""The count array as the one stored form of the chaos index set.

The table, the lowering of the coefficient flows, the truncation
certificate and the Parseval mass read the index set as the (|J|, n r)
count array of multiindex.enumerate_counts; the table file stores none,
and its reader derives the array from the header.  Each is checked here,
bit for bit, against its form built from MultiIndex objects, and the
filter command is checked to build no MultiIndex at all.
"""

import math

import numpy as np
import pytest

from chaosfilter import experiments, propagator
from chaosfilter.cli import main
from chaosfilter.config import parse_config
from chaosfilter.multiindex import MultiIndex, enumerate_counts, enumerate_truncated
from chaosfilter.propagator import (encode_header, load_table, parseval_mass, precompute_table,
                                    save_table, truncation_certificate)
from chaosfilter.runtime import write_observations

from oracles import coupling_lowering, factorial, slot_counts

SETS = [(3, 8, 1), (2, 4, 1), (3, 3, 2), (0, 2, 1), (4, 4, 1), (2, 5, 3)]   # (N, n, r)


@pytest.fixture(scope="module")
def live():
    # the live-correlated setting: correlated-ou, K=32, N=3, n=8, |J|=165
    cfg = parse_config("model.name = correlated-ou\ndiscretization.K = 32\n"
                       "discretization.N = 3\ndiscretization.n = 8\n"
                       "discretization.delta = 0.01\ndiscretization.T = 1\n")
    pipe = experiments.build_pipeline(cfg)
    return pipe, precompute_table(pipe.system, pipe.tbasis, 3, 8)


@pytest.mark.parametrize("N, n, r", SETS)
def test_enumerate_counts_equals_the_counts_of_enumerate_truncated(N, n, r):
    counts = enumerate_counts(N, n, r)
    indices = enumerate_truncated(N, n, r)
    assert counts.dtype == np.intp and counts.shape == (math.comb(n * r + N, N), n * r)
    assert counts.tobytes() == slot_counts(indices, n, r).tobytes()


def test_table_stores_counts_read_only_and_derives_indices(live):
    _, table = live
    assert table.counts.tobytes() == slot_counts(enumerate_truncated(3, 8, 1), 8, 1).tobytes()
    assert not table.counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.counts[0, 0] = 1
    assert table.indices == tuple(enumerate_truncated(3, 8, 1))
    alpha = MultiIndex.from_dict({(2, 1): 1, (5, 1): 2}, r=1)
    assert np.array_equal(table.matrix_for(alpha), table.matrices[table.indices.index(alpha)])


@pytest.mark.parametrize("N, n, r", SETS)
def test_lowering_of_counts_equals_the_coupling_groups_pattern(N, n, r):
    new = propagator._lowering(enumerate_counts(N, n, r), r)
    old = coupling_lowering(enumerate_truncated(N, n, r), r)
    if N == 0:
        assert new is None and old is None
        return
    (dst, col, width, coeff, mode), (dst0, col0, width0, coeff0, mode0) = new, old
    assert width == width0
    for a, b in [(dst, dst0), (col, col0), (coeff, coeff0), (mode, mode0)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_certificate_and_parseval_take_factorials_off_the_count_rows(live):
    pipe, table = live
    indices = enumerate_truncated(3, 8, 1)
    # the pencil's P and the Parseval sum as they were formed from MultiIndex objects
    scale = np.array([1.0 / math.sqrt(factorial(alpha)) for alpha in indices])
    S = (table.matrices * scale[:, None, None]).reshape(-1, table.K)
    G, P = propagator._certificate_pencil(pipe.system, table)
    assert P.tobytes() == (S.T @ S).tobytes()
    L = np.linalg.cholesky(G)
    W = np.linalg.solve(L, np.linalg.solve(L, G - S.T @ S).T)
    rho = float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1])
    assert truncation_certificate(pipe.system, table) == rho
    zeta = pipe.p_init
    by_layer = {}
    for alpha, v in zip(indices, table.matrices @ zeta):
        by_layer[alpha.length] = by_layer.get(alpha.length, 0.0) + float(v @ v) / factorial(alpha)
    assert parseval_mass(table, zeta) == (sum(by_layer.values()), by_layer)


def test_table_file_stores_no_index_and_loads_the_canonical_counts(tmp_path, live):
    _, table = live
    path = tmp_path / "t.bin"
    save_table(path, table)
    # the index set is fixed by the header's N, n and r: the file holds only the matrices, in the
    # order of enumerate_truncated, after the header
    expected = encode_header({
        "K": table.K, "r": table.r, "delta": f"{table.delta:.17g}", "N": table.N, "n": table.n,
        "substeps": table.substeps, "basis_d": table.basis.d}).encode("ascii")
    for alpha in enumerate_truncated(3, 8, 1):
        expected += table.matrix_for(alpha).astype("<f8").tobytes()
    assert path.read_bytes() == expected
    assert len(expected) == 60 + 165 * 32 * 32 * 8
    assert load_table(path).counts.tobytes() == slot_counts(enumerate_truncated(3, 8, 1), 8,
                                                            1).tobytes()


def test_filter_and_load_table_build_no_multiindex(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model.name = ou-linear\nmodel.a = -1.0\nmodel.sigma = 1.0\nmodel.h = 1.0\n"
                   "discretization.K = 6\ndiscretization.N = 2\ndiscretization.n = 2\n"
                   "discretization.delta = 0.1\ndiscretization.T = 0.4\n")
    table = tmp_path / "table.tbl"
    assert main(["precompute", "--config", str(cfg), "--out", str(table)]) == 0
    obs = tmp_path / "obs.txt"
    write_observations(obs, 0.00625, np.linspace(0.0, 0.4, 65),
                       np.linspace(0.0, 0.2, 65)[:, None])
    made = []
    post_init = MultiIndex.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(MultiIndex, "__post_init__", counted)
    loaded = load_table(table)
    assert made == []
    assert main(["filter", "--config", str(cfg), "--table", str(table), "--obs", str(obs),
                 "--out", str(tmp_path / "out")]) == 0
    assert made == []
    # the counter sees what it should: the derived indices build one per row
    assert len(loaded.indices) == len(made) == 6
