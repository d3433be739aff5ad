"""Round-trip properties of the table and replay file codecs.

Tables are built directly from random finite matrices (no precompute),
so the properties exercise the codecs alone: every float, including
signed zeros, subnormals and extremes, must come back bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaosfilter.hermite import build_basis
from chaosfilter.multiindex import enumerate_counts
from chaosfilter.propagator import PropagatorTable, load_table, save_table
from chaosfilter.runtime import read_observations, write_observations

FEW = settings(max_examples=25, deadline=None)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw):
    K = draw(st.integers(1, 4))
    r = draw(st.integers(1, 2))
    N = draw(st.integers(0, 2))
    n = draw(st.integers(1, 3))
    counts = enumerate_counts(N, n, r)
    mats = draw(hnp.arrays(np.float64, (len(counts), K, K), elements=finite))
    delta = draw(st.floats(1e-6, 10.0))
    return PropagatorTable(K=K, r=r, delta=delta, N=N, n=n,
                           substeps=draw(st.integers(1, 512)),
                           basis=build_basis(draw(st.integers(1, 3)), K), counts=counts,
                           matrices=mats)


@FEW
@given(table=tables())
def test_table_codec_round_trip(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("tbl") / "t.tbl"
    save_table(path, table)
    back = load_table(path)
    assert (back.K, back.r, back.N, back.n, back.substeps) == \
        (table.K, table.r, table.N, table.n, table.substeps)
    assert np.float64(back.delta).tobytes() == np.float64(table.delta).tobytes()
    assert back.indices == table.indices
    assert back.counts.tobytes() == table.counts.tobytes()
    assert back.matrices.tobytes() == table.matrices.tobytes()     # -0.0 stays -0.0
    assert (back.basis.d, back.basis.gammas) == (table.basis.d, table.basis.gammas)
    assert back.basis.lambdas.tobytes() == table.basis.lambdas.tobytes()
    # the file is the 8-line header and the matrices, nothing else
    header = path.read_bytes().split(b"\n", 8)
    assert [line.split(b"=")[0] for line in header[:8]] == [
        b"version", b"K", b"r", b"delta", b"N", b"n", b"substeps", b"basis_d"]
    assert header[8] == table.matrices.astype("<f8").tobytes()


@FEW
@given(data=st.data(), r=st.integers(1, 3), rows=st.integers(0, 12),
       delta_obs=st.floats(1e-9, 1e3))
def test_observation_codec_round_trip(tmp_path_factory, data, r, rows, delta_obs):
    times = data.draw(hnp.arrays(np.float64, rows, elements=finite))
    values = data.draw(hnp.arrays(np.float64, (rows, r), elements=finite))
    path = tmp_path_factory.mktemp("obs") / "obs.txt"
    write_observations(path, delta_obs, times, values)
    delta2, r2, times2, values2 = read_observations(path)
    assert delta2 == delta_obs and r2 == r
    assert values2.shape == (rows, r)
    assert times2.tobytes() == times.tobytes() and values2.tobytes() == values.tobytes()
