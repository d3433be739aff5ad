"""Fuzzing of the table and replay readers against their row-by-row forms.

The oracles below are plain readers: the replay reader as it was before
its bulk decoder, every value parsed by float() one row at a time, and a
table reader that checks the header line by line and reads the matrices
one block at a time.  A valid file gets one random corruption (a token
dropped, duplicated or garbled, a blank line, a vertical tab or a
non-ASCII byte inserted, or a cut at a random byte), then both readers
read it:

- where the oracle accepts, the reader returns the same values, bit for
  bit;
- where the oracle raises, the reader raises a ValueError with the same
  message, or, where the oracle's error did not name the file (a
  KeyError or a bare int(), float() or numpy error from a header), one
  that does.

The table oracle names no file, so any corruption of a valid table file
either loads bit for bit the table that its bytes describe or raises a
ValueError naming the file.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaosfilter.hermite import build_basis, first_non_float
from chaosfilter.multiindex import enumerate_counts
from chaosfilter.propagator import PropagatorTable, load_table, save_table
from chaosfilter.runtime import read_observations, write_observations

FUZZ = settings(max_examples=150, deadline=None)
finite = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# oracles: the row-by-row readers

def _read_line_oracle(buf, cursor):
    end = buf.find(b"\n", cursor)
    if end < 0:
        return None, cursor
    return buf[cursor:end].decode("ascii", errors="replace"), end + 1


TABLE_KEYS = ("version", "K", "r", "delta", "N", "n", "substeps", "basis_d")


def load_table_oracle(path):
    buf = path.read_bytes()
    cursor, header = 0, {}
    for key in TABLE_KEYS:
        line, cursor = _read_line_oracle(buf, cursor)
        if line is None or not line.startswith(f"{key}="):
            raise ValueError(f"no '{key}=' line")
        header[key] = line[len(key) + 1:]
    if header["version"] != "2":
        raise ValueError("not version 2")
    K, r, N, n, substeps, d = (int(header[key]) for key in ("K", "r", "N", "n", "substeps",
                                                             "basis_d"))
    if min(K, r, n, d) < 1 or min(N, substeps) < 0:
        raise ValueError("a count out of range")
    count, nbytes = math.comb(n * r + N, N), K * K * 8
    if len(buf) - cursor != count * nbytes:
        raise ValueError("a body of another length")
    if count * n * r > len(buf) or K * d > len(buf):
        raise ValueError("more index or basis entries than the file has bytes")
    mats = np.empty((count, K, K))
    for a in range(count):
        mats[a] = np.frombuffer(buf, dtype="<f8", count=K * K,
                                offset=cursor + a * nbytes).reshape(K, K)
    return PropagatorTable(K=K, r=r, delta=float(header["delta"]), N=N, n=n, substeps=substeps,
                           basis=build_basis(d, K), counts=enumerate_counts(N, n, r),
                           matrices=mats)


def _line_number_oracle(path, k):
    with open(path) as fh:
        return [n for n, ln in enumerate(fh, 1) if ln.strip()][k]


def _header_value_oracle(path, lines, k, key, cast):
    if k >= len(lines):
        raise ValueError(f"{path}: missing header line '{key}=', found {len(lines)} lines")
    name, eq, value = lines[k].partition("=")
    if not eq or name.strip() != key:
        raise ValueError(f"{path}: line {_line_number_oracle(path, k)}: expected '{key}=', "
                         f"found {lines[k]!r}")
    try:
        return cast(value)
    except ValueError:
        raise ValueError(f"{path}: line {_line_number_oracle(path, k)}: {key} is not "
                         f"{'an integer' if cast is int else 'a float'}: {value!r}") from None


def read_observations_oracle(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    delta_obs = _header_value_oracle(path, lines, 0, "delta_obs", float)
    r = _header_value_oracle(path, lines, 1, "r", int)
    if r < 1:
        raise ValueError(f"{path}: line {_line_number_oracle(path, 1)}: r must be >= 1, got {r}")
    try:
        rows = [[float(tok) for tok in ln.split()] for ln in lines[2:]]
    except ValueError:
        k, (_, tok) = next((k, bad) for k, ln in enumerate(lines[2:], 2)
                           if (bad := first_non_float(ln.split())) is not None)
        raise ValueError(f"{path}: line {_line_number_oracle(path, k)}: expected a float, "
                         f"found {tok!r}") from None
    if rows:
        try:
            data = np.array(rows).reshape(len(rows), 1 + r)
        except ValueError:
            bad = next(i for i, row in enumerate(rows) if len(row) != 1 + r)
            raise ValueError(f"{path}: line {_line_number_oracle(path, bad + 2)}: expected "
                             f"{1 + r} columns, found {len(rows[bad])}") from None
        times, values = data[:, 0], data[:, 1:1 + r]
    else:
        times, values = np.empty(0), np.empty((0, r))
    return delta_obs, r, times, values


# ---------------------------------------------------------------------------
# one corruption of a valid file

GARBLE = [b"x", b"-", b".", b"_", b"e", b":", b"=", b"0", b"9", b",", b"+", b" "]


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    # positions uniform over the file: hypothesis's own integers favour small
    # values, which would put most corruptions in the header
    rnd = draw(st.randoms(use_true_random=True))
    kind = draw(st.sampled_from(["drop", "duplicate", "garble", "blank", "vtab", "non-ascii",
                                 "cut"]))
    if kind in ("drop", "duplicate", "garble"):
        a, b = rnd.choice([m.span() for m in re.finditer(rb"\S+", data)])
        if kind == "drop":
            return data[:a] + data[b:]
        if kind == "duplicate":
            return data[:a] + data[a:b] + b" " + data[a:]
        j = rnd.randrange(a, b)
        return data[:j] + rnd.choice(GARBLE) + data[j + 1:]
    if kind == "blank":
        j = rnd.choice([0] + [m.end() for m in re.finditer(rb"\n", data)])
        return data[:j] + b"\n" + data[j:]
    j = rnd.randrange(len(data) + 1)
    if kind == "cut":
        return data[:j]
    byte = b"\x0b" if kind == "vtab" else bytes([rnd.randrange(0x80, 0x100)])
    return data[:j] + byte + data[j:]


def _same_outcome(path, oracle, reader, same):
    """Run both readers on path; see the module docstring for what must hold."""
    try:
        expected, old = oracle(path), None
    except Exception as exc:      # the oracle's own failure is the expectation
        expected, old = None, exc
    if old is None:
        assert same(expected, reader(path))
        return
    with pytest.raises(ValueError) as info:
        reader(path)
    if not isinstance(old, ValueError) or not str(old).startswith(f"{path}: "):
        if str(info.value).startswith(f"{path}: "):     # now named
            return
    assert str(info.value) == str(old)


# ---------------------------------------------------------------------------
# the properties

@st.composite
def table_files(draw):
    # (N, n, r) with 1 to 28 matrices
    N, n, r = draw(st.sampled_from([(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 5, 1), (2, 3, 2)]))
    K = draw(st.integers(1, 3))
    counts = enumerate_counts(N, n, r)
    mats = draw(hnp.arrays(np.float64, (len(counts), K, K), elements=finite))
    return PropagatorTable(K=K, r=r, delta=draw(st.floats(1e-6, 10.0)), N=N, n=n,
                           substeps=draw(st.integers(1, 512)),
                           basis=build_basis(draw(st.integers(1, 2)), K), counts=counts,
                           matrices=mats)


def _same_table(a, b):
    return ((a.K, a.r, a.N, a.n, a.substeps, a.indices, a.basis.d, a.basis.gammas)
            == (b.K, b.r, b.N, b.n, b.substeps, b.indices, b.basis.d, b.basis.gammas)
            and np.float64(a.delta).tobytes() == np.float64(b.delta).tobytes()
            and a.counts.tobytes() == b.counts.tobytes()
            and a.basis.lambdas.tobytes() == b.basis.lambdas.tobytes()
            and a.matrices.tobytes() == b.matrices.tobytes())


@FUZZ
@given(data=st.data(), table=table_files())
def test_table_reader_matches_row_by_row_oracle(tmp_path_factory, data, table):
    path = tmp_path_factory.mktemp("tbl") / "t.tbl"
    save_table(path, table)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    _same_outcome(path, load_table_oracle, load_table, _same_table)


@FUZZ
@given(data=st.data(), r=st.integers(1, 3), rows=st.integers(0, 12))
def test_replay_reader_matches_row_by_row_oracle(tmp_path_factory, data, r, rows):
    path = tmp_path_factory.mktemp("obs") / "obs.txt"
    write_observations(path, data.draw(st.floats(1e-9, 1e3)),
                       data.draw(hnp.arrays(np.float64, rows, elements=finite)),
                       data.draw(hnp.arrays(np.float64, (rows, r), elements=finite)))
    path.write_bytes(data.draw(corrupted(path.read_bytes())))

    def same(a, b):
        return (a[:2] == b[:2] and a[2].tobytes() == b[2].tobytes()
                and a[3].shape == b[3].shape and a[3].tobytes() == b[3].tobytes())

    _same_outcome(path, read_observations_oracle, read_observations, same)
