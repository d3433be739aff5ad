"""Fuzzing of the table, replay and system-file readers against their row-by-row forms.

The oracles below are the readers as they were before the bulk decoders:
every value parsed by float() one row at a time.  A valid file gets one
random corruption (a token dropped, duplicated or garbled, a blank line,
a vertical tab or a non-ASCII byte inserted, or a cut at a random byte),
then both readers read it:

- where the oracle accepts, the new reader returns the same values, bit
  for bit;
- where the oracle raises, the new reader raises a ValueError with the
  same message, or, where the oracle's error did not name the file (a
  KeyError or a bare int(), float() or numpy error from a header or a
  system file), one that does.

Four kinds of file the oracles accept are now rejected on purpose, with a
named ValueError: a table whose `format=` is neither text nor binary, a
table whose header holds a negative count, a system file whose rows do
not hold K values each, and a table or system file with content other
than whitespace after its declared blocks (which the oracles ignore).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaosfilter.galerkin import GalerkinSystem, load_system, save_system
from chaosfilter.hermite import SpatialBasis, build_basis, first_non_float
from chaosfilter.multiindex import enumerate_truncated, from_line
from chaosfilter.propagator import PropagatorTable, load_table, save_table
from chaosfilter.runtime import read_observations, write_observations

FUZZ = settings(max_examples=150, deadline=None)
finite = st.floats(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# oracles: the row-by-row readers

def _decode_header_oracle(lines, what, d_key):
    header = dict(line.partition("=")[::2] for line in lines)
    if header.get("version") != "1":
        raise ValueError(f"unsupported {what} version {header.get('version')!r}")
    gammas = tuple(tuple(int(p) for p in tok.split(",")) for tok in header["basis_gammas"].split())
    lambdas = np.array([float(t) for t in header["basis_lambdas"].split()])
    return header, SpatialBasis(d=int(header[d_key]), K=int(header["K"]), gammas=gammas,
                                lambdas=lambdas)


def _read_line_oracle(buf, cursor):
    end = buf.find(b"\n", cursor)
    if end < 0:
        return None, cursor
    return buf[cursor:end].decode("ascii", errors="replace"), end + 1


def load_table_oracle(path):
    return _table_oracle(path)[0]


def _table_oracle(path):
    """(table, the bytes after its declared blocks)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    cursor = 0
    lines = []
    for i in range(12):
        line, cursor = _read_line_oracle(buf, cursor)
        if line is None:
            raise ValueError(f"{path}: truncated header: expected 12 lines, found {i}")
        lines.append(line)
    header, basis = _decode_header_oracle(lines, "table", "basis_d")
    binary = header["format"] == "binary"
    K, r, N, n = basis.K, int(header["r"]), int(header["N"]), int(header["n"])
    count = int(header["indices"])
    nbytes = K * K * 8
    indices = []
    mats = np.empty((count, K, K))
    for a in range(count):
        line, cursor = _read_line_oracle(buf, cursor)
        if line is None:
            raise ValueError(f"{path}: truncated at index line {a + 1}: expected {count} "
                             f"index blocks, found {a}")
        try:
            alpha = from_line(line, r)
        except ValueError as exc:
            raise ValueError(f"{path}: index line {a + 1} of {count}: expected 'k:l:count' "
                             f"triples or '-', found {line!r} ({exc})") from None
        if alpha.length > N or alpha.order > n:
            raise ValueError(f"{path}: index line {a + 1} of {count}: {line!r} has "
                             f"|alpha| = {alpha.length} and d(alpha) = {alpha.order}, "
                             f"expected at most N = {N} and n = {n}")
        indices.append(alpha)
        if binary:
            if len(buf) - cursor < nbytes:
                raise ValueError(f"{path}: truncated matrix {a + 1} of {count}: expected "
                                 f"{nbytes} bytes, found {len(buf) - cursor}")
            mats[a] = np.frombuffer(buf, dtype="<f8", count=K * K, offset=cursor).reshape(K, K)
            cursor += nbytes
        else:
            for i in range(K):
                line, cursor = _read_line_oracle(buf, cursor)
                if line is None:
                    raise ValueError(f"{path}: truncated matrix {a + 1} of {count}: expected "
                                     f"{K} rows, found {i}")
                tokens = line.split()
                try:
                    row = [float(t) for t in tokens]
                except ValueError:
                    row = None
                if row is None or len(row) != K:
                    bad = first_non_float(tokens)
                    fault = (f"expected a float as value {bad[0] + 1}, found {bad[1]!r}"
                             if bad is not None else f"expected {K} values, found {len(tokens)}")
                    raise ValueError(f"{path}: matrix {a + 1} of {count}, row {i + 1}: {fault}")
                mats[a, i] = row
    return PropagatorTable(K=K, r=r, delta=float(header["delta"]), N=int(header["N"]),
                           n=int(header["n"]), substeps=int(header["substeps"]),
                           basis=basis, indices=tuple(indices), matrices=mats), buf[cursor:]


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


def load_system_oracle(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header, basis = _decode_header_oracle(lines[:6], "system file", "d")
    K, r = basis.K, int(header["r"])
    body = lines[6:]
    if len(body) < (1 + r) * K:
        block = len(body) // K
        raise ValueError(f"{path}: truncated matrix {'A' if block == 0 else f'B_{block}'}: "
                         f"expected {K} rows, found {len(body) - block * K}")
    mats = []
    for block in range(1 + r):
        rows = body[block * K:(block + 1) * K]
        mats.append(np.array([[float(t) for t in row.split()] for row in rows]))
    return GalerkinSystem(K=K, r=r, A=mats[0], B=np.array(mats[1:]), basis=basis)


# ---------------------------------------------------------------------------
# one corruption of a valid file

GARBLE = [b"x", b"-", b".", b"_", b"e", b":", b"=", b"9", b",", b"+", b" "]


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


def _same_outcome(path, oracle, reader, same, rejected_on_purpose):
    """Run both readers on path; see the module docstring for what must hold.

    rejected_on_purpose(path, result) says whether the file has a fault
    that only the new reader rejects; result is the oracle's, None where
    the oracle raised.
    """
    try:
        expected, old = oracle(path), None
    except Exception as exc:      # the oracle's own failure is the expectation
        expected, old = None, exc
    if rejected_on_purpose(path, expected):
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            reader(path)
        return
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
    # (N, n, r) with 1 to 28 index blocks: up to two bulk-decode groups
    N, n, r = draw(st.sampled_from([(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 5, 1), (2, 3, 2)]))
    K = draw(st.integers(1, 3))
    indices = tuple(enumerate_truncated(N, n, r))
    mats = draw(hnp.arrays(np.float64, (len(indices), K, K), elements=finite))
    return PropagatorTable(K=K, r=r, delta=draw(st.floats(1e-6, 10.0)), N=N, n=n,
                           substeps=draw(st.integers(1, 512)), basis=build_basis(1, K),
                           indices=indices, matrices=mats), draw(st.booleans())


def _same_table(a, b):
    return ((a.K, a.r, a.N, a.n, a.substeps, a.indices, a.basis.gammas)
            == (b.K, b.r, b.N, b.n, b.substeps, b.indices, b.basis.gammas)
            and np.float64(a.delta).tobytes() == np.float64(b.delta).tobytes()
            and a.basis.lambdas.tobytes() == b.basis.lambdas.tobytes()
            and a.matrices.tobytes() == b.matrices.tobytes())


def _negative(value: bytes) -> bool:
    try:
        return int(value) < 0
    except ValueError:
        return False


def _bad_format(path, table):
    # the oracle read any format= value but 'binary' as text, and took negative counts
    header = dict(line.partition(b"=")[::2] for line in path.read_bytes().split(b"\n")[:12])
    return (header.get(b"format", b"text") not in (b"text", b"binary")
            or any(_negative(header.get(key, b"0"))
                   for key in (b"K", b"r", b"N", b"n", b"substeps", b"indices", b"basis_d")))


@FUZZ
@given(data=st.data(), case=table_files())
def test_table_reader_matches_row_by_row_oracle(tmp_path_factory, data, case):
    table, binary = case
    path = tmp_path_factory.mktemp("tbl") / "t.tbl"
    save_table(path, table, binary=binary)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    def rejected_on_purpose(path, table):
        return (_bad_format(path, table)
                or (table is not None and bool(_table_oracle(path)[1].strip())))

    _same_outcome(path, load_table_oracle, load_table, _same_table, rejected_on_purpose)


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

    _same_outcome(path, read_observations_oracle, read_observations, same, lambda *_: False)


@FUZZ
@given(data=st.data(), K=st.integers(1, 3), r=st.integers(1, 2))
def test_system_reader_matches_row_by_row_oracle(tmp_path_factory, data, K, r):
    path = tmp_path_factory.mktemp("sys") / "system.txt"
    save_system(path, GalerkinSystem(
        K=K, r=r, A=data.draw(hnp.arrays(np.float64, (K, K), elements=finite)),
        B=data.draw(hnp.arrays(np.float64, (r, K, K), elements=finite)),
        basis=build_basis(1, K)))
    path.write_bytes(data.draw(corrupted(path.read_bytes())))

    def same(a, b):
        return ((a.K, a.r, a.basis.gammas) == (b.K, b.r, b.basis.gammas)
                and a.A.tobytes() == b.A.tobytes() and a.B.tobytes() == b.B.tobytes())

    def rejected_on_purpose(path, system):
        if system is None:
            return False
        # rows of another width: the oracle took them as they came
        wrong_shape = (system.A.shape != (system.K,) * 2
                       or system.B.shape != (system.r,) + (system.K,) * 2)
        with open(path) as fh:       # the oracle reads the lines after the last matrix
            trailing = any(ln.strip() for ln in list(fh)[6 + (1 + system.r) * system.K:])
        return wrong_shape or trailing

    _same_outcome(path, load_system_oracle, load_system, same, rejected_on_purpose)
