"""Fuzzing of the table and replay readers against their row-by-row forms.

The oracles below are the readers as they were before the bulk decoders:
every replay value parsed by float() one row at a time, every table
matrix read one block at a time.  A valid file gets one random corruption
(a token dropped, duplicated or garbled, a blank line, a vertical tab or a
non-ASCII byte inserted, or a cut at a random byte), then both readers
read it:

- where the oracle accepts, the new reader returns the same values, bit
  for bit;
- where the oracle raises, the new reader raises a ValueError with the
  same message, or, where the oracle's error did not name the file (a
  KeyError or a bare int(), float() or numpy error from a header), one
  that does.

Five kinds of table the oracle accepts are now rejected on purpose, with
a named ValueError: one whose `format=` is not binary, one whose header
holds a negative count, one whose basis lines are not those save_table
writes for `build_basis(basis_d, K)` (the oracle parses whatever they
list), one with content other than whitespace after its declared blocks
(which the oracle ignores), and one whose index blocks hold another index
set than the canonical one of its N, n and r (the oracle takes any set
within those bounds).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaosfilter.hermite import SpatialBasis, basis_fields, build_basis, first_non_float
from chaosfilter.multiindex import enumerate_counts, enumerate_truncated, from_line
from chaosfilter.propagator import PropagatorTable, load_table, save_table
from chaosfilter.runtime import read_observations, write_observations

from oracles import slot_counts

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
        if len(buf) - cursor < nbytes:
            raise ValueError(f"{path}: truncated matrix {a + 1} of {count}: expected "
                             f"{nbytes} bytes, found {len(buf) - cursor}")
        mats[a] = np.frombuffer(buf, dtype="<f8", count=K * K, offset=cursor).reshape(K, K)
        cursor += nbytes
    return PropagatorTable(K=K, r=r, delta=float(header["delta"]), N=int(header["N"]),
                           n=int(header["n"]), substeps=int(header["substeps"]),
                           basis=basis, counts=slot_counts(indices, n, r),
                           matrices=mats), buf[cursor:]


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
    counts = enumerate_counts(N, n, r)
    mats = draw(hnp.arrays(np.float64, (len(counts), K, K), elements=finite))
    return PropagatorTable(K=K, r=r, delta=draw(st.floats(1e-6, 10.0)), N=N, n=n,
                           substeps=draw(st.integers(1, 512)), basis=build_basis(1, K),
                           counts=counts, matrices=mats)


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
    # the oracle read any format= value as binary, and took negative counts
    header = dict(line.partition(b"=")[::2] for line in path.read_bytes().split(b"\n")[:12])
    return (header.get(b"format") != b"binary"
            or any(_negative(header.get(key, b"0"))
                   for key in (b"K", b"r", b"N", b"n", b"substeps", b"indices", b"basis_d")))


def _bad_basis(path):
    # the oracle parsed any basis lines; the reader requires those of build_basis(basis_d, K)
    header = dict(line.partition(b"=")[::2] for line in path.read_bytes().split(b"\n")[:12])
    try:
        d, K = int(header[b"basis_d"]), int(header[b"K"])
    except (KeyError, ValueError):
        return False          # the oracle fails there too, and the reader names the key
    if d < 1 or K < 1:
        return True           # no basis has them, so the reader rejects the header
    return any(header.get(key.encode()) != value.encode()
               for key, value in basis_fields(build_basis(d, K)).items())


def _other_index_set(table):
    # the oracle took any index set within N and n; the reader requires the canonical one
    try:
        return list(table.indices) != enumerate_truncated(table.N, table.n, table.r)
    except ValueError:
        return True           # no index set has these N, n, r


@FUZZ
@given(data=st.data(), table=table_files())
def test_table_reader_matches_row_by_row_oracle(tmp_path_factory, data, table):
    path = tmp_path_factory.mktemp("tbl") / "t.tbl"
    save_table(path, table)
    path.write_bytes(data.draw(corrupted(path.read_bytes())))
    def rejected_on_purpose(path, table):
        return (_bad_format(path, table) or _bad_basis(path)
                or (table is not None and bool(_table_oracle(path)[1].strip()))
                or (table is not None and _other_index_set(table)))

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
