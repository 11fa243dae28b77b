import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logitlab.store import (
    READ_BYTES,
    LabelVector,
    LogitMatrix,
    ParseError,
    RobustFlags,
    ValidationError,
    load_flags,
    load_labels,
    load_matrix,
    read_lines,
    store_flags,
    store_labels,
    store_matrix,
    validate_bundle,
)

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_text_parse_basic(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2,3\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    m = load_matrix(p, "text")
    assert np.array_equal(m.values, [[1, 2, 3], [4, 5, 6]])


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = LogitMatrix(rng.standard_normal((17, 5)))
    p = tmp_path / "m.lgt"
    store_matrix(m, p, "binary")
    back = load_matrix(p, "binary")
    assert m.values.tobytes() == back.values.tobytes()


def test_binary_layout(tmp_path):
    m = LogitMatrix([[0.1, 0.2]])
    p = tmp_path / "m.lgt"
    store_matrix(m, p, "binary")
    raw = p.read_bytes()
    assert raw[:4] == b"LGT1"
    assert len(raw) == 4 + 8 + 16


def test_text_identity_matrix(tmp_path):
    m = LogitMatrix(np.eye(2))
    p = tmp_path / "m.txt"
    store_matrix(m, p, "text")
    lines = p.read_text().splitlines()
    assert lines[0] == "2,2"
    assert [float(x) for x in lines[1].split(",")] == [1.0, 0.0]
    assert [float(x) for x in lines[2].split(",")] == [0.0, 1.0]


def test_nan_in_text_is_parse_error(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1,2\n1.0,NaN\n")
    with pytest.raises(ParseError, match="row 0, column 1"):
        load_matrix(p, "text")


def test_ragged_row_is_parse_error(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2,3\n1,2,3\n4,5\n")
    with pytest.raises(ParseError, match="row 1"):
        load_matrix(p, "text")


@pytest.mark.parametrize("body,message", [
    ("2,3\n1,2,3\n4,x,6\n", "unparseable value at row 1, column 1"),
    ("2,3\n1,2,3\n4,5,inf\n", "non-finite value at row 1, column 2"),
    ("2,3\n1,2,3\n4,5\n", "row 1 has 2 values, expected 3"),
    ("3,3\n1,2,3\n4,5,6\n", "header promises 3 rows, found 2"),
    ("2,3\n1,2,3\n4,5,6\n7,8,9\n", "header promises 2 rows, found 3"),
    # faults come in file order: row 0's bad cell before the missing row
    ("3,3\n1,x,3\n4,5,6\n", "unparseable value at row 0, column 1"),
    # rows x cols is checked against the file size before it is allocated
    ("1,3000000000\n1,2\n", "header '1,3000000000' is too large for a file of 17 bytes"),
    ("1,99999999999999999999\n1,2\n",
     "header '1,99999999999999999999' is too large for a file of 27 bytes"),
    ("0,99999999999999999999\n",
     "header '0,99999999999999999999' is too large for a file of 23 bytes"),
    # row-major order: the short row 1 comes before row 2's bad cell, and
    # row 0's non-finite cell before its later unparseable one
    ("3,3\n1,nan,?\n4,5\n7,?,9\n", "non-finite value at row 0, column 1"),
    ("3,3\n1,inf,3\n4,?,6\n", "non-finite value at row 0, column 1"),
    ("3,3\n1,2,3\n4,5\n7,?,9\n", "row 1 has 2 values, expected 3"),
    ("3,3\n1,2,3\n4,?,6,7\n7,8,9\n", "row 1 has 4 values, expected 3"),
    ("1,-2\n1,2\n", "negative size in header '1,-2'"),
    ("0,-2\n", "negative size in header '0,-2'"),
    ("2,0\n1\n1\n", "row 0 has 1 values, expected 0"),
    ("3,1\n1.0\nnan\n2.0\n", "non-finite value at row 1, column 0"),  # before the shape
], ids=["unparseable", "non_finite", "short_row", "row_count", "extra_row",
        "bad_cell_before_row_count", "huge_cols", "huge_cols_beyond_int64", "no_rows_huge_cols",
        "first_bad_cell", "non_finite_before_later_bad_cell", "short_before_bad", "long_row",
        "negative_cols", "negative_cols_no_rows", "zero_cols", "non_finite_before_one_column"])
def test_text_failure_messages(tmp_path, body, message):
    p = tmp_path / "m.txt"
    p.write_text(body)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            load_matrix(p, "text")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{p}: {message}"
    assert peak < 2**20


def test_bad_header(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("nonsense\n")
    with pytest.raises(ParseError):
        load_matrix(p, "text")
    # int() reads "2_0" as 20, but no header logitlab writes holds a "_"
    p.write_text("2_0,3\n" + "1,2,3\n" * 20)
    with pytest.raises(ParseError, match=r"non-integer header '2_0,3'$"):
        load_matrix(p, "text")


def test_truncated_binary(tmp_path):
    m = LogitMatrix([[1.0, 2.0], [3.0, 4.0]])
    p = tmp_path / "m.lgt"
    store_matrix(m, p, "binary")
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(ParseError):
        load_matrix(p, "binary")


@pytest.mark.parametrize("rows,cols,bad,message", [
    (3, 4, [(1, 2, np.nan)], "non-finite value at row 1, column 2"),
    (3, 4, [(2, 3, -np.inf), (0, 1, np.inf)], "non-finite value at row 0, column 1"),
    (2, 1, [(1, 0, np.nan)], "non-finite value at row 1, column 0"),  # before the shape
])
def test_non_finite_binary_payload(tmp_path, rows, cols, bad, message):
    vals = np.arange(rows * cols, dtype="<f8").reshape(rows, cols)
    for r, c, v in bad:
        vals[r, c] = v
    p = tmp_path / "m.lgt"
    p.write_bytes(b"LGT1" + np.array([rows, cols], "<u4").tobytes() + vals.tobytes())
    with pytest.raises(ParseError) as info:
        load_matrix(p, "binary")
    assert str(info.value) == f"{p}: {message}"


def test_zero_column_binary_names_its_shape(tmp_path):
    # the non-finite scan over its empty rows finds nothing to name first
    p = tmp_path / "m.lgt"
    p.write_bytes(b"LGT1" + np.array([3, 0], "<u4").tobytes())
    with pytest.raises(ValidationError, match="at least two columns"):
        load_matrix(p, "binary")


@pytest.mark.parametrize("fmt,rows,cols,message", [
    ("binary", 3, 1, "logit matrix needs at least two columns"),
    ("binary", 0, 4, "logit matrix needs at least one row"),
    ("text", 3, 1, "logit matrix needs at least two columns"),
    ("text", 0, 4, "logit matrix needs at least one row"),
])
def test_shape_refusals_name_the_file(tmp_path, fmt, rows, cols, message):
    vals = np.arange(rows * cols, dtype="<f8").reshape(rows, cols)
    p = tmp_path / "m.lgt"
    if fmt == "binary":
        p.write_bytes(b"LGT1" + np.array([rows, cols], "<u4").tobytes() + vals.tobytes())
    else:
        p.write_text(f"{rows},{cols}\n" + "".join(",".join(map(repr, r)) + "\n"
                                                   for r in vals.tolist()))
    with pytest.raises(ValidationError) as info:
        load_matrix(p, fmt)
    assert str(info.value) == f"{p}: {message}"


@pytest.mark.parametrize("raw,message", [
    (b"LGT", "missing LGT1 header"),
    (b"LGT2" + bytes(8), "missing LGT1 header"),
    (b"LGT1" + np.array([2, 2], "<u4").tobytes() + bytes(28),
     "payload is 28 bytes, header promises 32 (2x2)"),
    (b"LGT1" + np.array([1, 2], "<u4").tobytes() + bytes(24),
     "payload is 24 bytes, header promises 16 (1x2)"),
], ids=["short", "bad_magic", "truncated", "trailing"])
def test_binary_failure_messages(tmp_path, raw, message):
    p = tmp_path / "m.lgt"
    p.write_bytes(raw)
    with pytest.raises(ParseError) as info:
        load_matrix(p, "binary")
    assert str(info.value) == f"{p}: {message}"


def test_binary_load_owns_a_read_only_array(tmp_path):
    p = tmp_path / "m.lgt"
    store_matrix(LogitMatrix([[1.0, 2.0], [3.0, 4.0]]), p, "binary")
    m = load_matrix(p, "binary")
    assert m.values.flags.owndata and not m.values.flags.writeable
    assert m == LogitMatrix([[1.0, 2.0], [3.0, 4.0]])


def test_matrix_invariants():
    with pytest.raises(ValidationError):
        LogitMatrix(np.empty((0, 2)))
    with pytest.raises(ValidationError):
        LogitMatrix([[1.0]])
    with pytest.raises(ValidationError, match="row 0, column 1"):
        LogitMatrix([[1.0, np.inf]])


def test_matrix_immutable():
    m = LogitMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0


def test_validate_bundle_paths():
    logits = LogitMatrix(np.zeros((3, 10)))
    labels = LabelVector([0, 1, 2])
    b = validate_bundle(logits, labels)
    assert b.flags is None
    with pytest.raises(ValidationError, match="label out of range at index 1"):
        validate_bundle(logits, LabelVector([0, 10, 2]))
    with pytest.raises(ValidationError, match="flags length mismatch"):
        validate_bundle(logits, labels, RobustFlags([True, False]))
    with pytest.raises(ValidationError, match="labels length mismatch"):
        validate_bundle(logits, LabelVector([0, 1]))
    with pytest.raises(ValidationError, match="negative label at index 1"):
        LabelVector([0, -1, 2])


def test_labels_flags_round_trip(tmp_path):
    labels = LabelVector([3, 1, 4, 1, 5])
    flags = RobustFlags([True, False, True, True, False])
    store_labels(labels, tmp_path / "y.txt")
    store_flags(flags, tmp_path / "f.txt")
    assert np.array_equal(load_labels(tmp_path / "y.txt").labels, labels.labels)
    assert np.array_equal(load_flags(tmp_path / "f.txt").flags, flags.flags)
    (tmp_path / "bad.txt").write_text("2\n")
    with pytest.raises(ParseError):
        load_flags(tmp_path / "bad.txt")


LINE_READERS = {  # reader, lines of a file, what it reads, bad last lines and their messages
    # a cell int() or float() reads but logitlab never writes is refused: a
    # digit separator, a non-ASCII digit, whitespace other than spaces and tabs
    "matrix": (lambda p: load_matrix(p, "text").values.tolist(), ["2,2", "1,2", "3,4"],
               [[1.0, 2.0], [3.0, 4.0]], {
                   "3,x": "unparseable value at row 1, column 1",
                   "3,4\x0c": "unparseable value at row 1, column 1",
                   "1_0,4": "unparseable value at row 1, column 0",
                   "3,\u0664": "unparseable value at row 1, column 1"}),
    "labels": (lambda p: load_labels(p).labels.tolist(), ["3", "1"], [3, 1], {
        "x": "unparseable label at line 4",
        "1\x0c": "unparseable label at line 4",
        "1_0": "unparseable label at line 4",
        "\u0663": "unparseable label at line 4"}),
    "flags": (lambda p: load_flags(p).flags.tolist(), ["1", "0"], [True, False], {
        "2": "flag at line 4 must be 0 or 1, got '2'",
        "1\x0c": "flag at line 4 must be 0 or 1, got '1\\x0c'",
        "1\x85": "flag at line 4 must be 0 or 1, got '1\\x85'"}),
    # the mftma manifold listing is the names read_lines yields
    "listing": (lambda p: list(read_lines(p)), ["a.lgt", "b.lgt"], [(2, "a.lgt"), (4, "b.lgt")],
                {}),
}


@pytest.mark.parametrize("reader", LINE_READERS)
def test_line_rules_of_every_text_reader(tmp_path, reader):
    read, lines, want, refusals = LINE_READERS[reader]
    p = tmp_path / "in.txt"

    def write(last):  # CRLF endings, and blank and whitespace-only lines
        p.write_bytes((" \t\r\n" + "\r\n\r\n".join(lines[:-1] + [last]) + "\r\n \r\n").encode())

    write(lines[-1])
    assert read(p) == want
    for bad, message in refusals.items():  # line i counts the skipped lines too
        write(bad)
        with pytest.raises(ParseError) as err:
            read(p)
        assert str(err.value) == f"{p}: {message}"
    # a byte that does not decode, past the first read, is named at its offset in the file
    filler = (lines[-1] + "\n").encode()
    raw = bytearray(lines[0].encode() + b"\n" + filler * (1_600_000 // len(filler)))
    raw[1_500_000] = 0xFF
    p.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as want_err:
        bytes(raw).decode()
    assert want_err.value.start == 1_500_000
    with pytest.raises(ParseError) as err:
        read(p)
    assert str(err.value) == f"{p}: not text ({want_err.value.reason} at byte 1500000)"


def test_lines_split_on_newline_only(tmp_path):
    p = tmp_path / "y.txt"
    # a form feed is no line break: "1\x0c2" is one label that does not parse
    p.write_text("1\x0c2\n3\n")
    with pytest.raises(ParseError, match=r"unparseable label at line 1$"):
        load_labels(p)
    p.write_bytes(b"1\r\n2\r\n\r\n3\r\n")
    assert load_labels(p).labels.tolist() == [1, 2, 3]
    # only spaces and tabs make a blank line: a line holding only \x1c,
    # whitespace to str.strip, is a label that does not parse
    p.write_text("1\n" * 150_000 + "\x1c\n" + "1\n" * 150_000 + "x\n")
    with pytest.raises(ParseError, match=r"unparseable label at line 150001$"):
        load_labels(p)
    # line numbers run on across reads: the bad label sits past the first
    # READ_BYTES, after a blank line of spaces and a tab
    p.write_text("1\n" * 150_000 + "  \t \n" + "1\n" * 150_000 + "x\n")
    assert p.stat().st_size > READ_BYTES
    with pytest.raises(ParseError, match=r"unparseable label at line 300002$"):
        load_labels(p)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.lists(finite_doubles, min_size=2, max_size=6),
        min_size=1,
        max_size=8,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_round_trips_exact(rows, tmp_path_factory):
    m = LogitMatrix(np.array(rows, dtype=np.float64))
    d = tmp_path_factory.mktemp("rt")
    store_matrix(m, d / "b.lgt", "binary")
    store_matrix(m, d / "t.txt", "text")
    assert load_matrix(d / "b.lgt", "binary").values.tobytes() == m.values.tobytes()
    assert np.array_equal(load_matrix(d / "t.txt", "text").values, m.values)
