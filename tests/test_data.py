"""Tests for LIBSVM parsing, normalization, splitting, and CSV conversion."""

import csv
import io
import math
from itertools import count
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from trish import data
from trish.data import (Dataset, LibsvmParseError, chronological_split,
                        csv_to_libsvm, minmax_normalize, parse_libsvm)


def loop_parse(stream, n_features=None):
    """Reference parser: one Python loop over the tokens of each line.

    It makes the checks `parse_libsvm` makes, in reading order, on any
    input but non-ASCII text.
    """
    labels, values, col_idx, row_ptr = [], [], [], [0]
    max_index = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if "#" in line:
            raise LibsvmParseError("comment characters are not part of the format", lineno)
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibsvmParseError(f"label {tokens[0]!r} is not numeric", lineno) from None
        if not math.isfinite(label):
            raise LibsvmParseError(f"non-finite label {tokens[0]!r}", lineno)
        prev_index = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"token {tok!r} lacks an index:value separator", lineno)
            try:
                index = int(idx_s)
                value = float(val_s)
            except ValueError:
                raise LibsvmParseError(f"token {tok!r} is not index:value numeric",
                                       lineno) from None
            if not math.isfinite(value):
                raise LibsvmParseError(f"non-finite value in token {tok!r}", lineno)
            if index > 2**31 - 1:
                raise LibsvmParseError(f"index {index} is above the int32 range", lineno)
            if index <= prev_index:
                raise LibsvmParseError(
                    f"index {index} not strictly increasing after {prev_index}", lineno)
            prev_index = index
            col_idx.append(index - 1)
            values.append(value)
        labels.append(label)
        row_ptr.append(len(values))
        max_index = max(max_index, prev_index)
    features = sp.csr_matrix(
        (np.array(values), np.array(col_idx, dtype=np.int32), np.array(row_ptr, dtype=np.int32)),
        shape=(len(labels), max(max_index, n_features or 0)))
    return Dataset(features=features, labels=np.array(labels))


# ASCII whitespace other than the newline, which str.split() also splits at.
SPACE = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"
NUMBER = st.one_of(
    st.sampled_from(["+1", "-1", "1", "0", "-0", "+0", "007", "-007", "1e3", "-2.5E-3",
                     ".5", "5.", "1_0", "999999999999999", "-999999999999999",
                     "1000000000000000", "9007199254740993", "000000000000000001",
                     "9999999999999999999"]),
    st.integers(-10**17, 10**17).map(str),
    st.integers(-10**25, 10**25).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
# Decimals around the exact numpy path's limits: 15 and 16 digits, an empty
# side of the point, signed zeros, leading zeros, 22 or more digits after the
# point, and exponents, which send a field to float().
DECIMAL = st.one_of(
    st.sampled_from(["1.", ".5", "+.5", "-.5", "-0.0", "+0.0", "-.0", "0.", "007.50", "-007.50",
                     "123456789012.345", "1234567890123.456", "99999999999999.9",
                     "999999999999999.9", ".123456789012345", "0.1234567890123456",
                     "0.1000000000000000000000", "1.00000000000000000000001",
                     "1.5e3", "-2.5E-3", "+.5e+2", "9.007199254740993"]),
    st.builds(lambda sign, digits, point, exp: f"{sign}{digits[:point]}.{digits[point:]}{exp}",
              st.sampled_from(["", "+", "-"]),
              st.one_of(st.integers(0, 10**17).map(str), st.text("0123456789", min_size=1,
                                                                 max_size=25)),
              st.integers(0, 25), st.sampled_from(["", "", "", "e3", "E-22"])))
# Whole numbers only: a file drawn from these holds no ".", as a1a's do.
WHOLE = st.one_of(st.sampled_from(["+1", "-1", "1", "0", "-0", "+0", "007", "1e3", "1_0"]),
                  st.integers(-10**17, 10**17).map(str))
INDEX_FORMS = ["{}", "+{}", "{:03d}", "{:016d}"]
BAD_LABELS = ["nan", "-inf", "1e999", "x", "+", "1.2.3", "#", ".", "-.", "1..5", "1:2"]
BAD_PAIRS = ["1:2:3", ":2", "2:", "x", "a:b", "1:nan", "1:inf", "1:1e999", "0:1", "-3:1",
             "-0:1", "2147483648:1", "99999999999999999999:1", "1#:2", "+:1", "1:-",
             "1:.", "1:+.", "1:1.5.", "1:.5.5", "1.5:1", "1.:1"]


@st.composite
def libsvm_lines(draw, faults=0):
    """Lines of LIBSVM text with varied spacing and number spellings.

    A file draws its numbers from one of: the general spellings, those plus
    short and long decimals, or whole numbers only (no "." anywhere).  With
    `faults`, that many tokens are replaced by malformed ones.
    """
    number = draw(st.sampled_from([NUMBER, st.one_of(NUMBER, DECIMAL), WHOLE]))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 4)) == 0:
            rows.append([draw(st.text(SPACE, max_size=3))])
            continue
        indices = sorted(draw(st.lists(st.one_of(st.integers(1, 300), st.integers(1, 2**31 - 1)),
                                       unique=True, max_size=5)))
        rows.append([draw(number)] + [draw(st.sampled_from(INDEX_FORMS)).format(i) + ":"
                                      + draw(number) for i in indices])
    for _ in range(faults if rows else 0):
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        bad = draw(st.sampled_from(BAD_PAIRS if at else BAD_LABELS))
        row[at:at + 1] = [bad]
    return ["".join(draw(st.text(SPACE, min_size=i > 0, max_size=2)) + tok
                    for i, tok in enumerate(row)) + draw(st.text(SPACE, max_size=2))
            for row in rows]


@st.composite
def libsvm_inputs(draw, faults=0):
    """A stream over drawn lines: text with LF, CRLF or no final newline, or a list of lines."""
    lines = draw(libsvm_lines(faults))
    if draw(st.booleans()):
        return lambda: list(lines)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return lambda: io.StringIO(text)


def assert_same_dataset(got, want):
    for a, b in [(got.labels, want.labels), (got.features.data, want.features.data),
                 (got.features.indices, want.features.indices),
                 (got.features.indptr, want.features.indptr)]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got.features.shape == want.features.shape


class TestParseLibsvm:
    @pytest.mark.parametrize("n_features", [True, -3, 2.5, "4"])
    def test_bad_n_features_rejected(self, n_features):
        """True and -3 used to be ignored, 2.5 and "4" raised TypeError."""
        with pytest.raises(ValueError, match=r"^n_features must be an integer >= 0"):
            parse_libsvm(["1 1:1"], n_features=n_features)

    @pytest.mark.parametrize("n_features", [0, 1, np.int64(4)])
    def test_n_features_widens_only(self, n_features):
        ds = parse_libsvm(["1 1:1"], n_features=n_features)
        assert ds.n == max(1, n_features)

    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("+1 3:0.5 7:1.0\n"))
        assert ds.N == 1 and ds.n == 7
        assert ds.labels[0] == 1.0
        row = ds.features.toarray()[0]
        assert row[2] == 0.5 and row[6] == 1.0
        assert row.sum() == 1.5

    def test_empty_input(self):
        ds = parse_libsvm(io.StringIO(""))
        assert ds.N == 0

    def test_blank_lines_skipped(self):
        ds = parse_libsvm(io.StringIO("1 1:2\n\n-1 2:3\n"))
        assert ds.N == 2

    def test_label_only_row(self):
        ds = parse_libsvm(io.StringIO("-1\n"), n_features=4)
        assert ds.N == 1 and ds.n == 4
        assert ds.features.nnz == 0

    @pytest.mark.parametrize("text,line", [
        ("1 a:b\n", 1),
        ("1 3\n", 1),
        ("x 1:2\n", 1),
        ("1 1:2\n1 3:0.5 2:1\n", 2),
        ("1 2:1 2:3\n", 1),
        ("1 0:5\n", 1),
        ("1 1:2 # trailing\n", 1),
        ("# comment\n", 1),
        ("1 1:inf\n", 1),
        ("1 1:2:3\n", 1),
        ("1 :2\n", 1),
        ("1 2:\n", 1),
        ("1:2 3:4\n", 1),
        ("1 1:2\n-1 2:5\u00a0\n", 2),
        ("1 1:2\nnan 1:2\n", 2),
        ("1 2147483648:1\n", 1),
        ("1 1:2\n\n1 3:1\x014:1\n", 3),
        pytest.param("1 1:1\n" * data.PARSE_BLOCK + "1 2:1 1:1\n", data.PARSE_BLOCK + 1,
                     id="first-line-of-second-block"),
    ])
    def test_malformed_inputs_rejected_with_line_number(self, text, line):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(io.StringIO(text))
        assert err.value.line == line

    def test_round_trip_random_rows(self):
        rng = np.random.default_rng(0)
        lines = []
        labels, X = np.empty(1000), np.zeros((1000, 50))
        for r in range(1000):
            labels[r] = rng.choice([-1.0, 1.0])
            cols = np.sort(rng.choice(50, size=rng.integers(0, 8), replace=False))
            X[r, cols] = [rng.normal() for _ in cols]
            pairs = " ".join(f"{c + 1}:{X[r, c]:.17g}" for c in cols)
            lines.append(f"{labels[r]:g} {pairs}".strip())
        text = "\n".join(lines) + "\n"
        ds = parse_libsvm(io.StringIO(text), n_features=50)
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_array_equal(ds.features.toarray(), X)

    def test_feature_dimension_override_widens(self):
        ds = parse_libsvm(io.StringIO("1 2:1\n"), n_features=10)
        assert ds.n == 10
        ds = parse_libsvm(io.StringIO("1 12:1\n"), n_features=10)
        assert ds.n == 12


    @settings(max_examples=300, deadline=None)
    @given(stream=libsvm_inputs(), block=st.sampled_from([1, 2, 3, data.PARSE_BLOCK]),
           n_features=st.sampled_from([None, 0, 50]))
    def test_matches_loop_parser_byte_for_byte(self, stream, block, n_features):
        with mock.patch.object(data, "PARSE_BLOCK", block):
            got = parse_libsvm(stream(), n_features=n_features)
        assert_same_dataset(got, loop_parse(stream(), n_features=n_features))

    @settings(max_examples=300, deadline=None)
    @given(stream=libsvm_inputs(faults=2), block=st.sampled_from([1, 2, 3, data.PARSE_BLOCK]))
    def test_first_fault_matches_loop_parser(self, stream, block):
        """Of several malformed tokens, the first in reading order is reported."""
        try:
            want = loop_parse(stream())
        except LibsvmParseError as err:
            want = err
        with mock.patch.object(data, "PARSE_BLOCK", block):
            if isinstance(want, Dataset):
                assert_same_dataset(parse_libsvm(stream()), want)
                return
            with pytest.raises(LibsvmParseError) as got:
                parse_libsvm(stream())
        assert (str(got.value), got.value.line) == (str(want), want.line)

    def test_signed_zero_and_leading_zeros(self):
        ds = parse_libsvm(["-0 1:-0 2:+0 3:007 4:-000000000000000"])
        assert np.signbit(ds.labels[0])
        np.testing.assert_array_equal(np.signbit(ds.features.data), [True, False, False, True])
        np.testing.assert_array_equal(ds.features.data, [0.0, 0.0, 7.0, 0.0])

    @pytest.mark.parametrize("block", [1, data.PARSE_BLOCK])
    def test_decimals_read_as_float_bit_for_bit(self, block):
        texts = ["1.", ".5", "+.5", "-.5", "-0.0", "-.0", "007.50", "0.1", "0.3", "2.45678",
                 "123456789012.345", "1234567890123.456", "99999999999999.9", "999999999999999.9",
                 ".123456789012345", "0.1234567890123456", "9.007199254740993",
                 "0.1000000000000000000000", "1.00000000000000000000001", "1.5e3", "-2.5E-3"]
        with mock.patch.object(data, "PARSE_BLOCK", block):
            ds = parse_libsvm([f"{t} 1:{t} 2:-{t.lstrip('+-')}" for t in texts])
        want = np.array([float(t) for t in texts])
        assert ds.labels.tobytes() == want.tobytes()
        assert ds.features.data.tobytes() == np.column_stack([want, -np.abs(want)]).tobytes()


class TestMinmaxNormalize:
    def test_simple_column(self):
        out = minmax_normalize(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        out = minmax_normalize(np.array([[5.0], [5.0]]))
        np.testing.assert_array_equal(out.ravel(), [0.0, 0.0])

    def test_idempotent_on_nonconstant_columns(self):
        rng = np.random.default_rng(1)
        D = rng.normal(size=(30, 4))
        once = minmax_normalize(D)
        twice = minmax_normalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-15)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(2)
        out = minmax_normalize(rng.normal(size=(50, 6)) * 100)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestChronologicalSplit:
    def test_order_preserving_seventy_thirty(self):
        X = np.arange(20).reshape(10, 2)
        y = np.arange(10)
        (Xtr, ytr), (Xte, yte) = chronological_split(X, y, 0.7)
        assert len(ytr) == 7 and len(yte) == 3
        np.testing.assert_array_equal(ytr, np.arange(7))
        np.testing.assert_array_equal(yte, np.arange(7, 10))

    def test_ceiling_convention_on_8991_rows(self):
        y = np.zeros(8991)
        (_, ytr), (_, yte) = chronological_split(np.zeros((8991, 1)), y, 0.7)
        assert len(ytr) == 6294 and len(yte) == 2697

    def test_two_rows_half(self):
        (_, ytr), (_, yte) = chronological_split(np.zeros((2, 1)),
                                                 np.array([1.0, 2.0]), 0.5)
        assert len(ytr) == 1 and len(yte) == 1

    def test_sides_partition_the_rows(self):
        y = np.arange(13)
        (_, ytr), (_, yte) = chronological_split(np.zeros((13, 1)), y, 0.4)
        np.testing.assert_array_equal(np.concatenate([ytr, yte]), y)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            chronological_split(np.zeros((1, 1)), np.zeros(1), 0.5)
        with pytest.raises(ValueError):
            chronological_split(np.zeros((5, 1)), np.zeros(5), 0.999)


    @pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan, True, "0.7"])
    def test_bad_fraction_fails_as_in_the_config(self, fraction):
        """The split owns the rule, so a config naming the same fraction fails
        with the same message.  A string used to raise TypeError."""
        from trish.harness import ExperimentConfig
        pattern = r"^train_fraction must be in \(0, 1\), got"
        with pytest.raises(ValueError, match=pattern):
            chronological_split(np.zeros((5, 1)), np.zeros(5), fraction)
        with pytest.raises(ValueError, match=pattern):
            ExperimentConfig(model="logistic", algorithm="trish", data_path="d",
                             train_fraction=fraction)


def format_csv_to_libsvm(csv_stream, out_stream, label_col=0, missing_value=None):
    """Reference converter: re-prints every written number with ``.17g``.

    It makes the checks `csv_to_libsvm` makes but the non-finite and ASCII
    ones, which `parse_libsvm` makes on its output.
    """
    reader = csv.reader(csv_stream)
    written = 0
    width = None
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if width is None:
            width = len(row)
            if not -width <= label_col < width:
                raise ValueError(f"line {reader.line_num}: label_col {label_col} is out of "
                                 f"range for {width} cells")
            label_col %= width
        elif len(row) != width:
            raise ValueError(f"line {reader.line_num}: {len(row)} cells, "
                             f"expected {width} as in the first data row")
        raw_label = row[label_col].strip()
        if not raw_label:
            continue
        try:
            label = float(raw_label)
            if missing_value is not None and label == missing_value:
                continue
            feats = [float(cell) for c, cell in enumerate(row) if c != label_col]
        except ValueError as err:
            raise ValueError(f"line {reader.line_num}: {err}") from None
        pairs = " ".join(f"{j + 1}:{v:.17g}" for j, v in enumerate(feats) if v != 0.0)
        out_stream.write(f"{label:.17g} {pairs}\n" if pairs else f"{label:.17g}\n")
        written += 1
    return written


CELL = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["{:.6g}", "{:.17g}", "{!r}"])).map(
        lambda p: p[1].format(p[0])),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "+0", "-0", "0.0", "-0.0", "0e5", "+1", "-1", "007", "-007",
                     "000000000000000001", "1_000", "1_0.2_5", "1e3", "-2.5E-3", "+.5e+2",
                     ".5", "5.", "-200", "-200.0", "-2e2"]))
PADDED_CELL = st.tuples(st.text(" \t", max_size=2), CELL,
                        st.text(" \t", max_size=2)).map("".join)


@st.composite
def csv_tables(draw):
    """CSV text of equal-width rows, some with a missing label, and a label column."""
    width = draw(st.integers(1, 5))
    label_col = draw(st.integers(-width, width - 1))
    label = st.one_of(PADDED_CELL, st.sampled_from(["", " ", "-200", " -2e2 "]))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(PADDED_CELL) for _ in range(width - 1)]
        row.insert(label_col % width, draw(label))
        rows.append(row)
    return "".join(",".join(row) + "\n" for row in rows), label_col


def loop_csv_to_libsvm(csv_stream, out_stream, label_col=0, missing_value=None):
    """Reference converter: one row at a time, with the text, checks, messages
    and line numbers `csv_to_libsvm` must reproduce."""
    reader = csv.reader(csv_stream)
    written = 0
    width = None
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if width is None:
            width = len(row)
            if not -width <= label_col < width:
                raise ValueError(f"line {reader.line_num}: label_col {label_col} is out of "
                                 f"range for {width} cells")
            label_col %= width
        elif len(row) != width:
            raise ValueError(f"line {reader.line_num}: {len(row)} cells, "
                             f"expected {width} as in the first data row")
        raw_label = row[label_col].strip()
        if not raw_label:
            continue
        try:
            label = float(raw_label)
            if missing_value is not None and label == missing_value:
                continue
            cells = row[:label_col] + row[label_col + 1:]
            values = list(map(float, cells))
        except ValueError as err:
            raise ValueError(f"line {reader.line_num}: {err}") from None
        line = " ".join([raw_label] + [f"{j}:{cell.strip()}" for j, cell, v in
                                       zip(count(1), cells, values) if v])
        # A finite sum needs finite terms, so only a non-finite sum looks at each cell.
        if not (math.isfinite(label + sum(values)) or all(map(math.isfinite, [label, *values]))):
            raise ValueError(f"line {reader.line_num}: non-finite cell in {line!r}")
        if not line.isascii():  # float() reads non-ASCII digits, parse_libsvm does not
            raise ValueError(f"line {reader.line_num}: non-ASCII cell in {line!r}")
        out_stream.write(line + "\n")
        written += 1
    return written


# Cells that are blank, non-numeric, non-finite, non-ASCII, quoted across a line
# break or around a delimiter, or a non-ASCII zero (never written, so never checked).
ODD_CELLS = ["", " ", "x", "nan", "inf", "-inf", "1e999", "\uff12", "\u0665", "\uff10",
             '"1\n2"', '"3;4"', '"5,6"', "5;6"]


@st.composite
def csv_inputs(draw):
    """CSV text with blank, ragged, dropped and faulty rows, and converter options.

    Returns the text and the keyword arguments; `label_col` may be negative
    or out of range and some cells are quoted.
    """
    width = draw(st.integers(1, 4))
    label_col = draw(st.integers(-width, width - 1) if draw(st.integers(0, 9)) else
                     st.sampled_from([-width - 1, width]))
    missing_value = draw(st.sampled_from([None, -200.0]))

    def cell(odd=30):
        text = draw(st.sampled_from(ODD_CELLS) if draw(st.integers(0, odd - 1)) == 0 else CELL)
        return draw(st.sampled_from(["{}", "{}", " {} ", "\t{}", '"{}"', '" {} "'])).format(text)

    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:  # blank or whitespace-only
            lines.append(draw(st.sampled_from(["", " ", "\t", "," * (width - 1), " , "])))
            continue
        size = width + draw(st.sampled_from([1, -1])) if kind == 1 else width  # 1: ragged
        row = [cell(odd=2 if kind == 2 else 30) for _ in range(size)]
        if kind > 1 and -width <= label_col < width:  # 2: a missing label among odd cells
            row[label_col] = "-200" if kind == 2 else draw(
                st.sampled_from(["-200", " -2e2 ", "", " ", cell()]))
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + end for line in lines)
    return text, dict(label_col=label_col, missing_value=missing_value)


class TestCsvToLibsvm:
    def test_basic_conversion(self):
        src = io.StringIO("1.5,2,0,3\n-0.5,0,0,1\n")
        out = io.StringIO()
        rows = csv_to_libsvm(src, out, label_col=0)
        assert rows == 2
        assert out.getvalue() == "1.5 1:2 3:3\n-0.5 3:1\n"

    def test_missing_sentinel_rows_dropped(self):
        src = io.StringIO("2,1\n-200,9\n3,4\n")
        out = io.StringIO()
        rows = csv_to_libsvm(src, out, label_col=0, missing_value=-200.0)
        assert rows == 2
        ds = parse_libsvm(io.StringIO(out.getvalue()))
        np.testing.assert_array_equal(ds.labels, [2.0, 3.0])

    def test_label_column_in_middle(self):
        src = io.StringIO("1,9,2\n")
        out = io.StringIO()
        csv_to_libsvm(src, out, label_col=1)
        assert out.getvalue() == "9 1:1 2:2\n"

    def test_negative_label_col_counts_from_the_end(self):
        out = io.StringIO()
        csv_to_libsvm(io.StringIO("1,2,3\n"), out, label_col=-1)
        assert out.getvalue() == "3 1:1 2:2\n"

    @pytest.mark.parametrize("label_col", [3, 5, -4])
    def test_out_of_range_label_col_rejected(self, label_col):
        with pytest.raises(ValueError, match=f"^line 1: label_col {label_col} is out of range"):
            csv_to_libsvm(io.StringIO("1,2,3\n"), io.StringIO(), label_col=label_col)

    @pytest.mark.parametrize("label_col", [True, False, 1.5, 1.0, "1", None])
    def test_non_integer_label_col_rejected_before_reading(self, label_col):
        """True used to read column 1 and 1.5 to raise IndexError."""
        src, out = io.StringIO("1,2,3\n0,4,5\n1,6,7\n"), io.StringIO()
        with pytest.raises(ValueError, match=f"^label_col must be an integer, got {label_col!r}$"):
            csv_to_libsvm(src, out, label_col=label_col)
        assert src.tell() == 0 and out.getvalue() == ""

    @pytest.mark.parametrize("missing_value, message", [
        (True, "must be a number"), (False, "must be a number"),
        ("1", "must be a number"), (np.nan, "must be finite"),
        (-np.inf, "must be finite")])
    def test_bad_missing_value_rejected_before_reading(self, missing_value, message):
        """True and False used to drop every row labelled 1 or 0, "1" to drop
        none, and NaN to match no cell, so NaN labels failed as non-finite."""
        src, out = io.StringIO("1,2,3\n0,4,5\nnan,6,7\n"), io.StringIO()
        with pytest.raises(ValueError, match=f"^missing_value {message}"):
            csv_to_libsvm(src, out, missing_value=missing_value)
        assert src.tell() == 0 and out.getvalue() == ""

    @pytest.mark.parametrize("label_col, missing_value", [
        (np.int64(1), np.float64(2.0)), (-1, 2), (1, np.int32(2))])
    def test_numpy_and_integer_arguments_accepted(self, label_col, missing_value):
        out = io.StringIO()
        rows = csv_to_libsvm(io.StringIO("5,1\n7,2\n"), out,
                             label_col=label_col, missing_value=missing_value)
        assert rows == 1 and out.getvalue() == "1 1:5\n"

    def test_round_trip_through_parser(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(50, 5))
        src = io.StringIO("\n".join(",".join(f"{v:.17g}" for v in row)
                                    for row in table))
        out = io.StringIO()
        csv_to_libsvm(src, out, label_col=0)
        ds = parse_libsvm(io.StringIO(out.getvalue()), n_features=4)
        np.testing.assert_allclose(ds.labels, table[:, 0], rtol=1e-15)
        np.testing.assert_allclose(ds.features.toarray(), table[:, 1:], rtol=1e-15)

    @pytest.mark.parametrize("text, crlf, line", [
        ("1,2,3,4\n2.0,5\n", False, 2),         # short row after 4 cells
        ("1,2\n3,4\n5,6,7\n", False, 3),        # long row
        ("1,2,3\n\n4,5\n", True, 3),            # a blank line counts, with \r\n ends too
        ("1,2\n-200,9,9\n", False, 2),          # a row that would be dropped
    ])
    def test_ragged_row_rejected_with_line_number(self, text, crlf, line):
        text = text.replace("\n", "\r\n") if crlf else text
        with pytest.raises(ValueError, match=f"^line {line}: .*cells"):
            csv_to_libsvm(io.StringIO(text), io.StringIO(), label_col=0,
                          missing_value=-200.0)

    @pytest.mark.parametrize("text, line", [
        ("1,2\n3,x\n", 2),      # feature cell
        ("1,2\nnan?,4\n", 2),   # label cell
        ("1,2\n3,4\n5,six\n", 3),
    ])
    def test_non_numeric_cell_names_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: could not convert"):
            csv_to_libsvm(io.StringIO(text), io.StringIO(), label_col=0)

    @settings(max_examples=300, deadline=None)
    @given(csv_tables(), st.sampled_from([None, -200.0]))
    def test_parses_like_the_format_converter_byte_for_byte(self, table, missing_value):
        text, label_col = table
        got, want = io.StringIO(), io.StringIO()
        rows = csv_to_libsvm(io.StringIO(text), got, label_col, missing_value)
        assert rows == format_csv_to_libsvm(io.StringIO(text), want, label_col, missing_value)
        assert_same_dataset(parse_libsvm(io.StringIO(got.getvalue())),
                            parse_libsvm(io.StringIO(want.getvalue())))

    def test_cells_written_as_their_own_text(self):
        out = io.StringIO()
        csv_to_libsvm(io.StringIO(" 2.50 ,0.0, 2.45678,-0,1e3\n"), out)
        assert out.getvalue() == "2.50 2:2.45678 4:1e3\n"

    @pytest.mark.parametrize("text, line, kind", [
        ("1,2\n\uff12,4\n", 2, "non-ASCII"),    # full-width label digit
        ("1,2\n3,\u0665\n", 2, "non-ASCII"),    # Arabic-Indic feature digit
        ("1,2\n3,4\nnan,1\n", 3, "non-finite"),
        ("1,2\ninf,1\n", 2, "non-finite"),
        ("1,nan\n", 1, "non-finite"),
        ("1,2\n1,-inf\n", 2, "non-finite"),
        ("1,1e999\n", 1, "non-finite"),         # overflows to inf
        ("-200,1\n1,2\n2,nan\n", 3, "non-finite"),
    ])
    def test_non_finite_or_non_ascii_cell_names_line(self, text, line, kind):
        with pytest.raises(ValueError, match=f"^line {line}: {kind} cell"):
            csv_to_libsvm(io.StringIO(text), io.StringIO(), label_col=0, missing_value=-200.0)

    def test_dropped_rows_and_zero_cells_stay_unchecked(self):
        out = io.StringIO()
        text = "-200,nan,\uff12,1\n,inf,1,1\n1,\uff10,1e308,1e308\n"  # that sum overflows
        rows = csv_to_libsvm(io.StringIO(text), out, label_col=0, missing_value=-200.0)
        assert rows == 1 and out.getvalue() == "1 2:1e308 3:1e308\n"

    @settings(max_examples=300, deadline=None)
    @given(table=csv_inputs(), block=st.sampled_from([1, 2, 3, data.PARSE_BLOCK]))
    def test_matches_the_row_converter(self, table, block):
        """Same text and row count, or the same first error; blocks before it are written."""
        text, kwargs = table
        want_out, got_out = io.StringIO(), io.StringIO()
        try:
            want = loop_csv_to_libsvm(io.StringIO(text), want_out, **kwargs)
        except ValueError as err:
            want = err
        with mock.patch.object(data, "PARSE_BLOCK", block):
            if isinstance(want, int):
                assert csv_to_libsvm(io.StringIO(text), got_out, **kwargs) == want
                assert got_out.getvalue() == want_out.getvalue()
                return
            with pytest.raises(ValueError) as got:
                csv_to_libsvm(io.StringIO(text), got_out, **kwargs)
        assert (type(got.value), str(got.value)) == (type(want), str(want))
        assert want_out.getvalue().startswith(got_out.getvalue())
