"""Tests for LIBSVM parsing, normalization, splitting, and CSV conversion."""

import io

import numpy as np
import pytest

from trish.data import (Dataset, LibsvmParseError, chronological_split,
                        csv_to_libsvm, dump_libsvm, minmax_normalize,
                        parse_libsvm)


class TestParseLibsvm:
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
    ])
    def test_malformed_inputs_rejected_with_line_number(self, text, line):
        with pytest.raises(LibsvmParseError) as err:
            parse_libsvm(io.StringIO(text))
        assert err.value.line == line

    def test_round_trip_random_rows(self):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(1000):
            label = rng.choice([-1.0, 1.0])
            cols = np.sort(rng.choice(50, size=rng.integers(0, 8), replace=False))
            pairs = " ".join(f"{c + 1}:{rng.normal():.17g}" for c in cols)
            lines.append(f"{label:g} {pairs}".strip())
        text = "\n".join(lines) + "\n"
        ds = parse_libsvm(io.StringIO(text), n_features=50)
        out = io.StringIO()
        dump_libsvm(ds, out)
        ds2 = parse_libsvm(io.StringIO(out.getvalue()), n_features=50)
        np.testing.assert_array_equal(ds.labels, ds2.labels)
        assert (ds.features != ds2.features).nnz == 0

    def test_feature_dimension_override_widens(self):
        ds = parse_libsvm(io.StringIO("1 2:1\n"), n_features=10)
        assert ds.n == 10
        ds = parse_libsvm(io.StringIO("1 12:1\n"), n_features=10)
        assert ds.n == 12


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

    def test_header_and_delimiter(self):
        src = io.StringIO("a;b\n1;2\n")
        out = io.StringIO()
        rows = csv_to_libsvm(src, out, has_header=True, delimiter=";")
        assert rows == 1 and out.getvalue() == "1 1:2\n"

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

    @pytest.mark.parametrize("text, header, line", [
        ("1,2,3,4\n2.0,5\n", False, 2),         # short row after 4 cells
        ("1,2\n3,4\n5,6,7\n", False, 3),        # long row
        ("a,b,c\n1,2,3\n\n4,5\n", True, 4),     # header and blank line count
        ("1,2\n-200,9,9\n", False, 2),          # a row that would be dropped
    ])
    def test_ragged_row_rejected_with_line_number(self, text, header, line):
        with pytest.raises(ValueError, match=f"^line {line}: .*cells"):
            csv_to_libsvm(io.StringIO(text), io.StringIO(), label_col=0,
                          missing_value=-200.0, has_header=header)

    @pytest.mark.parametrize("text, line", [
        ("1,2\n3,x\n", 2),      # feature cell
        ("1,2\nnan?,4\n", 2),   # label cell
        ("h,h\n1,2\n3,4\n5,six\n", 4),
    ])
    def test_non_numeric_cell_names_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: could not convert"):
            csv_to_libsvm(io.StringIO(text), io.StringIO(), label_col=0,
                          has_header=text.startswith("h"))
