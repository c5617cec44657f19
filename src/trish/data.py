"""Dataset ingestion and preprocessing.

Feature files use the LIBSVM sparse text format: one example per line,
``label idx:val idx:val ...`` with strictly increasing 1-based indices.
Datasets are immutable after load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Dataset:
    """Sparse feature rows with labels.

    n is the feature dimension (max 1-based index seen, or the explicit
    override used at parse time); columns are stored 0-based internally.
    """

    features: sp.csr_matrix
    labels: np.ndarray

    @property
    def N(self) -> int:
        return int(self.labels.size)

    @property
    def n(self) -> int:
        return int(self.features.shape[1])


def parse_libsvm(stream, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text from a file-like object or iterable of lines.

    Blank lines are skipped.  Malformed tokens, non-numeric values, comment
    characters and non-increasing indices raise LibsvmParseError with the
    offending line number.  `n_features` widens the matrix beyond the largest
    index seen (useful to align train and test dimensions).
    """
    labels: list[float] = []
    data: list[float] = []
    col_idx: list[int] = []
    row_ptr = [0]
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
        prev_index = 0
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"token {tok!r} lacks an index:value separator", lineno)
            try:
                index = int(idx_s)
                value = float(val_s)
            except ValueError:
                raise LibsvmParseError(f"token {tok!r} is not index:value numeric", lineno) from None
            if not math.isfinite(value):
                raise LibsvmParseError(f"non-finite value in token {tok!r}", lineno)
            if index <= prev_index:
                raise LibsvmParseError(
                    f"index {index} not strictly increasing after {prev_index}", lineno)
            prev_index = index
            col_idx.append(index - 1)
            data.append(value)
        labels.append(label)
        row_ptr.append(len(data))
        max_index = max(max_index, prev_index)

    n = max(max_index, n_features or 0)
    features = sp.csr_matrix(
        (np.array(data), np.array(col_idx, dtype=np.int32), np.array(row_ptr, dtype=np.int32)),
        shape=(len(labels), n))
    return Dataset(features=features, labels=np.array(labels))


def dump_libsvm(dataset: Dataset, stream) -> None:
    """Serialize a Dataset back to LIBSVM text (1-based indices)."""
    X = dataset.features
    for i in range(dataset.N):
        start, stop = X.indptr[i], X.indptr[i + 1]
        pairs = " ".join(f"{j + 1}:{v:.17g}" for j, v in
                         zip(X.indices[start:stop], X.data[start:stop]))
        label = f"{dataset.labels[i]:.17g}"
        stream.write(f"{label} {pairs}\n" if pairs else f"{label}\n")


def minmax_normalize(matrix: np.ndarray) -> np.ndarray:
    """Per-column min-max rescaling into [0, 1] over all rows jointly.

    Constant columns map to 0.  Feed the concatenated train+test matrix so
    both sides share the same column ranges.
    """
    D = np.asarray(matrix, dtype=np.float64)
    lo = D.min(axis=0)
    hi = D.max(axis=0)
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (D - lo) / safe
    out[:, span == 0.0] = 0.0
    return out


def chronological_split(features, labels, train_fraction: float):
    """Order-preserving split: the first ceil(fraction * N) rows train.

    The ceiling keeps a 70% split of 8991 rows at 6294 training rows.
    """
    labels = np.asarray(labels)
    N = labels.size
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = math.ceil(train_fraction * N)
    if n_train == 0 or n_train == N:
        raise ValueError(f"split leaves an empty side ({n_train}/{N - n_train})")
    return ((features[:n_train], labels[:n_train]),
            (features[n_train:], labels[n_train:]))


def csv_to_libsvm(csv_stream, out_stream, label_col: int = 0,
                  missing_value: float | None = None,
                  has_header: bool = False, delimiter: str = ",") -> int:
    """Convert a dense numeric CSV to LIBSVM text; returns rows written.

    One column holds the target; the others become 1-based indexed features
    in column order (zeros are omitted, as usual for the format).  Rows whose
    target is empty or equals `missing_value` are dropped.  A row whose cell
    count differs from the first data row's, or a non-numeric cell, raises
    ValueError with the 1-based line number.
    """
    reader = csv.reader(csv_stream, delimiter=delimiter)
    if has_header:
        next(reader, None)
    written = 0
    width = None
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if width is None:
            width = len(row)
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
