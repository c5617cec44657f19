"""Dataset ingestion and preprocessing.

Feature files use the LIBSVM sparse text format: one example per line,
``label idx:val idx:val ...`` with strictly increasing 1-based indices.
Datasets are immutable after load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import count, islice

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


PARSE_BLOCK = 1024  # most lines tokenized at once; bounds the parser's temporaries
_INDEX_MAX = 2**31 - 1


def parse_libsvm(stream, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text from a file-like object or iterable of lines.

    Input must be ASCII.  Blank lines are skipped.  Comment characters, a
    token without an ``index:value`` separator, a non-numeric label, index
    or value (a token holding a non-ASCII character is one), a non-finite
    label or value, an index above the int32 range and indices that are not
    strictly increasing from 1 raise LibsvmParseError with the offending
    line number.  Every label and value equals Python's ``float()`` of its
    text bit for bit.  `n_features` widens the matrix beyond the largest
    index seen (useful to align train and test dimensions).
    """
    lines = iter(stream)
    blocks = [_parse_block([], 1)]  # typed empty arrays for empty input
    while block := list(islice(lines, PARSE_BLOCK)):
        blocks.append(_parse_block(block, first=1 + (len(blocks) - 1) * PARSE_BLOCK))
    labels, data, cols, counts = (np.concatenate(part) for part in zip(*blocks))
    row_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    n = max(int(cols.max(initial=-1)) + 1, n_features or 0)
    features = sp.csr_matrix((data, cols, row_ptr), shape=(labels.size, n))
    return Dataset(features=features, labels=labels)


def _parse_block(lines: list[str], first: int):
    """Labels, values, 0-based columns and per-row counts of consecutive lines.

    `first` is the 1-based number of lines[0].  Of several faults, the one
    met first reading line by line and token by token is raised.
    """
    text = "\n".join(lines) + "\n"
    raw = text.encode("ascii", "replace")  # a non-ASCII character becomes a non-numeric "?"
    buf = np.frombuffer(raw + b" " * 16, dtype=np.uint8)  # padding keeps field reads inside
    space = (buf == 32) | (buf - 9 < 5) | (buf - 28 < 4)  # the ASCII that str.split() splits at
    starts, ends = np.flatnonzero(np.diff(space, prepend=True)).reshape(-1, 2).T
    line_ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1)
    line = np.searchsorted(line_ends, starts, side="right")
    is_label = np.diff(line, prepend=-1) != 0
    lab, pair = np.flatnonzero(is_label), np.flatnonzero(~is_label)
    digits = np.zeros(buf.size + 1, dtype=np.int32)  # digits[i]: how many of buf[:i] are digits
    np.cumsum((buf >= 48) & (buf <= 57), out=digits[1:])
    colons = np.append(np.flatnonzero(buf == 58), buf.size)
    p_start, p_end = starts[pair], ends[pair]
    colon = colons[np.searchsorted(colons, p_start)]
    sep = colon < p_end
    colon = np.where(sep, colon, p_end)
    labels, bad_label = _numbers(raw, buf, digits, starts[lab], ends[lab], float, np.nan)
    index, bad_index = _numbers(raw, buf, digits, p_start, colon,  # clipped to fit int64
                                lambda s: min(max(int(s), -1), _INDEX_MAX + 1), -1)
    values, bad_value = _numbers(raw, buf, digits, colon + sep, p_end, float, np.nan)
    prev = np.where(is_label[pair - 1], 0, np.roll(index, 1))

    def token(t):
        return text[starts[t]:ends[t]]

    def index_of(t):
        return 0 if is_label[t] else int(token(t).partition(":")[0])

    faults = []  # (line, token or -1 for the whole line, order of the check, message)
    if "#" in text:
        faults.append((np.searchsorted(line_ends, text.index("#"), side="right"), -1, 0,
                       lambda t: "comment characters are not part of the format"))
    for bad, tokens, message in [
            (bad_label, lab, lambda t: f"label {token(t)!r} is not numeric"),
            (~np.isfinite(labels), lab, lambda t: f"non-finite label {token(t)!r}"),
            (~sep, pair, lambda t: f"token {token(t)!r} lacks an index:value separator"),
            (bad_index | bad_value, pair,
             lambda t: f"token {token(t)!r} is not index:value numeric"),
            (~np.isfinite(values), pair, lambda t: f"non-finite value in token {token(t)!r}"),
            (index > _INDEX_MAX, pair, lambda t: f"index {index_of(t)} is above the int32 range"),
            (index <= prev, pair,
             lambda t: f"index {index_of(t)} not strictly increasing after {index_of(t - 1)}")]:
        if bad.any():
            t = tokens[bad.argmax()]
            faults.append((line[t], t, len(faults), message))
    if faults:
        line_no, t, _, message = min(faults)
        raise LibsvmParseError(message(t), first + int(line_no))
    return labels, values, (index - 1).astype(np.int32), np.diff(np.append(lab, starts.size)) - 1


def _numbers(raw, buf, digits, start, end, convert, fill):
    """Numeric values of the fields raw[start:end] and a mask of rejected ones.

    A field matching ``[+-]?[0-9]{1,15}`` is converted exactly in numpy
    (``-0`` gives -0.0); all others go through one bulk `convert`.  The
    first field `convert` rejects and every slow field after it get `fill`.
    """
    sign = buf[start]
    neg = sign == 45
    lead = start + (neg | (sign == 43))
    width = end - lead
    width[(width > 15) | (digits[end] - digits[lead] != width)] = 0
    mag = np.zeros(start.size, dtype=np.int64)
    for j in range(int(width.max(initial=0))):
        mag = np.where(width > j, mag * 10 + buf[lead + j] - 48, mag)
    out = mag.astype(np.float64 if convert is float else np.int64)
    np.negative(out, out=out, where=neg)
    slow = np.flatnonzero(width == 0)
    converted = []
    try:
        converted.extend(map(convert, [raw[a:b] for a, b in zip(start[slow].tolist(),
                                                                 end[slow].tolist())]))
    except ValueError:  # `converted` holds the fields before the rejected one
        pass
    rejected = np.zeros(start.size, dtype=bool)
    rejected[slow[len(converted):len(converted) + 1]] = True
    out[slow] = converted + [fill] * (slow.size - len(converted))
    return out, rejected


def dump_libsvm(dataset: Dataset, stream) -> None:
    """Serialize a Dataset to LIBSVM text: 1-based indices, numbers as exact shortest repr."""
    X = dataset.features
    indices, values = X.indices.tolist(), X.data.tolist()
    for i, label in enumerate(dataset.labels.tolist()):
        start, stop = X.indptr[i], X.indptr[i + 1]
        pairs = [f"{j + 1}:{v!r}" for j, v in zip(indices[start:stop], values[start:stop])]
        stream.write(" ".join([repr(label), *pairs]) + "\n")


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
    in column order (zeros are omitted, as usual for the format), each as its
    own stripped text, which `parse_libsvm` reads as ``float()`` of the cell.
    A negative `label_col` counts from the end of the first data row (-1 is
    its last cell).  Rows whose target is empty or equals `missing_value` are
    dropped unchecked.  A `label_col` outside the first data row, a row whose
    cell count differs from the first data row's, a non-numeric cell, and in
    a written row a non-finite cell or non-ASCII text, raise ValueError with
    the 1-based line number.
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
