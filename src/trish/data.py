"""Dataset ingestion and preprocessing.

Feature files use the LIBSVM sparse text format: one example per line,
``label idx:val idx:val ...`` with strictly increasing 1-based indices.
Datasets are immutable after load.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import attrgetter

import numpy as np
import scipy.sparse as sp

from .core import check_count


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


PARSE_BLOCK = 1024  # most lines or CSV rows handled at once; bounds the temporaries
_INDEX_MAX = 2**31 - 1
_TENS = np.array([float(10**k) for k in range(16)])  # exact powers of ten


def parse_libsvm(stream, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text from a file-like object or iterable of lines.

    Input must be ASCII.  Blank lines are skipped.  Comment characters, a
    token without an ``index:value`` separator, a non-numeric label, index
    or value (a token holding a non-ASCII character is one), a non-finite
    label or value, an index above the int32 range and indices that are not
    strictly increasing from 1 raise LibsvmParseError with the offending
    line number.  Every label and value equals Python's ``float()`` of its
    text bit for bit.  `n_features`, an integer >= 0, widens the matrix
    beyond the largest index seen (to align train and test dimensions).
    """
    if n_features is not None:
        check_count("n_features", n_features, low=0)
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
    (``-0`` gives -0.0), and so is a float field of 1 to 15 digits and one
    ``.``, as digits / 10**(digits after the point): both are exact doubles
    (Clinger's fast path), so the one rounding equals float()'s.  All others
    go through one bulk `convert`.  The first field `convert` rejects and
    every slow field after it get `fill`.
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
    if convert is float and b"." in raw:  # blocks without a "." skip the decimal passes
        dots = np.append(np.flatnonzero(buf == 46), buf.size)
        point, size = dots[np.searchsorted(dots, lead)], end - lead
        dec = np.flatnonzero((point < end) & (digits[end] - digits[lead] == size - 1)
                             & (size > 1) & (size <= 16))
        first, size, mag = lead[dec], size[dec], np.zeros(dec.size, dtype=np.int64)
        for j in range(int(size.max(initial=0))):
            c = buf[first + j]
            mag = np.where((size > j) & (c != 46), mag * 10 + c - 48, mag)
        out[dec] = mag / _TENS[end[dec] - point[dec] - 1]
        width[dec] = 1  # not sent to `convert`
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


def minmax_normalize(matrix: np.ndarray) -> np.ndarray:
    """Per-column min-max rescaling into [0, 1] over all rows jointly.

    Constant columns map to 0.  Feed the concatenated train+test matrix so
    both sides share the same column ranges.
    """
    D = np.asarray(matrix, dtype=np.float64)
    lo, span = D.min(axis=0), np.ptp(D, axis=0)
    out = (D - lo) / np.where(span == 0.0, 1.0, span)
    out[:, span == 0.0] = 0.0
    return out


def check_train_fraction(value) -> None:
    """Reject a training share unless it is a number strictly between 0 and 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not 0 < value < 1):  # NaN fails
        raise ValueError(f"train_fraction must be in (0, 1), got {value!r}")


def chronological_split(features, labels, train_fraction: float):
    """Order-preserving split: the first ceil(fraction * N) rows train.

    The ceiling keeps a 70% split of 8991 rows at 6294 training rows.
    """
    labels = np.asarray(labels)
    N = labels.size
    check_train_fraction(train_fraction)
    n_train = math.ceil(train_fraction * N)
    if n_train == 0 or n_train == N:
        raise ValueError(f"split leaves an empty side ({n_train}/{N - n_train})")
    return ((features[:n_train], labels[:n_train]),
            (features[n_train:], labels[n_train:]))


def csv_to_libsvm(csv_stream, out_stream, label_col: int = 0,
                  missing_value: float | None = None) -> int:
    """Convert a dense numeric comma-separated file with no header row to
    LIBSVM text; returns rows written.

    One column holds the target; the others become 1-based indexed features
    in column order (zeros are omitted, as usual for the format), each as its
    own stripped text, which `parse_libsvm` reads as ``float()`` of the cell.
    A negative `label_col` counts from the end of the first data row (-1 is
    its last cell).  Rows whose target is empty or equals `missing_value` are
    dropped unchecked.  A `label_col` outside the first data row, a row whose
    cell count differs from the first data row's, a non-numeric cell, and in
    a written row a non-finite cell or non-ASCII text, raise ValueError with
    the 1-based line number.  Rows are converted `PARSE_BLOCK` at a time; on
    a fault, the out stream holds the blocks before the faulty one.
    """
    reader = csv.reader(csv_stream)
    numbered = zip(reader, map(attrgetter("line_num"), repeat(reader)))
    written, width = 0, None
    while block := list(islice(numbered, PARSE_BLOCK)):
        rows = [row for row, _ in block]
        width = width or next((len(row) for row in rows if any(map(str.strip, row))), None)
        if width is None:  # no data row yet
            continue
        try:
            text, kept = _csv_rows(rows, width, label_col, missing_value)
        except ValueError:
            for row, line_num in block:  # the first faulty row names the fault
                try:
                    _csv_rows([row], width, label_col, missing_value)
                except ValueError as err:
                    raise ValueError(f"line {line_num}: {err}") from None
            raise
        out_stream.write(text)
        written += kept
    return written


def _csv_rows(rows, width, label_col, missing_value):
    """LIBSVM text of CSV rows and how many it holds; blank rows are skipped.

    The checks run in reading order, so for a single row the ValueError
    raised names the fault reading it cell by cell meets first.
    """
    flat = list(chain.from_iterable(rows))
    cells = np.array(list(map(str.strip, flat)), dtype=object)
    seen = np.concatenate(([0], np.cumsum(cells.astype(bool))))  # non-blank cells before each
    sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    ends = np.cumsum(sizes)
    used = seen[ends] > seen[ends - sizes]  # rows with a non-blank cell
    if used.any() and not -width <= label_col < width:
        raise ValueError(f"label_col {label_col} is out of range for {width} cells")
    if np.any(used & (sizes != width)):
        raise ValueError(f"{sizes[used & (sizes != width)][0]} cells, "
                         f"expected {width} as in the first data row")
    label_col %= width
    at = (ends - sizes)[used]
    at = at[cells[at + label_col].astype(bool)]  # rows with a label
    labels = np.fromiter(map(float, cells[at + label_col].tolist()), np.float64, at.size)
    kept = labels != missing_value  # every row when missing_value is None
    at, labels = at[kept], labels[kept]
    features = at[:, None] + np.delete(np.arange(width), label_col)
    raw = np.array(flat, dtype=object)[features].ravel().tolist()  # float() names them unstripped
    values = np.fromiter(map(float, raw), np.float64, len(raw)).reshape(features.shape)
    lines = np.empty((at.size, 2 * width), dtype=object)  # label, " j:" and cell per feature, "\n"
    lines[:, 0], lines[:, 1:-1:2], lines[:, 2:-1:2], lines[:, -1] = (
        cells[at + label_col], [f" {j}:" for j in range(1, width)], cells[features], "\n")
    shown = np.ones(lines.shape, dtype=bool)
    shown[:, 1:-1:2] = shown[:, 2:-1:2] = values != 0
    out = "".join(lines[shown].tolist())
    if not (np.isfinite(labels).all() and np.isfinite(values).all()):
        raise ValueError(f"non-finite cell in {out[:-1]!r}")
    if not out.isascii():  # float() reads non-ASCII digits, parse_libsvm does not
        raise ValueError(f"non-ASCII cell in {out[:-1]!r}")
    return out, at.size
