"""Dataset ingestion and preprocessing.

Feature files use the LIBSVM sparse text format: one example per line,
``label idx:val idx:val ...`` with strictly increasing 1-based indices.
Datasets are immutable after load.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

from .core import _check_real, check_count


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


def _is_space(b):
    """Which bytes are the ASCII whitespace str.split() and str.strip() cut at."""
    return (b == 32) | (b - 9 < 5) | (b - 28 < 4)


def _parse_block(lines: list[str], first: int):
    """Labels, values, 0-based columns and per-row counts of consecutive lines.

    `first` is the 1-based number of lines[0].  Of several faults, the one
    met first reading line by line and token by token is raised.
    """
    text = "\n".join(lines) + "\n"
    raw = text.encode("ascii", "replace")  # a non-ASCII character becomes a non-numeric "?"
    buf = np.frombuffer(raw + b" " * 16, dtype=np.uint8)  # a read before buf[0] wraps into this
    space = _is_space(buf)
    starts, ends = np.flatnonzero(np.diff(space, prepend=True)).reshape(-1, 2).T
    line_ends = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)) + 1)
    # Counting the tokens that start before each line's end gives each line its tokens.
    line = np.repeat(np.arange(len(lines)), np.diff(np.searchsorted(starts, line_ends), prepend=0))
    is_label = np.diff(line, prepend=-1) != 0
    lab, pair = np.flatnonzero(is_label), np.flatnonzero(~is_label)
    p_start, p_end = starts[pair], ends[pair]
    # A block without a fault holds one colon inside each pair token, in order: the k-th
    # colon is the k-th pair's separator.  Any other block holds a fault; to name the
    # first one, each pair token's first colon is searched for.
    colon = np.flatnonzero(buf == 58)
    if colon.size != pair.size or np.any((colon < p_start) | (colon >= p_end)):
        colon = np.append(colon, buf.size)[np.searchsorted(colon, p_start)]
    sep = colon < p_end
    colon = np.where(sep, colon, p_end)
    labels, bad_label = _numbers(raw, buf, starts[lab], ends[lab], float, np.nan)
    index, bad_index = _numbers(raw, buf, p_start, colon,  # clipped to fit int64
                                lambda s: min(max(int(s), -1), _INDEX_MAX + 1), -1)
    values, bad_value = _numbers(raw, buf, colon + sep, p_end, float, np.nan)
    prev = np.zeros(pair.size + 1, dtype=np.int64)  # each pair's previous index, 0 first in a row
    prev[1:] = index
    prev[lab - np.arange(lab.size)] = 0  # row k's first pair has lab[k] - k pairs before it
    prev = prev[:-1]

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


def _numbers(raw, buf, start, end, convert, fill):
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
    width = end - start - (neg | (sign == 43))
    width[width > 16] = 0  # too long for either exact path
    mag = np.zeros(start.size, dtype=np.int64)  # the digits as one integer, a non-digit as 0
    other = np.zeros(start.size, dtype=np.int8)  # how many bytes are not digits
    after = np.zeros(start.size, dtype=np.int64)  # how many bytes follow the last of them
    # Pass `back` reads the byte that many before each field's end, so a field is read
    # from back == width on; a non-digit wraps past 9.
    for back in range(int(width.max(initial=0)), 0, -1):
        d = buf[end - back] - 48
        live = width >= back
        digit = live & (d < 10)
        mag = mag * 10 + d * digit
        odd = live ^ digit
        other += odd
        after[odd] = back - 1
    out = mag.astype(np.float64 if convert is float else np.int64)
    fast = (other == 0) & (width > 0) & (width < 16)
    if convert is float and b"." in raw:  # blocks without a "." skip the decimal pass
        dec = np.flatnonzero((other == 1) & (width > 1))
        dec = dec[buf[end[dec] - 1 - after[dec]] == 46]
        places, read = after[dec], mag[dec]  # the point was read as a 0 digit
        low = read % 10**places
        out[dec] = ((read - low) // 10 + low) / _TENS[places]
        fast[dec] = True
    np.negative(out, out=out, where=neg)
    slow = np.flatnonzero(~fast)
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
    both sides share the same column ranges.  A NaN or infinite entry, which
    would turn its column into NaN, raises ValueError.
    """
    D = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(D).all():
        raise ValueError("matrix must be finite")
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
    dropped unchecked.  A non-integer `label_col` or a `missing_value` other
    than None or a finite number (bools fail both) raises ValueError before
    any row is read.  A `label_col` outside the first data row, a row whose
    cell count differs from the first data row's, a non-numeric cell, and in
    a written row a non-finite cell or non-ASCII text, raise ValueError with
    the 1-based line number, and so does text `csv.reader` rejects.

    Lines are converted `PARSE_BLOCK` at a time.  A plain block (see
    `_plain_cells`) is split at its commas and converted in numpy.  From the
    first block that is not plain or holds a fault on, `csv.reader` reads the
    rest of the stream, as a quoted cell may span blocks, and its rows are
    converted one at a time and written `PARSE_BLOCK` at a time.  On a fault,
    the out stream holds the blocks before the faulty one.
    """
    if type(label_col) is not int and not isinstance(label_col, np.integer):
        raise ValueError(f"label_col must be an integer, got {label_col!r}")
    label_col = operator.index(label_col)  # a np.uint64 would make float indices
    if missing_value is not None:  # NaN would equal no label
        _check_real("missing_value", missing_value, finite=True)
    lines = iter(csv_stream)
    written, width, first = 0, None, 1  # `first` numbers the block's first line
    while block := list(islice(lines, PARSE_BLOCK)):
        cells = _plain_cells(block)
        if cells is not None:
            used, counts = cells[-2:]
            width = width or (int(counts[used.argmax()]) if used.any() else None)
            converted = _plain_rows(*cells, width, label_col, missing_value) if width else ("", 0)
        if cells is None or converted is None:  # csv.reader converts or names the fault
            return written + _csv_convert(chain(block, lines), first, width, out_stream,
                                          label_col, missing_value)
        out_stream.write(converted[0])
        written += converted[1]
        first += len(block)
    return written


def _plain_cells(lines: list[str]):
    """Stripped cells of plain lines, which csv.reader splits at every comma,
    or None if a line is not plain.

    Plain lines are non-empty ASCII text without a ``"``, no longer than
    csv's field size limit.  Each but the block's last ends in a newline, and
    none holds another newline or a carriage return but one before its
    newline.  Returns the text's bytes, them as uint8 padded for `_numbers`,
    each cell's stripped start and end in reading order, and for each line
    its first cell, whether it holds a non-blank cell, and its cell count.
    """
    text = "".join(lines)
    if not text.isascii() or '"' in text:
        return None
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    if not lengths.all() or lengths.max() > csv.field_size_limit():
        return None
    raw = text.encode("ascii")
    buf = np.frombuffer(raw + b" " * 16, dtype=np.uint8)  # a read before buf[0] wraps into this
    ends = np.cumsum(lengths)
    nl = buf[ends - 1] == 10
    cr = nl & (lengths > 1) & (buf[ends - 2] == 13)
    if (not nl[:-1].all() or np.count_nonzero(buf == 10) != np.count_nonzero(nl)
            or np.count_nonzero(buf == 13) != np.count_nonzero(cr)):
        return None
    cut = buf == 44
    cut[ends - nl - cr] = True  # a line's last cell ends at its "\r\n", "\n" or the text's end
    end = np.flatnonzero(cut)
    last = np.flatnonzero(buf[end] != 44)  # each line's last cell
    row = np.append(0, last[:-1] + 1)
    start = np.append(0, end[:-1] + 1)
    start[row] = ends - lengths
    for edge, step, back in ((start, 1, 0), (end, -1, 1)):  # strip both sides
        at = np.flatnonzero(buf[edge - back] <= 32)  # every whitespace byte is one of these
        while (at := at[(start[at] < end[at]) & _is_space(buf[edge[at] - back])]).size:
            edge[at] += step
    return raw, buf, start, end, row, np.logical_or.reduceat(start < end, row), last + 1 - row


def _plain_rows(raw, buf, start, end, row, used, counts, width, label_col, missing_value):
    """LIBSVM text of a plain block's cells and how many rows it holds, or
    None if a check `_csv_row` makes fails."""
    if used.any() and not -width <= label_col < width or np.any(used & (counts != width)):
        return None
    label_col %= width
    at = row[used] + label_col
    at = at[start[at] < end[at]]  # label cells of rows with a label
    labels, bad = _numbers(raw, buf, start[at], end[at], float, np.nan)
    if bad.any():
        return None
    kept = labels != missing_value  # every row when missing_value is None
    at, labels = at[kept], labels[kept]
    cells = at[:, None] + (np.delete(np.arange(width), label_col) - label_col)
    values, bad = _numbers(raw, buf, start[cells].ravel(), end[cells].ravel(), float, np.nan)
    if bad.any() or not (np.isfinite(labels).all() and np.isfinite(values).all()):
        return None
    # Each row is its label, " j:" and cell for each non-zero feature, and "\n": spans of
    # the block's bytes followed by the tags.
    tags = [f" {j}:".encode() for j in range(1, width)] + [b"\n"]
    tag_size = np.fromiter(map(len, tags), np.int64, width)
    tag_start = len(raw) + np.cumsum(tag_size) - tag_size
    spans = np.empty((at.size, 2 * width), dtype=np.int64)
    spans[:, 0], spans[:, 2:-1:2] = start[at], start[cells]
    spans[:, 1::2] = tag_start
    sizes = np.empty_like(spans)
    sizes[:, 0], sizes[:, 2:-1:2] = end[at] - start[at], end[cells] - start[cells]
    sizes[:, 1::2] = tag_size
    shown = np.ones(spans.shape, dtype=bool)
    shown[:, 1:-1:2] = shown[:, 2:-1:2] = values.reshape(cells.shape) != 0
    spans, sizes = spans[shown], sizes[shown]
    # Each span's first byte jumps from the previous span's last one, every other byte steps
    # by one; no span is empty, so the jumps land on distinct output bytes.
    source = np.frombuffer(raw + b"".join(tags), dtype=np.uint8)
    step = np.ones(sizes.sum(), dtype=np.int64)
    step[np.cumsum(sizes) - sizes] = spans - np.append(1, (spans + sizes)[:-1]) + 1
    return source[np.add.accumulate(step, out=step)].tobytes().decode("ascii"), at.size


def _csv_convert(lines, first, width, out_stream, label_col, missing_value) -> int:
    """Convert CSV lines with csv.reader, `first` numbering the first; returns
    rows written.  `width` is the first data row's cell count, or None before
    it.  Rows are written `PARSE_BLOCK` at a time; a fault raises ValueError
    naming its line, and the out stream holds the blocks before it."""
    reader = csv.reader(lines)
    written, text = 0, []
    try:
        for count, row in enumerate(reader, 1):
            if width is None and any(map(str.strip, row)):
                width = len(row)
            try:
                line = _csv_row(row, width, label_col, missing_value)
            except ValueError as err:
                raise ValueError(f"line {reader.line_num + first - 1}: {err}") from None
            if line is not None:
                text.append(line)
            if count % PARSE_BLOCK == 0:
                out_stream.write("".join(text))
                written, text = written + len(text), []
    except csv.Error as err:
        raise ValueError(f"line {reader.line_num + first - 1}: {err}") from None
    out_stream.write("".join(text))
    return written + len(text)


def _csv_row(row, width, label_col, missing_value):
    """LIBSVM line of a CSV row, or None if the row is blank or its label is
    empty or `missing_value`.

    The checks run in reading order, so the ValueError raised names the fault
    reading the row cell by cell meets first.
    """
    if not any(map(str.strip, row)):
        return None
    if not -width <= label_col < width:
        raise ValueError(f"label_col {label_col} is out of range for {width} cells")
    if len(row) != width:
        raise ValueError(f"{len(row)} cells, expected {width} as in the first data row")
    cells = list(row)
    label = cells.pop(label_col).strip()
    if not label or (value := float(label)) == missing_value:
        return None
    values = list(map(float, cells))  # float() names a cell unstripped
    line = " ".join([label] + [f"{j}:{cell.strip()}" for j, (cell, v) in
                               enumerate(zip(cells, values), 1) if v])
    if not all(map(math.isfinite, [value, *values])):
        raise ValueError(f"non-finite cell in {line!r}")
    if not line.isascii():  # float() reads non-ASCII digits, parse_libsvm does not
        raise ValueError(f"non-ASCII cell in {line!r}")
    return line + "\n"
