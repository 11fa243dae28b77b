"""Data model for logit matrices, labels and robustness flags, with bit-exact
text and binary persistence.

Binary layout: magic b"LGT1", two little-endian uint32 counts (rows, cols),
then rows*cols little-endian float64 values in row-major order.

Text layout: first line "rows,cols", then one comma-separated line per row,
values printed with 17 significant digits, enough to round-trip any double.

Labels and flags are one integer per line. One line reader, read_lines, reads
every text input: matrices, labels, flags, manifold listings and report's CSVs.
A numeric cell holds ASCII only, no digit separator "_" and no whitespace but
spaces and tabs (lenient). A matrix must be a regular file, whose size bounds
its header's promise before any allocation; other inputs may be pipes. While
`reads` holds a dict (the CLI sets one per command), each load keeps there the
SHA-256 of exactly the bytes it reads, under str(path).
"""

from __future__ import annotations

import errno
import hashlib
import os
import struct
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

MAGIC = b"LGT1"
# Values per block of a row-blocked whole-matrix kernel: 1 MiB of float64.
BLOCK_VALUES = 1 << 17
READ_BYTES = 4 * BLOCK_VALUES  # per read of a text input: half a block of float64
reads: ContextVar[Optional[dict]] = ContextVar("reads", default=None)


class StoreError(Exception):
    """Base error for persistence and validation failures."""


class ParseError(StoreError):
    """Malformed file content; message names the offending row/column."""


class ValidationError(StoreError):
    """Component invariant violation; message names the offending index."""


def row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """Slices of consecutive rows holding about BLOCK_VALUES values each."""
    step = max(1, BLOCK_VALUES // max(cols, 1))
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))


def row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1), squaring one block of rows at a time."""
    norms = np.empty(x.shape[0])
    for b in row_blocks(*x.shape):
        norms[b] = np.linalg.norm(x[b], axis=1)
    return norms


def first_non_finite(x: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, column) of the first non-finite value of a 2-D x in row-major
    order, or None if every value is finite; tests one block of rows at a time."""
    for b in row_blocks(*x.shape):
        if not (finite := np.isfinite(x[b])).all():
            return divmod(b.start * x.shape[1] + int(np.argmin(finite)), x.shape[1])
    return None


def descending_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort the last axis by descending value, ties by ascending
    index: np.argsort(-values, axis=-1, kind="stable"), from one unstable sort
    of packed keys.

    A value's key is the bits of 0.0 - value as an int64 made monotone in the
    float (0.0 - value, so -0.0 and 0.0 tie), with its low b bits replaced by
    its index, b the bit length of cols - 1. A row's keys are distinct, so any
    sort orders them as the stable argsort does wherever neighbours differ in
    their high bits or in no bit of their value. The rest, rows holding two
    distinct values within 2**b ulps or a NaN, take the stable argsort."""
    cols = values.shape[-1]
    low = (1 << max(cols - 1, 0).bit_length()) - 1
    v = values.reshape(-1, cols)
    keys = np.subtract(0.0, v, dtype=np.float64).view(np.int64)
    keys ^= (keys >> 63) & np.int64(2**63 - 1)  # flip a negative's magnitude bits
    keys &= ~low
    keys |= np.arange(cols)
    keys.sort(axis=-1)
    near = (keys[:, 1:] ^ keys[:, :-1]).view(np.uint64) <= low  # neighbours sharing high bits
    order = np.bitwise_and(keys, low, out=keys)
    nan = np.isnan(v).any(axis=1)
    check = np.flatnonzero(near.any(axis=1) | nan)
    if check.size:
        ranked = v.take(order[check] + cols * check[:, None])
        unequal = near[check] & (ranked[:, 1:] != ranked[:, :-1])
        redo = check[nan[check] | unequal.any(axis=1)]
        order[redo] = np.argsort(-v[redo], axis=-1, kind="stable")
    return order.reshape(values.shape)


def class_positions(values: np.ndarray) -> np.ndarray:
    """Per row, each column's 0-based place in descending_order (its inverse),
    in the smallest unsigned dtype that holds cols - 1."""
    rows, cols = values.shape
    positions = np.empty((rows, cols), dtype=np.min_scalar_type(cols - 1))
    places = np.arange(cols, dtype=positions.dtype)[None, :]
    for b in row_blocks(rows, cols):
        np.put_along_axis(positions[b], descending_order(values[b]), places, axis=1)
    return positions


def _checked(arr: np.ndarray) -> np.ndarray:
    """arr, if it is a valid logit matrix; else ValidationError naming why."""
    if arr.ndim != 2:
        raise ValidationError(f"logit matrix must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ValidationError("logit matrix needs at least one row")
    if arr.shape[1] < 2:
        raise ValidationError("logit matrix needs at least two columns")
    bad = first_non_finite(arr)
    if bad is not None:
        raise ValidationError("non-finite logit at row %d, column %d" % bad)
    return arr


@dataclass(frozen=True)
class LogitMatrix:
    """N_data x N_classes matrix of finite float64 logits."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked(np.asarray(self.values, dtype=np.float64)).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of each row (read-only), computed on first use."""
        norms = row_norms(self.values)
        norms.setflags(write=False)
        return norms

    @cached_property
    def positions(self) -> np.ndarray:
        """Each row's 0-based class positions under descending order, ties by
        ascending class index (read-only, uint8 up to 256 classes), computed
        on first use."""
        positions = class_positions(self.values)
        positions.setflags(write=False)
        return positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogitMatrix):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )


@dataclass(frozen=True)
class LabelVector:
    """Ground-truth class indices, one per sample."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels, dtype=np.int64)
        if arr.ndim != 1:
            raise ValidationError("labels must be a 1-D sequence")
        if arr.size and arr.min() < 0:
            i = int(np.argmin(arr))
            raise ValidationError(f"negative label at index {i}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class RobustFlags:
    """Per-sample booleans; true means the sample survived the attack."""

    flags: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.flags, dtype=bool).copy()
        if arr.ndim != 1:
            raise ValidationError("flags must be a 1-D sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "flags", arr)

    def __len__(self) -> int:
        return self.flags.size


@dataclass(frozen=True)
class DatasetBundle:
    """Logits plus labels, with optional robustness flags."""

    logits: LogitMatrix
    labels: LabelVector
    flags: Optional[RobustFlags] = None


def validate_bundle(
    logits: LogitMatrix,
    labels: LabelVector,
    flags: Optional[RobustFlags] = None,
) -> DatasetBundle:
    """Assemble a bundle, checking that all cross-component invariants hold."""
    if len(labels) != logits.rows:
        raise ValidationError(
            f"labels length mismatch: {len(labels)} labels for {logits.rows} rows"
        )
    out = labels.labels >= logits.cols
    if out.any():
        i = int(np.argmax(out))
        raise ValidationError(f"label out of range at index {i}: {labels.labels[i]}")
    if flags is not None and len(flags) != logits.rows:
        raise ValidationError(
            f"flags length mismatch: {len(flags)} flags for {logits.rows} rows"
        )
    return DatasetBundle(logits, labels, flags)


def _recorder(path: str | Path) -> Callable[[object], None]:
    """The update of a SHA-256 begun afresh under str(path) in reads, or a
    no-op when reads is unset; a loader passes it each buffer it reads."""
    seen = reads.get()
    if seen is None:
        return lambda data: None
    seen[str(path)] = digest = hashlib.sha256()
    return digest.update


def refuse_directories(paths: Iterable[Path]) -> None:
    """IsADirectoryError for the first path that is an existing directory, so
    a write of several files can refuse before it writes the first."""
    for p in paths:
        if p.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(p))


def write_rows(path: str | Path, header: str, columns: Sequence) -> None:
    """Write the header line, then one line per row of the equal-length
    columns, a row at a time: a column of integers (numpy's, or Python's of
    any size) as str() writes them, every other value as %.17g."""
    line = ",".join("%d" if isinstance(next(iter(c), 0.0), (int, np.integer)) else "%.17g"
                    for c in columns) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(line % row for row in zip(*columns, strict=True))


def store_matrix(m: LogitMatrix, path: str | Path, format: str = "binary") -> None:
    """Write a matrix to disk. Binary is bit-exact; text is value-exact."""
    path = Path(path)
    try:
        if format == "binary":
            with open(path, "wb") as f:
                f.write(MAGIC)
                f.write(struct.pack("<II", m.rows, m.cols))
                f.write(np.ascontiguousarray(m.values, dtype="<f8").data)
        elif format == "text":
            write_rows(path, f"{m.rows},{m.cols}", m.values.T)
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as e:
        raise StoreError(f"cannot write {path}: {e}") from e


def load_matrix(path: str | Path, format: str = "binary") -> LogitMatrix:
    """Read a matrix written by :func:`store_matrix`. A refusal names the file."""
    path = Path(path)
    if format not in ("binary", "text"):
        raise ValueError(f"unknown format {format!r}")
    # stat, never open, so a FIFO does not block; a missing path or a directory: "cannot read"
    if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        raise StoreError(f"{path}: a logit matrix must be a regular file")
    try:
        return _load_binary(path) if format == "binary" else _load_text(path)
    except ValidationError as e:  # a shape error; a non-finite value is a ParseError
        raise ValidationError(f"{path}: {e}") from None


def _load_binary(path: Path) -> LogitMatrix:
    record = _recorder(path)
    try:
        with open(path, "rb") as f:
            head = f.read(12)
            record(head)
            if len(head) < 12 or head[:4] != MAGIC:
                raise ParseError(f"{path}: missing LGT1 header")
            rows, cols = struct.unpack("<II", head[4:12])
            size = 8 * rows * cols
            payload = os.fstat(f.fileno()).st_size - 12
            if payload == size:  # checked before the array is allocated
                vals = np.empty((rows, cols), dtype="<f8")
                payload = f.readinto(vals)
                record(vals.view(np.uint8).reshape(-1)[:payload])
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e
    if payload != size:
        raise ParseError(
            f"{path}: payload is {payload} bytes, header promises {size} ({rows}x{cols})"
        )
    try:
        return _adopt(vals.astype(np.float64, copy=False))
    except ValidationError:  # a non-finite value is named before a shape error
        _refuse_non_finite(path, vals)
        raise


def _refuse_non_finite(path: Path, vals: np.ndarray) -> None:
    """ParseError naming the first non-finite value of vals, if it has one."""
    bad = first_non_finite(vals)
    if bad is not None:
        r, c = bad
        raise ParseError(f"{path}: non-finite value at row {r}, column {c}") from None


def _adopt(arr: np.ndarray) -> LogitMatrix:
    """A LogitMatrix over arr itself: the constructor's checks without its
    copy, for an array just read or built that nothing else references."""
    m = object.__new__(LogitMatrix)
    _checked(arr).setflags(write=False)
    object.__setattr__(m, "values", arr)
    return m


def lenient(text: str) -> bool:
    """Whether text holds what int() and float() accept but no number logitlab
    writes holds: a non-ASCII character ("٣", "\x85"), a digit separator "_",
    or whitespace other than spaces and tabs (a line holds no "\n")."""
    return not text.isascii() or "_" in text or "\r" in text or "\v" in text or "\f" in text


def number(kind: type, text: str):
    """kind(text) for kind int or float; ValueError also where text is lenient."""
    if lenient(text):
        raise ValueError(f"lenient number {text!r}")
    return kind(text)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(i, line) for each non-blank line of a UTF-8 text file, split on "\\n"
    or "\\r\\n" only and i counting every line from 1, as an editor does;
    a blank line holds only spaces and tabs, so a line of other whitespace
    reaches its parser. Decodes READ_BYTES of whole lines at a time."""
    i = 1
    record = _recorder(path)
    try:
        with open(path, "rb") as f:
            while data := f.read(READ_BYTES) + f.readline():
                record(data)
                try:
                    text = data.decode()
                except UnicodeDecodeError as e:  # named by its offset in the file
                    at = f.tell() - len(data) + e.start
                    raise ParseError(f"{path}: not text ({e.reason} at byte {at})") from None
                # replace() costs most of a split, so a file without "\r" skips it
                lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
                if not lines[-1]:  # the empty piece after the final newline
                    lines.pop()
                yield from compress(zip(count(i), lines), map(str.strip, lines, repeat(" \t")))
                i += len(lines)
    except OSError as e:
        raise StoreError(f"cannot read {path}: {e}") from e


def _load_text(path: Path) -> LogitMatrix:
    lines = read_lines(path)
    _, header = next(lines, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    try:
        rows, cols = (number(int, c) for c in header.split(","))
    except ValueError:
        why = "non-integer header" if header.count(",") == 1 else "header must be 'rows,cols', got"
        raise ParseError(f"{path}: {why} {header!r}") from None
    if rows < 0 or cols < 0:
        raise ParseError(f"{path}: negative size in header {header!r}")
    size = os.path.getsize(path)
    if max(rows, 1) * max(cols, 1) > size:  # each value takes a byte or more
        raise ParseError(f"{path}: header {header!r} is too large for a file of {size} bytes")
    vals = np.zeros((rows, cols), dtype=np.float64)  # the check below reads row n too
    n = 0  # rows parsed
    try:
        for _, line in islice(lines, rows):
            parts = line.split(",")
            if len(parts) != cols:
                raise ParseError(f"{path}: row {n} has {len(parts)} values, expected {cols}")
            try:
                if lenient(line):  # the loop below names the cell
                    raise ValueError(line)
                vals[n] = list(map(float, parts))
            except ValueError:  # keep the cells before the bad one for the check below
                for c, tok in enumerate(parts):
                    try:
                        vals[n, c] = number(float, tok)
                    except ValueError:
                        raise ParseError(
                            f"{path}: unparseable value at row {n}, column {c}") from None
            n += 1
        n += sum(1 for _ in lines)  # lines beyond the promised rows
        if n != rows:
            raise ParseError(f"{path}: header promises {rows} rows, found {n}")
        return _adopt(vals)
    except StoreError:  # a non-finite value earlier in row-major order comes first
        _refuse_non_finite(path, vals[:n + 1])
        raise


def store_labels(labels: LabelVector, path: str | Path) -> None:
    Path(path).write_text("".join(f"{v}\n" for v in labels.labels))


def load_labels(path: str | Path) -> LabelVector:
    path = Path(path)
    vals = []
    for i, ln in read_lines(path):
        try:
            vals.append(number(int, ln))
        except ValueError as e:
            raise ParseError(f"{path}: unparseable label at line {i}") from e
        if vals[-1] < 0:
            raise ParseError(f"{path}: negative label at line {i}")
        if vals[-1] >= 2**63:
            raise ParseError(f"{path}: label at line {i} does not fit in int64")
    return LabelVector(np.array(vals, dtype=np.int64))


def store_flags(flags: RobustFlags, path: str | Path) -> None:
    Path(path).write_text("".join(f"{int(v)}\n" for v in flags.flags))


def load_flags(path: str | Path) -> RobustFlags:
    path = Path(path)
    vals = []
    for i, ln in read_lines(path):
        tok = ln.strip(" \t")
        if tok not in ("0", "1"):
            raise ParseError(f"{path}: flag at line {i} must be 0 or 1, got {tok!r}")
        vals.append(tok == "1")
    return RobustFlags(np.array(vals, dtype=bool))
