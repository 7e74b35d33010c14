"""Sparse data model for crowd-labelled classification tasks.

A task consists of items, each labelled by a few workers drawn from a
larger pool. Labels are stored as parallel arrays of (item, worker,
label) triples over dense integer indices; the original string
identifiers are kept in side tables so that predictions can be written
back under the external ids.

File formats (newline-delimited text, comma-separated, no quoting):

* label file:       header ``question,worker,answer``, one triple per line
* truth file:       header ``question,truth``, one item per line
* prediction file:  header ``question,label``, one item per line
"""

from __future__ import annotations

import codecs
import contextlib
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

LABELS_HEADER = "question,worker,answer"
TRUTH_HEADER = "question,truth"
PREDICTIONS_HEADER = "question,label"

# ASCII only: int() folds other scripts' digits into their ASCII twin's class
_INT_LABEL = re.compile(r"^[0-9]+$")
_INT64_MAX = np.iinfo(np.int64).max
_INT64_DIGITS = len(str(_INT64_MAX))


class ParseError(ValueError):
    """A line of an input file is structurally malformed."""


class ValidationError(ValueError):
    """Input parses but violates a data-model invariant."""


@dataclass(eq=False)
class LabelMatrix:
    """Immutable sparse store of crowd labels.

    ``items``, ``workers`` and ``labels`` are parallel arrays, one entry
    per collected label, kept in input order, each index below its count,
    and ``item_ids``, ``worker_ids`` and ``label_names`` hold one name per
    index. Each (item, worker) pair appears at most once. There is at
    least one item and every item has a label; a worker may have none.
    The per-item and per-worker label counts and their maxima are taken
    once, at construction. Every array is read-only, so an instance is
    complete once built and safe to share across concurrent aggregator
    runs.
    """

    items: np.ndarray
    workers: np.ndarray
    labels: np.ndarray
    num_items: int
    num_workers: int
    num_classes: int
    item_ids: tuple[str, ...]
    worker_ids: tuple[str, ...]
    label_names: tuple[str, ...]
    labels_per_item: np.ndarray = field(init=False)    # |W_i|: workers who labelled item i
    labels_per_worker: np.ndarray = field(init=False)  # |N_j|: items worker j labelled
    max_labels_per_item: int = field(init=False)
    max_labels_per_worker: int = field(init=False)

    def __post_init__(self):
        if not self.num_items:
            raise ValidationError("a label matrix needs at least one item")
        for name, ids, bound in (("items", "item_ids", self.num_items),
                                 ("workers", "worker_ids", self.num_workers),
                                 ("labels", "label_names", self.num_classes)):
            names = len(getattr(self, ids))
            if names != bound:
                raise ValidationError(f"{ids} must hold {bound} names, found {names}")
            arr = getattr(self, name)
            if arr.size and not 0 <= arr.min() <= arr.max() < bound:
                raise ValidationError(f"{name} must lie in [0, {bound}), "
                                      f"found {arr.min()}..{arr.max()}")
        self.labels_per_item = _count(self.items, self.num_items)
        self.labels_per_worker = _count(self.workers, self.num_workers)
        for arr in (self.items, self.workers, self.labels,
                    self.labels_per_item, self.labels_per_worker):
            arr.setflags(write=False)
        if not self.labels_per_item.all():
            unlabelled = self.item_ids[int(self.labels_per_item.argmin())]
            raise ValidationError(f"item {unlabelled!r} has no label")
        self.max_labels_per_item = int(self.labels_per_item.max())
        self.max_labels_per_worker = int(self.labels_per_worker.max())

    @property
    def num_labels(self) -> int:
        return self.items.size

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.item_ids)}

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.label_names)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelMatrix):
            return NotImplemented
        return (
            self.num_items == other.num_items
            and self.num_workers == other.num_workers
            and self.num_classes == other.num_classes
            and self.item_ids == other.item_ids
            and self.worker_ids == other.worker_ids
            and self.label_names == other.label_names
            and np.array_equal(self.items, other.items)
            and np.array_equal(self.workers, other.workers)
            and np.array_equal(self.labels, other.labels)
        )

    @classmethod
    def from_triples(
        cls,
        records: Iterable[tuple[str, str, str]],
        item_ids: Sequence[str] | None = None,
        worker_ids: Sequence[str] | None = None,
        num_classes: int | None = None,
    ) -> "LabelMatrix":
        """Build a matrix from (item id, worker id, label) triples.

        Dense indices follow first-appearance order unless an explicit
        id universe is supplied. An explicit worker list may include
        workers that never occur in ``records``; an explicit item list
        only reorders the items, since every item needs a label. When
        every label string is a non-negative integer, the label value is
        its own class index and ``num_classes`` may extend the class
        count beyond the observed maximum; otherwise classes are the
        distinct label strings in first-appearance order.
        """
        records = list(records)
        if not records or set(map(len, records)) != {3}:
            raise ValidationError("expected a non-empty list of (item, worker, label) triples")
        columns = [_codes([r[c] for r in records]) for c in range(3)]
        return _build(columns, num_classes, item_ids, worker_ids)


def _count(index: np.ndarray, n: int) -> np.ndarray:
    """How often each of ``0..n-1`` occurs in ``index``: ``np.bincount``'s
    counts, but ``np.add.at`` reads a read-only ``index`` in place where
    ``np.bincount`` would copy it."""
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, index, 1)
    return counts


def _build(columns, num_classes=None, item_ids=None, worker_ids=None,
           check=None) -> LabelMatrix:
    """Build a matrix from the item, worker and label columns, each given
    as int64 codes over its distinct ids in first-appearance order.

    ``item_ids`` and ``worker_ids``, if given, are those columns' id
    universes in index order. ``check``, if given, gets the first row
    whose (item, worker) pair repeats an earlier row's and the first row
    whose integer label is beyond the int64 range (each the row count if
    there is none), and may raise its own error first.
    """
    (i, items), (w, workers), (k, labels) = columns
    if item_ids is not None:
        i, items = _recode(i, items, item_ids, "item")
    if worker_ids is not None:
        w, workers = _recode(w, workers, worker_ids, "worker")
    repeat = _first_repeat(i * len(workers) + w)
    integer = all(map(_INT_LABEL.match, labels))
    values = list(map(_int_label, labels)) if integer else []
    huge = [c for c, v in enumerate(values) if v > _INT64_MAX]
    too_big = int(np.flatnonzero(np.isin(k, huge))[0]) if huge else k.size
    if check is not None:
        check(repeat, too_big)
    first = min(repeat, too_big)
    if first < k.size:
        raise ValidationError(
            f"duplicate label: worker {workers[w[first]]!r} labelled item "
            f"{items[i[first]]!r} twice" if first == repeat
            else f"integer label {labels[k[first]]!r} is beyond the int64 range"
        )

    if integer:
        k = np.array(values, dtype=np.int64)[k]
        inferred = int(k.max()) + 1
        if num_classes is not None and num_classes < inferred:
            raise ValidationError(
                f"num_classes={num_classes} is below the largest label index "
                f"{inferred - 1}"
            )
        labels = tuple(map(str, range(num_classes or inferred)))
    elif num_classes is not None and num_classes != len(labels):
        raise ValidationError(
            "num_classes can only extend integer label spaces; "
            f"got {num_classes} with {len(labels)} distinct label strings"
        )
    return LabelMatrix(i, w, k, len(items), len(workers), len(labels),
                       items, workers, labels)


def _codes(column: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int64 codes of ``column`` over its distinct values in
    first-appearance order, and those values as a tuple."""
    ids = tuple(dict.fromkeys(column))
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.__getitem__, column), np.int64, len(column)), ids


def _recode(codes, ids, universe, kind: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """``codes`` over ``ids`` re-expressed over the explicit id list
    ``universe``, and that list as a tuple."""
    universe = tuple(universe)
    index = dict(zip(universe, range(len(universe))))
    if len(index) != len(universe):
        raise ValidationError("explicit id list contains duplicates")
    lookup = [index.get(name, -1) for name in ids]
    if -1 in lookup:  # ids are in first-appearance order: this is the first unknown row
        raise ValidationError(f"unknown {kind} id {ids[lookup.index(-1)]!r}")
    return np.array(lookup, dtype=np.int64)[codes], universe


@dataclass(frozen=True, eq=False)
class BinaryView:
    """One-versus-rest view of a label matrix for a focal class.

    Holds, over exactly the observed (item, worker) pairs, the read-only
    index and mask that every iteration of the binary model reads for
    the focal class; everything else it reads from ``matrix``.
    """

    matrix: LabelMatrix
    focal_class: int
    # Per triple, ``item + num_items * y``: the place of its squared
    # residual in a per-item table laid out as ``[z**2, (z - 1)**2]``
    residual_index: np.ndarray
    residual_used: np.ndarray     # which entries of that table it refers to


def vote_counts(matrix: LabelMatrix) -> np.ndarray:
    """Per item, the number of workers voting for each class: a read-only
    (num_items, num_classes) int64 array."""
    flat = np.bincount(
        matrix.items * matrix.num_classes + matrix.labels,
        minlength=matrix.num_items * matrix.num_classes,
    )
    counts = flat.reshape(matrix.num_items, matrix.num_classes)
    counts.setflags(write=False)
    return counts


def binary_view(matrix: LabelMatrix, focal_class: int) -> BinaryView:
    """One-versus-rest view for ``focal_class``."""
    if not 0 <= focal_class < matrix.num_classes:
        raise ValidationError(
            f"focal class {focal_class} out of range [0, {matrix.num_classes})"
        )
    focal = matrix.labels == focal_class
    residual_index = matrix.items + matrix.num_items * focal
    residual_used = np.bincount(residual_index, minlength=2 * matrix.num_items) > 0
    for arr in (residual_index, residual_used):
        arr.setflags(write=False)
    return BinaryView(matrix, focal_class, residual_index, residual_used)


def load_labels(path, num_classes: int | None = None) -> LabelMatrix:
    """Load a label file (header ``question,worker,answer``).

    ``num_classes`` optionally widens an integer label space, e.g. when
    the matching truth file mentions classes no worker ever used.
    """
    columns, fail = _read_columns(path, LABELS_HEADER, 3)
    if not columns[0][0].size:  # no rows, or the first one is malformed
        fail()
        raise ValidationError(f"{path}: no label rows after the header")

    def check(repeat: int, too_big: int) -> None:
        fail((repeat, "duplicate (item, worker) pair ({0!r}, {1!r})"),
             (too_big, "integer label {2!r} is beyond the int64 range"))

    return _build(columns, num_classes, check=check)


def load_truth(path, matrix: LabelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Load a truth file (header ``question,truth``) against ``matrix``.

    Every item id must be known to the matrix, and every truth label
    must map into the matrix's label space. Returns the truth as
    ``(items, labels)``: int64 item and class indices, sorted by item.
    """
    items, labels = _read_item_labels(path, TRUTH_HEADER, matrix, "truth")
    order = np.argsort(items)
    return items[order], labels[order]


def load_predictions(path, matrix: LabelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Load a prediction file (header ``question,label``) against ``matrix``
    under ``load_truth``'s rules: each item's class (0 if it has no row),
    and the mask of items with a row."""
    items, labels = _read_item_labels(path, PREDICTIONS_HEADER, matrix, "prediction")
    predictions = np.zeros(matrix.num_items, dtype=np.int64)
    predictions[items] = labels
    predicted = np.zeros(matrix.num_items, dtype=bool)
    predicted[items] = True
    return predictions, predicted


def _read_item_labels(path, header: str, matrix: LabelMatrix, noun: str):
    """(item indices, class indices) of a two-field file's rows, in file order.

    Each item must be known to ``matrix`` and appear once. In an integer
    label space an integer label is its own class index; any other label
    must be a label name. Each distinct item and label is resolved once.
    """
    ((i, items), (k, labels)), fail = _read_columns(path, header, 2)
    i = np.fromiter(map(matrix.item_index.get, items, repeat(-1)), np.int64, len(items))[i]
    integer = all(map(_INT_LABEL.match, matrix.label_names))
    num_classes = matrix.num_classes

    def resolve(label: str) -> int:
        """The class index, -1 beyond the class count, -2 if unknown."""
        if integer and _INT_LABEL.match(label):
            code = _int_label(label)
            return code if code < num_classes else -1
        return matrix.label_index.get(label, -2)

    k = np.fromiter(map(resolve, labels), np.int64, len(labels))[k]
    fail((_first(i < 0), "unknown item id {0!r}"),
         (_first_repeat(i), f"duplicate {noun} for item {{0!r}}"),
         (_first(k == -1), f"{noun} label {{1!r}} outside the {num_classes}-class label space"),
         (_first(k == -2), f"unknown {noun} label {{1!r}}"))
    return i, k


def _int_label(label: str) -> int:
    """An ASCII-digit label's value, or int64's maximum + 1 for any larger
    one, which keeps ``int()`` clear of its 4,300-digit limit."""
    digits = label.lstrip("0")
    return int(digits or "0") if len(digits) <= _INT64_DIGITS else _INT64_MAX + 1


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or its length if none."""
    return int(mask.argmax()) if mask.any() else mask.size


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, or the length if none."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():  # no repeat: nothing to locate
        return keys.size
    repeated = np.ones(keys.size, dtype=bool)
    repeated[_first_appearance(keys)[1]] = False
    return _first(repeated)


# The byte scanner below splits lines and strips fields by exactly the
# rules of str.splitlines and str.strip: these are the code points each
# one acts on (the 10 line breaks, then the other 19 of str.isspace's 29).
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = ("\t\x1f \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
           "\u2008\u2009\u200a\u202f\u205f\u3000")
_BREAK, _SPACE, _COMMA = 1, 2, 3
_ASCII_CLASS = np.zeros(256, dtype=np.uint8)
_WIDE: dict[bytes, int] = {}  # each non-ASCII break's and space's UTF-8 bytes, and class
for _cls, _chars in ((_BREAK, _BREAKS), (_SPACE, _SPACES), (_COMMA, ",")):
    for _c in _chars:
        if _c.isascii():
            _ASCII_CLASS[ord(_c)] = _cls
        else:
            _WIDE[_c.encode()] = _cls
_WIDE_LEADS = sorted({seq[0] for seq in _WIDE})
# A field's first _KEY_BYTES bytes pack into its key, 8 to a uint64 word;
# a longer field is told apart by its whole bytes.
_KEY_BYTES = 32
_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


#: From this many bytes up, in a process that may use two or more CPUs,
#: ``_read_columns`` reads a file on two threads. Below it the thread
#: hand-off costs more than the split saves: on 2 cores a split read
#: broke even near 150 kB, taking 1.06x as long at 140 kB and 0.92x at
#: 268 kB.
_SPLIT_MIN_BYTES = 1 << 18


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _two_threads(size: int, minimum: int) -> bool:
    """Whether work of ``size`` splits over two threads: it is at least the
    site's gate ``minimum``, and this process may use two or more CPUs."""
    return size >= minimum and _usable_cpus() >= 2


@contextlib.contextmanager
def _helper(split: bool):
    """One helper thread for ``_on_parts`` if ``split``, else ``None``.

    Each call makes its own helper, so concurrent callers never queue
    behind one another's work. There is one helper, not a pool: glibc
    gives each thread a malloc arena that keeps its peak after the
    thread's temporaries are freed.
    """
    if not split:
        yield None
        return
    # imported here, since it pulls in logging: start-up time that only
    # work large enough to split pays
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="crowdbwa-helper") as helper:
        yield helper


def _on_parts(helper, step, parts, *args) -> list:
    """``step(part, *args)`` for every part, in a list in the order of ``parts``.

    With a helper and two parts, the calling thread runs the first part
    while the helper runs the second, and an exception on either thread
    re-raises here; if both raise, the caller's does, once the helper has
    stopped. With no helper, or only one part, the parts run one after
    another on the calling thread and no thread starts.
    """
    if helper is None or len(parts) == 1:
        return [step(part, *args) for part in parts]
    pending = helper.submit(step, parts[1], *args)
    return [step(parts[0], *args), pending.result()]


def _read_columns(path, header: str, width: int):
    """Split a ``width``-field file's non-blank rows into stripped columns.

    Returns the columns of the rows before the first malformed one (a row
    without ``width`` non-empty comma-separated fields), each as
    ``(codes, values)``: int64 codes over the column's distinct values in
    first-appearance order. Also returns ``fail(*faults)``, which raises
    ``path:lineno: message`` for the first fault in file order. A fault
    is ``(row, message)``, with the message formatted with the row's
    fields and ``row`` the column length for none; the malformed row, if
    any, is a fault at that row.

    Lines end at each of str.splitlines' breaks (``\\r\\n`` is one), and
    str.strip's whitespace is stripped from lines and fields. The file
    is scanned as bytes: only ASCII bytes and the UTF-8 encodings of
    the wider breaks and spaces can split or pad a field.

    A file of ``_SPLIT_MIN_BYTES`` or more, in a process that may use
    two or more CPUs, is cut just after the first ``\\n`` at or past its
    middle. No line, field or UTF-8 sequence crosses that cut, so its
    two halves are scanned as two parts of ``_on_parts`` and join into
    the one-pass scan's rows; then the first column is factorised as
    the second part and the others as the first.
    """
    data = Path(path).read_bytes()
    ascii_only = data.decode("utf-8-sig").isascii()  # the codec's own error if invalid
    data = data.removeprefix(codecs.BOM_UTF8)
    size = len(data)
    nul = b"\0" in data  # looked for before the zero padding goes on
    data += bytes(_KEY_BYTES + 8)  # what key words read past the end is masked off
    bytes_ = np.frombuffer(data, dtype=np.uint8)
    cut = size
    if _two_threads(size, _SPLIT_MIN_BYTES):
        cut = data.find(b"\n", size // 2, size) + 1 or size
    halves = [(0, cut), (cut, size)] if cut < size else [(0, size)]
    with _helper(cut < size) as helper:
        rows, *rest = _on_parts(helper, _scan, halves, bytes_, ascii_only, width)
        if not rows.head:
            raise ValidationError(f"{path}: empty file (expected header {header!r})")
        if rows.head != header:
            raise ParseError(f"{path}:1: bad header {rows.head!r} (expected {header!r})")
        for more in rest:
            rows.join(more)
        # the item column is the second part; the step pops each column's
        # offsets, so they are freed once that column is factorised
        item_spans = [rows.fields.pop(0)]
        later, first = _on_parts(helper, _factorise_all, [rows.fields, item_spans], data, nul)
    columns = first + later
    lines, bad = rows.lines, rows.bad
    good = columns[0][0].size

    def fail(*faults: tuple[int, str]) -> None:
        at, p = min((fault[0], p) for p, fault in enumerate([(good,), *faults]))
        if at == lines.size:
            return
        if p:
            error = ValidationError
            message = faults[p - 1][1].format(*(ids[codes[at]] for codes, ids in columns))
        else:
            error = ParseError
            message = (f"expected {width} non-empty comma-separated fields, "
                       f"got {bad.decode()!r}")
        raise error(f"{path}:{lines[at] + 1}: {message}")

    return columns, fail


@dataclass
class _Rows:
    """The rows of a run of whole lines, up to its first malformed one.

    ``lines`` holds each row's line index in the run, and then the
    malformed row's, if there is one: its stripped bytes are ``bad``.
    ``fields`` holds per column the rows' stripped field offsets in the
    file, as a pair of contiguous arrays: starts and ends. ``head`` is
    the run's first line, stripped, when that line is a header.
    """

    count: int  # lines in the run
    lines: np.ndarray
    bad: bytes | None
    fields: list[tuple[np.ndarray, np.ndarray]]
    head: str

    def join(self, rest: "_Rows") -> None:
        """Append the rows of the run of lines that follows this one."""
        if self.bad is not None:  # rows past a malformed one are never read
            return
        self.lines = np.concatenate((self.lines, rest.lines + self.count))
        self.bad, mine, self.fields = rest.bad, self.fields, []
        while mine:  # popped, so each half's pair is freed once joined
            (starts, ends), (more_starts, more_ends) = mine.pop(0), rest.fields.pop(0)
            self.fields.append((np.concatenate((starts, more_starts)),
                                np.concatenate((ends, more_ends))))


def _scan(span, bytes_: np.ndarray, ascii_only: bool, width: int) -> _Rows:
    """The ``width``-field rows of ``bytes_[start:stop]``, with ``span``
    the offsets ``(start, stop)``, which end at a line break or at the end
    of the file. A span from the file's start holds its header line,
    which is no row."""
    start, stop = span
    header = start == 0
    commas, (breaks, after), runs = _tokens(bytes_, start, stop, ascii_only)
    # Line n runs from the end of break n - 1 to the start of break n
    starts = np.concatenate(([start], after), dtype=after.dtype)
    ends = np.concatenate((breaks, [stop]), dtype=breaks.dtype)
    if starts[-1] == stop:  # no line after a final break
        starts, ends = starts[:-1], ends[:-1]
    del breaks, after
    count = starts.size
    starts, ends = _strip(runs, starts, ends)
    head = bytes_[starts[0]:ends[0]].tobytes().decode() if header and count else ""
    skip = 1 if header else 0
    lines = (skip + np.flatnonzero(starts[skip:] < ends[skip:])).astype(starts.dtype)
    starts, ends = starts[lines], ends[lines]
    # Rows before ``good`` have width - 1 commas, and then all fields non-empty
    first_comma = np.searchsorted(commas, starts)
    good = _first(np.diff(first_comma, append=commas.size) != width - 1)
    commas = commas[first_comma[0] if good else 0:][:good * (width - 1)]
    del first_comma
    fields = [_strip(runs, commas[c - 1::width - 1] + 1 if c else starts[:good],
                     commas[c::width - 1].copy() if c < width - 1 else ends[:good])
              for c in range(width)]
    del commas, runs
    good = min(_first(field_starts == field_ends) for field_starts, field_ends in fields)
    bad = bytes_[starts[good]:ends[good]].tobytes() if good < starts.size else None
    return _Rows(count, lines[:good + 1], bad,
                 [(field_starts[:good], field_ends[:good]) for field_starts, field_ends in fields],
                 head)


def _tokens(bytes_: np.ndarray, start: int, stop: int, ascii_only: bool):
    """The comma offsets of ``bytes_[start:stop]``; the start and end
    offsets of its line breaks; and those of its maximal runs of
    whitespace other than breaks. Offsets are int32 while ``bytes_``
    is under 2 GiB, which halves every offset array's memory."""
    dtype = np.int32 if bytes_.size <= np.iinfo(np.int32).max else np.int64
    low = np.flatnonzero(bytes_[start:stop] <= ord(",")).astype(dtype)  # no class byte is above
    low += start
    cls = _ASCII_CLASS[bytes_[low]]
    commas, breaks, spaces = (low[cls == c] for c in (_COMMA, _BREAK, _SPACE))
    del low, cls
    crlf = (bytes_[breaks] == ord("\r")) & (bytes_[breaks + 1] == ord("\n"))
    if crlf.any():  # the \n of a \r\n is no break of its own
        keep = np.ones(breaks.size, dtype=bool)
        keep[1:] = ~crlf[:-1]
        breaks, crlf = breaks[keep], crlf[keep]
    breaks, spaces = (breaks, breaks + 1 + crlf), (spaces, spaces + 1)
    if not ascii_only:
        breaks, spaces = _add_wide(bytes_, start, stop, breaks, spaces)
    spaces, after = spaces
    new = np.ones(spaces.size, dtype=bool)  # where a run starts
    new[1:] = spaces[1:] != after[:-1]
    runs = spaces[new], after[np.roll(new, -1)]
    return commas, breaks, runs


def _add_wide(bytes_: np.ndarray, start: int, stop: int, breaks, spaces):
    """``breaks`` and ``spaces``, each (starts, ends), merged with the
    non-ASCII ones in ``bytes_[start:stop]``."""
    lead = np.flatnonzero(np.isin(bytes_[start:stop], _WIDE_LEADS)).astype(breaks[0].dtype)
    lead += start
    found = {_BREAK: [breaks], _SPACE: [spaces]}
    for seq, cls in _WIDE.items():
        at = lead[np.all([bytes_[lead + n] == b for n, b in enumerate(seq)], axis=0)]
        found[cls].append((at, at + len(seq)))
    merged = []
    for spans in found.values():
        starts, ends = map(np.concatenate, zip(*spans))
        order = np.argsort(starts)
        merged.append((starts[order], ends[order]))
    return merged


def _strip(runs, starts, ends):
    """``starts`` and ``ends`` moved past leading and before trailing
    whitespace ``runs``; a span of only whitespace ends where it starts."""
    run_starts, run_ends = runs
    if not run_starts.size:
        return starts, ends
    at = np.minimum(np.searchsorted(run_starts, starts), run_starts.size - 1)
    starts = np.where(run_starts[at] == starts, run_ends[at], starts)
    at = np.minimum(np.searchsorted(run_ends, ends), run_ends.size - 1)
    ends = np.maximum(np.where(run_ends[at] == ends, run_starts[at], ends), starts)
    return starts, ends


def _factorise_all(spans: list, data: bytes, nul: bool) -> list:
    """``_factorise`` of each of ``spans``, popped so that each column's
    offsets are freed once it is factorised."""
    return [_factorise(data, spans.pop(0), nul) for _ in range(len(spans))]


def _factorise(data: bytes, span, nul: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    """First-appearance codes of the fields ``data[starts:ends]``, with
    ``span`` the offsets ``(starts, ends)``, and the distinct fields
    decoded. ``nul``: whether ``data`` holds a NUL byte, which zero
    padding would confuse with a shorter field's end."""
    starts, ends = span
    if not starts.size:
        return np.empty(0, dtype=np.int64), ()
    lengths = ends - starts
    del span, ends
    packed = np.minimum(lengths, _KEY_BYTES)
    # Element n of ``words`` holds data[n:n + 8], the first byte lowest
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    key = None
    for offset in range(0, int(packed.max()), 8):
        word = words[starts + offset] & _WORD_MASKS[np.clip(packed - offset, 0, 8)]
        key = word if key is None else _fold(key, word)
    del packed, word
    long = np.flatnonzero(lengths > _KEY_BYTES)
    if long.size:
        seen: dict[bytes, int] = {}
        whole = np.zeros(starts.size, dtype=np.int64)
        whole[long] = [seen.setdefault(data[a:b], len(seen) + 1)
                       for a, b in zip(starts[long].tolist(),
                                       (starts[long] + lengths[long]).tolist())]
        key = _fold(key, whole)
        del whole
    del long
    if nul:
        key = _fold(key, lengths)
    codes, first = _first_appearance(key)
    # One decode of the distinct fields, each followed by a \n (no field holds one)
    starts, lengths = starts[first], lengths[first] + 1
    offsets = np.cumsum(lengths) - lengths
    text = np.frombuffer(data, dtype=np.uint8)[
        np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)]
    text[offsets + lengths - 1] = ord("\n")
    return codes, tuple(text[:-1].tobytes().decode().split("\n"))


def _fold(key: np.ndarray, word: np.ndarray) -> np.ndarray:
    """One int64 key per row that tells apart rows unequal in ``key`` or ``word``."""
    key, distinct = _first_appearance(key)
    top = int(word.max()) + 1
    if top > _INT64_MAX // len(distinct):
        word, top = _first_appearance(word)[0], word.size
    return key * top + word.astype(np.int64)


def _first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 codes of ``key``'s values, numbered in order of first
    appearance, and the row where each value first appears."""
    order = np.argsort(key)
    ordered = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    heads = np.flatnonzero(new)
    del new
    first = np.minimum.reduceat(order, heads)
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    codes = np.empty(key.size, dtype=np.int64)
    codes[order] = np.repeat(rank, np.append(heads[1:], key.size) - heads)
    return codes, first[by_first]


def save_labels(matrix: LabelMatrix, path) -> None:
    """Write ``matrix`` in the label file format, preserving triple order."""
    _write_rows(path, LABELS_HEADER, (matrix.item_ids, matrix.items, "item id"),
                (matrix.worker_ids, matrix.workers, "worker id"),
                (matrix.label_names, matrix.labels, "label"))


def save_truth(truth: tuple[np.ndarray, np.ndarray], matrix: LabelMatrix, path) -> None:
    """Write ``truth``, ``(items, labels)`` sorted by item, in the truth
    file format."""
    items, labels = truth
    _write_rows(path, TRUTH_HEADER, (matrix.item_ids, items, "item id"),
                (matrix.label_names, labels, "label"))


def save_predictions(labels: np.ndarray, matrix: LabelMatrix, path) -> None:
    """Write one predicted class per item in the prediction file format."""
    _write_rows(path, PREDICTIONS_HEADER, (matrix.item_ids, None, "item id"),
                (matrix.label_names, labels, "label"))


def _check_names(names: Sequence[str], kind: str) -> None:
    """Raise ``ValidationError`` naming the first of ``names`` that the
    reader would not read back as written: one that is empty, holds a
    comma or a line break, or starts or ends with whitespace."""
    names = tuple(names)
    text = ",".join(names)  # one C-level scan per character covers every name
    if (text.count(",") < len(names) and not any(map(text.__contains__, _BREAKS))
            and "" not in names and (not any(map(text.__contains__, _SPACES))
                                     or tuple(map(str.strip, names)) == names)):
        return
    bad = [name for name in names if not name or name != name.strip()
           or any(map(name.__contains__, "," + _BREAKS))]
    if bad:
        raise ValidationError(
            f"cannot save {kind} {bad[0]!r}: a name must be non-empty, hold no "
            "comma or line break, and neither start nor end with whitespace"
        )


def _write_rows(path, header: str, *columns) -> None:
    """Write ``header`` and then one row per code. Each column is
    ``(names, codes, kind)``: the field of code c is ``names[c]``, and
    codes of None stand for every name in order. Every column's names
    pass ``_check_names`` before the file is opened.

    Each distinct name gets its separator once, and the rows' fields
    are interleaved into one list that is joined once.
    """
    fields = []
    for n, (names, codes, kind) in enumerate(columns, 1):
        _check_names(names, kind)
        end = "\n" if n == len(columns) else ","
        cells = [name + end for name in names]
        fields.append(cells if codes is None else np.array(cells, dtype=object)[codes].tolist())
    out = [None] * (1 + len(fields[0]) * len(fields))
    out[0] = header + "\n"
    for n, cells in enumerate(fields):
        out[1 + n::len(fields)] = cells
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(out))
