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

import re
from dataclasses import dataclass
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
    per collected label, kept in input order. Each (item, worker) pair
    appears at most once. Instances are immutable after construction and
    safe to share across concurrent aggregator runs.
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

    def __post_init__(self):
        for arr in (self.items, self.workers, self.labels):
            arr.setflags(write=False)

    @property
    def num_labels(self) -> int:
        return self.items.size

    @cached_property
    def labels_per_item(self) -> np.ndarray:
        """|W_i|: number of workers who labelled each item."""
        counts = np.bincount(self.items, minlength=self.num_items)
        counts.setflags(write=False)
        return counts

    @cached_property
    def labels_per_worker(self) -> np.ndarray:
        """|N_j|: number of items each worker labelled."""
        counts = np.bincount(self.workers, minlength=self.num_workers)
        counts.setflags(write=False)
        return counts

    @cached_property
    def max_labels_per_item(self) -> int:
        """The largest |W_i| (0 without labels)."""
        return int(self.labels_per_item.max(initial=0))

    @cached_property
    def max_labels_per_worker(self) -> int:
        """The largest |N_j| (0 without labels)."""
        return int(self.labels_per_worker.max(initial=0))

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.item_ids)}

    @cached_property
    def worker_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.worker_ids)}

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
        id universe is supplied (which may include items or workers that
        never occur in ``records``). When every label string is a
        non-negative integer, the label value is its own class index and
        ``num_classes`` may extend the class count beyond the observed
        maximum; otherwise classes are the distinct label strings in
        first-appearance order.
        """
        records = list(records)
        if not records or set(map(len, records)) != {3}:
            raise ValidationError("expected a non-empty list of (item, worker, label) triples")
        columns = ([r[c] for r in records] for c in range(3))
        return _build(*columns, num_classes, item_ids, worker_ids)


def _build(items, workers, labels, num_classes=None, item_keys=None,
           worker_keys=None, label_keys=None, check=None) -> LabelMatrix:
    """Build a matrix from parallel item, worker and label string columns.

    A ``*_keys`` argument is that column's id universe in index order
    (default: its distinct values in first-appearance order). ``check``,
    if given, gets the first row whose (item, worker) pair repeats an
    earlier row's and the first row whose integer label is beyond the
    int64 range (each ``len(items)`` if there is none), and may raise
    its own error first.
    """
    i, item_ids = _factorise(items, item_keys, "item")
    w, worker_ids = _factorise(workers, worker_keys, "worker")
    repeat = _first_repeat(i * len(worker_ids) + w)
    k, label_names = _factorise(labels, label_keys, "label")
    integer = all(map(_INT_LABEL.match, label_names))
    values = list(map(_int_label, label_names)) if integer else []
    huge = [c for c, v in enumerate(values) if v > _INT64_MAX]
    too_big = int(np.flatnonzero(np.isin(k, huge))[0]) if huge else len(items)
    if check is not None:
        check(repeat, too_big)
    first = min(repeat, too_big)
    if first < len(items):
        raise ValidationError(
            f"duplicate label: worker {workers[first]!r} labelled item {items[first]!r} twice"
            if first == repeat else f"integer label {labels[first]!r} is beyond the int64 range"
        )

    if integer:
        k = np.array(values, dtype=np.int64)[k]
        inferred = int(k.max()) + 1
        if num_classes is not None and num_classes < inferred:
            raise ValidationError(
                f"num_classes={num_classes} is below the largest label index "
                f"{inferred - 1}"
            )
        label_names = tuple(map(str, range(num_classes or inferred)))
    elif num_classes is not None and num_classes != len(label_names):
        raise ValidationError(
            "num_classes can only extend integer label spaces; "
            f"got {num_classes} with {len(label_names)} distinct label strings"
        )
    return LabelMatrix(i, w, k, len(item_ids), len(worker_ids), len(label_names),
                       item_ids, worker_ids, label_names)


def _factorise(column, keys, kind: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """int64 codes of ``column`` over ``keys`` (default: its distinct
    values in first-appearance order), and the keys as a tuple."""
    keys = tuple(dict.fromkeys(column) if keys is None else keys)
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        raise ValidationError("explicit id list contains duplicates")
    try:
        return np.fromiter(map(index.__getitem__, column), np.int64, len(column)), keys
    except KeyError as exc:
        raise ValidationError(f"unknown {kind} id {exc.args[0]!r}") from None


@dataclass(frozen=True)
class GroundTruth:
    """Partial map from dense item index to true class index."""

    mapping: dict[int, int]

    def __len__(self) -> int:
        return len(self.mapping)

    def __contains__(self, item: int) -> bool:
        return item in self.mapping

    def __getitem__(self, item: int) -> int:
        return self.mapping[item]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(item indices, labels), sorted by item index."""
        if not self.mapping:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        idx = np.array(sorted(self.mapping), dtype=np.int64)
        lab = np.array([self.mapping[i] for i in idx], dtype=np.int64)
        return idx, lab


@dataclass(frozen=True)
class VoteCounts:
    """Per item, the number of workers voting for each class."""

    counts: np.ndarray  # (num_items, num_classes) int64

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)


@dataclass(eq=False)
class BinaryView:
    """One-versus-rest view of a label matrix for a focal class.

    Exposes, over exactly the observed (item, worker) pairs, the
    indicator that the worker's label equals the focal class. Across the
    ``num_classes`` views of one matrix, each pair's indicators sum to 1.
    """

    matrix: LabelMatrix
    focal_class: int

    @property
    def items(self) -> np.ndarray:
        return self.matrix.items

    @property
    def workers(self) -> np.ndarray:
        return self.matrix.workers

    @cached_property
    def y(self) -> np.ndarray:
        """Indicator values, float64 in {0.0, 1.0}, one per triple."""
        y = (self.matrix.labels == self.focal_class).astype(np.float64)
        y.setflags(write=False)
        return y

    @property
    def num_items(self) -> int:
        return self.matrix.num_items

    @property
    def num_workers(self) -> int:
        return self.matrix.num_workers

    @property
    def num_labels(self) -> int:
        return self.matrix.num_labels

    @property
    def labels_per_item(self) -> np.ndarray:
        return self.matrix.labels_per_item

    @property
    def labels_per_worker(self) -> np.ndarray:
        return self.matrix.labels_per_worker

    @cached_property
    def positives_per_item(self) -> np.ndarray:
        """Per item, how many workers voted for the focal class."""
        pos = np.bincount(self.focal_rows[0], minlength=self.num_items)
        pos.setflags(write=False)
        return pos

    @cached_property
    def focal_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(items, workers) of the triples labelled with the focal class."""
        focal = self.matrix.labels == self.focal_class
        rows = self.items[focal], self.workers[focal]
        for arr in rows:
            arr.setflags(write=False)
        return rows

    @cached_property
    def residual_index(self) -> np.ndarray:
        """Per triple, ``item + num_items * y``.

        The position of the triple's squared residual in a per-item table
        laid out as ``[z**2, (z - 1)**2]``.
        """
        index = self.items + self.num_items * (self.matrix.labels == self.focal_class)
        index.setflags(write=False)
        return index

    @cached_property
    def residual_used(self) -> np.ndarray:
        """Which entries of that table ``residual_index`` refers to.

        Items with a label other than the focal class, then items with
        the focal class.
        """
        pos = self.positives_per_item
        used = np.concatenate((self.labels_per_item > pos, pos > 0))
        used.setflags(write=False)
        return used

    @cached_property
    def worker_has_label(self) -> np.ndarray:
        """Per worker, whether they labelled any item."""
        used = self.labels_per_worker > 0
        used.setflags(write=False)
        return used

    @cached_property
    def worker_has_focal(self) -> np.ndarray:
        """Per worker, whether they gave the focal class to any item."""
        used = np.bincount(self.focal_rows[1], minlength=self.num_workers) > 0
        used.setflags(write=False)
        return used


def vote_counts(matrix: LabelMatrix) -> VoteCounts:
    """Tally per-item, per-class vote counts."""
    flat = np.bincount(
        matrix.items * matrix.num_classes + matrix.labels,
        minlength=matrix.num_items * matrix.num_classes,
    )
    counts = flat.reshape(matrix.num_items, matrix.num_classes)
    counts.setflags(write=False)
    return VoteCounts(counts=counts)


def binary_view(matrix: LabelMatrix, focal_class: int) -> BinaryView:
    """One-versus-rest view for ``focal_class``."""
    if not 0 <= focal_class < matrix.num_classes:
        raise ValidationError(
            f"focal class {focal_class} out of range [0, {matrix.num_classes})"
        )
    return BinaryView(matrix=matrix, focal_class=focal_class)


def load_labels(path, num_classes: int | None = None) -> LabelMatrix:
    """Load a label file (header ``question,worker,answer``).

    ``num_classes`` optionally widens an integer label space, e.g. when
    the matching truth file mentions classes no worker ever used.
    """
    columns, keys, fail = _read_columns(path, LABELS_HEADER, 3)
    if not columns[0]:  # no rows, or the first one is malformed
        fail()
        raise ValidationError(f"{path}: no label rows after the header")

    def check(repeat: int, too_big: int) -> None:
        fail((repeat, "duplicate (item, worker) pair ({0!r}, {1!r})"),
             (too_big, "integer label {2!r} is beyond the int64 range"))

    return _build(*columns, num_classes, *keys, check=check)


def load_truth(path, matrix: LabelMatrix) -> GroundTruth:
    """Load a truth file (header ``question,truth``) against ``matrix``.

    Every item id must be known to the matrix, and every truth label
    must map into the matrix's label space.
    """
    items, labels = _read_item_labels(path, TRUTH_HEADER, matrix, "truth")
    return GroundTruth(mapping=dict(zip(items.tolist(), labels.tolist())))


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
    must be a label name. Each distinct label is resolved once.
    """
    (items, labels), (_, label_keys), fail = _read_columns(path, header, 2)
    i = np.fromiter(map(matrix.item_index.get, items, repeat(-1)), np.int64, len(items))
    integer = all(map(_INT_LABEL.match, matrix.label_names))
    num_classes = matrix.num_classes

    def resolve(label: str) -> int:
        """The class index, -1 beyond the class count, -2 if unknown."""
        if integer and _INT_LABEL.match(label):
            code = _int_label(label)
            return code if code < num_classes else -1
        return matrix.label_index.get(label, -2)

    classes = {label: resolve(label) for label in label_keys}
    k = np.fromiter(map(classes.__getitem__, labels), np.int64, len(labels))
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
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(repeats.min()) if repeats.size else keys.size


def _read_columns(path, header: str, width: int):
    """Split a ``width``-field file's non-blank rows into stripped columns.

    Returns the columns, up to the first row with the wrong field count;
    each column's distinct values in first-appearance order; and
    ``fail(*faults)``, which raises ``path:lineno: message`` for the first
    fault in file order. A fault is ``(row, message)``, with ``row`` at
    least ``len(columns[0])`` for none and the message formatted with the
    row's fields. On one row, a malformed row comes first, then ``faults``
    in the order given.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    if not lines or not lines[0].strip():
        raise ValidationError(f"{path}: empty file (expected header {header!r})")
    if lines[0].strip() != header:
        raise ParseError(f"{path}:1: bad header {lines[0].strip()!r} (expected {header!r})")
    del lines[0]
    rows = list(filter(str.strip, lines))
    # Rows before ``good`` have ``width`` comma-separated fields, all non-empty.
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.int64, len(rows))
    bad = np.flatnonzero(commas != width - 1)
    good = int(bad[0]) if bad.size else len(rows)
    fields = ",".join(rows[:good]).split(",") if good else []
    columns = [fields[c::width] for c in range(width)]
    del fields
    keys = []
    for c, column in enumerate(columns):
        distinct = dict.fromkeys(column)
        if any(map(str.__ne__, distinct, map(str.strip, distinct))):
            columns[c] = column = list(map(str.strip, column))
            distinct = dict.fromkeys(column)
        if "" in distinct:
            good = min(good, column.index(""))
        keys.append(distinct)

    def fail(*faults: tuple[int, str]) -> None:
        at, p = min((fault[0], p) for p, fault in enumerate([(good,), *faults]))
        if at == len(rows):
            return
        if p:
            error = ValidationError
            message = faults[p - 1][1].format(*(column[at] for column in columns))
        else:
            error = ParseError
            message = (f"expected {width} non-empty comma-separated fields, "
                       f"got {rows[at].strip()!r}")
        nonblank = np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
        raise error(f"{path}:{np.flatnonzero(nonblank)[at] + 2}: {message}")

    return columns, keys, fail


def save_labels(matrix: LabelMatrix, path) -> None:
    """Write ``matrix`` in the label file format, preserving triple order."""
    _write_rows(path, LABELS_HEADER, _names(matrix.item_ids, matrix.items),
                _names(matrix.worker_ids, matrix.workers),
                _names(matrix.label_names, matrix.labels))


def save_truth(truth: GroundTruth, matrix: LabelMatrix, path) -> None:
    """Write ``truth`` in the truth file format, sorted by item index."""
    items, labels = truth.as_arrays()
    _write_rows(path, TRUTH_HEADER, _names(matrix.item_ids, items),
                _names(matrix.label_names, labels))


def save_predictions(labels: np.ndarray, matrix: LabelMatrix, path) -> None:
    """Write one predicted class per item in the prediction file format."""
    _write_rows(path, PREDICTIONS_HEADER, matrix.item_ids, _names(matrix.label_names, labels))


def _names(names: Sequence[str], codes: np.ndarray) -> list[str]:
    return np.array(names, dtype=object)[codes].tolist()


def _write_rows(path, header: str, *columns: Sequence[str]) -> None:
    """Write ``header`` and then the columns' fields row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*columns))]) + "\n")
