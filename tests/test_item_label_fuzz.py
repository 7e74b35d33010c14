"""Differential fuzzing of the truth and prediction readers against a
row-by-row reference.

The reference below is the row loop ``load_truth`` used before both
two-field readers became columnar, with its header check inlined. It
serves both formats: the header and the noun in its messages are
parameters. Its one change of rule is that integer labels are ASCII
digits (``[0-9]``, not ``\\d``). For every generated file, ``load_truth``
and ``load_predictions`` must return the reference's item-to-class map,
or raise the same exception class with the same message.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crowdbwa import dataset
from crowdbwa.dataset import (
    PREDICTIONS_HEADER,
    TRUTH_HEADER,
    LabelMatrix,
    ParseError,
    ValidationError,
    load_predictions,
    load_truth,
)

_INT_LABEL = re.compile(r"^[0-9]+$")  # was r"^\d+$"


def reference_load(path, matrix, header, noun):
    text = path.read_text(encoding="utf-8-sig")
    raw = text.splitlines()
    if not raw or not raw[0].strip():
        raise ValidationError(f"{path}: empty file (expected header {header!r})")
    if raw[0].strip() != header:
        raise ParseError(f"{path}:1: bad header {raw[0].strip()!r} (expected {header!r})")
    mapping = {}
    integer_labels = all(_INT_LABEL.match(name) for name in matrix.label_names)
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2 or not all(fields):
            raise ParseError(
                f"{path}:{lineno}: expected 2 non-empty comma-separated fields, "
                f"got {line.strip()!r}"
            )
        item, label = fields
        if item not in matrix.item_index:
            raise ValidationError(f"{path}:{lineno}: unknown item id {item!r}")
        i = matrix.item_index[item]
        if i in mapping:
            raise ValidationError(f"{path}:{lineno}: duplicate {noun} for item {item!r}")
        if integer_labels and _INT_LABEL.match(label):
            k = int(label)
            if k >= matrix.num_classes:
                raise ValidationError(
                    f"{path}:{lineno}: {noun} label {label!r} outside the "
                    f"{matrix.num_classes}-class label space"
                )
        elif label in matrix.label_index:
            k = matrix.label_index[label]
        else:
            raise ValidationError(f"{path}:{lineno}: unknown {noun} label {label!r}")
        mapping[i] = k
    return mapping


def truth_map(truth):
    """The item-to-class map of an ``(items, labels)`` truth, whose arrays
    must be int64 and sorted by item."""
    items, labels = truth
    assert items.dtype == labels.dtype == np.int64
    assert (np.diff(items) > 0).all()
    return dict(zip(items.tolist(), labels.tolist()))


def read_truth(path, matrix):
    return truth_map(load_truth(path, matrix))


def read_predictions(path, matrix):
    labels, predicted = load_predictions(path, matrix)
    assert labels.shape == predicted.shape == (matrix.num_items,)
    assert not labels[~predicted].any()
    return dict(zip(np.flatnonzero(predicted).tolist(), labels[predicted].tolist()))


FORMATS = {
    "truth": (TRUTH_HEADER, read_truth),
    "prediction": (PREDICTIONS_HEADER, read_predictions),
}

ITEMS = [f"q{i}" for i in range(30)] + ["é", "問題", "q 1", "7"]
MATRICES = [
    # integer labels, widened to three classes
    LabelMatrix.from_triples([(q, "w0", str(t % 2)) for t, q in enumerate(ITEMS)],
                             num_classes=3),
    # string labels, one of them spelled like a class index
    LabelMatrix.from_triples([(q, "w0", ("yes", "no", "1")[t % 3])
                              for t, q in enumerate(ITEMS)]),
    LabelMatrix.from_triples([(q, "w1", ("Ja", "ñ")[t % 2]) for t, q in enumerate(ITEMS)]),
]
FAULTS = ["repeat", "odd", "unknown", "odd", "empty", "short", "long"]
UNKNOWN_ITEMS = ["q99", "zz", "Q0"]
ODD_LABELS = ["3", "01", "\u0663", "99999999999999999999", "1", "10", "\u00b2", "maybe",
              "002", "18446744073709551616"]
pads = st.sampled_from(["", "", "", " ", "\t", "  ", "\u3000"])


@st.composite
def item_label_files(draw, header, matrix):
    """A two-field file with distinct known items and valid labels, with
    blank lines between rows. A messy file has one to three kinds of
    fault: rows that are short, long, have an empty field, repeat an
    earlier row's item, name an unknown item, or carry an odd label
    (leading zeros, out of range, beyond int64, non-ASCII digits, a bare
    class index or an unknown name). A repeated or unknown item may also
    carry an odd label."""
    messy = draw(st.booleans())
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)) if messy else []
    kinds = faults + ["row"] * 8
    labels = st.sampled_from(matrix.label_names)
    picked = draw(st.lists(st.sampled_from(ITEMS), max_size=30, unique=True))
    rows = []
    for t, item in enumerate(picked):
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from(["", " ", "\t", " \u3000 "])))
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat" and t:
            item = picked[draw(st.integers(0, t - 1))]
        elif kind == "unknown":
            item = draw(st.sampled_from(UNKNOWN_ITEMS))
        odd = kind == "odd" or kind in ("repeat", "unknown") and draw(st.booleans())
        fields = [item, draw(st.sampled_from(ODD_LABELS) if odd else labels)]
        if kind == "short":
            fields = fields[:1]
        elif kind == "long":
            fields += draw(st.lists(st.sampled_from(ITEMS + ODD_LABELS + [""]),
                                    min_size=1, max_size=2))
        elif kind == "empty":
            fields[draw(st.integers(0, 1))] = ""
        rows.append(",".join(draw(pads) + f + draw(pads) for f in fields))
    first = draw(st.sampled_from(
        [header] * 24
        + [f" {header} ", TRUTH_HEADER, PREDICTIONS_HEADER, "question,worker,answer", ""]
    ))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    tail = draw(st.sampled_from(["", newline, newline * 2]))
    return bom + newline.join([first] + rows) + tail


def outcome(read, path, matrix):
    """The item-to-class map, or the exception class and message."""
    try:
        return read(path, matrix)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("noun", sorted(FORMATS))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), matrix=st.sampled_from(MATRICES))
def test_reader_matches_row_reference(tmp_path, noun, data, matrix):
    header, read = FORMATS[noun]
    path = tmp_path / f"{noun}.csv"
    path.write_bytes(data.draw(item_label_files(header, matrix)).encode("utf-8"))
    expected = outcome(lambda p, m: reference_load(p, m, header, noun), path, matrix)
    assert outcome(read, path, matrix) == expected


@pytest.mark.parametrize("noun", sorted(FORMATS))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), matrix=st.sampled_from(MATRICES))
def test_split_reader_matches_row_reference(tmp_path, monkeypatch, noun, data, matrix):
    """The same property with the reader's size gate open: every file with a
    \\n past its middle is read as two halves, the second on a helper thread."""
    monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    header, read = FORMATS[noun]
    path = tmp_path / f"{noun}.csv"
    path.write_bytes(data.draw(item_label_files(header, matrix)).encode("utf-8"))
    expected = outcome(lambda p, m: reference_load(p, m, header, noun), path, matrix)
    assert outcome(read, path, matrix) == expected
