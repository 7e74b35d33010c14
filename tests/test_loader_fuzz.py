"""Differential fuzzing of ``load_labels`` against a row-by-row reference.

The reference below parses a label file one row at a time, the way the
loader did before it became columnar: split each non-blank line, strip
its fields, reject the first malformed row or the first repeated
(item, worker) pair in input order, then index ids and labels in
first-appearance order. For every generated file the loader must return
an equal ``LabelMatrix`` or raise the same exception class naming the
same line.
"""

import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crowdbwa import dataset
from crowdbwa.dataset import (
    LABELS_HEADER,
    LabelMatrix,
    ParseError,
    ValidationError,
    load_labels,
)

_INT_LABEL = re.compile(r"^\d+$")


def reference_load_labels(path, num_classes=None):
    text = path.read_text(encoding="utf-8-sig")
    raw = text.splitlines()
    if not raw or not raw[0].strip():
        raise ValidationError(f"{path}: empty file")
    if raw[0].strip() != LABELS_HEADER:
        raise ParseError(f"{path}:1: bad header")
    records = []
    seen = set()
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3 or any(not f for f in fields):
            raise ParseError(f"{path}:{lineno}: malformed row")
        if (fields[0], fields[1]) in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate pair")
        seen.add((fields[0], fields[1]))
        records.append(fields)
    if not records:
        raise ValidationError(f"{path}: no label rows")

    item_map, worker_map, label_map = {}, {}, {}
    integer_labels = all(_INT_LABEL.match(r[2]) for r in records)
    items, workers, labels = (np.empty(len(records), dtype=np.int64) for _ in range(3))
    for t, (item, worker, label) in enumerate(records):
        items[t] = item_map.setdefault(item, len(item_map))
        workers[t] = worker_map.setdefault(worker, len(worker_map))
        if integer_labels:
            labels[t] = int(label)
        else:
            labels[t] = label_map.setdefault(label, len(label_map))
    if integer_labels:
        inferred = int(labels.max()) + 1
        if num_classes is not None and num_classes < inferred:
            raise ValidationError("num_classes below the largest label")
        k_total = num_classes if num_classes is not None else inferred
        label_names = tuple(str(k) for k in range(k_total))
    else:
        if num_classes is not None and num_classes != len(label_map):
            raise ValidationError("num_classes on string labels")
        label_names = tuple(label_map)
    return LabelMatrix(
        items=items, workers=workers, labels=labels,
        num_items=len(item_map), num_workers=len(worker_map),
        num_classes=len(label_names), item_ids=tuple(item_map),
        worker_ids=tuple(worker_map), label_names=label_names,
    )


def outcome(load, path, num_classes):
    """The matrix, or the exception class and the line number it names."""
    try:
        return load(path, num_classes)
    except (ParseError, ValidationError) as exc:
        lineno = re.search(r":(\d+):", str(exc))
        return type(exc), lineno and int(lineno.group(1))


items = st.one_of(st.integers(0, 99).map("q{}".format),
                  st.sampled_from(["é", "問題", "q 1", "7"]))
workers = st.one_of(st.integers(0, 19).map("w{}".format),
                    st.sampled_from(["ñ", "w 4", "1"]))
int_labels = st.sampled_from(["0", "1"] * 8 + ["2", "01", "2000"])
str_labels = st.sampled_from(["yes", "no", "Ja", "ñ", "1", "0"])
pads = st.sampled_from(["", "", "", " ", "\t", "  ", "\u3000"])
field = st.one_of(items, workers, int_labels, str_labels, st.just(""))


@st.composite
def label_rows(draw):
    """Rows of a label file with blank lines between them. Pairs are
    distinct except for deliberate repeats of an earlier row's pair; in a
    messy file some rows are short, long or have an empty field, and some
    files repeat their first pair at the end."""
    labels = draw(st.sampled_from([int_labels, str_labels,
                                   st.one_of(int_labels, str_labels)]))
    messy = draw(st.integers(0, 2)) == 0
    kinds = ["row"] * 12 + (["short", "long", "empty", "repeat"] if messy else [])
    rows = []
    pairs = draw(st.lists(st.tuples(items, workers), max_size=40, unique=True))
    for t, pair in enumerate(pairs):
        if draw(st.booleans()):
            rows.append(draw(st.sampled_from(["", " ", "\t", " \u3000 "])))
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat" and t:
            pair = pairs[draw(st.integers(0, t - 1))]
        fields = [*pair, draw(labels)]
        if kind == "short":
            fields = fields[:draw(st.integers(1, 2))]
        elif kind == "long":
            fields += draw(st.lists(field, min_size=1, max_size=2))
        elif kind == "empty":
            fields[draw(st.integers(0, 2))] = ""
        rows.append(",".join(draw(pads) + f + draw(pads) for f in fields))
    if rows and draw(st.integers(0, 3)) == 0:
        item, worker, _ = (rows[0].split(",") + ["", "", ""])[:3]
        rows.append(f" {item.strip()} ,{worker.strip()}\t, {draw(labels)}")
    return rows


@st.composite
def label_files(draw):
    header = draw(st.sampled_from(
        [LABELS_HEADER] * 12 + [f" {LABELS_HEADER} ", "item,worker,answer", ""]
    ))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    tail = draw(st.sampled_from(["", newline, newline * 2]))
    return bom + newline.join([header] + draw(label_rows())) + tail


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=label_files(), num_classes=st.sampled_from([None, None, None, 2, 3, 2001]))
def test_load_labels_matches_row_reference(tmp_path, text, num_classes):
    path = tmp_path / "labels.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_load_labels, path, num_classes)
    got = outcome(load_labels, path, num_classes)
    if isinstance(expected, LabelMatrix):
        assert isinstance(got, LabelMatrix) and got == expected
    else:
        assert got == expected


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=label_files(), num_classes=st.sampled_from([None, None, None, 2, 3, 2001]))
def test_split_read_matches_row_reference(tmp_path, monkeypatch, text, num_classes):
    """The same property with the loader's size gate open: every file with a
    \\n past its middle is read as two halves, the second on a helper thread."""
    monkeypatch.setattr(dataset, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    path = tmp_path / "labels.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_load_labels, path, num_classes)
    got = outcome(load_labels, path, num_classes)
    if isinstance(expected, LabelMatrix):
        assert isinstance(got, LabelMatrix) and got == expected
    else:
        assert got == expected
