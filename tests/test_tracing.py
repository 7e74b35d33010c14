"""The benchmark tracer's named spans exist in the package it traces."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "crowdbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("crowdbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", sorted({*tracing.PEAKS, *tracing.COUNTS}))
def test_traced_name_is_a_public_function(name):
    # the tracer wraps exactly the public functions each module defines;
    # a name it reads that no longer exists leaves its metric without spans
    short, function = name.split(".")
    assert short in tracing.MODULES
    module = importlib.import_module(f"crowdbwa.{short}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_tracer_sees_every_layer(tmp_path):
    # the parser is built once per process; a command the tracer swaps in
    # afterwards must still be the one that runs
    from crowdbwa import cli

    labels, truth = tmp_path / "labels.csv", tmp_path / "truth.csv"
    synth = ["synth", "--items", "40", "--workers", "6", "--k", "3", "--redundancy", "3",
             "--seed", "3", "--out-labels", str(labels), "--out-truth", str(truth)]
    assert cli.main(synth) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(synth) == 0
        for method in ("mv", "ds", "bwa"):
            assert cli.main(["aggregate", "--labels", str(labels), "--method", method,
                             "--out", str(tmp_path / f"{method}.csv")]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"cli.cmd_synth", "cli.cmd_aggregate"} <= names
    metrics = tracing.layer_metrics(tracer.spans, tracer.rss)[0]
    timings = {name: value for name, (value, _) in metrics.items() if name.endswith("_s")}
    assert timings and all(value > 0 for value in timings.values()), timings
