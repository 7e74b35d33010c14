"""One digest of every float BWA's EM produces on a few pinned crowds.

The sha256 pins in ``test_cli.py`` see only what reaches the output
files: hard labels, mean worker weights and the summary. This digest
also covers the scores, every class's objective and stopping-statistic
traces and its iteration count, so a rewrite of the EM steps that
changes any bit of them fails here. A second digest does the same for
every Dawid-Skene output.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_cli import SYNTH_K2, SYNTH_K4

import crowdbwa
from crowdbwa import baselines, dataset
from crowdbwa.baselines import dawid_skene
from crowdbwa.bwa import PROFILES, aggregate_multiclass
from crowdbwa.cli import main
from crowdbwa.dataset import load_labels
from crowdbwa.synthetic import SynthSpec, generate

# a small K=5 crowd with skewed classes and a wide accuracy spread
SKEWED_K5 = SynthSpec(num_items=400, num_workers=25, num_classes=5, redundancy=6, seed=31,
                      class_prior=(0.45, 0.25, 0.15, 0.1, 0.05), accuracy_range=(0.3, 0.95))

EM_BITS_SHA256 = "9626399891a10a44361293c7ca653bb420b97bcb4e581b3ff3cfd7d5ca986d95"

# two crowds with rare classes and accuracies drawn from (0, 1): in some
# m-steps of the av15-adjusted profile, no worker who gave a rare class
# has an E[v_j] in the top binade of all workers'
RARE_CLASS_CROWDS = tuple(
    SynthSpec(num_items=200, num_workers=10, num_classes=4, redundancy=4, seed=seed,
              class_prior=(0.85, 0.1, 0.03, 0.02), accuracy_range=(0.0, 1.0))
    for seed in (44, 51)
)

RARE_CLASS_SHA256 = "0f0f74b28bd82ddecb215d5f86bf907146c107e4e5c472a35dce7cc9d2e20d85"


def _em_digest(crowds) -> str:
    digest = hashlib.sha256()
    for matrix in crowds:
        for profile in sorted(PROFILES):
            result = aggregate_multiclass(matrix, PROFILES[profile])
            digest.update(result.score_matrix.tobytes())
            digest.update(result.worker_weights.tobytes())
            for run in result.per_class:
                digest.update(run.nll_trace.tobytes())
                digest.update(run.rel_trace.tobytes())
                digest.update(np.int64(run.iterations).tobytes())
    return digest.hexdigest()


def test_em_bits_pinned(tmp_path, capsys):
    crowds = []
    for n, synth in enumerate((SYNTH_K2, SYNTH_K4)):
        labels = tmp_path / f"l{n}.csv"
        assert main(["synth", *synth, "--out-labels", str(labels),
                     "--out-truth", str(tmp_path / f"t{n}.csv")]) == 0
        crowds.append(load_labels(labels))
    capsys.readouterr()
    crowds.append(generate(SKEWED_K5)[0])
    assert _em_digest(crowds) == EM_BITS_SHA256


def test_rare_class_em_bits_pinned():
    assert _em_digest(generate(spec)[0] for spec in RARE_CLASS_CROWDS) == RARE_CLASS_SHA256


# Dawid-Skene sums its classes two at a time: K=2 has a lone class, K=3
# one pair, K=4 a pair and a lone class, K=5 two pairs
DS_K3 = SynthSpec(num_items=600, num_workers=30, num_classes=3, redundancy=5, seed=37,
                  accuracy_range=(0.35, 0.9))
DS_K5 = SynthSpec(num_items=300, num_workers=20, num_classes=5, redundancy=4, seed=41,
                  class_prior=(0.1, 0.3, 0.2, 0.25, 0.15), accuracy_range=(0.25, 0.95))

DS_BITS_SHA256 = "f835d9f0af9df4076334621d1731ee032c4a2a4f1dc7dbec596a4b80d570b13a"


@pytest.mark.parametrize("split", [False, True])
def test_ds_bits_pinned(tmp_path, capsys, monkeypatch, thread_starts, split):
    if split:
        monkeypatch.setattr(baselines, "_SPLIT_MIN_LABELS", 0)
        monkeypatch.setattr(dataset, "_usable_cpus", lambda: 2)
    crowds = []
    for n, synth in enumerate((SYNTH_K2, SYNTH_K4)):
        labels = tmp_path / f"l{n}.csv"
        assert main(["synth", *synth, "--out-labels", str(labels),
                     "--out-truth", str(tmp_path / f"t{n}.csv")]) == 0
        crowds.append(load_labels(labels))
    capsys.readouterr()
    specs = (SKEWED_K5, *RARE_CLASS_CROWDS, DS_K3, DS_K5)
    crowds.extend(generate(spec)[0] for spec in specs)
    digest = hashlib.sha256()
    for matrix in crowds:
        started = len(thread_starts)
        result = dawid_skene(matrix)
        # a split fit starts its one helper, on any host
        assert len(thread_starts) - started == split
        for field in ("hard_labels", "posteriors", "class_priors", "confusion",
                      "objective_trace", "delta_trace"):
            digest.update(getattr(result, field).tobytes())
        digest.update(np.int64([result.iterations, result.converged]).tobytes())
    assert digest.hexdigest() == DS_BITS_SHA256


def test_ds_objective_ignores_blas_threads():
    # w * k = 12,000 confusion cells: OpenBLAS would split a dot this long
    # over two threads, and the sum's bits with it
    script = (
        "import hashlib\n"
        "from crowdbwa.baselines import dawid_skene\n"
        "from crowdbwa.synthetic import SynthSpec, generate\n"
        "spec = SynthSpec(num_items=3000, num_workers=6000, num_classes=2, redundancy=3, seed=5)\n"
        "trace = dawid_skene(generate(spec)[0]).objective_trace\n"
        "print(hashlib.sha256(trace.tobytes()).hexdigest())\n"
    )
    src = str(Path(crowdbwa.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
