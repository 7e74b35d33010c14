"""One digest of every float BWA's EM produces on a few pinned crowds.

The sha256 pins in ``test_cli.py`` see only what reaches the output
files: hard labels, mean worker weights and the summary. This digest
also covers the scores, every class's objective and stopping-statistic
traces and its iteration count, so a rewrite of the EM steps that
changes any bit of them fails here.
"""

import hashlib

import numpy as np
from test_cli import SYNTH_K2, SYNTH_K4

from crowdbwa.bwa import PROFILES, aggregate_multiclass
from crowdbwa.cli import main
from crowdbwa.dataset import load_labels
from crowdbwa.synthetic import SynthSpec, generate

# a small K=5 crowd with skewed classes and a wide accuracy spread
SKEWED_K5 = SynthSpec(num_items=400, num_workers=25, num_classes=5, redundancy=6, seed=31,
                      class_prior=(0.45, 0.25, 0.15, 0.1, 0.05), accuracy_range=(0.3, 0.95))

EM_BITS_SHA256 = "9626399891a10a44361293c7ca653bb420b97bcb4e581b3ff3cfd7d5ca986d95"


def test_em_bits_pinned(tmp_path, capsys):
    crowds = []
    for n, synth in enumerate((SYNTH_K2, SYNTH_K4)):
        labels = tmp_path / f"l{n}.csv"
        assert main(["synth", *synth, "--out-labels", str(labels),
                     "--out-truth", str(tmp_path / f"t{n}.csv")]) == 0
        crowds.append(load_labels(labels))
    capsys.readouterr()
    crowds.append(generate(SKEWED_K5)[0])
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
    assert digest.hexdigest() == EM_BITS_SHA256
