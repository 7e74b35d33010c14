"""Truth inference for redundantly crowd-labelled classification data.

The package aggregates conflicting worker labels into consensus labels.
Its centrepiece is a Bayesian weighted-average model whose EM updates
weight each worker by a smoothed inverse error rate; majority vote and
Dawid-Skene are included as baselines, together with a benchmark
harness (accuracy plus one-sided signed-rank comparison against
majority vote) and a seeded synthetic crowd generator.
"""

from .baselines import DawidSkeneResult, DsParams, MajorityVoteResult, dawid_skene, majority_vote
from .bwa import (
    PROFILES,
    BinaryResult,
    BwaHyperParams,
    BwaState,
    MultiClassResult,
    adjust_error_rate,
    aggregate_multiclass,
    derive_bv,
    e_step,
    estimate_error_rate,
    init_state,
    m_step,
    neg_log_likelihood,
    resolve,
    run_em_binary,
    worker_accuracy,
)
from .dataset import (
    BinaryView,
    LabelMatrix,
    ParseError,
    ValidationError,
    binary_view,
    load_labels,
    load_truth,
    save_labels,
    save_truth,
    vote_counts,
)
from .evaluation import (
    EvalReport,
    MethodSummary,
    RunScore,
    WilcoxonResult,
    accuracy,
    build_report,
    wilcoxon_one_sided,
)
from .synthetic import SplitMix64, SynthSpec, draw_worker_confusions, generate

__version__ = "0.1.0"

__all__ = [
    "BinaryResult",
    "BinaryView",
    "BwaHyperParams",
    "BwaState",
    "DawidSkeneResult",
    "DsParams",
    "EvalReport",
    "LabelMatrix",
    "MajorityVoteResult",
    "MethodSummary",
    "MultiClassResult",
    "PROFILES",
    "ParseError",
    "RunScore",
    "SplitMix64",
    "SynthSpec",
    "ValidationError",
    "WilcoxonResult",
    "accuracy",
    "adjust_error_rate",
    "aggregate_multiclass",
    "binary_view",
    "build_report",
    "dawid_skene",
    "derive_bv",
    "draw_worker_confusions",
    "e_step",
    "estimate_error_rate",
    "generate",
    "init_state",
    "load_labels",
    "load_truth",
    "m_step",
    "majority_vote",
    "neg_log_likelihood",
    "resolve",
    "run_em_binary",
    "save_labels",
    "save_truth",
    "vote_counts",
    "wilcoxon_one_sided",
    "worker_accuracy",
]
