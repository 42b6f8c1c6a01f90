"""flexautomata: red-blue state-merging automaton learning.

The pipeline, end to end: parse traces (or discretize a numeric series into
traces), build the prefix tree acceptor, merge states bottom-up under a
pluggable evidence heuristic, then use the learned machine to classify,
predict numeric targets, sample words, or render DOT.
"""

from .apta import build_apta
from .automaton import (
    Automaton,
    ComputationResult,
    Outcome,
    StateAggregate,
    StateLabel,
    check_integrity,
    compute,
)
from .errors import (
    GenerationError,
    InconsistentSampleError,
    ModelFormatError,
    PredictionError,
    SampleFormatError,
)
from .heuristics import (
    FAIL_DISTRIBUTION,
    FAIL_LABEL_CONFLICT,
    FAIL_NO_TARGETS,
    Alergia,
    Edsm,
    EvidenceScore,
    Mse,
    hoeffding_bound,
    hoeffding_compatible,
)
from .learner import LearnLog, LearnerConfig, learn
from .merging import MergeOutcome, merge, merge_aggregates
from .predict import (
    BinMethod,
    DiscretizationSpec,
    EvalReport,
    Fallback,
    PredictionConfig,
    TargetKind,
    bin_cuts,
    discretize,
    evaluate,
    global_target_mean,
    predict_value,
    sample_words,
    shortest_accepted_length,
)
from .sample_io import (
    Sample,
    SymbolInstance,
    Trace,
    TraceLabel,
    load_model,
    parse_abbadingo,
    parse_augmented,
    save_model,
    write_dot,
    write_sample,
)

__version__ = "0.1.0"

__all__ = [
    "Alergia",
    "FAIL_DISTRIBUTION",
    "FAIL_LABEL_CONFLICT",
    "FAIL_NO_TARGETS",
    "Automaton",
    "BinMethod",
    "ComputationResult",
    "DiscretizationSpec",
    "Edsm",
    "EvalReport",
    "EvidenceScore",
    "Fallback",
    "GenerationError",
    "InconsistentSampleError",
    "LearnLog",
    "LearnerConfig",
    "MergeOutcome",
    "ModelFormatError",
    "Mse",
    "Outcome",
    "PredictionConfig",
    "PredictionError",
    "Sample",
    "SampleFormatError",
    "StateAggregate",
    "StateLabel",
    "SymbolInstance",
    "TargetKind",
    "Trace",
    "TraceLabel",
    "bin_cuts",
    "build_apta",
    "check_integrity",
    "compute",
    "discretize",
    "evaluate",
    "global_target_mean",
    "shortest_accepted_length",
    "hoeffding_bound",
    "hoeffding_compatible",
    "learn",
    "load_model",
    "merge",
    "merge_aggregates",
    "parse_abbadingo",
    "parse_augmented",
    "predict_value",
    "sample_words",
    "save_model",
    "write_dot",
    "write_sample",
]
