"""The package's public names: a pinned list, so that any addition or removal shows as a diff."""

import flexautomata

PUBLIC = [
    "Alergia", "Automaton", "BinMethod", "ComputationResult", "DiscretizationSpec",
    "Edsm", "EvalReport", "EvidenceScore", "FAIL_DISTRIBUTION", "FAIL_LABEL_CONFLICT",
    "FAIL_NO_TARGETS", "Fallback", "GenerationError", "InconsistentSampleError",
    "LearnLog", "LearnerConfig", "MergeOutcome", "ModelFormatError", "Mse", "Outcome",
    "PredictionConfig", "PredictionError", "Sample", "SampleFormatError",
    "StateAggregate", "StateLabel", "SymbolInstance", "TargetKind", "Trace", "TraceLabel",
    "bin_cuts", "build_apta", "check_integrity", "compute", "discretize", "evaluate",
    "global_target_mean", "learn", "load_model", "merge", "merge_aggregates",
    "parse_abbadingo", "parse_augmented", "predict_value", "sample_words", "save_model",
    "shortest_accepted_length", "write_dot", "write_sample",
]


def test_all_lists_each_name_once():
    assert len(set(flexautomata.__all__)) == len(flexautomata.__all__)


def test_every_listed_name_resolves():
    missing = [name for name in flexautomata.__all__ if not hasattr(flexautomata, name)]
    assert missing == []


def test_all_equals_the_pinned_surface():
    assert sorted(flexautomata.__all__) == sorted(PUBLIC)
