"""Relation-label validation and repair for candidate knowledge-graph tuples."""

from .embedding import PathEmbedding, format_embedding, sim, traverse_r
from .evalkit import (
    BenchmarkSpec,
    GoldLabel,
    ScoreReport,
    benchmark_facts,
    benchmark_generate,
    detect_errors,
    inject_errors,
    score,
)
from .graph_store import (
    NA,
    GraphFormatError,
    GraphStore,
    NALabelError,
    Tuple,
    load_graph,
    save_graph,
)
from .patterns import LocalizedPattern, dump_pattern, extract_pattern
from .repair import (
    PredictionFormatError,
    PredictionRecord,
    RepairConfig,
    RepairDecision,
    initial_instance,
    joint_scores,
    predict_link,
    read_predictions,
    repair_instance,
    repair_tuple,
)
from .stream import SliceResult, commit, integrate_aux, load_label_map, run
from .validation import (
    INVALID,
    UNKNOWN,
    VALID,
    SupportReport,
    ValidationConfig,
    classify,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "GoldLabel",
    "GraphFormatError",
    "GraphStore",
    "INVALID",
    "LocalizedPattern",
    "NA",
    "NALabelError",
    "PathEmbedding",
    "PredictionFormatError",
    "PredictionRecord",
    "RepairConfig",
    "RepairDecision",
    "ScoreReport",
    "SliceResult",
    "SupportReport",
    "Tuple",
    "UNKNOWN",
    "VALID",
    "ValidationConfig",
    "benchmark_facts",
    "benchmark_generate",
    "classify",
    "commit",
    "detect_errors",
    "dump_pattern",
    "extract_pattern",
    "format_embedding",
    "initial_instance",
    "inject_errors",
    "integrate_aux",
    "joint_scores",
    "load_graph",
    "load_label_map",
    "predict_link",
    "read_predictions",
    "repair_instance",
    "repair_tuple",
    "run",
    "save_graph",
    "score",
    "sim",
    "traverse_r",
]
