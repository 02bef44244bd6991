"""The paper's contribution: incremental diagnosis & correction."""

from . import clock
from .bitlists import (DiagnosisState, OverrideOutcome,
                       error_partition, reference_outputs)
from .config import (DiagnosisConfig, FLOOR, HLevel, Mode,
                     default_schedule)
from .pathtrace import (derive_seed, marked_lines, path_trace_counts,
                        path_trace_vector, top_fraction)
from .potential import LinePotential, correcting_potentials, rank_lines
from .screening import (ScreenedCorrection, screen_corrections,
                        screen_verr, theorem1_bound)
from .candidates import (corrections_for_line, node_vocabulary,
                         stuck_at_corrections)
from .ranking import rank_corrections, rank_value
from .tree import DecisionTree, Node, round_visit_order
from .pipeline import (STAGE_ORDER, TRACE_SCHEMA, DiagnosisSession,
                       ExactStuckAtStrategy, LadderStrategy,
                       SearchStrategy, StageRecord, TraceWriter,
                       select_strategy, validate_trace_events,
                       validate_trace_file)
from .engine import IncrementalDiagnoser, diagnose
from .dedup import dedup_solutions
from .report import (CorrectionRecord, DiagnosisResult, EngineStats,
                     Solution, matches_truth, solution_sort_key,
                     sort_solutions)
from .verify import exhaustively_equivalent, rectifies
from .baselines import (dictionary_diagnosis,
                        exhaustive_multifault_diagnosis)
from .timeframe import (TimeFrameDiagnoser, TimeFrameResult,
                        random_sequences)
from .satdiag import SatDiagnoser, SatDiagnosisResult
from .dictionary import DictionaryMatch, FaultDictionary

#: Alias matching the paper's terminology (DESIGN.md §3).
enumerate_corrections = corrections_for_line

__all__ = [
    "clock",
    "DiagnosisState", "OverrideOutcome", "error_partition",
    "reference_outputs",
    "STAGE_ORDER", "TRACE_SCHEMA", "DiagnosisSession",
    "ExactStuckAtStrategy", "LadderStrategy", "SearchStrategy",
    "StageRecord", "TraceWriter", "select_strategy",
    "validate_trace_events", "validate_trace_file",
    "DiagnosisConfig", "FLOOR", "HLevel", "Mode", "default_schedule",
    "derive_seed", "marked_lines", "path_trace_counts",
    "path_trace_vector", "top_fraction",
    "LinePotential", "correcting_potentials", "rank_lines",
    "ScreenedCorrection", "screen_corrections", "screen_verr",
    "theorem1_bound",
    "corrections_for_line", "node_vocabulary",
    "stuck_at_corrections", "enumerate_corrections",
    "rank_corrections", "rank_value",
    "DecisionTree", "Node", "round_visit_order",
    "IncrementalDiagnoser", "diagnose", "dedup_solutions",
    "CorrectionRecord", "DiagnosisResult", "EngineStats", "Solution",
    "matches_truth", "solution_sort_key", "sort_solutions",
    "exhaustively_equivalent", "rectifies",
    "dictionary_diagnosis", "exhaustive_multifault_diagnosis",
    "TimeFrameDiagnoser", "TimeFrameResult", "random_sequences",
    "SatDiagnoser", "SatDiagnosisResult",
    "DictionaryMatch", "FaultDictionary",
]
