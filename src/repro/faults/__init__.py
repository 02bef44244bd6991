"""Fault and design-error models, injection, and collapsing."""

from .models import (Correction, CorrectionKind, StuckAtFault,
                     STUCK_AT_KINDS, apply_correction,
                     corrected_line_words, stuck_at_correction)
from .abadir import (DEFAULT_ERROR_DISTRIBUTION, ErrorType, GATE_RELATED,
                     REPAIRING_KIND, WIRE_RELATED)
from .inject import (InjectionRecord, Workload, ground_truth_faults,
                     inject_design_errors, inject_stuck_at_faults,
                     observable_design_error_workload)
from .collapse import collapse_ratio, collapsed_faults, equivalence_classes
from .bridging import (BridgeKind, BridgingDiagnoser, BridgingFault,
                       apply_bridge, inject_bridging_fault)

__all__ = [
    "Correction", "CorrectionKind", "StuckAtFault", "STUCK_AT_KINDS",
    "apply_correction", "corrected_line_words", "stuck_at_correction",
    "DEFAULT_ERROR_DISTRIBUTION", "ErrorType", "GATE_RELATED",
    "REPAIRING_KIND", "WIRE_RELATED",
    "InjectionRecord", "Workload", "ground_truth_faults",
    "inject_design_errors", "inject_stuck_at_faults",
    "observable_design_error_workload",
    "collapse_ratio", "collapsed_faults", "equivalence_classes",
    "BridgeKind", "BridgingDiagnoser", "BridgingFault", "apply_bridge",
    "inject_bridging_fault",
]
