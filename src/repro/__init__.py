"""repro — Incremental Diagnosis and Correction of Multiple Faults and
Errors.

A from-scratch Python reproduction of Veneris, Liu, Amiri & Abadir
(DATE 2002): a simulation-based incremental algorithm that diagnoses and
rectifies designs corrupted by multiple stuck-at faults or multiple
design errors, together with the full gate-level EDA substrate it needs
(netlists, bit-parallel logic/fault simulation, ATPG, the Abadir design
error model, benchmark generators and the paper's experiment harnesses).

Quick start::

    from repro import (IncrementalDiagnoser, DiagnosisConfig, Mode,
                       generators, random_patterns,
                       inject_stuck_at_faults)

    spec = generators.c17()
    workload = inject_stuck_at_faults(spec, count=2, seed=7)
    patterns = random_patterns(spec, 512, seed=1)
    result = IncrementalDiagnoser(
        spec, workload.impl, patterns,
        DiagnosisConfig(mode=Mode.STUCK_AT)).run()
    print(result.summary())
"""

from .circuit import (GateType, Gate, Netlist, Line, LineKind, LineTable,
                      SequentialSimulator, bench_io, expand_xor,
                      full_scan, generators, optimize_area, validate)
from .analyze import (Diagnostic, InvariantChecker, LintReport, Severity,
                      lint_netlist, set_load_lint_policy)
from .sim import (FaultSimulator, PatternSet, SimFault, all_faults,
                  popcount, simulate, output_rows)
from .faults import (Correction, CorrectionKind, ErrorType, StuckAtFault,
                     Workload, apply_correction, collapsed_faults,
                     inject_design_errors, inject_stuck_at_faults,
                     observable_design_error_workload)
from .tgen import (Podem, deterministic_patterns, diagnosis_vectors,
                   random_patterns, reverse_order_compact)
from .diagnose import (DiagnosisConfig, DiagnosisResult, DiagnosisState,
                       HLevel, IncrementalDiagnoser, Mode, Solution,
                       diagnose, dictionary_diagnosis,
                       exhaustive_multifault_diagnosis, matches_truth,
                       rectifies, theorem1_bound)
from .errors import (DiagnosisError, InjectionError, InvariantViolation,
                     NetlistError, ParseError, ReproError,
                     SimulationError)

__version__ = "1.0.0"

__all__ = [
    "GateType", "Gate", "Netlist", "Line", "LineKind", "LineTable",
    "SequentialSimulator", "bench_io", "expand_xor", "full_scan",
    "generators", "optimize_area", "validate",
    "Diagnostic", "InvariantChecker", "LintReport", "Severity",
    "lint_netlist", "set_load_lint_policy",
    "FaultSimulator", "PatternSet", "SimFault", "all_faults",
    "popcount", "simulate", "output_rows",
    "Correction", "CorrectionKind", "ErrorType", "StuckAtFault",
    "Workload", "apply_correction", "collapsed_faults",
    "inject_design_errors", "inject_stuck_at_faults",
    "observable_design_error_workload",
    "Podem", "deterministic_patterns", "diagnosis_vectors",
    "random_patterns", "reverse_order_compact",
    "DiagnosisConfig", "DiagnosisResult", "DiagnosisState", "HLevel",
    "IncrementalDiagnoser", "Mode", "Solution", "diagnose",
    "dictionary_diagnosis", "exhaustive_multifault_diagnosis",
    "matches_truth", "rectifies", "theorem1_bound",
    "DiagnosisError", "InjectionError", "InvariantViolation",
    "NetlistError", "ParseError", "ReproError", "SimulationError",
    "__version__",
]
