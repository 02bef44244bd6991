"""Experiment harnesses reproducing the paper's evaluation section."""

from .workloads import (PreparedCircuit, design_error_instance,
                        prepare_design_error, prepare_stuck_at,
                        stuck_at_instance)
from .table1 import Table1Cell, Table1Row, run_table1
from .table2 import Table2Cell, Table2Row, run_table2
from .ablation import AblationResult, format_ablation, run_ablation
from .tables import format_table1, format_table2
from .compare import CompareCell, CompareRow, format_compare, run_compare

__all__ = [
    "PreparedCircuit", "design_error_instance", "prepare_design_error",
    "prepare_stuck_at", "stuck_at_instance",
    "Table1Cell", "Table1Row", "run_table1",
    "Table2Cell", "Table2Row", "run_table2",
    "AblationResult", "format_ablation", "run_ablation",
    "format_table1", "format_table2",
    "CompareCell", "CompareRow", "format_compare", "run_compare",
]
