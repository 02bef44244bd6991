"""The §3.3 ranking formula."""

from repro.diagnose import (DiagnosisState, rank_corrections, rank_value,
                            screen_corrections, stuck_at_corrections)
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet, output_rows, simulate
from tests.diagnose.screening_oracle import predicted_stack


def test_rank_value_formula():
    assert rank_value(0.0, h1_score=0.2, h3_score=0.9) == 0.9
    assert rank_value(1.0, h1_score=0.2, h3_score=0.9) == 0.2
    assert abs(rank_value(0.5, 0.4, 0.8) - 0.6) < 1e-12


def test_rank_value_weights_shift_with_v_ratio():
    """Many failures -> h1 dominates; few failures -> h3 dominates."""
    fixer = dict(h1_score=1.0, h3_score=0.5)   # repairs but corrupts
    keeper = dict(h1_score=0.2, h3_score=1.0)  # safe but weak
    assert rank_value(0.9, **fixer) > rank_value(0.9, **keeper)
    assert rank_value(0.1, **fixer) < rank_value(0.1, **keeper)


def test_rank_corrections_sorted_and_true_fix_on_top(c17):
    workload = inject_stuck_at_faults(c17, 1, seed=8)
    patterns = PatternSet.random(5, 256, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(c17, patterns, device_out)
    screened = []
    for line in range(len(state.table)):
        corrections = stuck_at_corrections(line)
        screened += screen_corrections(
            state, corrections, predicted_stack(state, corrections), 1,
            h3=0.0)
    ranked = rank_corrections(state, screened)
    values = [v for v, _ in ranked]
    assert values == sorted(values, reverse=True)
    # a full fix has h1 = h3 = 1 -> rank 1.0 -> first
    assert ranked[0][1].fixes_all
    assert abs(ranked[0][0] - 1.0) < 1e-12
