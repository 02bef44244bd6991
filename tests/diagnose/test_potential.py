"""Heuristic 1: invert-and-propagate correcting potential."""

from hypothesis import given, settings, strategies as st

from repro.circuit import generators
from repro.diagnose import (DiagnosisState, correcting_potentials,
                            rank_lines)
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet, output_rows, simulate


def state_for(spec, count=1, seed=0, nbits=256):
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    return DiagnosisState(spec, patterns, device_out), workload


def truth_line(state, spec, workload):
    record = workload.truth[0]
    return next(l.index for l in state.table
                if l.describe(spec) == record.site)


def test_single_fault_line_has_full_potential(c17):
    """Flipping the actual fault line's failing values emulates the
    fault exactly, so its potential is maximal (score 1.0)."""
    state, workload = state_for(c17, 1, seed=3)
    line = truth_line(state, c17, workload)
    pot, = correcting_potentials(state, [line])
    assert pot.score == 1.0
    assert pot.rectified_vectors == state.num_err


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3_000))
def test_potential_score_bounds(seed):
    spec = generators.random_dag(5, 40, 3, seed=seed % 4)
    state, _ = state_for(spec, 2, seed=seed)
    if state.num_err == 0:
        return
    for pot in correcting_potentials(state,
                                     list(range(len(state.table)))[::5]):
        assert 0.0 <= pot.score <= 1.0
        assert 0 <= pot.fixed_pairs <= state.num_err_pairs


def test_rank_lines_orders_and_filters(c17):
    state, workload = state_for(c17, 1, seed=6)
    all_lines = list(range(len(state.table)))
    ranked = rank_lines(state, all_lines, h1=0.0)
    scores = [p.fixed_pairs for p in ranked]
    assert scores == sorted(scores, reverse=True)
    strict = rank_lines(state, all_lines, h1=1.0)
    assert all(p.score >= 1.0 for p in strict)
    assert len(strict) <= len(ranked)
    # the true fault line survives the strictest threshold
    line = truth_line(state, c17, workload)
    assert line in [p.line for p in strict]
