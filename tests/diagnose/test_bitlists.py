"""DiagnosisState: the Verr/Vcorr bit-list machinery."""

import numpy as np

from repro.diagnose import DiagnosisState
from repro.faults import inject_stuck_at_faults
from repro.sim import (PatternSet, output_rows, popcount, simulate)
from repro.sim.compare import failing_vector_mask


def make_state(spec, count=1, seed=0, nbits=200):
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=1)
    spec_out = output_rows(spec, simulate(spec, patterns))
    return DiagnosisState(workload.impl, patterns, spec_out), \
        spec_out, patterns


def test_masks_partition_the_vector_set(c17):
    state, spec_out, patterns = make_state(c17)
    assert state.num_err + state.num_corr == patterns.nbits
    assert popcount(state.err_mask & state.corr_mask) == 0
    impl_out = output_rows(state.netlist, simulate(state.netlist,
                                                   patterns))
    ref = failing_vector_mask(spec_out, impl_out, patterns.nbits)
    assert np.array_equal(state.err_mask, ref)


def test_rectified_state(c17):
    patterns = PatternSet.random(5, 100, seed=0)
    spec_out = output_rows(c17, simulate(c17, patterns))
    state = DiagnosisState(c17, patterns, spec_out)
    assert state.rectified
    assert state.v_ratio == 0.0
    assert state.num_err_pairs == 0


def test_line_values(c17):
    state, _, _ = make_state(c17, seed=3)
    for line in state.table:
        vals = state.line_values(line.index)
        assert vals.shape == (state.values.shape[1],)
        assert np.array_equal(vals, state.values[line.driver])


def test_outcome_of_override_matches_structural_fix(c17):
    """Overriding the faulty line with its correct values must rectify
    everything — and the outcome object must see that."""
    workload = inject_stuck_at_faults(c17, 1, seed=2)
    patterns = PatternSet.random(5, 256, seed=1)
    spec_out = output_rows(c17, simulate(c17, patterns))
    # Diagnose in the DEDC direction: fix impl toward spec.
    state = DiagnosisState(workload.impl, patterns, spec_out)
    record = workload.truth[0]
    driver_name = record.site.split("->", 1)[0]
    # the constant gate that models the fault inside impl
    const_gates = [g for g in state.netlist.gates
                   if g.name.startswith(driver_name + "_sa")]
    assert const_gates
    const = const_gates[0]
    # true values of the faulted signal
    correct_words = state.values[state.netlist.index_of(driver_name)]
    line = state.table.stem(const.index)
    outcome, = state.outcome_of_override(line.index, correct_words)
    assert outcome.fixes_all
    assert outcome.rectified_vectors == state.num_err
    assert outcome.broken_vectors == 0
    assert outcome.h1_score(state) == 1.0
    assert outcome.h3_score(state) == 1.0


def test_outcome_scores_degenerate_cases(c17):
    state, _, _ = make_state(c17, seed=5)
    # overriding with identical values changes nothing
    line = state.table[0]
    outcome, = state.outcome_of_override(0, state.values[line.driver])
    assert outcome.rectified_vectors == 0
    assert outcome.broken_vectors == 0
    assert not outcome.fixes_all or state.num_err == 0
