"""DiagnosisState: the Verr/Vcorr bit-list machinery."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.circuit import LineTable, generators
from repro.diagnose import DiagnosisState, reference_outputs
from repro.faults import inject_stuck_at_faults
from repro.faults.bridging import (BridgeKind, apply_bridge,
                                   inject_bridging_fault,
                                   scored_bridge_partners)
from repro.faults.models import apply_correction, stuck_at_correction
from repro.sim import (PatternSet, equivalent, output_rows, popcount,
                       simulate)
from repro.sim.compare import failing_vector_mask
from repro.sim.packing import const_row


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


# ----------------------------------------------------------------------
# rectified_by: the forced-site check against copy + apply + simulate
# ----------------------------------------------------------------------
def _rebuilt_rectifies(state, mutate) -> bool:
    """The structural check: copy the netlist, mutate the copy, simulate
    it in full and compare its outputs with the reference."""
    candidate = state.netlist.copy()
    mutate(candidate)
    out = output_rows(candidate, simulate(candidate, state.patterns))
    return equivalent(out, state.spec_out, state.patterns.nbits)


def _stuck_at_tuples(netlist, table, rng) -> list:
    """Stuck-at tuples of 1-3 random lines, a stem paired with one of
    its own branches at the opposite value, and a stem driving a
    primary output."""
    lines = list(table)
    tuples = [[(line.index, rng.randint(0, 1))
               for line in rng.sample(lines, k)] for k in (1, 2, 3)]
    branch = rng.choice([line for line in lines if not line.is_stem])
    value = rng.randint(0, 1)
    tuples.append([(table.stem(branch.driver).index, value),
                   (branch.index, 1 - value)])
    tuples.append([(table.stem(rng.choice(netlist.outputs)).index,
                    rng.randint(0, 1))])
    return tuples


def _apply_stuck_at(table, picks):
    def mutate(netlist):
        for line_index, value in picks:
            apply_correction(netlist, table,
                             stuck_at_correction(table, line_index, value))
    return mutate


@pytest.mark.parametrize("nbits", [1, 63, 64, 65])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rectified_by_matches_rebuilt_stuck_at_tuples(nbits, seed):
    rng = random.Random(seed)
    good = generators.random_dag(6, 40, 4, seed=seed % 25)
    table = LineTable(good)
    patterns = PatternSet.random(6, nbits, seed=seed)
    tuples = _stuck_at_tuples(good, table, rng)
    # The device is the good netlist with one of the tuples applied, so
    # at least that tuple rectifies V.
    device = good.copy()
    _apply_stuck_at(table, rng.choice(tuples))(device)
    state = DiagnosisState(good, patterns, reference_outputs(device,
                                                             patterns))
    verdicts = []
    for picks in tuples:
        forced = {table[line].site: const_row(value, patterns.num_words)
                  for line, value in picks}
        verdict = state.rectified_by(forced)
        assert verdict == _rebuilt_rectifies(
            state, _apply_stuck_at(table, picks)), picks
        verdicts.append(verdict)
    assert any(verdicts)


@pytest.mark.parametrize("nbits", [1, 63, 64, 65])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_rectified_by_matches_rebuilt_bridges(nbits, seed):
    good = generators.random_dag(6, 40, 4, seed=seed % 25)
    patterns = PatternSet.random(6, nbits, seed=seed)
    good_out = reference_outputs(good, patterns)
    for trial in range(50):  # a bridge the vectors of V expose
        device = inject_bridging_fault(good, seed=seed + trial).impl
        device_out = reference_outputs(device, patterns)
        if not equivalent(device_out, good_out, nbits):
            break
    state = DiagnosisState(good, patterns, device_out)
    assume(state.num_err > 0)
    rng = random.Random(seed)
    live = sorted(good.live_set() | set(good.inputs))
    checked = 0
    for anchor in rng.sample(live, min(8, len(live))):
        for kind in BridgeKind:
            for partner in scored_bridge_partners(
                    good, state.values, anchor, state.err_mask,
                    state.corr_mask, kind, limit=4):
                # apply_bridge refused feedback bridges per candidate;
                # the scorer must never offer one.
                assert partner not in good.fanout_cone(anchor)
                assert anchor not in good.fanout_cone(partner)
                va, vb = state.values[anchor], state.values[partner]
                wired = va & vb if kind is BridgeKind.AND else va | vb
                assert state.rectified_by(
                    {anchor: wired, partner: wired}) == _rebuilt_rectifies(
                    state, lambda nl: apply_bridge(nl, anchor, partner,
                                                   kind)), (anchor, partner)
                checked += 1
    assert checked
