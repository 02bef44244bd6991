"""Theorem 1 and the heuristic 2/3 screens."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import GateType, Netlist, generators
from repro.diagnose import (DiagnosisState, screen_corrections,
                            screen_verr, theorem1_bound)
from repro.faults import inject_stuck_at_faults
from repro.faults.models import Correction, CorrectionKind
from repro.sim import PatternSet, output_rows, simulate
from tests.diagnose.screening_oracle import (evaluate_correction,
                                             predicted_stack)


def test_theorem1_bound_values():
    assert theorem1_bound(100, 1) == 100
    assert theorem1_bound(100, 2) == 50
    assert theorem1_bound(100, 3) == 34   # ceil
    assert theorem1_bound(0, 3) == 0
    with pytest.raises(ValueError):
        theorem1_bound(10, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000), count=st.integers(1, 4))
def test_theorem1_holds_for_injected_faults(seed, count):
    """Property (Theorem 1): at least one injected fault's correction
    complements >= |Verr| / N bits of its line's Verr bit-list."""
    spec = generators.random_dag(6, 60, 4, seed=seed % 5)
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(6, 320, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(spec, patterns, device_out)
    if state.num_err == 0:
        return
    bound = theorem1_bound(state.num_err, count)
    best = 0
    for record in workload.truth:
        line = next((l for l in state.table
                     if l.describe(spec) == record.site), None)
        if line is None:
            continue
        kind = (CorrectionKind.STUCK_AT_1 if record.kind == "sa1"
                else CorrectionKind.STUCK_AT_0)
        complemented = screen_verr(state, Correction(line.index, kind), 1)
        if complemented:
            best = max(best, complemented)
    assert best >= bound, (seed, count, best, bound, state.num_err)


def _two_fault_state(c17, seed=0):
    workload = inject_stuck_at_faults(c17, 2, seed=seed)
    patterns = PatternSet.random(5, 256, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    return DiagnosisState(c17, patterns, device_out)


def test_screen_rejects_noop_corrections(c17):
    state = _two_fault_state(c17)
    # a stuck-at matching the line's constant behaviour flips nothing
    nl = Netlist("const")
    a = nl.add_input("a")
    zero = nl.add_gate("z", GateType.CONST0)
    g = nl.add_gate("g", GateType.OR, [a, zero])
    nl.set_outputs([g])
    patterns = PatternSet.from_vectors([[0], [1]])
    spec_out = ~simulate(nl, patterns)[[g]]
    st_ = DiagnosisState(nl, patterns, spec_out)
    z_line = st_.table.stem(zero).index
    assert screen_verr(st_, Correction(z_line,
                                       CorrectionKind.STUCK_AT_0), 0) \
        is None


def test_screen_threshold_monotone(c17):
    state = _two_fault_state(c17)
    corr = Correction(0, CorrectionKind.STUCK_AT_1)
    loose = screen_verr(state, corr, 1)
    if loose is not None:
        assert screen_verr(state, corr, loose) == loose
        assert screen_verr(state, corr, loose + 1) is None


def test_evaluate_correction_h3_rejects_destructive_fix(c17):
    """An insert-inverter on a primary output of a single-fault design
    corrupts roughly all passing vectors; h3 close to 1 must reject."""
    workload = inject_stuck_at_faults(c17, 1, seed=4)
    patterns = PatternSet.random(5, 256, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(c17, patterns, device_out)
    po_line = state.table.stem(c17.outputs[0]).index
    corr = Correction(po_line, CorrectionKind.INSERT_INVERTER)
    strict = evaluate_correction(state, corr, 1, h3=0.99)
    lax = evaluate_correction(state, corr, 1, h3=0.0)
    if lax is not None and lax.h3_score < 0.99:
        assert strict is None


def test_evaluate_correction_scores_true_fix(c17):
    """The actual fault's correction must fully qualify: h1 == 1 and
    h3 == 1 (fault-modeling the good netlist toward the device)."""
    workload = inject_stuck_at_faults(c17, 1, seed=7)
    patterns = PatternSet.random(5, 256, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(c17, patterns, device_out)
    record = workload.truth[0]
    line = next(l for l in state.table
                if l.describe(c17) == record.site)
    kind = (CorrectionKind.STUCK_AT_1 if record.kind == "sa1"
            else CorrectionKind.STUCK_AT_0)
    sc = evaluate_correction(state, Correction(line.index, kind),
                             theorem1_bound(state.num_err, 1), h3=0.95)
    assert sc is not None
    assert sc.fixes_all
    assert sc.h1_score == 1.0
    assert sc.h3_score == 1.0


def test_fig1_scenario():
    """The paper's Fig. 1: with two reconverging errors, the valid fix
    for one error newly corrupts previously-correct vectors — so a
    hard-zero heuristic 3 would reject it (DESIGN.md experiment index).
    """
    nl = Netlist("fig1")
    a, b = nl.add_input("a"), nl.add_input("b")
    c, d = nl.add_input("c"), nl.add_input("d")
    l1 = nl.add_gate("l1", GateType.AND, [a, b])
    l2 = nl.add_gate("l2", GateType.OR, [c, d])
    g = nl.add_gate("G", GateType.AND, [l1, l2])
    nl.set_outputs([g])
    impl = nl.copy("fig1_bad")
    impl.set_gate_type(nl.index_of("l1"), GateType.NAND)
    impl.set_gate_type(nl.index_of("l2"), GateType.NOR)
    patterns = PatternSet.exhaustive(4)
    spec_out = output_rows(nl, simulate(nl, patterns))
    state = DiagnosisState(impl, patterns, spec_out)
    l1_line = state.table.stem(impl.index_of("l1")).index
    fix1 = Correction(l1_line, CorrectionKind.GATE_REPLACE,
                      new_type=GateType.AND)
    words = predicted_stack(state, [fix1])
    sc, = screen_corrections(state, [fix1], words, 1, h3=0.0)
    assert sc.outcome.broken_vectors > 0      # Fig. 1's phenomenon
    assert sc.h3_score < 1.0
    # and with an intolerant h3 the valid fix would be lost:
    assert screen_corrections(state, [fix1], words, 1, h3=1.0) == []
