"""The slot-packed correction screen against the per-correction oracle.

:func:`repro.diagnose.screening.screen_corrections` propagates the
surviving corrections in slot-packed sweeps (one line's corrections
share a sweep that forces the line in every slot); the oracle
(``screening_oracle``) runs one single-row propagate per correction.
On DEDC root and child states both must give the same survivors, in
the same order, field for field.  ``test_node_screen`` covers whole
nodes, whose sweeps mix lines.
"""

import numpy as np
import pytest

from repro.analyze.invariants import InvariantChecker
from repro.circuit import GateType, Netlist, generators
from repro.diagnose import (DiagnosisConfig, DiagnosisState, Mode,
                            screen_corrections)
from repro.diagnose import bitlists
from repro.diagnose.candidates import (corrections_for_line,
                                       is_correctable_line)
from repro.errors import InvariantViolation
from repro.faults import observable_design_error_workload
from repro.faults.models import Correction, CorrectionKind, apply_correction
from repro.sim import PatternSet, output_rows, simulate
from tests.diagnose.screening_oracle import oracle_screen, predicted_stack

SPECS = {
    "c17": generators.c17,
    "rca8": lambda: generators.ripple_carry_adder(8),
    "ecc8": lambda: generators.hamming_corrector(8),
}
CONFIG = DiagnosisConfig(mode=Mode.DESIGN_ERROR)


def dedc_root(name, seed):
    spec = SPECS[name]()
    patterns = PatternSet.random(spec.num_inputs, 200, seed=seed)
    workload = observable_design_error_workload(spec, 2, patterns,
                                                seed=seed)
    spec_out = output_rows(spec, simulate(spec, patterns))
    return DiagnosisState(workload.impl, patterns, spec_out)


def line_vocabulary(state, line):
    """The line's DEDC corrections and their predicted words."""
    return corrections_for_line(state, line, CONFIG)


def node_states(name, seed):
    """A DEDC root state and up to two of its children."""
    root = dedc_root(name, seed)
    states = [root]
    for line in range(len(root.table)):
        if len(states) == 3:
            break
        if not is_correctable_line(root, line):
            continue
        for sc in screen_corrections(root, *line_vocabulary(root, line),
                                     1, 0.0)[:1]:
            child_netlist = root.netlist.copy()
            apply_correction(child_netlist, root.table, sc.correction)
            child = root.child(child_netlist, sc.correction, sc.new_words)
            if not child.rectified:
                states.append(child)
    return states


def assert_same_screen(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert got.correction == want.correction
        assert np.array_equal(got.new_words, want.new_words)
        assert got.complemented == want.complemented
        assert got.h1_score == want.h1_score
        assert got.h3_score == want.h3_score
        for field in ("rectified_vectors", "broken_vectors",
                      "fixed_pairs", "fixes_all"):
            assert getattr(got.outcome, field) == \
                getattr(want.outcome, field), field


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("name", sorted(SPECS))
def test_batched_screen_equals_oracle(name, seed):
    screens = 0
    for state in node_states(name, seed):
        lines = [line for line in range(len(state.table))
                 if is_correctable_line(state, line)]
        for line in lines[::3]:
            corrections, words = line_vocabulary(state, line)
            flips = [sc.complemented
                     for sc in oracle_screen(state, corrections, 1, 0.0)]
            # required_bits at the edge: exactly some correction's
            # count, one past it, and the "0 means 1" floor
            edges = {0, 1} | {c for c in flips[:2]} | {c + 1
                                                       for c in flips[:2]}
            for required in sorted(edges):
                for h3 in (0.0, 0.9):
                    assert_same_screen(
                        screen_corrections(state, corrections, words,
                                           required, h3),
                        oracle_screen(state, corrections, required, h3))
                    screens += 1
    assert screens > 0


def test_batched_screen_keeps_order_across_interleaved_lines():
    state = dedc_root("rca8", 0)
    lines = [line for line in range(len(state.table))
             if is_correctable_line(state, line)][:4]
    vocab = [list(zip(*line_vocabulary(state, line))) for line in lines]
    interleaved = [pair for group in zip(*vocab) for pair in group]
    corrections = [corr for corr, _row in interleaved]
    words = np.stack([row for _corr, row in interleaved])
    assert_same_screen(screen_corrections(state, corrections, words, 1,
                                          0.5),
                       oracle_screen(state, corrections, 1, 0.5))


def test_invariant_checker_trips_on_a_corrupted_slot(monkeypatch):
    """A packed sweep whose slot 1 comes back matching the spec on every
    output is caught by the checker's one-row re-derivation."""
    state = dedc_root("rca8", 1)
    checker = InvariantChecker()
    for line in range(len(state.table)):
        corrections, words = line_vocabulary(state, line)
        survivors = screen_corrections(state, corrections, words, 1, 0.0)
        if len(survivors) >= 2 and not survivors[1].fixes_all:
            break
    else:
        pytest.fail("no line with a non-fixing second survivor")
    checker.check_screen(state, survivors)  # the honest batch passes

    real = bitlists.propagate

    def corrupt_slot_1(netlist, values, overrides, **kwargs):
        changed = real(netlist, values, overrides, **kwargs)
        stack, = overrides.values()
        if stack.ndim == 2:
            for pos, po in enumerate(netlist.outputs):
                rows = changed.get(po)
                rows = (np.stack([values[po]] * len(stack))
                        if rows is None else rows.copy())
                rows[1] = state.spec_out[pos]
                changed[po] = rows
        return changed

    monkeypatch.setattr(bitlists, "propagate", corrupt_slot_1)
    corrupted = screen_corrections(state, corrections, words, 1, 0.0)
    monkeypatch.undo()
    assert corrupted[1].fixes_all
    with pytest.raises(InvariantViolation, match="batched screen"):
        checker.check_screen(state, corrupted)


def test_padding_bits_never_count():
    """Packed rows carry junk past the last vector (here the all-zero
    input, where XNOR and AND disagree); a correction that fixes every
    vector of V must still report ``fixes_all`` in a batch and alone."""
    spec = Netlist("and2")
    a, b = spec.add_input("a"), spec.add_input("b")
    spec.set_outputs([spec.add_gate("out", GateType.AND, [a, b])])
    impl = Netlist("xor2")
    a, b = impl.add_input("a"), impl.add_input("b")
    out = impl.add_gate("out", GateType.XOR, [a, b])
    impl.set_outputs([out])
    patterns = PatternSet.from_vectors([[0, 1], [1, 0], [1, 1]])
    state = DiagnosisState(impl, patterns,
                           output_rows(spec, simulate(spec, patterns)))
    line = state.table.stem(out).index
    fix = Correction(line, CorrectionKind.INSERT_INVERTER)
    other = Correction(line, CorrectionKind.GATE_REPLACE,
                       new_type=GateType.OR)
    for corrections in ([fix], [fix, other]):
        batched = screen_corrections(state, corrections,
                                     predicted_stack(state, corrections),
                                     1, 0.0)
        assert_same_screen(batched,
                           oracle_screen(state, corrections, 1, 0.0))
        assert batched[0].fixes_all
