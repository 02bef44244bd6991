"""Candidate-correction enumeration and wire-source scoring."""

import numpy as np
import pytest

from repro.circuit import GateType, LineTable, Netlist, generators
from repro.diagnose import (DiagnosisState, corrections_for_line,
                            screen_corrections, stuck_at_corrections)
from repro.diagnose.candidates import is_correctable_line
from repro.diagnose.config import DiagnosisConfig, Mode
from repro.faults import observable_design_error_workload
from repro.faults.models import (CorrectionKind, apply_correction,
                                 corrected_line_words)
from repro.sim import PatternSet, output_rows, simulate
from repro.sim.packing import row_popcounts


def dedc_state(spec, seed=0, nerr=1):
    patterns = PatternSet.random(spec.num_inputs, 512, seed=1)
    workload = observable_design_error_workload(spec, nerr, patterns,
                                                seed=seed)
    spec_out = output_rows(spec, simulate(spec, patterns))
    return DiagnosisState(workload.impl, patterns, spec_out), workload


def test_stuck_at_vocabulary():
    corrs = stuck_at_corrections(5)
    assert {c.kind for c in corrs} == {CorrectionKind.STUCK_AT_0,
                                       CorrectionKind.STUCK_AT_1}
    assert all(c.line == 5 for c in corrs)


def test_mode_dispatch(alu4):
    state, _ = dedc_state(alu4)
    sa_config = DiagnosisConfig(mode=Mode.STUCK_AT)
    de_config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    line = state.table.stem(state.netlist.outputs[0]).index
    assert len(corrections_for_line(state, line, sa_config)[0]) == 2
    assert len(corrections_for_line(state, line, de_config)[0]) > 2


def test_design_error_vocabulary_on_and_gate(alu4):
    state, _ = dedc_state(alu4)
    netlist = state.netlist
    and_gate = next(g.index for g in netlist.gates
                    if g.gtype is GateType.AND and len(g.fanin) == 2
                    and g.index in netlist.live_set())
    line = state.table.stem(and_gate).index
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=4)
    corrs, _words = corrections_for_line(state, line, config)
    kinds = {c.kind for c in corrs}
    assert CorrectionKind.INSERT_INVERTER in kinds
    assert CorrectionKind.GATE_REPLACE in kinds
    assert CorrectionKind.REMOVE_INPUT_WIRE in kinds
    # gate replacements cover the 5 other binary types
    replacements = {c.new_type for c in corrs
                    if c.kind is CorrectionKind.GATE_REPLACE}
    assert GateType.NAND in replacements
    assert GateType.XOR in replacements


def test_input_stem_gets_only_inverter_fix(c17):
    state, _ = dedc_state(c17)
    pi_line = state.table.stem(state.netlist.inputs[0]).index
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    corrs, _words = corrections_for_line(state, pi_line, config)
    assert {c.kind for c in corrs} == {CorrectionKind.INSERT_INVERTER}


def test_branch_lines_get_inverter_fixes_only(c17):
    state, _ = dedc_state(c17)
    branch = next(l for l in state.table if not l.is_stem)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    corrs, _words = corrections_for_line(state, branch.index,
                                             config)
    assert all(c.kind in (CorrectionKind.INSERT_INVERTER,
                          CorrectionKind.REMOVE_INVERTER)
               for c in corrs)


WIRED = (CorrectionKind.ADD_INPUT_WIRE, CorrectionKind.REPLACE_INPUT_WIRE,
         CorrectionKind.INSERT_GATE)


def test_wire_sources_never_create_cycles(alu4):
    state, _ = dedc_state(alu4, seed=2)
    netlist = state.netlist
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=6)
    checked = 0
    for gate in list(netlist.gates)[::7]:
        if gate.gtype in (GateType.INPUT, GateType.CONST0,
                          GateType.CONST1) or not gate.fanin \
                or gate.index not in netlist.live_set():
            continue
        line = state.table.stem(gate.index).index
        corrs, _words = corrections_for_line(state, line, config)
        for corr in corrs:
            if corr.kind in WIRED:
                # acyclicity: the new source must not depend on the gate
                assert corr.other_signal not in \
                    netlist.fanout_cone(gate.index)
                checked += 1
    assert checked


def test_wire_sources_exclude_existing_fanins(alu4):
    state, _ = dedc_state(alu4, seed=2)
    netlist = state.netlist
    gate = next(g for g in netlist.gates
                if g.gtype is GateType.AND and g.index
                in netlist.live_set())
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=10)
    corrs, _words = corrections_for_line(
        state, state.table.stem(gate.index).index, config)
    sources = {c.other_signal for c in corrs
               if c.kind is CorrectionKind.ADD_INPUT_WIRE}
    assert not sources & set(gate.fanin)
    assert gate.index not in sources


def test_wire_sources_find_detached_gate():
    """A missing-wire error orphans its source; the scorer must still
    offer that (detached) gate as a reconnection candidate."""
    nl = Netlist("orphan")
    a, b, c = (nl.add_input(n) for n in "abc")
    u = nl.add_gate("u", GateType.AND, [a, b])
    g = nl.add_gate("g", GateType.OR, [u, c])
    nl.set_outputs([g])
    impl = nl.copy("impl")
    impl.remove_fanin_pin(g, 0)  # drop u: it is now detached
    patterns = PatternSet.exhaustive(3)
    spec_out = output_rows(nl, simulate(nl, patterns))
    state = DiagnosisState(impl, patterns, spec_out)
    assert u not in impl.live_set()
    # the degraded gate is a BUF now; scoring it as a restored OR must
    # surface the orphaned source with the complete typed repair
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=5)
    line = state.table.stem(g).index
    corrs, words = corrections_for_line(state, line, config)
    fix = [i for i, c in enumerate(corrs)
           if c.kind is CorrectionKind.ADD_INPUT_WIRE
           and c.other_signal == u and c.new_type is GateType.OR]
    assert fix
    sc, = screen_corrections(state, [corrs[fix[0]]], words[fix[:1]], 1,
                             h3=0.0)
    assert sc.fixes_all


def test_scored_sources_ranked_by_benefit(alu4):
    """Each sweep's sources come best first: (failing bits flipped) −
    (passing bits corrupted), measured on the emitted rows; and the
    enumeration is deterministic."""
    state, _ = dedc_state(alu4, seed=1)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=6)
    ranked = 0
    for line in state.table:
        if not line.is_stem or not is_correctable_line(state, line.index):
            continue
        corrs, words = corrections_for_line(state, line.index, config)
        again, again_words = corrections_for_line(state, line.index,
                                                      config)
        assert corrs == again
        assert np.array_equal(words, again_words)
        delta = words ^ state.line_values(line.index)
        scores = (row_popcounts(delta & state.err_mask)
                  - row_popcounts(delta & state.corr_mask))
        groups = {}
        for corr, score in zip(corrs, scores.tolist()):
            if corr.kind in WIRED:
                groups.setdefault((corr.kind, corr.pin, corr.new_type),
                                  []).append(score)
        for group in groups.values():
            assert group == sorted(group, reverse=True)
            ranked += len(group) > 1
    assert ranked


VOCAB_SPECS = {
    "c17": generators.c17,
    "rca8": lambda: generators.ripple_carry_adder(8),
    "ecc8": lambda: generators.hamming_corrector(8),
}
#: Enumeration order of the design-error vocabulary, by kind.
KIND_ORDER = [CorrectionKind.INSERT_INVERTER, CorrectionKind.REMOVE_INVERTER,
              CorrectionKind.GATE_REPLACE, CorrectionKind.REMOVE_INPUT_WIRE,
              CorrectionKind.BYPASS_GATE, CorrectionKind.ADD_INPUT_WIRE,
              CorrectionKind.REPLACE_INPUT_WIRE, CorrectionKind.INSERT_GATE]


def vocabulary_states(name, nbits):
    """A DEDC root state and up to two children (each one applied
    correction deeper)."""
    spec = VOCAB_SPECS[name]()
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=nbits)
    workload = observable_design_error_workload(spec, 2, patterns, seed=3)
    spec_out = output_rows(spec, simulate(spec, patterns))
    root = DiagnosisState(workload.impl, patterns, spec_out)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    states = [root]
    for line in range(0, len(root.table), 5):
        if len(states) == 3:
            break
        corrs, words = corrections_for_line(root, line, config)
        child_netlist = root.netlist.copy()
        apply_correction(child_netlist, root.table, corrs[-1])
        states.append(root.child(child_netlist, corrs[-1], words[-1]))
    return states


def assert_rows_are_predicted_words(state, corrs, words):
    assert words.shape == (len(corrs), state.patterns.num_words)
    for corr, row in zip(corrs, words):
        expected = corrected_line_words(state.netlist, state.table, corr,
                                        state.values)
        assert np.array_equal(row, expected), corr


def assert_kind_order(corrs):
    ranks = [KIND_ORDER.index(corr.kind) for corr in corrs]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("nbits", (1, 63, 64, 65))
@pytest.mark.parametrize("name", sorted(VOCAB_SPECS))
def test_vocabulary_rows_equal_corrected_line_words(name, nbits):
    """Every emitted correction's row, sliced from a scoring sweep or
    evaluated on its own, is the line value the correction predicts."""
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    seen = set()
    for state in vocabulary_states(name, nbits):
        for line in state.table:
            if not is_correctable_line(state, line.index):
                continue
            corrs, words = corrections_for_line(state, line.index, config)
            assert_rows_are_predicted_words(state, corrs, words)
            assert_kind_order(corrs)
            seen.update((corr.kind, line.is_stem) for corr in corrs)
            seen.update((corr.kind, corr.new_type) for corr in corrs
                        if corr.kind is CorrectionKind.ADD_INPUT_WIRE)
    assert (CorrectionKind.INSERT_INVERTER, False) in seen  # branches
    assert (CorrectionKind.REPLACE_INPUT_WIRE, True) in seen
    assert (CorrectionKind.INSERT_GATE, True) in seen
    if name == "ecc8":
        assert (CorrectionKind.REMOVE_INVERTER, True) in seen
        assert (CorrectionKind.ADD_INPUT_WIRE, GateType.NAND) in seen


@pytest.mark.parametrize("nbits", (1, 63, 64, 65))
def test_vocabulary_rows_on_promotions_and_wide_gates(nbits):
    """BUF and NOT drivers (promoted add-wire sweeps) and a 5-input gate
    (no XOR/XNOR replacement) emit rows equal to their words too."""
    spec = Netlist("wide")
    ins = [spec.add_input(f"i{k}") for k in range(6)]
    wide = spec.add_gate("wide", GateType.AND, ins[:5])
    buf = spec.add_gate("buf", GateType.OR, [wide, ins[5]])
    inv = spec.add_gate("inv", GateType.NAND, [ins[0], ins[5]])
    spec.set_outputs([buf, inv])
    impl = spec.copy("impl")
    impl.remove_fanin_pin(buf, 1)   # OR -> BUF
    impl.remove_fanin_pin(inv, 1)   # NAND -> NOT
    patterns = PatternSet.random(6, nbits, seed=nbits)
    state = DiagnosisState(impl, patterns,
                           output_rows(spec, simulate(spec, patterns)))
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=8)
    assert impl.gates[buf].gtype is GateType.BUF
    assert impl.gates[inv].gtype is GateType.NOT
    promoted = set()
    for gate in (wide, buf, inv):
        line = state.table.stem(gate).index
        corrs, words = corrections_for_line(state, line, config)
        assert_rows_are_predicted_words(state, corrs, words)
        assert_kind_order(corrs)
        promoted.update(corr.new_type for corr in corrs
                        if corr.kind is CorrectionKind.ADD_INPUT_WIRE)
        if gate == wide:
            replaced = {corr.new_type for corr in corrs
                        if corr.kind is CorrectionKind.GATE_REPLACE}
            assert replaced and not replaced & {GateType.XOR,
                                                GateType.XNOR}
    if nbits > 1:
        assert promoted & {GateType.AND, GateType.OR, GateType.XOR}
        assert promoted & {GateType.NAND, GateType.NOR, GateType.XNOR}


def test_stuck_at_vocabulary_words():
    state, _ = dedc_state(generators.c17())
    config = DiagnosisConfig(mode=Mode.STUCK_AT)
    for line in range(len(state.table)):
        corrs, words = corrections_for_line(state, line, config)
        assert corrs == stuck_at_corrections(line)
        assert_rows_are_predicted_words(state, corrs, words)
