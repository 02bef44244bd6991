"""Candidate-correction enumeration and wire-source scoring."""

import pytest

from repro.circuit import GateType, LineTable, Netlist, generators
from repro.diagnose import (DiagnosisState, corrections_for_line,
                            design_error_corrections, screen_corrections,
                            stuck_at_corrections)
from repro.diagnose.candidates import scored_wire_sources
from repro.diagnose.config import DiagnosisConfig, Mode
from repro.faults import observable_design_error_workload
from repro.faults.models import CorrectionKind
from repro.sim import PatternSet, output_rows, simulate


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
    assert len(corrections_for_line(state, line, sa_config)) == 2
    assert len(corrections_for_line(state, line, de_config)) > 2


def test_design_error_vocabulary_on_and_gate(alu4):
    state, _ = dedc_state(alu4)
    netlist = state.netlist
    and_gate = next(g.index for g in netlist.gates
                    if g.gtype is GateType.AND and len(g.fanin) == 2
                    and g.index in netlist.live_set())
    line = state.table.stem(and_gate).index
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=4)
    corrs = design_error_corrections(state, line, config)
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
    corrs = design_error_corrections(state, pi_line, config)
    assert {c.kind for c in corrs} == {CorrectionKind.INSERT_INVERTER}


def test_branch_lines_get_inverter_fixes_only(c17):
    state, _ = dedc_state(c17)
    branch = next(l for l in state.table if not l.is_stem)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    corrs = design_error_corrections(state, branch.index, config)
    assert all(c.kind in (CorrectionKind.INSERT_INVERTER,
                          CorrectionKind.REMOVE_INVERTER)
               for c in corrs)


def test_wire_sources_never_create_cycles(alu4):
    state, _ = dedc_state(alu4, seed=2)
    netlist = state.netlist
    for gate in list(netlist.gates)[::7]:
        if gate.gtype in (GateType.INPUT, GateType.CONST0,
                          GateType.CONST1) or not gate.fanin:
            continue
        for src in scored_wire_sources(state, gate.index, None, 6):
            # acyclicity: the new source must not depend on the gate
            assert src not in netlist.fanout_cone(gate.index)


def test_wire_sources_exclude_existing_fanins(alu4):
    state, _ = dedc_state(alu4, seed=2)
    netlist = state.netlist
    gate = next(g for g in netlist.gates
                if g.gtype is GateType.AND and g.index
                in netlist.live_set())
    sources = scored_wire_sources(state, gate.index, None, 10)
    assert not set(sources) & set(gate.fanin)
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
    # surface the orphaned source
    sources = scored_wire_sources(state, g, None, 5,
                                  as_type=GateType.OR)
    assert u in sources
    # and the enumerator emits the complete typed repair
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, wire_source_limit=5)
    line = state.table.stem(g).index
    corrs = design_error_corrections(state, line, config)
    fix = [c for c in corrs
           if c.kind is CorrectionKind.ADD_INPUT_WIRE
           and c.other_signal == u and c.new_type is GateType.OR]
    assert fix
    sc, = screen_corrections(state, fix[:1], 1, h3=0.0)
    assert sc.fixes_all


def test_scored_sources_ranked_by_benefit(c17):
    state, workload = dedc_state(c17, seed=1)
    # scores must be deterministic
    line = state.table.stem(state.netlist.outputs[0]).index
    driver = state.table[line].driver
    a = scored_wire_sources(state, driver, None, 6)
    b = scored_wire_sources(state, driver, None, 6)
    assert a == b
