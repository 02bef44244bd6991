"""Correction application and non-mutating value prediction.

The key invariant: for every correction kind,
``corrected_line_words(...)`` (single-gate re-evaluation, no mutation)
must equal the corrected line's values in a full simulation of the
structurally corrected netlist.
"""

import numpy as np
import pytest

from repro.circuit import GateType, LineTable, Netlist, generators
from repro.errors import InjectionError
from repro.faults.models import (Correction, CorrectionKind,
                                 apply_correction, corrected_line_words,
                                 stuck_at_correction)
from repro.sim import PatternSet, simulate


def build():
    nl = Netlist("m")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c = nl.add_input("c")
    inv = nl.add_gate("inv", GateType.NOT, [a])
    g = nl.add_gate("g", GateType.AND, [inv, b, c])
    h = nl.add_gate("h", GateType.OR, [g, a])
    k = nl.add_gate("k", GateType.NAND, [g, b])
    nl.set_outputs([h, k])
    return nl


def corrected_signal_values(netlist, table, corr, patterns):
    """Oracle: apply structurally, simulate, read the corrected line."""
    mutated = netlist.copy()
    apply_correction(mutated, table, corr)
    values = simulate(mutated, patterns)
    line = table[corr.line]
    kind = corr.kind
    if kind in (CorrectionKind.STUCK_AT_0, CorrectionKind.STUCK_AT_1,
                CorrectionKind.INSERT_INVERTER):
        # the new value lives on the freshly added gate
        new_gate = len(netlist.gates)
        return values[new_gate]
    if kind is CorrectionKind.REMOVE_INVERTER:
        return values[netlist.gates[line.driver].fanin[0]]
    return values[line.driver]


ALL_KINDS_ON_G = [
    Correction(0, CorrectionKind.STUCK_AT_0),
    Correction(0, CorrectionKind.STUCK_AT_1),
    Correction(0, CorrectionKind.INSERT_INVERTER),
    Correction(0, CorrectionKind.GATE_REPLACE, new_type=GateType.NOR),
    Correction(0, CorrectionKind.GATE_REPLACE, new_type=GateType.XOR),
    Correction(0, CorrectionKind.REMOVE_INPUT_WIRE, pin=1),
    Correction(0, CorrectionKind.ADD_INPUT_WIRE, other_signal=0),
    Correction(0, CorrectionKind.REPLACE_INPUT_WIRE, pin=2,
               other_signal=0),
]


@pytest.mark.parametrize("template", ALL_KINDS_ON_G,
                         ids=lambda c: c.kind.value + str(c.pin or ""))
def test_prediction_matches_structural_application(template):
    nl = build()
    table = LineTable(nl)
    g_line = table.stem(nl.index_of("g")).index
    corr = Correction(g_line, template.kind, template.new_type,
                      template.pin, template.other_signal)
    patterns = PatternSet.exhaustive(3)
    values = simulate(nl, patterns)
    predicted = corrected_line_words(nl, table, corr, values)
    oracle = corrected_signal_values(nl, table, corr, patterns)
    mask = np.uint64((1 << 8) - 1)
    assert (predicted[0] & mask) == (oracle[0] & mask), corr


def test_remove_inverter_prediction_and_application():
    nl = build()
    table = LineTable(nl)
    inv_line = table.stem(nl.index_of("inv")).index
    corr = Correction(inv_line, CorrectionKind.REMOVE_INVERTER)
    patterns = PatternSet.exhaustive(3)
    values = simulate(nl, patterns)
    predicted = corrected_line_words(nl, table, corr, values)
    assert np.array_equal(predicted, values[nl.index_of("a")])
    mutated = nl.copy()
    apply_correction(mutated, table, corr)
    assert mutated.gate("g").fanin[0] == nl.index_of("a")


def test_remove_inverter_rejected_on_non_inverter():
    nl = build()
    table = LineTable(nl)
    g_line = table.stem(nl.index_of("g")).index
    corr = Correction(g_line, CorrectionKind.REMOVE_INVERTER)
    with pytest.raises(InjectionError):
        apply_correction(nl.copy(), table, corr)
    with pytest.raises(InjectionError):
        corrected_line_words(nl, table, corr, simulate(
            nl, PatternSet.exhaustive(3)))


def test_branch_corrections_touch_only_their_sink():
    nl = build()
    table = LineTable(nl)
    branch = table.branch(nl.index_of("k"), 0)  # g -> k.0
    assert branch is not None
    mutated = nl.copy()
    apply_correction(mutated, table,
                     Correction(branch.index, CorrectionKind.STUCK_AT_1))
    # h still reads g; k reads a constant
    assert mutated.gate("h").fanin[0] == nl.index_of("g")
    assert mutated.gates[mutated.gate("k").fanin[0]].gtype \
        is GateType.CONST1


def test_branch_insert_inverter():
    nl = build()
    table = LineTable(nl)
    branch = table.branch(nl.index_of("k"), 0)
    mutated = nl.copy()
    apply_correction(mutated, table,
                     Correction(branch.index,
                                CorrectionKind.INSERT_INVERTER))
    new_gate = mutated.gate("k").fanin[0]
    assert mutated.gates[new_gate].gtype is GateType.NOT
    assert mutated.gates[new_gate].fanin == [nl.index_of("g")]


def test_gate_corrections_rejected_on_branches():
    nl = build()
    table = LineTable(nl)
    branch = table.branch(nl.index_of("k"), 0)
    for corr in (Correction(branch.index, CorrectionKind.GATE_REPLACE,
                            new_type=GateType.NOR),
                 Correction(branch.index,
                            CorrectionKind.REMOVE_INPUT_WIRE, pin=0)):
        with pytest.raises(InjectionError):
            apply_correction(nl.copy(), table, corr)


def test_missing_parameters_rejected():
    nl = build()
    table = LineTable(nl)
    g_line = table.stem(nl.index_of("g")).index
    for corr in (Correction(g_line, CorrectionKind.GATE_REPLACE),
                 Correction(g_line, CorrectionKind.REMOVE_INPUT_WIRE),
                 Correction(g_line, CorrectionKind.ADD_INPUT_WIRE),
                 Correction(g_line, CorrectionKind.REPLACE_INPUT_WIRE)):
        with pytest.raises(InjectionError):
            apply_correction(nl.copy(), table, corr)


def test_describe_is_stable_and_informative():
    nl = build()
    table = LineTable(nl)
    g_line = table.stem(nl.index_of("g")).index
    corr = Correction(g_line, CorrectionKind.GATE_REPLACE,
                      new_type=GateType.NOR)
    assert corr.describe(nl, table) == "gate_replace[NOR]@g"
    sa = stuck_at_correction(table, g_line, 1)
    assert sa.describe(nl, table) == "sa1@g"
    branch = table.branch(nl.index_of("k"), 0)
    wire = Correction(branch.index, CorrectionKind.INSERT_INVERTER)
    assert wire.describe(nl, table) == "insert_inverter@g->k.0"
