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


def build(g_type=GateType.AND, g_arity=3):
    nl = Netlist("m")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c = nl.add_input("c")
    inv = nl.add_gate("inv", GateType.NOT, [a])
    g = nl.add_gate("g", g_type, [inv, b, c][:g_arity])
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


#: Every kind on the 3-input AND ``g``, then the arity rule at its
#: boundaries: a 2-input gate of each multi-input type losing a wire
#: (it becomes BUF or NOT), and a BUF or NOT gaining one (it becomes
#: AND or NAND, or the type the correction names).
PREDICTION_CASES = [
    pytest.param(GateType.AND, 3, template,
                 id=template.kind.value + str(template.pin or ""))
    for template in ALL_KINDS_ON_G
] + [
    pytest.param(gtype, 2,
                 Correction(0, CorrectionKind.REMOVE_INPUT_WIRE, pin=1),
                 id=f"remove_wire1-{gtype.name}2")
    for gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                  GateType.XOR, GateType.XNOR)
] + [
    pytest.param(gtype, 1,
                 Correction(0, CorrectionKind.ADD_INPUT_WIRE,
                            new_type=new_type, other_signal=0),
                 id=f"add_wire-{gtype.name}-{new_type and new_type.name}")
    for gtype, promotions in (
        (GateType.BUF, (GateType.AND, GateType.OR, GateType.XOR)),
        (GateType.NOT, (GateType.NAND, GateType.NOR, GateType.XNOR)))
    for new_type in (None,) + promotions
]


@pytest.mark.parametrize("g_type, g_arity, template", PREDICTION_CASES)
def test_prediction_matches_structural_application(g_type, g_arity,
                                                   template):
    nl = build(g_type, g_arity)
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
