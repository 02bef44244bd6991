"""PODEM test generation: generated tests must detect their faults."""

import pytest

from repro.circuit import GateType, LineTable, Netlist, generators
from repro.circuit.gatetypes import eval_ternary
from repro.errors import SimulationError
from repro.faults.collapse import collapsed_faults
from repro.sim import FaultSimulator, SimFault, all_faults
from repro.tgen.podem import Podem, fill_assignment
from repro.tgen.randgen import patterns_from_vectors


@pytest.mark.parametrize("name", ["c17", "r432", "r499"])
def test_generated_vectors_detect_their_faults(name):
    circuit = generators.by_name(name, scale=0.25)
    table = LineTable(circuit)
    podem = Podem(circuit, table, backtrack_limit=200)
    faults = collapsed_faults(circuit, table)
    generated = aborted = untestable = 0
    for fault in faults:
        assignment, stats = podem.generate(fault)
        if assignment is None:
            if stats.aborted:
                aborted += 1
            else:
                untestable += 1
            continue
        generated += 1
        vector = fill_assignment(circuit, assignment)
        patterns = patterns_from_vectors(circuit, [vector])
        fsim = FaultSimulator(circuit, patterns, table)
        assert fsim.detects(fault), \
            f"{table.describe(fault.line)}/sa{fault.value}"
    # PODEM should handle the vast majority of these faults
    assert generated / len(faults) > 0.85, (generated, aborted,
                                            untestable)


def test_redundant_fault_is_untestable():
    """a AND ~a == 0: the output sa0 is undetectable."""
    nl = Netlist("red")
    a = nl.add_input("a")
    na = nl.add_gate("na", GateType.NOT, [a])
    g = nl.add_gate("g", GateType.AND, [a, na])
    out = nl.add_gate("out", GateType.OR, [g, a])
    nl.set_outputs([out])
    table = LineTable(nl)
    podem = Podem(nl, table)
    fault = SimFault(table.stem(g).index, 0)
    assignment, stats = podem.generate(fault)
    assert assignment is None
    assert not stats.aborted  # proven untestable, not given up


def test_sequential_netlist_rejected(s27):
    with pytest.raises(SimulationError, match="combinational"):
        Podem(s27)


def test_fill_assignment_random_and_zero(c17):
    import random
    assignment = {c17.inputs[0]: 1}
    zeros = fill_assignment(c17, assignment)
    assert zeros[0] == 1 and sum(zeros[1:]) == 0
    rng = random.Random(0)
    filled = fill_assignment(c17, assignment, rng)
    assert filled[0] == 1
    assert len(filled) == 5


def test_backtrack_limit_aborts():
    """A hard reconvergent circuit with limit 0 must abort, not loop."""
    circuit = generators.by_name("r499", scale=0.25)
    table = LineTable(circuit)
    podem = Podem(circuit, table, backtrack_limit=0)
    hard = [f for f in all_faults(table)][50]
    assignment, stats = podem.generate(hard)
    assert assignment is None or stats.backtracks == 0


def test_backtrace_terminates_on_duplicate_pin_xor():
    """XOR(a, a) == 0: justifying 1 must exhaust cleanly, not loop.

    The backtrace walk is guarded by a visited set (not a step budget);
    a gate reading the same signal on every pin is the densest cycle
    of revisits it can meet.
    """
    nl = Netlist("dup")
    a = nl.add_input("a")
    x = nl.add_gate("x", GateType.XOR, [a, a])
    out = nl.add_gate("out", GateType.OR, [x, a])
    nl.set_outputs([out])
    table = LineTable(nl)
    podem = Podem(nl, table)
    fault = SimFault(table.stem(x).index, 0)  # needs x=1: impossible
    assignment, stats = podem.generate(fault)
    assert assignment is None
    assert not stats.aborted  # proven untestable by exhaustion


@pytest.mark.parametrize("guide", [False, True])
def test_xor_multiple_x_fanins_generate_and_detect(guide):
    """3-input XOR: several X fanins at once, every fault testable.

    Pins the fix for the old backtrace that pretended the remaining X
    inputs of an XOR would land at 0 when computing the forced parity.
    """
    nl = Netlist("xor3")
    a, b, c = (nl.add_input(n) for n in "abc")
    x = nl.add_gate("x", GateType.XOR, [a, b, c])
    nl.set_outputs([x])
    table = LineTable(nl)
    podem = Podem(nl, table, guide=guide)
    for fault in collapsed_faults(nl, table):
        assignment, stats = podem.generate(fault)
        assert assignment is not None, \
            f"{table.describe(fault.line)}/sa{fault.value}"
        vector = fill_assignment(nl, assignment)
        patterns = patterns_from_vectors(nl, [vector])
        assert FaultSimulator(nl, patterns, table).detects(fault)


@pytest.mark.parametrize("guide", [False, True])
def test_forced_parity_with_duplicate_pins(guide):
    """XOR(a, b, b) == a: the forced value for the last X pin must be
    computed over *pins*, not deduplicated signals."""
    nl = Netlist("dup_parity")
    a = nl.add_input("a")
    b = nl.add_input("b")
    x = nl.add_gate("x", GateType.XOR, [a, b, b])
    nl.set_outputs([x])
    table = LineTable(nl)
    podem = Podem(nl, table, guide=guide)
    for fault in collapsed_faults(nl, table):
        assignment, stats = podem.generate(fault)
        if assignment is None:
            assert not stats.aborted  # b-faults are genuinely untestable
            continue
        vector = fill_assignment(nl, assignment)
        patterns = patterns_from_vectors(nl, [vector])
        assert FaultSimulator(nl, patterns, table).detects(fault)


def test_guided_matches_unguided_coverage():
    """SCOAP guidance may reorder decisions, never change testability."""
    circuit = generators.by_name("r432", scale=0.25)
    table = LineTable(circuit)
    plain = Podem(circuit, table, backtrack_limit=200)
    guided = Podem(circuit, table, backtrack_limit=200, guide=True)
    for fault in collapsed_faults(circuit, table):
        a_plain, s_plain = plain.generate(fault)
        a_guided, s_guided = guided.generate(fault)
        if s_plain.aborted or s_guided.aborted:
            continue  # budget differences are fair game
        assert (a_plain is None) == (a_guided is None), \
            f"{table.describe(fault.line)}/sa{fault.value}"


def test_static_precheck_skips_redundant_fault():
    """The guided pre-check answers untestable with zero search."""
    nl = Netlist("red2")
    a = nl.add_input("a")
    na = nl.add_gate("na", GateType.NOT, [a])
    g = nl.add_gate("g", GateType.AND, [a, na])
    out = nl.add_gate("out", GateType.OR, [g, a])
    nl.set_outputs([out])
    table = LineTable(nl)
    podem = Podem(nl, table, guide=True)
    fault = SimFault(table.stem(g).index, 0)
    assignment, stats = podem.generate(fault)
    assert assignment is None
    assert stats.static_untestable
    assert stats.backtracks == 0 and stats.implications == 0
    assert not stats.aborted


def whole_netlist_imply(podem, pi_values, fault):
    """Reference implication: 3-valued good/faulty simulation of the
    whole netlist from scratch under a partial PI assignment."""
    line = podem.table[fault.line]
    n = len(podem.netlist.gates)
    good = [None] * n
    faulty = [None] * n
    gates = podem.netlist.gates
    for idx in podem.netlist.topo_order():
        gate = gates[idx]
        if gate.gtype is GateType.INPUT:
            good[idx] = faulty[idx] = pi_values.get(idx)
        else:
            gvals = [good[src] for src in gate.fanin]
            fvals = [faulty[src] for src in gate.fanin]
            if not line.is_stem and idx == line.sink:
                fvals[line.pin] = fault.value
            good[idx] = eval_ternary(gate.gtype, gvals)
            faulty[idx] = eval_ternary(gate.gtype, fvals)
        if line.is_stem and idx == line.driver:
            faulty[idx] = fault.value
    return good, faulty


def whole_netlist_frontier(podem, good, faulty, fault, line):
    """Reference D-frontier: every X-output gate of the whole netlist,
    in topological order, with a D on some input (the branch fault's D
    only in its own pin's view)."""
    frontier = []
    for idx in podem.netlist.topo_order():
        gate = podem.netlist.gates[idx]
        if not gate.fanin or gate.gtype is GateType.INPUT:
            continue
        if good[idx] is not None and faulty[idx] is not None:
            continue
        for pin, src in enumerate(gate.fanin):
            faulty_in = faulty[src]
            if not line.is_stem and (idx, pin) == (line.sink, line.pin):
                faulty_in = fault.value
            if None not in (good[src], faulty_in) \
                    and good[src] != faulty_in:
                frontier.append(idx)
                break
    return frontier


class CheckedPodem(Podem):
    """Compares every cone-limited implication and every cone-limited
    D-frontier with the whole-netlist reference."""

    checks = 0
    frontier_checks = 0

    def _imply(self, pi_values, fault, good, faulty, order):
        super()._imply(pi_values, fault, good, faulty, order)
        assert (good, faulty) == whole_netlist_imply(self, pi_values,
                                                     fault)
        self.checks += 1

    def _d_frontier(self, good, faulty, fault, line):
        frontier = super()._d_frontier(good, faulty, fault, line)
        assert frontier == whole_netlist_frontier(self, good, faulty,
                                                  fault, line)
        self.frontier_checks += 1
        return frontier


@pytest.mark.parametrize("guide", [False, True])
@pytest.mark.parametrize("make, backtracks_expected", [
    (generators.c17, False),
    (lambda: generators.ripple_carry_adder(8), False),
    (lambda: generators.alu(4), True)], ids=["c17", "rca8", "alu4"])
def test_incremental_implication_matches_whole_netlist(
        make, backtracks_expected, guide):
    """After every decision and backtrack, re-evaluating the changed
    PIs' cones gives what simulating the whole netlist gives, and the
    fault cone's D-frontier is the whole netlist's."""
    circuit = make()
    table = LineTable(circuit)
    podem = CheckedPodem(circuit, table, guide=guide)
    implications = backtracks = 0
    for fault in all_faults(table):
        _assignment, stats = podem.generate(fault)
        implications += stats.implications
        backtracks += stats.backtracks
    assert podem.checks == implications > 0
    assert podem.frontier_checks > 0
    assert (backtracks > 0) == backtracks_expected
