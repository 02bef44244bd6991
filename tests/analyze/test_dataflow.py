"""Property tests for the dataflow fixed points.

Every analysis is pinned against a brute-force oracle on random small
netlists: constants and implications against exhaustive simulation of
all input vectors, dominators against explicit enumeration of every
combinational path to a primary output, equivalence classes against
bit-for-bit value comparison.
"""

import random

import pytest

from repro.analyze.dataflow import (NetlistFacts, netlist_facts,
                                    run_dataflow, TernaryConstants,
                                    strongly_connected_components)
from repro.circuit import GateType, LineTable, Netlist, generators
from repro.faults.models import apply_correction, stuck_at_correction
from repro.sim import PatternSet
from repro.sim.logicsim import simulate

from .odc_oracle import blocked_signals_oracle

_GATE_TYPES = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
               GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF)


def random_netlist(seed: int, num_inputs: int = 4,
                   num_gates: int = 12) -> Netlist:
    """Random acyclic netlist, with constants sprinkled in."""
    rng = random.Random(seed)
    nl = Netlist(f"rnd{seed}")
    for i in range(num_inputs):
        nl.add_input(f"pi{i}")
    for g in range(num_gates):
        roll = rng.random()
        if roll < 0.08:
            nl.add_gate(f"g{g}", rng.choice((GateType.CONST0,
                                             GateType.CONST1)), [])
            continue
        gtype = rng.choice(_GATE_TYPES)
        pool = len(nl.gates)
        n_in = 1 if gtype in (GateType.NOT, GateType.BUF) else \
            rng.randint(2, min(3, pool))
        nl.add_gate(f"g{g}", gtype,
                    [rng.randrange(pool) for _ in range(n_in)])
    fanouts = nl.fanouts()
    sinks = [g.index for g in nl.gates
             if not fanouts[g.index] and g.gtype is not GateType.INPUT]
    nl.set_outputs(sinks or [len(nl.gates) - 1])
    return nl


def exhaustive_rows(nl: Netlist):
    """Per-gate value rows over all input vectors, as Python ints."""
    patterns = PatternSet.exhaustive(nl.num_inputs)
    values = simulate(nl, patterns)
    mask = (1 << patterns.nbits) - 1
    rows = [int.from_bytes(row.tobytes(), "little") & mask
            for row in values]
    return rows, patterns.nbits


SEEDS = range(12)


# ----------------------------------------------------------------------
# ternary constants vs exhaustive simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_constants_sound_vs_exhaustive(seed):
    nl = random_netlist(seed)
    rows, nbits = exhaustive_rows(nl)
    full = (1 << nbits) - 1
    for index, value in netlist_facts(nl).constants().items():
        assert rows[index] == (full if value else 0), \
            f"signal {nl.gates[index].name} claimed const {value}"


@pytest.mark.parametrize("seed", SEEDS)
def test_deep_constants_sound_vs_exhaustive(seed):
    """Implication- and hash-derived constants hold on every vector."""
    nl = random_netlist(seed)
    rows, nbits = exhaustive_rows(nl)
    full = (1 << nbits) - 1
    for index, value in netlist_facts(nl).known_constants(True).items():
        assert rows[index] == (full if value else 0)


def test_implied_constant_that_ternary_cannot_see():
    nl = Netlist("contr")
    a = nl.add_input("a")
    na = nl.add_gate("na", GateType.NOT, [a])
    z = nl.add_gate("z", GateType.AND, [a, na])
    w = nl.add_gate("w", GateType.NOR, [z, z])
    nl.set_outputs([w])
    facts = netlist_facts(nl)
    assert facts.constants() == {}
    deep = facts.known_constants(deep=True)
    assert deep[z] == 0 and deep[w] == 1


def test_structural_constant_from_cancellation():
    nl = Netlist("xorxx")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g = nl.add_gate("g", GateType.AND, [a, b])
    x = nl.add_gate("x", GateType.XOR, [g, g])
    nl.set_outputs([x])
    facts = netlist_facts(nl)
    assert facts.structural_constants()[x] == 0


# ----------------------------------------------------------------------
# implications vs exhaustive simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_implications_sound_vs_exhaustive(seed):
    nl = random_netlist(seed)
    rows, nbits = exhaustive_rows(nl)
    full = (1 << nbits) - 1
    impl = netlist_facts(nl).implications()
    for signal in range(len(nl.gates)):
        for value in (0, 1):
            where = rows[signal] if value else full & ~rows[signal]
            if impl.impossible(signal, value):
                assert where == 0, \
                    f"{nl.gates[signal].name}={value} claimed impossible"
                continue
            for other, other_value in impl.implied_by(signal, value):
                target = rows[other] if other_value else \
                    full & ~rows[other]
                assert where & ~target == 0, (
                    f"{nl.gates[signal].name}={value} does not imply "
                    f"{nl.gates[other].name}={other_value}")


def test_implication_contrapositive_closure():
    nl = Netlist("chain")
    a = nl.add_input("a")
    b = nl.add_gate("b", GateType.AND, [a, a])
    c = nl.add_gate("c", GateType.AND, [b, a])
    nl.set_outputs([c])
    impl = netlist_facts(nl).implications()
    # c=1 => a=1 transitively; contrapositive a=0 => c=0.
    assert impl.holds(c, 1, a, 1)
    assert impl.holds(a, 0, c, 0)


# ----------------------------------------------------------------------
# equivalence classes vs exhaustive simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_duplicate_groups_sound_vs_exhaustive(seed):
    nl = random_netlist(seed)
    rows, _nbits = exhaustive_rows(nl)
    for group in netlist_facts(nl).duplicate_groups():
        baseline = rows[group[0]]
        for member in group[1:]:
            assert rows[member] == baseline


def test_duplicate_groups_normalize_order_and_phase():
    nl = Netlist("norm")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g1 = nl.add_gate("g1", GateType.AND, [a, b])
    g2 = nl.add_gate("g2", GateType.AND, [b, a])
    g3 = nl.add_gate("g3", GateType.NOR, [a, b])
    o = nl.add_gate("o", GateType.OR, [b, a])
    g4 = nl.add_gate("g4", GateType.NOT, [o])
    # z = g1 ^ not(o); y = not(g2 ^ o) — identical after phase folding.
    z = nl.add_gate("z", GateType.XOR, [g1, g3])
    y = nl.add_gate("y", GateType.XNOR, [g2, o])
    nl.set_outputs([z, y])
    groups = netlist_facts(nl).duplicate_groups()
    assert sorted([g1, g2]) in groups          # commuted inputs
    assert sorted([g3, g4]) in groups          # De Morgan phase
    assert sorted([z, y]) in groups            # XOR phase extraction


# ----------------------------------------------------------------------
# dominators vs brute-force path enumeration
# ----------------------------------------------------------------------
def brute_force_dominators(nl: Netlist, start: int):
    """Intersection of the node sets of every path start -> some PO."""
    outputs = set(nl.outputs)
    fanouts = nl.fanouts()
    gates = nl.gates
    meet = [None]

    def walk(node, on_path):
        on_path = on_path | {node}
        if node in outputs:
            meet[0] = on_path if meet[0] is None else meet[0] & on_path
            return
        for nxt in fanouts[node]:
            if gates[nxt].gtype is GateType.DFF or nxt in on_path:
                continue
            walk(nxt, on_path)

    walk(start, frozenset())
    return meet[0]


@pytest.mark.parametrize("seed", SEEDS)
def test_dominators_match_path_enumeration(seed):
    nl = random_netlist(seed)
    facts = netlist_facts(nl)
    for gate in nl.gates:
        expected = brute_force_dominators(nl, gate.index)
        assert facts.dominators(gate.index) == expected


def test_dominators_stop_at_primary_output():
    """Observation happens at the PO pin even when the PO has fanout."""
    nl = Netlist("po-fanout")
    a = nl.add_input("a")
    po = nl.add_gate("po", GateType.NOT, [a])
    more = nl.add_gate("more", GateType.NOT, [po])
    nl.set_outputs([po, more])
    facts = netlist_facts(nl)
    assert facts.dominators(po) == frozenset({po})
    assert facts.dominators(a) == frozenset({a, po})


def _odc_cases():
    """Named netlists for the blocked-set oracle, each followed by 1-3
    random stem/branch stuck-at corrections applied to copies."""
    bases = [generators.c17(), generators.s27(),
             generators.ripple_carry_adder(8), generators.hamming_corrector(8),
             generators.alu(4), generators.comparator(8)]
    bases += [generators.random_dag(8, 60, 4, seed=s) for s in range(5)]
    bases += [generators.random_sequential(6, 50, 4, 4, seed=s)
              for s in range(5)]
    bases += [random_netlist(s, num_gates=20) for s in range(12)]
    rng = random.Random(5)
    for base in bases:
        nl = base
        yield f"{base.name}+0", nl
        for depth in range(1, 4):
            table = LineTable(nl)
            nl = nl.copy()
            line = rng.randrange(len(table))
            apply_correction(nl, table,
                             stuck_at_correction(table, line,
                                                 rng.randrange(2)))
            yield f"{base.name}+{depth}", nl


@pytest.mark.parametrize("deep", [False, True])
def test_blocked_signals_match_per_signal_oracle(deep):
    """The constant-seeded blocked set equals the per-signal ODC loop."""
    nonempty = 0
    for name, nl in _odc_cases():
        got = NetlistFacts(nl).blocked_signals(deep=deep)
        assert got == blocked_signals_oracle(NetlistFacts(nl), deep), name
        nonempty += bool(got)
    assert nonempty  # the corrections do create blocked regions


def test_blocked_signals_on_cyclic_netlist():
    """A constant side input blocks a loop it dominates."""
    nl = Netlist("forced")
    c0 = nl.add_gate("c0", GateType.CONST0, [])
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.OR, [a, a])
    g2 = nl.add_gate("g2", GateType.AND, [g1, c0])
    nl.set_fanin(g1, [g2, a])
    nl.set_outputs([g2])
    facts = NetlistFacts(nl)
    assert facts.blocked_signals() == {a, g1}
    assert facts.blocked_signals() == blocked_signals_oracle(facts)


# ----------------------------------------------------------------------
# engine plumbing
# ----------------------------------------------------------------------
def test_scc_order_is_dependencies_first():
    succ = {0: [1], 1: [2], 2: [1, 3], 3: []}
    comps = strongly_connected_components(4, lambda i: succ[i])
    position = {node: idx for idx, comp in enumerate(comps)
                for node in comp}
    assert position[3] < position[1] == position[2] < position[0]


def oscillator() -> Netlist:
    """A two-gate combinational loop driven by one input."""
    nl = Netlist("cyc")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.AND, [a, a])
    g2 = nl.add_gate("g2", GateType.OR, [g1, a])
    nl.set_fanin(g1, [g2, a])
    nl.set_outputs([g2])
    return nl


def forced_loop() -> Netlist:
    """A two-gate loop whose AND gates a constant 0 decides."""
    nl = Netlist("forced")
    c0 = nl.add_gate("c0", GateType.CONST0, [])
    g1 = nl.add_gate("g1", GateType.AND, [c0, c0])
    g2 = nl.add_gate("g2", GateType.AND, [g1, c0])
    nl.set_fanin(g1, [g2, c0])
    nl.set_outputs([g2])
    return nl


def test_fixpoint_on_cyclic_netlist_terminates():
    nl = oscillator()
    values = run_dataflow(nl, TernaryConstants())
    assert values == [None, None, None]  # oscillator stays X
    facts = netlist_facts(nl)
    assert facts.summary(deep=True)["netlist"] == "cyc"


def test_cycle_forced_constant_resolves():
    """A controlling value from outside a loop decides it."""
    nl = forced_loop()
    g1, g2 = nl.index_of("g1"), nl.index_of("g2")
    values = run_dataflow(nl, TernaryConstants())
    assert values[g1] == 0 and values[g2] == 0


# ----------------------------------------------------------------------
# region re-solve == whole-netlist run
# ----------------------------------------------------------------------
def cyclic_netlist(seed: int) -> Netlist:
    """:func:`random_netlist` with two back edges, each rewiring a pin
    of a gate to a gate downstream of it (a combinational cycle)."""
    nl = random_netlist(seed, num_gates=16)
    rng = random.Random(seed)
    for _ in range(2):
        sink = rng.choice([g.index for g in nl.gates if g.fanin])
        downstream = sorted(NetlistFacts(nl).cone(sink) - {sink})
        if downstream:
            pin = rng.randrange(len(nl.gates[sink].fanin))
            nl.replace_fanin_pin(sink, pin, rng.choice(downstream))
    return nl


REGION_CASES = {
    "dag": lambda: generators.random_dag(num_inputs=6, num_gates=40,
                                         num_outputs=4, seed=1),
    **{f"rnd{seed}": (lambda seed=seed: random_netlist(seed))
       for seed in range(4)},
    **{f"cyc{seed}": (lambda seed=seed: cyclic_netlist(seed))
       for seed in range(6)},
    "oscillator": oscillator,
    "forced": forced_loop,
}


def forward_region(nl: Netlist, seeds) -> set:
    facts = NetlistFacts(nl)
    return set().union(*(facts.cone(s) for s in seeds))


def cycles(nl: Netlist) -> list:
    """The combinational cycles of ``nl``, as member sets."""
    def deps(i):
        gate = nl.gates[i]
        return () if gate.gtype is GateType.DFF else gate.fanin
    return [set(comp) for comp in strongly_connected_components(
        len(nl.gates), deps) if len(comp) > 1 or comp[0] in deps(comp[0])]


@pytest.mark.parametrize("name", sorted(REGION_CASES))
def test_region_resolve_equals_full_run(name):
    """Re-solving the forward region of random gate sets, from wrong
    values inside it and the fixed point outside it, gives the whole
    netlist's fixed point."""
    nl = REGION_CASES[name]()
    full = run_dataflow(nl, TernaryConstants())
    rng = random.Random(name)
    whole_cycles = 0
    for _ in range(8):
        region = forward_region(nl, rng.sample(range(len(nl.gates)),
                                               rng.randint(1, 3)))
        values = list(full)
        for g in region:
            values[g] = rng.randrange(2) if full[g] is None \
                else 1 - full[g]
        assert run_dataflow(nl, TernaryConstants(), values,
                            region) is values
        assert values == full, sorted(region)
        whole_cycles += sum(cyc <= region for cyc in cycles(nl))
    if cycles(nl):
        assert whole_cycles


@pytest.mark.parametrize("name", sorted(REGION_CASES))
def test_region_resolve_after_edits_equals_full_run(name):
    """The warm's use: the parent's fixed point outside the fanout
    closure of a copy's touched gates, two stem ties and a type change
    inside it, re-solved to the copy's own fixed point."""
    parent = REGION_CASES[name]()
    rng = random.Random(name)
    comb = [g.index for g in parent.gates
            if g.gtype in (GateType.AND, GateType.OR)]
    for trial in range(6):
        child = parent.copy()
        for line in rng.sample(range(len(parent.gates)), 2):
            child.tie_stem_to_constant(line, rng.randrange(2))
        if comb:
            g = rng.choice(comb)
            child.set_gate_type(g, GateType.OR
                                if child.gates[g].gtype is GateType.AND
                                else GateType.AND)
        values = run_dataflow(parent, TernaryConstants())
        values += [None] * (len(child.gates) - len(values))
        run_dataflow(child, TernaryConstants(), values,
                     forward_region(child, child.touched))
        assert values == run_dataflow(child, TernaryConstants()), trial


def test_region_resolve_through_a_whole_cycle():
    """Turning the loop's deciding constant to 1 leaves the loop free:
    its stale 0s are a fixed point too, so only the re-descent from
    the start value finds the least one (X)."""
    nl = forced_loop()
    g1, g2 = nl.index_of("g1"), nl.index_of("g2")
    values = run_dataflow(nl, TernaryConstants())
    assert values[g1] == values[g2] == 0
    child = nl.copy()
    child.set_gate_type(child.index_of("c0"), GateType.CONST1)
    region = forward_region(child, child.touched)
    assert {g1, g2} <= region
    run_dataflow(child, TernaryConstants(), values, region)
    assert values == run_dataflow(child, TernaryConstants()) \
        == [1, None, None]


# ----------------------------------------------------------------------
# caching / invalidation
# ----------------------------------------------------------------------
def test_facts_cached_until_mutation(c17):
    first = netlist_facts(c17)
    assert netlist_facts(c17) is first


def test_facts_invalidated_by_mutation():
    nl = generators.c17()
    facts = netlist_facts(nl)
    before = dict(facts.constants())
    assert isinstance(facts, NetlistFacts)
    tied = nl.add_gate("tie", GateType.CONST0, [])
    target = nl.outputs[0]
    nl.set_fanin(target, [tied, nl.gates[target].fanin[1]])
    fresh = netlist_facts(nl)
    assert fresh is not facts
    assert before == {}  # c17 has no constants
    assert fresh.constants()  # the tied line now propagates


def test_facts_results_track_structure():
    nl = Netlist("track")
    a = nl.add_input("a")
    b = nl.add_gate("b", GateType.BUF, [a])
    nl.set_outputs([b])
    assert netlist_facts(nl).dominators(a) == frozenset({a, b})
    c = nl.add_gate("c", GateType.NOT, [a])
    nl.set_outputs([b, c])
    assert netlist_facts(nl).dominators(a) == frozenset({a})
