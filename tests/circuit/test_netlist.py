"""Netlist construction, queries and mutation operators."""

import copy

import pytest

from repro.circuit import GateType, Netlist
from repro.errors import NetlistError


def tiny():
    nl = Netlist("tiny")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g1 = nl.add_gate("g1", GateType.AND, [a, b])
    g2 = nl.add_gate("g2", GateType.NOT, [g1])
    nl.set_outputs([g2])
    return nl


def test_add_gate_assigns_indices_in_order():
    nl = tiny()
    assert [g.index for g in nl.gates] == [0, 1, 2, 3]
    assert nl.gate("g1").fanin == [0, 1]


def test_duplicate_name_rejected():
    nl = tiny()
    with pytest.raises(NetlistError, match="duplicate"):
        nl.add_gate("g1", GateType.NOT, [0])


def test_bad_arity_rejected():
    nl = tiny()
    with pytest.raises(NetlistError):
        nl.add_gate("bad", GateType.NOT, [0, 1])
    with pytest.raises(NetlistError):
        nl.add_gate("bad2", GateType.INPUT, [0])


def test_dangling_fanin_rejected():
    nl = tiny()
    with pytest.raises(NetlistError, match="out of range"):
        nl.add_gate("bad", GateType.NOT, [99])


def test_gate_lookup_by_name_and_index():
    nl = tiny()
    assert nl.gate("a").index == nl.index_of("a")
    assert nl.gate(0).name == "a"
    with pytest.raises(NetlistError, match="no gate named"):
        nl.gate("nope")


def test_fanouts_with_multiplicity():
    nl = Netlist("fan")
    a = nl.add_input("a")
    g = nl.add_gate("g", GateType.AND, [a, a])
    nl.set_outputs([g])
    assert nl.fanouts()[a] == [g, g]


def test_topo_order_respects_dependencies():
    nl = tiny()
    order = nl.topo_order()
    pos = {idx: i for i, idx in enumerate(order)}
    for gate in nl.gates:
        for src in gate.fanin:
            assert pos[src] < pos[gate.index]


def test_topo_order_includes_detached_gates():
    nl = tiny()
    orphan = nl.add_gate("orphan", GateType.OR, [0, 1])
    assert orphan in nl.topo_order()
    assert orphan not in nl.live_set()


def test_cycle_detected():
    nl = Netlist("cyc")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.AND, [a, a])
    g2 = nl.add_gate("g2", GateType.OR, [g1, a])
    nl.gates[g1].fanin = [a, g2]  # force a cycle behind the API
    nl._dirty()
    nl.set_outputs([g2])
    with pytest.raises(NetlistError, match="cycle"):
        nl.topo_order()


def test_dff_breaks_combinational_cycles():
    nl = Netlist("seq")
    a = nl.add_input("a")
    ff = nl.add_gate("ff", GateType.DFF, [a])
    g = nl.add_gate("g", GateType.AND, [a, ff])
    nl.gates[ff].fanin = [g]  # feedback through the DFF is legal
    nl._dirty()
    nl.set_outputs([g])
    assert set(nl.topo_order()) == {a, ff, g}
    assert not nl.is_combinational


def test_levels_monotone():
    nl = tiny()
    levels = nl.levels()
    assert levels[nl.index_of("a")] == 0
    assert levels[nl.index_of("g1")] == 1
    assert levels[nl.index_of("g2")] == 2


def test_cones():
    nl = tiny()
    a = nl.index_of("a")
    g2 = nl.index_of("g2")
    assert g2 in nl.fanout_cone(a)
    assert a in nl.fanin_cone(g2)
    assert nl.fanin_cone(a) == {a}


def _scratch_structure(nl):
    """Fanouts, event fanouts and levels recomputed from the gates."""
    scratch = Netlist(nl.name)
    scratch.gates = [g.copy() for g in nl.gates]
    scratch.outputs = list(nl.outputs)
    return scratch.fanouts(), scratch.event_fanouts(), scratch.levels()


def _materialized(nl):
    return (nl.fanouts(), nl.event_fanouts(), nl.topo_order(),
            nl.topo_positions(), nl.levels())


#: One of each stuck-at, insert and rewire mutator, on c17's gates.
_MUTATORS = {
    "tie_stem": lambda nl: nl.tie_stem_to_constant(nl.index_of("11"), 0),
    "tie_branch": lambda nl: nl.tie_branch_to_constant(
        nl.index_of("16"), 1, 1),
    "insert_stem": lambda nl: nl.insert_gate_on_stem(
        nl.index_of("11"), GateType.NOT),
    "insert_branch": lambda nl: nl.insert_gate_on_branch(
        nl.index_of("19"), 0, GateType.NOT),
    "insert_binary": lambda nl: nl.insert_binary_on_stem(
        nl.index_of("16"), GateType.AND, nl.index_of("1")),
    "replace_pin": lambda nl: nl.replace_fanin_pin(
        nl.index_of("10"), 0, nl.index_of("19")),
    "add_pin": lambda nl: nl.add_fanin_pin(
        nl.index_of("10"), nl.index_of("16")),
    "remove_pin": lambda nl: nl.remove_fanin_pin(nl.index_of("23"), 1),
    "bypass": lambda nl: nl.bypass_gate(nl.index_of("19"), 0),
}


def test_copy_is_independent():
    """A copy owns its gates and its inherited structural caches: edits
    to it repair its own caches and never reach the parent's."""
    nl = tiny()
    dup = nl.copy()
    dup.set_gate_type(dup.index_of("g1"), GateType.OR)
    assert nl.gate("g1").gtype is GateType.AND
    assert dup.gates[2].fanin is not nl.gates[2].fanin

    from repro.circuit import generators
    parent = generators.c17()
    before = copy.deepcopy(_materialized(parent))
    for name, mutate in _MUTATORS.items():
        child = parent.copy()
        mutate(child)
        assert child.version > 0, name
        # the parent's caches are untouched and still match its gates
        after = _materialized(parent)
        assert after == before, name
        assert (after[0], after[1], after[4]) == \
            _scratch_structure(parent), name
        # the copy's repaired caches hold what a scratch build computes
        fanouts, events, levels = _scratch_structure(child)
        assert [sorted(row) for row in child.fanouts()] == fanouts, name
        assert [sorted(row) for row in child.event_fanouts()] == \
            [sorted(row) for row in events], name
        assert child.levels() == levels, name
        order = child.topo_order()
        assert sorted(order) == list(range(len(child.gates))), name
        pos = child.topo_positions()
        assert all(order[pos[g]] == g for g in range(len(order))), name
        for gate in child.gates:
            assert all(pos[src] < pos[gate.index]
                       for src in gate.fanin), name


def test_set_gate_type_checks_arity():
    nl = tiny()
    with pytest.raises(NetlistError):
        nl.set_gate_type(nl.index_of("g2"), GateType.INPUT)
    nl.set_gate_type(nl.index_of("g1"), GateType.NOR)
    assert nl.gate("g1").gtype is GateType.NOR


def test_replace_and_remove_fanin_pin():
    nl = Netlist("x")
    a = nl.add_input("a")
    b = nl.add_input("b")
    c = nl.add_input("c")
    g = nl.add_gate("g", GateType.AND, [a, b, c])
    nl.set_outputs([g])
    nl.replace_fanin_pin(g, 1, c)
    assert nl.gates[g].fanin == [a, c, c]
    nl.remove_fanin_pin(g, 0)
    assert nl.gates[g].fanin == [c, c]
    with pytest.raises(NetlistError, match="no pin"):
        nl.remove_fanin_pin(g, 5)


def test_remove_fanin_pin_degrades_to_unary():
    nl = Netlist("x")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g = nl.add_gate("g", GateType.NAND, [a, b])
    nl.set_outputs([g])
    nl.remove_fanin_pin(g, 1)
    assert nl.gates[g].gtype is GateType.NOT
    with pytest.raises(NetlistError, match="1-input"):
        nl.remove_fanin_pin(g, 0)


def test_add_fanin_pin_promotes_unary():
    nl = Netlist("x")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g = nl.add_gate("g", GateType.NOT, [a])
    nl.set_outputs([g])
    nl.add_fanin_pin(g, b)
    assert nl.gates[g].gtype is GateType.NAND
    assert nl.gates[g].fanin == [a, b]


def test_insert_gate_on_stem_rewires_everything():
    nl = Netlist("x")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.BUF, [a])
    g2 = nl.add_gate("g2", GateType.NOT, [a])
    nl.set_outputs([g1, g2, a])
    inv = nl.insert_gate_on_stem(a, GateType.NOT)
    assert nl.gates[g1].fanin == [inv]
    assert nl.gates[g2].fanin == [inv]
    assert nl.outputs == [g1, g2, inv]
    assert nl.gates[inv].fanin == [a]


def test_insert_gate_on_branch_rewires_one_pin():
    nl = Netlist("x")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.BUF, [a])
    g2 = nl.add_gate("g2", GateType.NOT, [a])
    nl.set_outputs([g1, g2])
    inv = nl.insert_gate_on_branch(g2, 0, GateType.NOT)
    assert nl.gates[g1].fanin == [a]
    assert nl.gates[g2].fanin == [inv]


def test_bypass_gate():
    nl = Netlist("x")
    a = nl.add_input("a")
    inv = nl.add_gate("inv", GateType.NOT, [a])
    g = nl.add_gate("g", GateType.BUF, [inv])
    nl.set_outputs([g, inv])
    nl.bypass_gate(inv)
    assert nl.gates[g].fanin == [a]
    assert nl.outputs == [g, a]
    with pytest.raises(NetlistError):
        nl.bypass_gate(g if len(nl.gates[g].fanin) != 1 else a)


def test_tie_stem_to_constant():
    nl = tiny()
    g1 = nl.index_of("g1")
    const = nl.tie_stem_to_constant(g1, 1)
    assert nl.gates[const].gtype is GateType.CONST1
    assert nl.gate("g2").fanin == [const]
    # g1 itself is now detached from the outputs
    assert g1 not in nl.live_set()


def test_tie_branch_to_constant():
    nl = Netlist("x")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.BUF, [a])
    g2 = nl.add_gate("g2", GateType.NOT, [a])
    nl.set_outputs([g1, g2])
    const = nl.tie_branch_to_constant(g2, 0, 0)
    assert nl.gates[g2].fanin == [const]
    assert nl.gates[g1].fanin == [a]  # other branch untouched


def test_compacted_drops_detached_keeps_inputs():
    nl = tiny()
    nl.add_gate("orphan", GateType.OR, [0, 1])
    packed = nl.compacted()
    names = {g.name for g in packed.gates}
    assert "orphan" not in names
    assert {"a", "b", "g1", "g2"} <= names
    assert packed.num_outputs == 1


def test_fresh_name():
    nl = tiny()
    assert nl.fresh_name("new") == "new"
    assert nl.fresh_name("g1") == "g1_1"


def test_stats(c17):
    stats = c17.stats()
    assert stats["gates"] == 11
    assert stats["inputs"] == 5
    assert stats["outputs"] == 2
    assert stats["depth"] == 3


# ----------------------------------------------------------------------
# derived-structure caching and invalidation
# ----------------------------------------------------------------------
def test_cone_caches_are_stable_between_calls():
    nl = tiny()
    a = nl.index_of("a")
    assert nl.sorted_cone(a) is nl.sorted_cone(a)
    assert nl.fanout_cone(a) is nl.fanout_cone(a)
    assert nl.event_fanouts() is nl.event_fanouts()
    assert nl.levels() is nl.levels()
    assert nl.topo_positions() is nl.topo_positions()


def test_sorted_cone_is_topologically_ordered():
    nl = tiny()
    a = nl.index_of("a")
    cone = nl.sorted_cone(a)
    pos = nl.topo_positions()
    assert set(cone) == nl.fanout_cone(a)
    assert list(cone) == sorted(cone, key=pos.__getitem__)


def test_mutation_updates_cone_and_level_caches():
    nl = tiny()
    a = nl.index_of("a")
    g2 = nl.index_of("g2")
    before_cone = nl.sorted_cone(a)
    before_sets = nl.fanout_cone(a)
    lev_g2 = nl.levels()[g2]
    # new consumer of g2 must show up in every derived structure; cones
    # containing g2 are dropped, event fanouts and levels are patched in
    # place (the cached objects may be reused — content is the contract)
    g3 = nl.add_gate("g3", GateType.NOT, [g2])
    nl.set_outputs([g3])
    after_cone = nl.sorted_cone(a)
    assert after_cone is not before_cone
    assert g3 in after_cone
    after_sets = nl.fanout_cone(a)
    assert after_sets is not before_sets
    assert g3 in after_sets
    assert g3 in nl.event_fanouts()[g2]
    assert nl.levels()[g3] == lev_g2 + 1
    assert nl.levels() == nl.copy().levels()


def test_replace_fanin_pin_invalidates_cones():
    nl = tiny()
    a = nl.index_of("a")
    b = nl.index_of("b")
    g1 = nl.index_of("g1")
    assert g1 in nl.fanout_cone(a)
    nl.replace_fanin_pin(g1, 0, b)  # g1 now reads b twice
    assert nl.fanout_cone(a) == {a}
    assert nl.fanout_cone(b) == {b, g1, nl.index_of("g2")}
    # multi-pin consumer appears once in the deduplicated event fanouts
    assert nl.event_fanouts()[b] == (g1,)
    assert nl.fanouts()[b] == [g1, g1]


def test_set_fanin_invalidates_event_fanouts():
    nl = tiny()
    a = nl.index_of("a")
    b = nl.index_of("b")
    g1 = nl.index_of("g1")
    assert nl.event_fanouts()[a] == (g1,)
    nl.set_fanin(g1, [b, b])
    assert nl.event_fanouts()[a] == ()
    assert nl.event_fanouts()[b] == (g1,)


def test_event_fanouts_exclude_dff_sinks():
    nl = Netlist("seq")
    a = nl.add_input("a")
    g = nl.add_gate("g", GateType.NOT, [a])
    ff = nl.add_gate("ff", GateType.DFF, [g])
    h = nl.add_gate("h", GateType.BUF, [g])
    nl.set_outputs([ff, h])
    assert ff in nl.fanouts()[g]
    assert nl.event_fanouts()[g] == (h,)
