"""Edit version, change record, no-op mutations, per-mutator invalidation."""

import pytest

from repro.circuit import GateType, Netlist


def diamond():
    nl = Netlist("diamond")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g1 = nl.add_gate("g1", GateType.AND, [a, b])
    g2 = nl.add_gate("g2", GateType.OR, [a, b])
    g3 = nl.add_gate("g3", GateType.NAND, [g1, g2])
    nl.set_outputs([g3])
    return nl


# ----------------------------------------------------------------------
# edit version and change record
# ----------------------------------------------------------------------
def test_version_advances_per_primitive_edit():
    nl = diamond()
    v0 = nl.version
    nl.set_gate_type(nl.index_of("g1"), GateType.NOR)
    assert nl.version == v0 + 1
    nl.set_fanin(nl.index_of("g3"), [nl.index_of("g2"),
                                     nl.index_of("g1")])
    assert nl.version == v0 + 3  # two pin replacements


def test_change_record_names_touched_gates():
    nl = diamond().copy()
    nl.set_gate_type(nl.index_of("g1"), GateType.NOR)
    nl.replace_fanin_pin(nl.index_of("g3"), 0, nl.index_of("g2"))
    assert nl.touched == {nl.index_of("g1"), nl.index_of("g3")}
    assert nl.rewired
    assert nl.version == 2
    # an output-list edit touches no gate but rewires
    dup = diamond().copy()
    dup.set_outputs([dup.index_of("g1")])
    assert dup.touched == set()
    assert dup.rewired
    assert dup.version == 1


def test_change_record_unknown_after_dirty():
    nl = diamond()
    assert nl.touched is None                      # not a copy
    dup = nl.copy()
    dup.set_gate_type(dup.index_of("g1"), GateType.NOR)
    v = dup.version
    dup._dirty()                                   # full invalidation
    assert dup.touched is None
    assert dup.version == v + 1
    dup.set_gate_type(dup.index_of("g2"), GateType.NOR)
    assert dup.touched is None                     # stays unknown


def test_copy_starts_empty_change_record():
    nl = diamond()
    nl.set_gate_type(nl.index_of("g1"), GateType.NOR)
    dup = nl.copy()
    assert dup.version == 0
    assert dup.touched == set() and not dup.rewired
    dup.replace_fanin_pin(dup.index_of("g3"), 0, dup.index_of("g2"))
    assert dup.version == 1
    assert dup.touched == {dup.index_of("g3")}
    assert nl.touched is None                      # the original is apart


def test_compound_mutators_decompose_into_primitives():
    nl = diamond().copy()
    a = nl.index_of("a")
    inv = nl.insert_gate_on_stem(a, GateType.NOT)
    # one gate added plus one pin replacement each for g1 and g2; a was
    # not a PO, so the output list is untouched
    assert nl.version == 3
    assert nl.touched == {inv, nl.index_of("g1"), nl.index_of("g2")}
    assert nl.rewired
    assert nl.outputs == [nl.index_of("g3")]


# ----------------------------------------------------------------------
# no-op mutations must not invalidate anything
# ----------------------------------------------------------------------
def test_noop_set_gate_type_keeps_version_and_caches():
    nl = diamond()
    topo = nl.topo_order()
    cone = nl.sorted_cone(nl.index_of("a"))
    v = nl.version
    nl.set_gate_type(nl.index_of("g1"), GateType.AND)  # already AND
    assert nl.version == v
    assert nl.topo_order() is topo
    assert nl.sorted_cone(nl.index_of("a")) is cone


def test_noop_replace_fanin_pin_keeps_version_and_caches():
    nl = diamond()
    g1 = nl.index_of("g1")
    fos = nl.fanouts()
    lev = nl.levels()
    v = nl.version
    nl.replace_fanin_pin(g1, 0, nl.gates[g1].fanin[0])  # same source
    assert nl.version == v
    assert nl.fanouts() is fos
    assert nl.levels() is lev


def test_noop_set_fanin_and_outputs_keep_version():
    nl = diamond()
    g3 = nl.index_of("g3")
    v = nl.version
    nl.set_fanin(g3, list(nl.gates[g3].fanin))
    nl.set_outputs(list(nl.outputs))
    assert nl.version == v


# ----------------------------------------------------------------------
# per-mutator invalidation matrix: exactly which caches drop
# ----------------------------------------------------------------------
def _warm(nl):
    """Materialize every structural cache and return the objects."""
    return {
        "fanouts": nl.fanouts(),
        "event_fanouts": nl.event_fanouts(),
        "topo": nl.topo_order(),
        "levels": nl.levels(),
    }


def test_matrix_type_change_comb_to_comb_preserves_structure():
    nl = diamond()
    before = _warm(nl)
    cone = nl.sorted_cone(nl.index_of("a"))
    nl.set_gate_type(nl.index_of("g1"), GateType.NOR)
    # connectivity untouched: every structural cache survives as-is
    assert nl.fanouts() is before["fanouts"]
    assert nl.event_fanouts() is before["event_fanouts"]
    assert nl.topo_order() is before["topo"]
    assert nl.levels() is before["levels"]
    assert nl.sorted_cone(nl.index_of("a")) is cone
    assert nl._sim_tables is None                  # semantics changed


def test_matrix_outputs_set_preserves_structure():
    nl = diamond()
    before = _warm(nl)
    nl.set_outputs([nl.index_of("g1")])
    assert nl.fanouts() is before["fanouts"]
    assert nl.event_fanouts() is before["event_fanouts"]
    assert nl.topo_order() is before["topo"]
    assert nl.levels() is before["levels"]


def test_matrix_pin_edit_patches_fanouts_drops_levels_and_cones():
    nl = diamond()
    a, b = nl.index_of("a"), nl.index_of("b")
    g1, g2 = nl.index_of("g1"), nl.index_of("g2")
    before = _warm(nl)
    cone_a = nl.sorted_cone(a)
    nl.replace_fanin_pin(g1, 0, g2)                # a -> g2 on pin 0
    assert nl.fanouts() is before["fanouts"]       # patched in place
    assert g1 not in nl.fanouts()[a]
    assert g1 in nl.fanouts()[g2]
    assert nl.event_fanouts() is before["event_fanouts"]
    assert nl.topo_order() is before["topo"]       # order still valid
    assert nl.levels() is not before["levels"]     # recomputed lazily
    assert nl.levels()[g1] == 2
    assert nl.sorted_cone(a) is not cone_a         # cone membership moved
    assert set(nl.sorted_cone(a)) == {a, g2, g1, nl.index_of("g3")}


def test_matrix_gate_added_extends_everything_in_place():
    nl = diamond()
    before = _warm(nl)
    cone_b = nl.sorted_cone(nl.index_of("b"))
    g3 = nl.index_of("g3")
    g4 = nl.add_gate("g4", GateType.NOT, [g3])
    assert nl.fanouts() is before["fanouts"]
    assert nl.fanouts()[g3] == [g4]
    assert nl.event_fanouts() is before["event_fanouts"]
    assert nl.topo_order() is before["topo"]
    assert nl.topo_order()[-1] == g4
    assert nl.levels() is before["levels"]         # appended, not dropped
    assert nl.levels()[g4] == nl.levels()[g3] + 1
    assert nl.sorted_cone(nl.index_of("b")) is not cone_b
    assert g4 in nl.sorted_cone(nl.index_of("b"))


def test_matrix_cut_type_change_falls_back_to_full_invalidate():
    nl = Netlist("seq")
    a = nl.add_input("a")
    ff = nl.add_gate("ff", GateType.DFF, [a])
    g = nl.add_gate("g", GateType.BUF, [ff])
    nl.set_outputs([g])
    nl = nl.copy()
    before = _warm(nl)
    nl.set_gate_type(ff, GateType.NOT)             # DFF -> comb: cut edit
    assert nl.touched is None                      # record unknown
    assert nl._fanouts is None and nl._topo is None
    assert nl._facts is None
    assert nl.fanouts() is not before["fanouts"]


def test_matrix_topo_rank_repair_on_order_violating_edge():
    # Build so that g_late precedes g_early in the cached order, then
    # add the edge g_late -> g_early: Pearce-Kelly must repair ranks
    # without a full recompute (same list object, still a valid order).
    nl = Netlist("pk")
    a = nl.add_input("a")
    early = nl.add_gate("early", GateType.BUF, [a])
    late = nl.add_gate("late", GateType.NOT, [a])
    nl.set_outputs([early, late])
    topo = nl.topo_order()
    assert topo.index(early) < topo.index(late)
    nl.set_fanin(early, [late])
    assert nl.topo_order() is topo                 # repaired in place
    pos = nl.topo_positions()
    for gate in nl.gates:
        for src in gate.fanin:
            assert pos[src] < pos[gate.index]


def test_cycle_creating_edge_raises_lazily():
    nl = Netlist("cyc")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.BUF, [a])
    g2 = nl.add_gate("g2", GateType.NOT, [g1])
    nl.set_outputs([g2])
    nl.topo_order()
    nl.replace_fanin_pin(g1, 0, g2)                # closes a comb cycle
    from repro.errors import NetlistError
    with pytest.raises(NetlistError, match="cycle"):
        nl.topo_order()


def test_delta_accessors_on_handwritten_edits():
    # A comb-to-comb type change touches its gate and no edge.
    nl = diamond().copy()
    g1 = nl.index_of("g1")
    nl.set_gate_type(g1, GateType.OR)
    assert nl.touched == {g1}
    assert not nl.rewired
    assert nl.version == 1
