"""Additional simulator coverage: multi-override propagation."""

import numpy as np

from repro.circuit import GateType, Netlist
from repro.sim import PatternSet, lookup, propagate, simulate


def chain():
    nl = Netlist("chain")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g1 = nl.add_gate("g1", GateType.AND, [a, b])
    g2 = nl.add_gate("g2", GateType.OR, [g1, a])
    g3 = nl.add_gate("g3", GateType.XOR, [g2, b])
    nl.set_outputs([g3])
    return nl


def test_multiple_stem_overrides_compose():
    nl = chain()
    patterns = PatternSet.exhaustive(2)
    values = simulate(nl, patterns)
    zeros = np.zeros_like(values[0])
    ones = np.full_like(values[0], np.uint64(0xFFFFFFFFFFFFFFFF))
    changed = propagate(nl, values,
                        {nl.index_of("g1"): ones, nl.index_of("a"): zeros})
    # reference: mutate structurally
    ref = nl.copy()
    ref.tie_stem_to_constant(ref.index_of("g1"), 1)
    ref.tie_stem_to_constant(ref.index_of("a"), 0)
    ref_values = simulate(ref, patterns)
    got = lookup(changed, values, nl.outputs[0])
    mask = np.uint64(0b1111)
    assert (got[0] & mask) == (ref_values[ref.outputs[0]][0] & mask)


def test_mixed_stem_and_pin_overrides():
    nl = chain()
    patterns = PatternSet.exhaustive(2)
    values = simulate(nl, patterns)
    ones = np.full_like(values[0], np.uint64(0xFFFFFFFFFFFFFFFF))
    g2 = nl.index_of("g2")
    changed = propagate(nl, values,
                        {nl.index_of("b"): ones, (g2, 1): ones})
    ref = nl.copy()
    ref.tie_stem_to_constant(ref.index_of("b"), 1)
    ref.tie_branch_to_constant(g2, 1, 1)
    ref_values = simulate(ref, patterns)
    got = lookup(changed, values, nl.outputs[0])
    mask = np.uint64(0b1111)
    assert (got[0] & mask) == (ref_values[ref.outputs[0]][0] & mask)


def test_lookup_falls_back_to_baseline():
    nl = chain()
    patterns = PatternSet.exhaustive(2)
    values = simulate(nl, patterns)
    assert np.array_equal(lookup({}, values, 0), values[0])
