"""The line model: stems, branches and the ISCAS line count."""

import pytest

from repro.circuit import GateType, LineKind, LineTable, Netlist


def test_c17_has_17_lines(c17):
    """c17 famously has 17 lines: 11 signals + 6 fanout branches."""
    table = LineTable(c17)
    assert len(table.stem_of_gate) == 11
    assert len(table.branch_of) == 6
    assert len(table) == 17


def test_single_fanout_has_no_branch():
    nl = Netlist("x")
    a = nl.add_input("a")
    g = nl.add_gate("g", GateType.BUF, [a])
    nl.set_outputs([g])
    table = LineTable(nl)
    assert len(table.branch_of) == 0
    assert table.branch(g, 0) is None


def test_branch_lookup_and_describe():
    nl = Netlist("x")
    a = nl.add_input("a")
    g1 = nl.add_gate("g1", GateType.BUF, [a])
    g2 = nl.add_gate("g2", GateType.NOT, [a])
    nl.set_outputs([g1, g2])
    table = LineTable(nl)
    branch = table.branch(g2, 0)
    assert branch is not None
    assert branch.kind is LineKind.BRANCH
    assert branch.driver == a
    assert branch.describe(nl) == "a->g2.0"
    stem = table.stem(a)
    assert stem.is_stem
    assert stem.describe(nl) == "a"


def test_only_live_filter():
    """A detached gate has no line; a dead primary input keeps its stem."""
    nl = Netlist("x")
    a = nl.add_input("a")
    unused = nl.add_input("unused")
    g = nl.add_gate("g", GateType.BUF, [a])
    orphan = nl.add_gate("orphan", GateType.NOT, [a])
    nl.set_outputs([g])
    table = LineTable(nl)
    assert [line.describe(nl) for line in table] == \
        ["a", "unused", "g", "a->g.0"]
    assert table.stem(unused).is_stem
    with pytest.raises(KeyError):
        table.stem(orphan)
    assert table.branch(orphan, 0) is None


def test_deterministic_order(c17):
    t1 = LineTable(c17)
    t2 = LineTable(c17)
    assert [l.describe(c17) for l in t1] == [l.describe(c17) for l in t2]
    # stems first, then branches
    kinds = [l.kind for l in t1]
    first_branch = kinds.index(LineKind.BRANCH)
    assert all(k is LineKind.STEM for k in kinds[:first_branch])
    assert all(k is LineKind.BRANCH for k in kinds[first_branch:])
