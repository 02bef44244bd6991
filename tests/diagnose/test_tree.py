"""Decision tree: Fig. 2 round order, traversal variants, caps."""

import pytest

from repro.circuit.netlist import Netlist
from repro.diagnose import (DecisionTree, DiagnosisConfig, DiagnosisState,
                            HLevel, Mode, round_visit_order)
from repro.diagnose.report import EngineStats
from repro.faults import inject_stuck_at_faults
from repro.faults.inject import observable_design_error_workload
from repro.faults.models import apply_correction
from repro.sim import PatternSet, output_rows, simulate


def test_fig2_round_order():
    """Fig. 2's numbering: each round every node spawns its next child,
    so the node count at most doubles per round."""
    created = round_visit_order(levels=3)
    assert created[()] == 0
    assert created[(0,)] == 1          # root's best correction: round 1
    assert created[(1,)] == 2          # root's 2nd: round 2
    assert created[(0, 0)] == 2        # node (0,)'s best: round 2
    assert created[(0, 0, 0)] == 3     # leftmost path grows 1/round
    assert created[(0, 1)] == 3        # (0,)'s 2nd correction
    assert created[(1, 0)] == 3
    assert created[(1, 1)] == 4
    # doubling: #nodes created by end of round r is <= 2^r
    for r in range(1, 4):
        count = sum(1 for v in created.values() if v <= r)
        assert count <= 2 ** r


def test_fig2_first_solution_depths():
    """Paper: 'the first possible solution triple is found in a tree
    with 3 nodes (completed half way through the 3rd round)' — i.e. the
    leftmost depth-3 path completes in round 3."""
    created = round_visit_order(levels=4)
    assert created[(0, 0, 0)] == 3
    assert created[(0, 0, 0, 0)] == 4


def _tree_for(c17, target=1, **config_kwargs):
    workload = inject_stuck_at_faults(c17, target, seed=2)
    patterns = PatternSet.random(5, 256, seed=1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(c17, patterns, device_out)
    config = DiagnosisConfig(mode=Mode.STUCK_AT, **config_kwargs)
    return DecisionTree(state, target, HLevel(0.1, 0.3, 0.5), config)


@pytest.mark.parametrize("traversal", ["rounds", "dfs", "bfs"])
def test_all_traversals_find_single_fault(c17, traversal):
    tree = _tree_for(c17, 1)
    solutions = tree.run(traversal=traversal)
    assert solutions
    assert solutions[0].size == 1
    assert solutions[0].netlist is not None


def test_node_cap_respected(c17):
    # The first solution needs 3 nodes, so a cap of 2 must stop the
    # search before it.
    tree = _tree_for(c17, 2, max_nodes=2)
    assert not tree.run()
    assert tree.stats.nodes <= 2  # cap checked before each apply
    assert "node-budget" in tree.stats.truncation_causes


def test_deadline_respected(c17):
    import time
    tree = _tree_for(c17, 2)
    tree.deadline = time.perf_counter() - 1.0  # already expired
    solutions = tree.run()
    assert not solutions
    assert tree.stats.truncated


def test_expand_records_phase_times(c17):
    tree = _tree_for(c17, 1)
    tree.expand(tree.root)
    assert tree.root.expanded
    assert tree.stats.diag_time >= 0.0
    assert tree.stats.corr_time >= 0.0
    assert tree.root.pending  # a single fault always yields candidates



@pytest.mark.parametrize("traversal", ["rounds", "dfs", "bfs"])
def test_dedc_builds_only_children_it_expands_or_reports(
        c17, monkeypatch, traversal):
    """Leaf rule: a leaf whose screen outcome fails V gets no netlist
    copy; built the old way, every such leaf indeed fails V."""
    patterns = PatternSet.random(5, 256, seed=1)
    workload = observable_design_error_workload(c17, 2, patterns, seed=3)
    state = DiagnosisState(workload.impl, patterns,
                           output_rows(c17, simulate(c17, patterns)))
    tree = DecisionTree(state, 2, HLevel(0.1, 0.3, 0.5),
                        DiagnosisConfig(mode=Mode.DESIGN_ERROR))
    copies = []
    children = []
    real_copy = Netlist.copy
    real_apply = DecisionTree.apply

    def counting_copy(self, *args):
        copies.append(self)
        return real_copy(self, *args)

    def recording_apply(self, node, sc, *args):
        before = len(copies)
        child = real_apply(self, node, sc, *args)
        children.append((node, sc, child, len(copies) - before))
        return child

    monkeypatch.setattr(Netlist, "copy", counting_copy)
    monkeypatch.setattr(DecisionTree, "apply", recording_apply)
    tree.run(traversal=traversal)
    skipped = []
    for node, sc, child, copied in children:
        if child is None:
            assert copied == 0 and node.depth + 1 == tree.target
            skipped.append((node, sc))
        else:
            # Built: a node that may expand, or a leaf that is reported.
            assert copied == 1
            assert child.depth < tree.target or child.state.rectified
    assert skipped
    assert tree.stats.nodes == len(children)
    monkeypatch.undo()
    for node, sc in skipped:
        parent = node.state
        netlist = parent.netlist.copy()
        apply_correction(netlist, parent.table, sc.correction)
        assert not parent.child(netlist, sc.correction,
                                sc.new_words).rectified
        assert not DiagnosisState(netlist, patterns,
                                  parent.spec_out).rectified
