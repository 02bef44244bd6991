"""Decision tree: Fig. 2 round order, traversal variants, caps."""

import pytest

from repro.diagnose import (DecisionTree, DiagnosisConfig, DiagnosisState,
                            HLevel, Mode, round_visit_order)
from repro.diagnose.report import EngineStats
from repro.faults import inject_stuck_at_faults
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

