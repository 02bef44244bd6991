"""Exact-mode node expansion against its per-correction reference.

The engine screens a node's stuck-at corrections with one popcount of
the whole value matrix and decides a leaf's fate by propagating the
forced line (or by the verdict the head ordering already measured)
instead of building the child netlist.  These tests keep the
per-correction formulations as the reference and check that the
shortcuts give the same answers.
"""

import math
import random

import pytest

from repro.circuit import GateType, Netlist, generators
from repro.diagnose import DiagnosisConfig, DiagnosisState, Mode
from repro.diagnose.candidates import (is_correctable_line,
                                       stuck_at_corrections)
from repro.diagnose.engine import fast_stuck_at_child, screen_and_rank
from repro.diagnose.pathtrace import marked_lines, path_trace_counts
from repro.diagnose.report import EngineStats
from repro.diagnose.screening import (predicted_words, screen_verr,
                                      theorem1_bound)
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet, output_rows, simulate


def reference_screen_and_rank(state, lines, remaining, config):
    """The per-correction Theorem 1 loop, then the head ranking."""
    bound = theorem1_bound(state.num_err, remaining)
    bound = max(1, int(math.ceil(bound * config.theorem1_safety)))
    screened = []
    for line in lines:
        if not is_correctable_line(state, line):
            continue
        for corr in stuck_at_corrections(line):
            complemented = screen_verr(state, corr, bound)
            if complemented is not None:
                screened.append((complemented, corr))
    screened.sort(key=lambda pair: -pair[0])
    head_n = min(len(screened), config.corrections_per_node)
    scored_head = []
    for complemented, corr in screened[:head_n]:
        outcome, = state.outcome_of_override(
            corr.line, predicted_words(state, corr))
        err_after = (state.num_err - outcome.rectified_vectors
                     + outcome.broken_vectors)
        scored_head.append((err_after, -complemented, corr))
    scored_head.sort(key=lambda t: t[:2])
    return ([(-c, corr) for (_e, c, corr) in scored_head]
            + screened[head_n:])


def po_fanout_netlist():
    """Primary outputs that also feed gates, on stems and branches."""
    nl = Netlist("po_fanout")
    a, b, c, d = (nl.add_input(n) for n in "abcd")
    g1 = nl.add_gate("g1", GateType.NAND, [a, b])
    g2 = nl.add_gate("g2", GateType.OR, [g1, c])
    g3 = nl.add_gate("g3", GateType.XOR, [g1, d])
    g4 = nl.add_gate("g4", GateType.AND, [g2, g3, b])
    g5 = nl.add_gate("g5", GateType.NOR, [g2, a])
    nl.set_outputs([g1, g2, g4, g5])
    return nl


def device_state(spec, count, seed, nbits=200):
    """Fault-modeling direction: the good netlist against a device."""
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    return DiagnosisState(spec.copy(), patterns, device_out)


SPECS = {
    "c17": generators.c17,
    "rca4": lambda: generators.ripple_carry_adder(4),
    "po_fanout": po_fanout_netlist,
    "dag": lambda: generators.random_dag(6, 40, 4, seed=2),
}


def node_states(name, seed):
    """A 2-fault root state and two children, whose tables hold lines
    driven by the constants the children's corrections tied in."""
    root = device_state(SPECS[name](), 2, seed)
    if root.rectified:
        return []
    corrs = [corr for line in range(len(root.table))
             for corr in stuck_at_corrections(line)]
    rng = random.Random(seed)
    children = [fast_stuck_at_child(root, corr)
                for corr in rng.sample(corrs, 2)]
    return [root] + [child for child in children if not child.rectified]


@pytest.mark.parametrize("safety", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_matrix_screen_matches_per_correction_loop(name, safety):
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             theorem1_safety=safety)
    kinds = set()
    verdicts = set()
    admitted = 0
    for seed in range(4):
        for state in node_states(name, seed):
            lines = list(range(len(state.table)))
            random.Random(seed).shuffle(lines)
            for line in lines:
                entry = state.table[line]
                kinds.add("stem" if entry.is_stem else "branch")
                if not is_correctable_line(state, line):
                    kinds.add("constant")
            for remaining in (1, 2):
                got = screen_and_rank(state, lines, frozenset(),
                                      remaining, config, EngineStats())
                want = reference_screen_and_rank(state, lines,
                                                 remaining, config)
                assert [entry[:2] for entry in got] == want, (
                    name, seed, remaining)
                head_n = min(len(got), config.corrections_per_node)
                for i, (_c, corr, fixes_all) in enumerate(got):
                    if i < head_n:
                        assert fixes_all == fast_stuck_at_child(
                            state, corr).rectified, (name, seed, corr)
                        verdicts.add(fixes_all)
                    else:
                        assert fixes_all is None
                admitted += len(got)
    assert admitted > 0
    assert verdicts == {False, True}
    assert kinds == {"stem", "branch", "constant"}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_matrix_screen_drops_marked_constant_lines(name):
    """On a tied child the path-traced suspects include lines its own
    constant drives.  A constant driver always reaches the bound for
    one polarity, so the screen must still drop those lines as not
    correctable, as the reference loop does."""
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True)
    constant_lines = 0
    for seed in range(6):
        for state in node_states(name, seed)[1:]:
            lines = marked_lines(path_trace_counts(state, 64, seed))
            tied = [line for line in lines
                    if not is_correctable_line(state, line)]
            constant_lines += len(tied)
            for remaining in (1, 2):
                got = screen_and_rank(state, lines, frozenset(),
                                      remaining, config, EngineStats())
                assert [entry[:2] for entry in got] == \
                    reference_screen_and_rank(state, lines, remaining,
                                              config), (name, seed)
                assert not {corr.line for _c, corr, _f in got} \
                    & set(tied)
    assert constant_lines > 0


def test_leaf_rule_matches_the_built_child():
    """``outcome_of_override(...).fixes_all`` is exactly the built
    child's ``rectified``, for every stuck-at correction."""
    covered = set()
    fixes = 0
    for name in sorted(SPECS):
        for seed in range(3):
            for state in node_states(name, seed):
                outputs = set(state.netlist.outputs)
                for line in range(len(state.table)):
                    entry = state.table[line]
                    for corr in stuck_at_corrections(line):
                        outcome, = state.outcome_of_override(
                            line, predicted_words(state, corr))
                        child = fast_stuck_at_child(state, corr)
                        assert outcome.fixes_all == child.rectified, (
                            name, seed, state.table.describe(line),
                            corr.kind)
                        fixes += outcome.fixes_all
                    if entry.driver in outputs:
                        covered.add("stem->po" if entry.is_stem
                                    else "branch of po")
                    elif not entry.is_stem:
                        covered.add("branch")
    assert fixes > 0
    assert covered == {"stem->po", "branch", "branch of po"}
