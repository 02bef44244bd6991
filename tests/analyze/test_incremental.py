"""Child facts warming == from-scratch recomputation.

The property the diagnosis search relies on: apply one correction the
engine can apply — a stuck-at tie on a stem or a branch, or any kind of
the design-error vocabulary — to a ``copy()`` of a netlist whose facts
bundle the pre-screen already read, warm the child's bundle from the
parent's with :func:`warm_facts`, and every section the pre-screen reads
(constants, observability and the shallow blocked set) equals a bundle
computed from scratch on the child.  Each child is corrected once more,
so the warm also runs from a parent that carries tied constants.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.dataflow import NetlistFacts, netlist_facts, warm_facts
from repro.circuit import LineTable, generators
from repro.diagnose import DiagnosisConfig, Mode
from repro.diagnose.bitlists import DiagnosisState
from repro.diagnose.candidates import design_error_corrections
from repro.diagnose.report import EngineStats
from repro.diagnose.tree import warm_child_facts
from repro.faults.inject import observable_design_error_workload
from repro.faults.models import (STUCK_AT_KINDS, Correction,
                                 CorrectionKind, apply_correction)
from repro.sim import PatternSet
from repro.sim.logicsim import output_rows, simulate
from repro.sim.packing import num_words

#: Design-error corrections sampled per kind and circuit.
PER_KIND = 6

DE_KINDS = frozenset(CorrectionKind) - frozenset(STUCK_AT_KINDS)

CIRCUITS = {
    "rnd1": lambda: generators.random_dag(num_inputs=6, num_gates=40,
                                          num_outputs=4, seed=1),
    "rnd2": lambda: generators.random_dag(num_inputs=8, num_gates=60,
                                          num_outputs=5, seed=2),
    "rnd3": lambda: generators.random_dag(num_inputs=5, num_gates=30,
                                          num_outputs=3, seed=3),
    "alu4": lambda: generators.alu(4),
    "rca8": lambda: generators.ripple_carry_adder(8),
}


def prescreened(netlist):
    """The parent's bundle as the pre-screen leaves it."""
    facts = netlist_facts(netlist)
    facts.blocked_signals(deep=False)
    return facts


def erroneous_state(spec):
    """A root diagnosis state: ``spec`` with two observable design
    errors, against ``spec``'s responses."""
    patterns = PatternSet.random(spec.num_inputs, 128, seed=5)
    impl = observable_design_error_workload(spec, 2, patterns, seed=1).impl
    return DiagnosisState(impl, patterns,
                          output_rows(spec, simulate(spec, patterns)))


def design_error_vocabulary(state):
    """Up to :data:`PER_KIND` corrections of every design-error kind the
    vocabulary offers at ``state``, spread over its lines."""
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False)
    by_kind = {}
    for line in range(len(state.table)):
        for corr in design_error_corrections(state, line, config)[0]:
            by_kind.setdefault(corr.kind, []).append(corr)
    sample = []
    for corrs in by_kind.values():
        step = max(1, len(corrs) // PER_KIND)
        sample.extend(corrs[::step][:PER_KIND])
    return sample


def stuck_at_vocabulary(table):
    """Both ties on every stem and every branch."""
    return [Correction(line, kind) for line in range(len(table))
            for kind in STUCK_AT_KINDS]


def assert_warm_matches_scratch(parent_facts, child, context):
    assert child.touched is not None, \
        f"{context}: correction left the change record unknown"
    warm = warm_facts(child, parent_facts)
    assert warm._constants is not None       # warmed, not lazy
    scratch = NetlistFacts(child)
    assert warm.constants() == scratch.constants(), context
    assert warm.observable_set() == scratch.observable_set(), context
    assert warm.blocked_signals(deep=False) \
        == scratch.blocked_signals(deep=False), context
    return warm


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_warm_equals_scratch_for_every_correction_kind(name):
    state = erroneous_state(CIRCUITS[name]())
    netlist, table = state.netlist, state.table
    corrections = stuck_at_vocabulary(table) + design_error_vocabulary(state)
    parent_facts = prescreened(netlist)
    for i, corr in enumerate(corrections):
        context = f"{name}: {corr.describe(netlist, table)}"
        child = netlist.copy()
        apply_correction(child, table, corr)
        warm = assert_warm_matches_scratch(parent_facts, child, context)
        # A second tie on the child, warmed from the child's bundle.
        warm.blocked_signals(deep=False)
        child_table = LineTable(child)
        second = Correction((7 * i) % len(child_table),
                            STUCK_AT_KINDS[i % 2])
        grandchild = child.copy()
        apply_correction(grandchild, child_table, second)
        assert_warm_matches_scratch(
            warm, grandchild,
            f"{context} + {second.describe(child, child_table)}")


def test_vocabulary_covers_every_design_error_kind():
    kinds = set()
    for build in CIRCUITS.values():
        state = erroneous_state(build())
        kinds.update(c.kind for c in design_error_vocabulary(state))
    assert kinds == DE_KINDS


def test_warm_facts_does_not_mutate_base():
    nl = CIRCUITS["rnd1"]()
    base = prescreened(nl)
    before = (dict(base.constants()), base.observable_set(),
              base.blocked_signals(deep=False))
    table = LineTable(nl)
    child = nl.copy()
    apply_correction(child, table, Correction(3, CorrectionKind.STUCK_AT_1))
    warm = assert_warm_matches_scratch(base, child, "child warm")
    assert warm is not base
    assert (base.constants(), base.observable_set(),
            base.blocked_signals(deep=False)) == before


def test_empty_delta_copies_sections():
    nl = CIRCUITS["rnd2"]()
    base = prescreened(nl)
    dup = nl.copy()
    assert dup.touched == set() and not dup.rewired
    warm = warm_facts(dup, base)
    assert warm.constants() == base.constants()
    assert warm.observable_set() is base.observable_set()


def test_version_mismatch_after_dirty_recomputes_scratch():
    nl = CIRCUITS["rnd3"]()
    facts = prescreened(nl)
    nl._dirty()
    fresh = netlist_facts(nl)
    assert fresh is not facts
    assert fresh._constants is None      # scratch path: all lazy
    assert fresh.constants() == NetlistFacts(nl).constants()
    assert fresh.blocked_signals() == NetlistFacts(nl).blocked_signals()


def test_warm_child_facts_counts_each_correction_kind():
    """One correction of each kind on a copy: the warm adds the copy's
    primitive edits (its version) to ``delta_edits``; a copy whose
    change record is unknown is counted as recomputed instead."""
    one_of_each = {}
    for build in CIRCUITS.values():
        state = erroneous_state(build())
        for corr in (stuck_at_vocabulary(state.table)[:2]
                     + design_error_vocabulary(state)):
            one_of_each.setdefault(corr.kind, (state, corr))
    assert set(one_of_each) == set(CorrectionKind)
    for kind, (state, corr) in one_of_each.items():
        parent = state.netlist
        prescreened(parent)
        child = parent.copy()
        apply_correction(child, state.table, corr)
        assert child.version > 0
        stats = EngineStats()
        warm_child_facts(parent, child, stats)
        assert (stats.facts_reused, stats.facts_recomputed,
                stats.delta_edits) == (1, 0, child.version), kind
        child = parent.copy()
        apply_correction(child, state.table, corr)
        child._dirty()
        stats = EngineStats()
        warm_child_facts(parent, child, stats)
        assert (stats.facts_reused, stats.facts_recomputed,
                stats.delta_edits) == (0, 1, 0), kind


# ----------------------------------------------------------------------
# local observability: re-derived only where the rewiring can reach
# ----------------------------------------------------------------------
def random_state(netlist, seed):
    """A state against random reference responses, so every line has
    failing vectors and the design-error vocabulary has sources."""
    patterns = PatternSet.random(netlist.num_inputs, 64, seed=seed)
    rng = np.random.default_rng(seed)
    reference = rng.integers(0, 2**63, size=(netlist.num_outputs,
                                             num_words(64)),
                             dtype=np.uint64)
    return DiagnosisState(netlist, patterns, reference)


def probe_corrections(state, draw):
    """A stem tie; a branch tie that leaves its driver one fanout; a
    branch tie on a stem that drives a primary output; one design-error
    correction of each kind the vocabulary offers."""
    netlist, table = state.netlist, state.table
    fanouts = netlist.fanouts()
    branches = [line for line in table if not line.is_stem]
    pools = (
        [line.index for line in table if line.is_stem],
        [line.index for line in branches if len(fanouts[line.driver]) == 2],
        [line.index for line in branches if line.driver in netlist.outputs],
    )
    picks = [Correction(draw(st.sampled_from(pool)),
                        draw(st.sampled_from(STUCK_AT_KINDS)))
             for pool in pools if pool]
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False)
    by_kind = {}
    for line in range(len(table)):
        for corr in design_error_corrections(state, line, config)[0]:
            by_kind.setdefault(corr.kind, []).append(corr)
    picks += [draw(st.sampled_from(by_kind[kind]))
              for kind in sorted(by_kind, key=lambda k: k.value)]
    return picks


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_local_observability_equals_scratch(seed, data):
    """Every warm of a ``random_dag`` child re-derives exactly the
    observable set and the constants a scratch bundle computes."""
    netlist = generators.random_dag(num_inputs=6, num_gates=30,
                                    num_outputs=3, seed=seed)
    fanouts = netlist.fanouts()
    # A primary output that also has branches.
    stem = max(g.index for g in netlist.gates if len(fanouts[g.index]) > 1)
    if stem not in netlist.outputs:
        netlist.set_outputs(netlist.outputs + [stem])
    state = random_state(netlist, seed)
    parent_facts = prescreened(netlist)
    for corr in probe_corrections(state, data.draw):
        child = netlist.copy()
        apply_correction(child, state.table, corr)
        warm = warm_facts(child, parent_facts)
        scratch = NetlistFacts(child)
        context = corr.describe(netlist, state.table)
        assert warm._observable == scratch._reach_outputs(), context
        assert warm._constants == scratch.constants(), context
