"""InvariantChecker unit tests and engine integration."""

import numpy as np
import pytest

from repro import (DiagnosisConfig, IncrementalDiagnoser, Mode,
                   inject_stuck_at_faults, random_patterns)
from repro.analyze import InvariantChecker
from repro.analyze.dataflow import netlist_facts
from repro.circuit import generators
from repro.diagnose.bitlists import DiagnosisState
from repro.diagnose.report import EngineStats
from repro.diagnose.tree import warm_child_facts
from repro.errors import InvariantViolation
from repro.faults.models import (Correction, CorrectionKind,
                                 apply_correction, corrected_line_words)
from repro.sim.logicsim import output_rows, simulate


def make_state():
    spec = generators.c17()
    workload = inject_stuck_at_faults(spec, count=1, seed=3)
    patterns = random_patterns(spec, 256, seed=1)
    spec_out = output_rows(spec, simulate(spec, patterns))
    return DiagnosisState(workload.impl, patterns, spec_out)


def test_valid_state_passes():
    checker = InvariantChecker()
    checker.check_state(make_state())
    assert checker.checks_run == 1


def test_overlapping_partition_detected():
    state = make_state()
    state.corr_mask = state.corr_mask | state.err_mask
    with pytest.raises(InvariantViolation, match="not disjoint"):
        InvariantChecker().check_state(state)


def test_incomplete_partition_detected():
    state = make_state()
    state.err_mask = np.zeros_like(state.err_mask)
    state.corr_mask = np.zeros_like(state.corr_mask)
    state.num_err = 0
    state.num_corr = state.patterns.nbits
    with pytest.raises(InvariantViolation, match="not complete"):
        InvariantChecker().check_state(state)


def test_count_mismatch_detected():
    state = make_state()
    state.num_err += 1
    with pytest.raises(InvariantViolation, match="inconsistent"):
        InvariantChecker().check_state(state)


def test_corrupted_child_row_detected():
    """A derived child whose value matrix drifts from a full simulation
    of its netlist is caught, even when its partition stays valid."""
    state = make_state()
    corr = Correction(state.table.stem(state.netlist.outputs[0]).index,
                      CorrectionKind.INSERT_INVERTER)
    child_netlist = state.netlist.copy()
    apply_correction(child_netlist, state.table, corr)
    child = state.child(child_netlist, corr, corrected_line_words(
        state.netlist, state.table, corr, state.values))
    checker = InvariantChecker()
    checker.check_state(child)
    appended = len(child.values) - 1
    child.values[appended] ^= np.uint64(1)
    with pytest.raises(InvariantViolation, match="full simulation"):
        checker.check_state(child)


def test_corrupted_inherited_structure_detected():
    """A child netlist inherits its parent's structural caches through
    ``copy()``; a stale or corrupted cache is caught before any value
    check."""
    state = make_state()
    state.netlist.levels()  # materialize, so the child inherits them
    corr = Correction(state.table.stem(state.netlist.outputs[0]).index,
                      CorrectionKind.STUCK_AT_0)
    child_netlist = state.netlist.copy()
    apply_correction(child_netlist, state.table, corr)
    child = state.child(child_netlist, corr, corrected_line_words(
        state.netlist, state.table, corr, state.values))
    checker = InvariantChecker()
    checker.check_state(child)
    child_netlist.levels()[child_netlist.outputs[0]] += 1
    with pytest.raises(InvariantViolation, match="levels"):
        checker.check_state(child)
    child_netlist._levels = None
    topo = child_netlist.topo_order()
    topo[0], topo[-1] = topo[-1], topo[0]
    with pytest.raises(InvariantViolation, match="topological"):
        checker.check_state(child)


def test_theorem1_preconditions():
    checker = InvariantChecker()
    checker.check_theorem1(10, 2)
    with pytest.raises(InvariantViolation, match="N=0"):
        checker.check_theorem1(10, 0)
    with pytest.raises(InvariantViolation, match="rectified"):
        checker.check_theorem1(0, 2)


def test_lines_live_bounds_and_detached():
    state = make_state()
    checker = InvariantChecker()
    checker.check_lines_live(state, range(len(state.table)))
    with pytest.raises(InvariantViolation, match="outside"):
        checker.check_lines_live(state, [len(state.table)])


def test_engine_runs_clean_with_invariants_enabled():
    """ISSUE acceptance: the quickstart flow with invariant checks on
    passes cleanly and still finds the injected faults."""
    spec = generators.ripple_carry_adder(4)
    workload = inject_stuck_at_faults(spec, count=2, seed=42)
    patterns = random_patterns(spec, 512, seed=1)
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             max_errors=2, check_invariants=True)
    engine = IncrementalDiagnoser(workload.impl, spec, patterns, config)
    assert engine.invariants is not None
    result = engine.run()
    assert result.solutions
    assert engine.invariants.checks_run > 0


def test_engine_invariants_off_by_default():
    spec = generators.c17()
    workload = inject_stuck_at_faults(spec, count=1, seed=3)
    patterns = random_patterns(spec, 128, seed=1)
    engine = IncrementalDiagnoser(workload.impl, spec, patterns,
                                  DiagnosisConfig())
    assert engine.invariants is None


def test_tree_traversal_with_invariants():
    spec = generators.c17()
    workload = inject_stuck_at_faults(spec, count=1, seed=5)
    patterns = random_patterns(spec, 256, seed=2)
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=False,
                             max_errors=2, check_invariants=True)
    engine = IncrementalDiagnoser(workload.impl, spec, patterns, config)
    result = engine.run()
    assert result.found or result.solutions == []


def warmed_child(state):
    """A stem tie on a copy of ``state``'s netlist, its facts warmed
    from the parent's pre-screened bundle."""
    parent = state.netlist
    netlist_facts(parent).blocked_signals()
    child = parent.copy()
    apply_correction(child, state.table,
                     Correction(0, CorrectionKind.STUCK_AT_0))
    stats = EngineStats()
    warm_child_facts(parent, child, stats)
    assert stats.facts_reused == 1
    return child


@pytest.mark.parametrize("section, label", [
    ("_constants", "constants"), ("_observable", "observable set")])
def test_facts_check_passes_a_warm_and_catches_a_stale_section(section,
                                                              label):
    state = make_state()
    child = warmed_child(state)
    checker = InvariantChecker()
    checker.check_facts(child)
    assert checker.checks_run == 1
    # The parent's section predates the tie's constant gate.
    setattr(child._facts, section,
            getattr(netlist_facts(state.netlist), section))
    with pytest.raises(InvariantViolation, match=label):
        checker.check_facts(child)


def test_facts_check_skips_lazy_and_stale_bundles():
    state = make_state()
    child = warmed_child(state)
    child._facts._observable = frozenset()   # wrong, but out of date:
    child.set_outputs(child.outputs[::-1])   # the bundle is not read
    InvariantChecker().check_facts(child)
    fresh = state.netlist.copy()
    netlist_facts(fresh)                      # nothing materialized
    InvariantChecker().check_facts(fresh)


@pytest.mark.parametrize("exact", [True, False])
def test_engine_checks_every_warm(monkeypatch, exact):
    """With the checker on, both searches check the facts of every
    child they warm."""
    checked = []
    original = InvariantChecker.check_facts

    def spy(self, netlist):
        checked.append(netlist)
        original(self, netlist)

    monkeypatch.setattr(InvariantChecker, "check_facts", spy)
    spec = generators.ripple_carry_adder(4)
    workload = inject_stuck_at_faults(spec, count=2, seed=42)
    patterns = random_patterns(spec, 512, seed=1)
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=exact,
                             max_errors=2, check_invariants=True)
    result = IncrementalDiagnoser(workload.impl, spec, patterns,
                                  config).run()
    warms = result.stats.facts_reused + result.stats.facts_recomputed
    assert warms > 0
    assert len(checked) == warms
