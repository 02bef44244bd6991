"""Cross-cutting hypothesis property tests on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuit import GateType, LineTable, generators
from repro.circuit.gatetypes import REPLACEMENT_CLASSES
from repro.diagnose import DiagnosisState, IncrementalDiagnoser
from repro.diagnose.config import DiagnosisConfig, Mode
from repro.faults import inject_stuck_at_faults
from repro.faults.models import (Correction, CorrectionKind,
                                 apply_correction, corrected_line_words)
from repro.sim import (PatternSet, output_rows, popcount, simulate)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 4_000), count=st.integers(1, 3))
def test_injected_faults_reproduce_as_corrections(seed, count):
    """Applying the ground-truth stuck-ats to the good netlist must
    reproduce the faulty implementation's behaviour exactly."""
    spec = generators.random_dag(5, 40, 3, seed=seed % 6)
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(5, 192, seed=seed)
    table = LineTable(spec)
    modeled = spec.copy()
    for record in workload.truth:
        line = next(l for l in table if l.describe(spec) == record.site)
        kind = (CorrectionKind.STUCK_AT_1 if record.kind == "sa1"
                else CorrectionKind.STUCK_AT_0)
        apply_correction(modeled, table, Correction(line.index, kind))
    from repro.sim.compare import equivalent
    impl_out = output_rows(workload.impl,
                           simulate(workload.impl, patterns))
    modeled_out = output_rows(modeled, simulate(modeled, patterns))
    assert equivalent(impl_out, modeled_out, patterns.nbits)


_STEM_ONLY = frozenset((CorrectionKind.GATE_REPLACE,
                       CorrectionKind.REMOVE_INPUT_WIRE,
                       CorrectionKind.ADD_INPUT_WIRE,
                       CorrectionKind.REPLACE_INPUT_WIRE,
                       CorrectionKind.BYPASS_GATE,
                       CorrectionKind.INSERT_GATE))
_PROMOTIONS = {GateType.BUF: (GateType.AND, GateType.OR, GateType.XOR),
               GateType.NOT: (GateType.NAND, GateType.NOR, GateType.XNOR)}


def _legal_correction(rng, state, kind):
    """A random structurally legal ``kind`` correction, or None.

    Wire and insert-gate sources come from outside the driver's fanout
    cone, as the DEDC enumerator draws them, so no edit closes a cycle.
    """
    netlist = state.netlist
    lines = list(state.table)
    rng.shuffle(lines)
    for line in lines:
        if kind in _STEM_ONLY and not line.is_stem:
            continue
        driver = netlist.gates[line.driver]
        fanin = driver.fanin
        cone = netlist.fanout_cone(line.driver)
        sources = [g.index for g in netlist.gates
                   if g.index not in cone and g.index not in fanin]
        pin = rng.randrange(len(fanin)) if fanin else None
        if kind is CorrectionKind.REMOVE_INVERTER:
            if driver.gtype is GateType.NOT:
                return Correction(line.index, kind)
        elif kind is CorrectionKind.GATE_REPLACE:
            choices = REPLACEMENT_CLASSES.get(driver.gtype)
            if choices:
                return Correction(line.index, kind,
                                  new_type=rng.choice(choices))
        elif kind is CorrectionKind.REMOVE_INPUT_WIRE:
            if len(fanin) >= 2:
                return Correction(line.index, kind, pin=pin)
        elif kind is CorrectionKind.BYPASS_GATE:
            if fanin:
                return Correction(line.index, kind, pin=pin)
        elif kind is CorrectionKind.ADD_INPUT_WIRE:
            if fanin and sources:
                promos = _PROMOTIONS.get(driver.gtype)
                return Correction(
                    line.index, kind, other_signal=rng.choice(sources),
                    new_type=rng.choice(promos) if promos else None)
        elif kind is CorrectionKind.REPLACE_INPUT_WIRE:
            if fanin and sources:
                return Correction(line.index, kind, pin=pin,
                                  other_signal=rng.choice(sources))
        elif kind is CorrectionKind.INSERT_GATE:
            if sources:
                return Correction(
                    line.index, kind, other_signal=rng.choice(sources),
                    new_type=rng.choice((GateType.AND, GateType.OR,
                                         GateType.XOR)))
        else:  # stuck-at and insert-inverter: any stem or branch
            return Correction(line.index, kind)
    return None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 4_000),
       nbits=st.sampled_from([1, 63, 64, 65, 130]))
def test_corrected_line_words_is_sound(seed, nbits):
    """A chain of corrections of all ten kinds, on stems and branches:
    the no-mutation prediction pushed through the fanout cone
    (``DiagnosisState.child``) gives the state a full simulation of the
    corrected netlist gives, value matrix included (appended and
    detached rows, tail bits)."""
    import random
    rng = random.Random(seed)
    impl = generators.random_dag(5, 30, 3, seed=seed % 6)
    spec = generators.random_dag(5, 30, 3, seed=seed % 6 + 1)
    patterns = PatternSet.random(5, nbits, seed=seed)
    spec_out = output_rows(spec, simulate(spec, patterns))
    state = DiagnosisState(impl, patterns, spec_out)
    kinds = list(CorrectionKind)
    rng.shuffle(kinds)
    for kind in kinds:
        corr = _legal_correction(rng, state, kind)
        if corr is None:
            continue
        predicted = corrected_line_words(state.netlist, state.table, corr,
                                         state.values)
        child_netlist = state.netlist.copy()
        apply_correction(child_netlist, state.table, corr)
        child = state.child(child_netlist, corr, predicted)
        fresh = DiagnosisState(child_netlist, patterns, spec_out)
        assert np.array_equal(child.values, fresh.values), \
            corr.describe(state.netlist, state.table)
        assert np.array_equal(child.diff, fresh.diff)
        assert np.array_equal(child.err_mask, fresh.err_mask)
        assert child.num_err == fresh.num_err
        assert child.num_err_pairs == fresh.num_err_pairs
        state = child


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2_000))
def test_diagnosis_state_invariants(seed):
    spec = generators.random_dag(5, 35, 3, seed=seed % 4)
    workload = inject_stuck_at_faults(spec, 2, seed=seed)
    patterns = PatternSet.random(5, 200, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(spec, patterns, device_out)
    # masks partition V
    assert state.num_err + state.num_corr == patterns.nbits
    assert popcount(state.err_mask & state.corr_mask) == 0
    # pair count is at least the vector count and at most vec * outputs
    assert state.num_err_pairs >= state.num_err
    assert state.num_err_pairs <= state.num_err * spec.num_outputs
    assert 0.0 <= state.v_ratio <= 1.0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_engine_solutions_always_rectify(seed):
    """Whatever the engine returns, it is a valid correction set."""
    spec = generators.random_dag(5, 35, 3, seed=seed % 4)
    workload = inject_stuck_at_faults(spec, 2, seed=seed)
    patterns = PatternSet.random(5, 256, seed=seed + 1)
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             max_errors=2, max_nodes=1500,
                             time_budget=20.0)
    result = IncrementalDiagnoser(workload.impl, spec, patterns,
                                  config).run()
    from repro.diagnose import rectifies
    for solution in result.solutions:
        assert rectifies(workload.impl, solution.netlist, patterns)
