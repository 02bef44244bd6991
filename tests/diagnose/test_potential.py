"""Heuristic 1: invert-and-propagate correcting potential.

The library packs up to ``SWEEP_SLOTS`` suspect lines into one multi-site
propagate; :func:`oracle_potentials` is the per-line reference loop it
is checked against.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.invariants import InvariantChecker
from repro.circuit import generators
from repro.diagnose import (DiagnosisConfig, DiagnosisState, LinePotential,
                            Mode, corrections_for_line,
                            correcting_potentials, rank_lines)
from repro.diagnose.candidates import is_correctable_line
from repro.diagnose.bitlists import SWEEP_SLOTS
from repro.errors import InvariantViolation
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
from repro.faults.models import apply_correction
from repro.sim import PatternSet, output_rows, simulate


def state_for(spec, count=1, seed=0, nbits=256):
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    return DiagnosisState(spec, patterns, device_out), workload


def truth_line(state, spec, workload):
    record = workload.truth[0]
    return next(l.index for l in state.table
                if l.describe(spec) == record.site)


def test_single_fault_line_has_full_potential(c17):
    """Flipping the actual fault line's failing values emulates the
    fault exactly, so its potential is maximal (score 1.0)."""
    state, workload = state_for(c17, 1, seed=3)
    line = truth_line(state, c17, workload)
    pot, = correcting_potentials(state, [line])
    assert pot.score == 1.0
    assert pot.rectified_vectors == state.num_err


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 3_000))
def test_potential_score_bounds(seed):
    spec = generators.random_dag(5, 40, 3, seed=seed % 4)
    state, _ = state_for(spec, 2, seed=seed)
    if state.num_err == 0:
        return
    for pot in correcting_potentials(state,
                                     list(range(len(state.table)))[::5]):
        assert 0.0 <= pot.score <= 1.0
        assert 0 <= pot.fixed_pairs <= state.num_err_pairs


def test_rank_lines_orders_and_filters(c17):
    state, workload = state_for(c17, 1, seed=6)
    all_lines = list(range(len(state.table)))
    ranked = rank_lines(state, all_lines, h1=0.0)
    scores = [p.fixed_pairs for p in ranked]
    assert scores == sorted(scores, reverse=True)
    strict = rank_lines(state, all_lines, h1=1.0)
    assert all(p.score >= 1.0 for p in strict)
    assert len(strict) <= len(ranked)
    # the true fault line survives the strictest threshold
    line = truth_line(state, c17, workload)
    assert line in [p.line for p in strict]


def oracle_potentials(state, lines):
    """Per-line reference for heuristic 1: one one-row propagate of each
    line's inverted ``Verr`` bits."""
    denom = state.num_err_pairs if state.num_err_pairs else 1
    out = []
    for line in lines:
        outcome, = state.outcome_of_override(
            line, state.line_values(line) ^ state.err_mask)
        out.append(LinePotential(line, outcome.fixed_pairs,
                                 outcome.rectified_vectors,
                                 outcome.fixed_pairs / denom))
    return out


def dedc_states(spec, nbits, seed):
    """A DEDC root state and two children, one correction deeper."""
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=seed)
    workload = observable_design_error_workload(spec, 2, patterns,
                                                seed=seed)
    spec_out = output_rows(spec, simulate(spec, patterns))
    root = DiagnosisState(workload.impl, patterns, spec_out)
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR)
    states = [root]
    for line in (0, len(root.table) // 2):
        corrs, words = corrections_for_line(root, line, config)
        child_netlist = root.netlist.copy()
        apply_correction(child_netlist, root.table, corrs[0])
        states.append(root.child(child_netlist, corrs[0], words[0]))
    return states


@pytest.mark.parametrize("nbits", (1, 63, 64, 65, 300))
@pytest.mark.parametrize("name", ("c17", "rca8", "ecc8"))
def test_packed_potentials_equal_per_line_oracle(name, nbits):
    """More suspects than one sweep packs (rca8 and ecc8 have over
    ``SWEEP_SLOTS`` lines), stems and branches mixed, in a scrambled order
    with a repeated line."""
    spec = {"c17": generators.c17,
            "rca8": lambda: generators.ripple_carry_adder(8),
            "ecc8": lambda: generators.hamming_corrector(8)}[name]()
    for state in dedc_states(spec, nbits, seed=nbits):
        lines = [line for line in range(len(state.table))
                 if is_correctable_line(state, line)]
        lines = lines[1::2] + lines[::2] + lines[:1]
        packed = correcting_potentials(state, lines)
        assert packed == oracle_potentials(state, lines)
        InvariantChecker().check_potentials(state, packed)
    assert len(lines) > SWEEP_SLOTS or name == "c17"


def test_check_potentials_trips_on_a_corrupted_potential():
    spec = generators.ripple_carry_adder(8)
    state = dedc_states(spec, 200, seed=4)[0]
    ranked = rank_lines(state, range(len(state.table)), h1=0.0)
    checker = InvariantChecker()
    checker.check_potentials(state, ranked)  # the honest ranking passes
    bad = dataclasses.replace(ranked[-1],
                              fixed_pairs=ranked[-1].fixed_pairs + 1)
    with pytest.raises(InvariantViolation, match="packed heuristic 1"):
        checker.check_potentials(state, ranked[:-1] + [bad])
