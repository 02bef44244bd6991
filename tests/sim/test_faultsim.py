"""PPSFP fault simulation against brute-force fault injection."""

import numpy as np
import pytest

from repro.circuit import LineTable, generators
from repro.sim import (FaultSimulator, PatternSet, SimFault, all_faults,
                       output_rows, popcount, simulate)
from repro.sim.compare import diff_rows, failing_vector_mask


def brute_force_outputs(netlist, table, fault, patterns):
    """Inject the fault structurally; good and faulty output rows from
    full simulations."""
    mutated = netlist.copy()
    line = table[fault.line]
    if line.is_stem:
        mutated.tie_stem_to_constant(line.driver, fault.value)
    else:
        mutated.tie_branch_to_constant(line.sink, line.pin, fault.value)
    good = output_rows(netlist, simulate(netlist, patterns))
    bad = output_rows(mutated, simulate(mutated, patterns))
    return good, bad


@pytest.mark.parametrize("name", ["c17", "r432"])
def test_detection_masks_match_brute_force(name):
    """Detection masks, and the per-output response rows they are the
    OR of, equal structural injection (every stem and branch fault)."""
    circuit = generators.by_name(name, scale=0.25)
    table = LineTable(circuit)
    patterns = PatternSet.random(circuit.num_inputs, 192, seed=9)
    fsim = FaultSimulator(circuit, patterns, table)
    faults = all_faults(table)
    answers = {}
    for fault in faults:
        where = table.describe(fault.line)
        good, bad = brute_force_outputs(circuit, table, fault, patterns)
        got = fsim.detection_mask(fault)
        want = failing_vector_mask(good, bad, patterns.nbits)
        assert np.array_equal(got, want), where
        rows = fsim.output_response(fault)
        want_rows = diff_rows(good, bad, patterns.nbits)
        assert rows.shape == want_rows.shape, where
        for pos in range(len(circuit.outputs)):
            assert np.array_equal(rows[pos], want_rows[pos]), (where, pos)
        answers[fault] = (got, rows)
    # Every fault again, in reverse order: the simulator's baseline
    # cache is warm now, and a stale or mutated entry changes an answer.
    for fault in reversed(faults):
        got, rows = answers[fault]
        where = table.describe(fault.line)
        assert np.array_equal(fsim.detection_mask(fault), got), where
        assert np.array_equal(fsim.output_response(fault), rows), where


def test_all_faults_count(c17):
    table = LineTable(c17)
    assert len(all_faults(table)) == 2 * 17


def test_coverage_and_run(c17):
    table = LineTable(c17)
    patterns = PatternSet.exhaustive(5)
    fsim = FaultSimulator(c17, patterns, table)
    faults = all_faults(table)
    # exhaustive vectors detect every irredundant fault of c17 (c17 has
    # no redundancy)
    assert fsim.coverage(faults) == 1.0
    masks = fsim.run(faults)
    assert len(masks) == len(faults)
    assert all(popcount(m) > 0 for m in masks.values())
    dropped = fsim.run(faults, drop_detected=True)
    assert len(dropped) == len(faults)


def test_sparse_vectors_miss_faults(c17):
    table = LineTable(c17)
    patterns = PatternSet.from_vectors([[0, 0, 0, 0, 0]])
    fsim = FaultSimulator(c17, patterns, table)
    assert fsim.coverage(all_faults(table)) < 1.0


def test_detects_boolean(c17):
    table = LineTable(c17)
    patterns = PatternSet.exhaustive(5)
    fsim = FaultSimulator(c17, patterns, table)
    fault = SimFault(table.stem(c17.index_of("22")).index, 0)
    assert fsim.detects(fault)
