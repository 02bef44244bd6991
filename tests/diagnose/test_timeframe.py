"""Sequential diagnosis via time-frame expansion."""

import pytest

from repro.circuit import LineTable, generators
from repro.diagnose.timeframe import (TimeFrameDiagnoser,
                                      random_sequences)
from repro.errors import DiagnosisError
from repro.faults import inject_stuck_at_faults


def observable_seq_workload(spec, count, frames, sequences,
                            start_seed=0):
    """First seed whose injected faults are observable in the window."""
    for seed in range(start_seed, start_seed + 30):
        workload = inject_stuck_at_faults(spec, count, seed=seed)
        probe = TimeFrameDiagnoser(spec, workload.impl, sequences,
                                   frames=frames, max_faults=0,
                                   max_nodes=0, time_budget=1)
        if probe._root.num_err > 0:
            return workload
    pytest.skip("no observable sequential workload found")


def test_single_fault_sequential_diagnosis(s27):
    frames = 8
    sequences = random_sequences(s27, 96, frames, seed=1)
    workload = observable_seq_workload(s27, 1, frames, sequences)
    diag = TimeFrameDiagnoser(s27, workload.impl, sequences,
                              frames=frames, max_faults=1)
    result = diag.run()
    assert result.found
    truth = workload.truth[0]
    truth_driver = truth.site.split("->", 1)[0]
    drivers = {site.split("->", 1)[0]
               for site in result.distinct_sites()}
    assert truth_driver in drivers
    # every returned tuple has the right polarity format
    for solution in result.solutions:
        for record in solution.records:
            assert record.kind in ("sa0", "sa1")


def test_double_fault_sequential_diagnosis():
    seq = generators.random_sequential(5, 60, 4, 4, seed=9)
    frames = 6
    sequences = random_sequences(seq, 64, frames, seed=2)
    workload = observable_seq_workload(seq, 2, frames, sequences)
    diag = TimeFrameDiagnoser(seq, workload.impl, sequences,
                              frames=frames, max_faults=2,
                              time_budget=45.0)
    result = diag.run()
    assert result.found  # some explaining tuple within the window


def test_node_budget_truncation_records_cause(s27):
    frames = 8
    sequences = random_sequences(s27, 96, frames, seed=1)
    workload = observable_seq_workload(s27, 1, frames, sequences)
    result = TimeFrameDiagnoser(s27, workload.impl, sequences,
                                frames=frames, max_faults=1,
                                max_nodes=1).run()
    assert result.stats.truncated
    assert result.stats.truncation_causes == ["node-budget"]


def test_combinational_input_rejected(c17):
    with pytest.raises(DiagnosisError, match="sequential"):
        TimeFrameDiagnoser(c17, c17, [], frames=2)


def test_no_fault_returns_empty(s27):
    frames = 4
    sequences = random_sequences(s27, 32, frames, seed=0)
    diag = TimeFrameDiagnoser(s27, s27.copy(), sequences, frames=frames)
    result = diag.run()
    assert not result.found
    assert result.stats.nodes == 0


def planted_masked_spec():
    """Observable hbuf path plus a suspect cone gated by a register
    that provably never leaves reset 0 — everything behind the gate is
    sequentially masked and fair game for the pre-screen."""
    from repro.circuit import GateType, Netlist

    nl = Netlist("masked")
    h = nl.add_input("h")
    e = nl.add_input("e")
    x = nl.add_input("x")
    y = nl.add_input("y")
    r = nl.add_gate("r", GateType.DFF, [x])
    d = nl.add_gate("d", GateType.AND, [r, x])
    nl.gates[r].fanin = [d]
    g = nl.add_gate("g", GateType.AND, [x, y])
    m = nl.add_gate("m", GateType.AND, [g, r])
    hbuf = nl.add_gate("hbuf", GateType.BUF, [h])
    live = nl.add_gate("live", GateType.DFF, [e])
    o1 = nl.add_gate("o1", GateType.OR, [hbuf, m])
    o2 = nl.add_gate("o2", GateType.OR, [o1, live])
    nl.set_outputs([o2])
    nl._dirty()
    return nl


def test_seq_prescreen_sound_and_productive():
    from repro.circuit import GateType
    from repro.diagnose.config import DiagnosisConfig

    spec = planted_masked_spec()
    device = planted_masked_spec()
    hb = device.index_of("hbuf")
    device.gates[hb].gtype = GateType.CONST1
    device.gates[hb].fanin = []
    device._dirty()
    frames = 6
    sequences = random_sequences(spec, 24, frames, seed=1)

    def run(config):
        return TimeFrameDiagnoser(spec, device, sequences,
                                  frames=frames, max_faults=2,
                                  config=config).run()

    off = run(None)
    on = run(DiagnosisConfig(seq_prescreen=True))
    # soundness: identical solution sets with the screen on and off
    def key(res):
        return sorted(frozenset(r.signature for r in sol.records)
                      for sol in res.solutions)

    assert key(on) == key(off)
    assert on.found
    # productivity: the masked cone was planted to be dropped
    assert on.stats.prescreen_dropped > 0
    assert off.stats.prescreen_dropped == 0
    assert on.stats.nodes < off.stats.nodes


def test_seq_prescreen_default_off():
    from repro.diagnose.config import DiagnosisConfig

    assert DiagnosisConfig().seq_prescreen is False
    spec = planted_masked_spec()
    diag = TimeFrameDiagnoser(spec, spec, random_sequences(spec, 4, 3),
                              frames=3, config=DiagnosisConfig())
    assert diag._masked_lines == frozenset()
