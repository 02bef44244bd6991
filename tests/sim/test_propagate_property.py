"""Property tests for the event-driven incremental kernel.

:func:`repro.sim.propagate` (big-int event kernel) is checked against
two independent references on randomized netlists and overrides:

* a from-scratch oracle that re-evaluates the *entire* netlist in
  topological order honouring the overrides, and
* :func:`repro.sim.propagate_scan`, the retained pre-event kernel.

Pattern counts deliberately straddle the 64-bit word boundary
(1, 63, 64, 65, 1000) so tail-padding handling is exercised.  The
slot-packed form (k override rows per site, one sweep) is checked slot
by slot against one-row propagates.
"""

import random

import numpy as np
import pytest

from repro.circuit import GateType, generators
from repro.circuit.gatetypes import eval_words
from repro.errors import SimulationError
from repro.sim import (PatternSet, lookup, propagate, propagate_scan,
                       simulate)

_PASSIVE = (GateType.INPUT, GateType.DFF, GateType.CONST0,
            GateType.CONST1)

NBITS_CASES = (1, 63, 64, 65, 1000)


def resim_oracle(netlist, values, stem_overrides=None,
                 pin_overrides=None):
    """From-scratch re-evaluation of the whole netlist under overrides.

    Independent of both kernels: no cones, no events — every gate is
    recomputed in topological order, then diffed against the baseline.
    """
    stem_overrides = dict(stem_overrides or {})
    pin_overrides = dict(pin_overrides or {})
    after = values.copy()
    for sig, words in stem_overrides.items():
        after[sig] = words
    for idx in netlist.topo_order():
        gate = netlist.gates[idx]
        if idx in stem_overrides or gate.gtype in _PASSIVE:
            continue
        ins = []
        for pin, src in enumerate(gate.fanin):
            words = pin_overrides.get((idx, pin))
            ins.append(after[src] if words is None else words)
        after[idx] = eval_words(gate.gtype, ins)
    changed = dict(stem_overrides)
    for idx in range(len(netlist.gates)):
        if idx not in changed and \
                not np.array_equal(after[idx], values[idx]):
            changed[idx] = after[idx]
    return changed


def assert_same_changes(result, reference):
    assert set(result) == set(reference)
    for idx in reference:
        assert np.array_equal(result[idx], reference[idx]), idx


def random_row(rng, nwords):
    bits = rng.getrandbits(64 * nwords)
    return np.frombuffer(bits.to_bytes(nwords * 8, "little"),
                         dtype=np.uint64).copy()


@pytest.mark.parametrize("nbits", NBITS_CASES)
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_stem_overrides_match_oracle_and_scan(nbits, seed):
    circuit = generators.random_dag(6, 80, 6, seed=seed)
    patterns = PatternSet.random(6, nbits, seed=seed)
    values = simulate(circuit, patterns)
    rng = random.Random(1000 * seed + nbits)
    cache = {}  # one base_ints cache shared across all calls, as users do
    for trial in range(3):
        n_stems = rng.randint(1, 3)
        stems = {sig: random_row(rng, patterns.num_words)
                 for sig in rng.sample(range(len(circuit.gates)), n_stems)}
        reference = resim_oracle(circuit, values, stems)
        event = propagate(circuit, values, stem_overrides=stems,
                          base_ints=cache)
        scan = propagate_scan(circuit, values, stem_overrides=stems)
        assert_same_changes(event, reference)
        assert_same_changes(scan, reference)


@pytest.mark.parametrize("nbits", NBITS_CASES)
@pytest.mark.parametrize("seed", (3, 4))
def test_pin_and_mixed_overrides_match_oracle(nbits, seed):
    circuit = generators.random_dag(6, 80, 6, seed=seed)
    patterns = PatternSet.random(6, nbits, seed=seed)
    values = simulate(circuit, patterns)
    rng = random.Random(1000 * seed + nbits)
    with_fanin = [g.index for g in circuit.gates if g.fanin]
    for trial in range(3):
        pins = {}
        for sink in rng.sample(with_fanin, rng.randint(1, 2)):
            pin = rng.randrange(len(circuit.gates[sink].fanin))
            pins[(sink, pin)] = random_row(rng, patterns.num_words)
        stems = {}
        if trial:  # mixed stem + pin overrides on later trials
            sig = rng.randrange(len(circuit.gates))
            stems[sig] = random_row(rng, patterns.num_words)
        reference = resim_oracle(circuit, values, stems, pins)
        event = propagate(circuit, values, stem_overrides=stems,
                          pin_overrides=pins)
        scan = propagate_scan(circuit, values, stem_overrides=stems,
                              pin_overrides=pins)
        assert_same_changes(event, reference)
        assert_same_changes(scan, reference)


@pytest.mark.parametrize("nbits", (63, 65))
def test_equal_override_seeds_no_events(nbits):
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, nbits, seed=9)
    values = simulate(circuit, patterns)
    sig = circuit.outputs[0]
    same = values[sig].copy()
    changed = propagate(circuit, values, stem_overrides={sig: same})
    # contract: the overridden stem is reported even though it is equal,
    # and nothing downstream is touched
    assert set(changed) == {sig}
    assert np.array_equal(changed[sig], same)


def test_events_do_not_cross_dffs():
    circuit = generators.random_sequential(6, 60, 5, 4, seed=5)
    patterns = PatternSet.random(6, 100, seed=5)
    values = simulate(circuit, patterns)
    rng = random.Random(5)
    dffs = set(circuit.dffs())
    # override every DFF data source: state must stay frozen
    sources = {circuit.gates[ff].fanin[0] for ff in dffs}
    stems = {src: random_row(rng, patterns.num_words) for src in sources}
    reference = resim_oracle(circuit, values, stems)
    event = propagate(circuit, values, stem_overrides=stems)
    assert_same_changes(event, reference)
    assert not (set(event) & dffs)


def single_slot_results(circuit, values, stems, pins, slots):
    """One one-row propagate per slot of k-slot override stacks."""
    return [propagate(circuit, values,
                      stem_overrides={sig: rows[s]
                                      for sig, rows in stems.items()},
                      pin_overrides={key: rows[s]
                                     for key, rows in pins.items()})
            for s in range(slots)]


def assert_slots_match(circuit, values, packed, singles):
    """Slot *s* of the packed result reads, for every gate, exactly what
    the one-row propagate of slot *s* reads."""
    slots = len(singles)
    for single in singles:
        assert set(single) <= set(packed)  # incl. unchanged stems
    for idx, rows in packed.items():
        assert rows.shape == (slots, values.shape[1]), idx
    for idx in range(len(circuit.gates)):
        for s, single in enumerate(singles):
            got = packed[idx][s] if idx in packed else values[idx]
            assert np.array_equal(got, lookup(single, values, idx)), \
                (idx, s)


def slot_stack(rng, values, sig, slots):
    """k random rows for ``sig``; every third slot keeps the baseline."""
    nwords = values.shape[1]
    return np.stack([values[sig] if s % 3 == 1 else random_row(rng, nwords)
                     for s in range(slots)])


@pytest.mark.parametrize("nbits", NBITS_CASES)
@pytest.mark.parametrize("slots", (1, 2, 7))
@pytest.mark.parametrize("kind", ("stem", "pin", "mixed"))
def test_packed_slots_match_one_row_propagates(kind, slots, nbits):
    circuit = generators.random_dag(6, 80, 6, seed=slots)
    patterns = PatternSet.random(6, nbits, seed=slots)
    values = simulate(circuit, patterns)
    rng = random.Random(1000 * slots + nbits)
    with_fanin = [g.index for g in circuit.gates if g.fanin]
    for _trial in range(3):
        stems, pins = {}, {}
        if kind != "pin":
            sig = rng.randrange(len(circuit.gates))
            stems[sig] = slot_stack(rng, values, sig, slots)
        if kind != "stem":
            sink = rng.choice(with_fanin)
            pin = rng.randrange(len(circuit.gates[sink].fanin))
            src = circuit.gates[sink].fanin[pin]
            pins[(sink, pin)] = slot_stack(rng, values, src, slots)
        packed = propagate(circuit, values, stem_overrides=stems,
                           pin_overrides=pins)
        singles = single_slot_results(circuit, values, stems, pins, slots)
        assert_slots_match(circuit, values, packed, singles)


@pytest.mark.parametrize("slots", (1, 2, 7))
def test_packed_pin_override_into_dff_is_inert(slots):
    circuit = generators.random_sequential(6, 60, 5, 4, seed=5)
    patterns = PatternSet.random(6, 100, seed=5)
    values = simulate(circuit, patterns)
    rng = random.Random(slots)
    ff = circuit.dffs()[0]
    sig = circuit.gates[ff].fanin[0]
    pins = {(ff, 0): slot_stack(rng, values, sig, slots)}
    stems = {sig: slot_stack(rng, values, sig, slots)}
    assert propagate(circuit, values, pin_overrides=pins) == {}
    packed = propagate(circuit, values, stem_overrides=stems,
                       pin_overrides=pins)
    singles = single_slot_results(circuit, values, stems, pins, slots)
    assert_slots_match(circuit, values, packed, singles)
    assert ff not in packed


def test_all_baseline_slots_seed_no_events():
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, 65, seed=9)
    values = simulate(circuit, patterns)
    sig = circuit.inputs[0]
    same = np.stack([values[sig]] * 4)
    changed = propagate(circuit, values, stem_overrides={sig: same})
    assert set(changed) == {sig}
    assert np.array_equal(changed[sig], same)


def test_override_shapes_must_agree():
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, 65, seed=9)
    values = simulate(circuit, patterns)
    a, b = circuit.inputs[:2]
    with pytest.raises(SimulationError):
        propagate(circuit, values,
                  stem_overrides={a: np.stack([values[a]] * 2),
                                  b: values[b]})
