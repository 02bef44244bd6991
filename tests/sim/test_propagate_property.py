"""Property tests for the event-driven incremental kernel.

:func:`repro.sim.propagate` (big-int event kernel) is checked against
two independent references on randomized netlists and overrides:

* a from-scratch oracle that re-evaluates the *entire* netlist in
  topological order honouring the overrides, and
* :func:`propagate_oracle.propagate_scan`, a full topological scan.

Pattern counts deliberately straddle the 64-bit word boundary
(1, 63, 64, 65, 1000) so tail-padding handling is exercised.  The
slot-packed form (k override rows per site, one sweep) is checked slot
by slot against one-row propagates, and so is its multi-site form
(``forced_slots``: each slot forces its own sites), also against the
full re-simulation.
"""

import functools
import random

import numpy as np
import pytest

from repro.circuit import GateType, generators
from repro.circuit.gatetypes import eval_words
from repro.errors import SimulationError
from repro.sim import PatternSet, lookup, propagate, simulate
from tests.sim.propagate_oracle import propagate_scan

_PASSIVE = (GateType.INPUT, GateType.DFF, GateType.CONST0,
            GateType.CONST1)

NBITS_CASES = (1, 63, 64, 65, 1000)


def resim_oracle(netlist, values, overrides):
    """From-scratch re-evaluation of the whole netlist under overrides.

    Independent of both kernels: no cones, no events — every gate is
    recomputed in topological order, then diffed against the baseline.
    ``overrides`` is site-keyed, as :func:`propagate` takes it.
    """
    stems = {site: words for site, words in overrides.items()
             if not isinstance(site, tuple)}
    after = values.copy()
    for sig, words in stems.items():
        after[sig] = words
    for idx in netlist.topo_order():
        gate = netlist.gates[idx]
        if idx in stems or gate.gtype in _PASSIVE:
            continue
        ins = []
        for pin, src in enumerate(gate.fanin):
            words = overrides.get((idx, pin))
            ins.append(after[src] if words is None else words)
        after[idx] = eval_words(gate.gtype, ins)
    changed = dict(stems)
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
        event = propagate(circuit, values, stems, base_ints=cache)
        scan = propagate_scan(circuit, values, stems)
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
        reference = resim_oracle(circuit, values, {**stems, **pins})
        event = propagate(circuit, values, {**stems, **pins})
        scan = propagate_scan(circuit, values, {**stems, **pins})
        assert_same_changes(event, reference)
        assert_same_changes(scan, reference)


@pytest.mark.parametrize("nbits", (63, 65))
def test_equal_override_seeds_no_events(nbits):
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, nbits, seed=9)
    values = simulate(circuit, patterns)
    sig = circuit.outputs[0]
    same = values[sig].copy()
    changed = propagate(circuit, values, {sig: same})
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
    event = propagate(circuit, values, stems)
    assert_same_changes(event, reference)
    assert not (set(event) & dffs)


def single_slot_results(circuit, values, stems, pins, slots):
    """One one-row propagate per slot of k-slot override stacks."""
    return [propagate(circuit, values,
                      {site: rows[s]
                       for site, rows in {**stems, **pins}.items()})
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
        packed = propagate(circuit, values, {**stems, **pins})
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
    assert propagate(circuit, values, pins) == {}
    packed = propagate(circuit, values, {**stems, **pins})
    singles = single_slot_results(circuit, values, stems, pins, slots)
    assert_slots_match(circuit, values, packed, singles)
    assert ff not in packed


def test_all_baseline_slots_seed_no_events():
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, 65, seed=9)
    values = simulate(circuit, patterns)
    sig = circuit.inputs[0]
    same = np.stack([values[sig]] * 4)
    changed = propagate(circuit, values, {sig: same})
    assert set(changed) == {sig}
    assert np.array_equal(changed[sig], same)


def test_override_shapes_must_agree():
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, 65, seed=9)
    values = simulate(circuit, patterns)
    a, b = circuit.inputs[:2]
    with pytest.raises(SimulationError):
        propagate(circuit, values,
                  {a: np.stack([values[a]] * 2), b: values[b]})


# ---------------------------------------------------------------------------
# Per-slot sites: slot *s* forces only the sites listed for it.
# ---------------------------------------------------------------------------

def packed_sites(rng, values, slot_sites):
    """Stacks and ``forced_slots`` for per-slot site overrides.

    ``slot_sites[s]`` maps each site slot *s* forces to its row.  Every
    other slot of a site's stack holds a random row, which the kernel
    must ignore.
    """
    nwords = values.shape[1]
    slots = len(slot_sites)
    stacks, forced = {}, {}
    for s, sites in enumerate(slot_sites):
        for site, row in sites.items():
            if site not in stacks:
                stacks[site] = np.stack([random_row(rng, nwords)
                                         for _ in range(slots)])
            stacks[site][s] = row
            forced.setdefault(site, []).append(s)
    return stacks, forced


def assert_per_slot_sites(circuit, values, rng, slot_sites):
    """The packed multi-site sweep equals, slot by slot, a one-row
    propagate and the full re-simulation of that slot's sites."""
    stacks, forced = packed_sites(rng, values, slot_sites)
    packed = propagate(circuit, values, stacks, forced_slots=forced)
    singles = []
    for sites in slot_sites:
        single = propagate(circuit, values, sites)
        assert_same_changes(single, resim_oracle(circuit, values, sites))
        singles.append(single)
    assert_slots_match(circuit, values, packed, singles)
    return packed


def random_site(rng, circuit, with_fanin):
    if rng.random() < 0.5:
        return rng.randrange(len(circuit.gates))
    sink = rng.choice(with_fanin)
    return (sink, rng.randrange(len(circuit.gates[sink].fanin)))


@pytest.mark.parametrize("nbits", NBITS_CASES)
@pytest.mark.parametrize("slots", (2, 7, 32))
def test_per_slot_sites_match_one_row_propagates(slots, nbits):
    circuit = generators.random_dag(6, 80, 6, seed=slots)
    patterns = PatternSet.random(6, nbits, seed=slots)
    values = simulate(circuit, patterns)
    rng = random.Random(1000 * slots + nbits)
    with_fanin = [g.index for g in circuit.gates if g.fanin]
    for _trial in range(3):
        slot_sites = []
        for s in range(slots):
            sites = {}
            for _site in range(rng.randint(0, 2)):
                site = random_site(rng, circuit, with_fanin)
                sites[site] = random_row(rng, patterns.num_words)
            slot_sites.append(sites)
        assert_per_slot_sites(circuit, values, rng, slot_sites)


@pytest.mark.parametrize("nbits", NBITS_CASES)
def test_stem_and_branch_of_one_driver_in_different_slots(nbits):
    circuit = generators.random_dag(6, 80, 6, seed=11)
    patterns = PatternSet.random(6, nbits, seed=11)
    values = simulate(circuit, patterns)
    rng = random.Random(nbits)
    fanouts = circuit.fanouts()
    driver = next(g.index for g in circuit.gates
                  if len(fanouts[g.index]) > 1)
    sink = fanouts[driver][0]
    pin = circuit.gates[sink].fanin.index(driver)
    flip = values[driver] ^ np.uint64(0xFFFFFFFFFFFFFFFF)
    assert_per_slot_sites(circuit, values, rng,
                          [{driver: flip}, {(sink, pin): flip}, {}])


@pytest.mark.parametrize("nbits", NBITS_CASES)
def test_site_downstream_of_another_slots_site(nbits):
    """Slot 1 forces a stem inside slot 0's cone: slot 0 must see it
    re-evaluated, slot 1 forced, and its returned row holds both."""
    circuit = generators.random_dag(6, 80, 6, seed=12)
    patterns = PatternSet.random(6, nbits, seed=12)
    values = simulate(circuit, patterns)
    rng = random.Random(nbits)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    for upstream in circuit.inputs:
        cone = sorted(circuit.fanout_cone(upstream) - {upstream})
        downstream = [g for g in cone if circuit.gates[g].fanin]
        if len(downstream) >= 2:
            break
    low, high = downstream[0], downstream[-1]
    sink = high
    pin = 0
    slot_sites = [{upstream: values[upstream] ^ ones},
                  {low: values[low] ^ ones},
                  {(sink, pin): random_row(rng, patterns.num_words)},
                  {high: values[high] ^ ones, upstream: values[upstream]}]
    packed = assert_per_slot_sites(circuit, values, rng, slot_sites)
    reference = resim_oracle(circuit, values,
                             {upstream: values[upstream] ^ ones})
    assert np.array_equal(packed[low][0], lookup(reference, values, low))
    assert np.array_equal(packed[low][1], values[low] ^ ones)


@pytest.mark.parametrize("nbits", (1, 63, 64, 65))
def test_site_forced_in_non_adjacent_slots(nbits):
    """One stem and one pin, each forced in scattered slots of one
    sweep, next to sites forced in the slots between: every forced
    row lands in its own slot (the site's stack is converted once and
    masked), and every slot equals its one-row propagate."""
    circuit = generators.random_dag(6, 80, 6, seed=14)
    patterns = PatternSet.random(6, nbits, seed=14)
    values = simulate(circuit, patterns)
    rng = random.Random(nbits)
    row = functools.partial(random_row, rng, patterns.num_words)
    with_fanin = [g.index for g in circuit.gates if g.fanin]
    stem = circuit.inputs[1]
    pin_site = (with_fanin[len(with_fanin) // 2], 0)
    other = with_fanin[3]
    slot_sites = [{} for _ in range(9)]
    for s in (0, 3, 7):
        slot_sites[s][stem] = row()
    for s in (2, 5, 8):
        slot_sites[s][pin_site] = row()
    slot_sites[1][other] = row()
    slot_sites[4][other] = row()
    slot_sites[4][(other, 0)] = row()
    slot_sites[6][pin_site[0]] = row()
    assert_per_slot_sites(circuit, values, rng, slot_sites)


@pytest.mark.parametrize("nbits", (1, 63, 64, 65))
def test_baseline_cache_serves_one_slot_count(nbits):
    """A ``base_ints`` cache shared by sweeps of one slot count gives
    the same rows as fresh conversions."""
    circuit = generators.random_dag(6, 80, 6, seed=15)
    patterns = PatternSet.random(6, nbits, seed=15)
    values = simulate(circuit, patterns)
    rng = random.Random(nbits)
    with_fanin = [g.index for g in circuit.gates if g.fanin]
    cache: dict = {}
    for _trial in range(4):
        slot_sites = [{random_site(rng, circuit, with_fanin):
                       random_row(rng, patterns.num_words)}
                      for _ in range(5)]
        stacks, forced = packed_sites(rng, values, slot_sites)
        cached = propagate(circuit, values, stacks, base_ints=cache,
                           forced_slots=forced)
        assert_same_changes(cached, propagate(circuit, values, stacks,
                                              forced_slots=forced))
    assert cache


@pytest.mark.parametrize("nbits", NBITS_CASES)
def test_primary_output_and_input_sites(nbits):
    """A primary input forced in one slot drives a primary output that
    other slots force, or override on a pin."""
    circuit = generators.random_dag(6, 80, 6, seed=13)
    patterns = PatternSet.random(6, nbits, seed=13)
    values = simulate(circuit, patterns)
    rng = random.Random(nbits)
    pi = circuit.inputs[0]
    po = next(out for out in circuit.outputs
              if out in circuit.fanout_cone(pi))
    row = functools.partial(random_row, rng, patterns.num_words)
    assert_per_slot_sites(
        circuit, values, rng,
        [{po: row()}, {pi: row()}, {pi: row(), po: row()},
         {(po, 0): row()}, {}])


def test_per_slot_pin_into_dff_is_inert():
    circuit = generators.random_sequential(6, 60, 5, 4, seed=5)
    patterns = PatternSet.random(6, 100, seed=5)
    values = simulate(circuit, patterns)
    rng = random.Random(5)
    ff = circuit.dffs()[0]
    src = circuit.gates[ff].fanin[0]
    row = functools.partial(random_row, rng, patterns.num_words)
    packed = assert_per_slot_sites(
        circuit, values, rng,
        [{(ff, 0): row()}, {src: row()}, {(ff, 0): row(), src: row()}])
    assert ff not in packed


@pytest.mark.parametrize("nbits", (63, 65))
def test_per_slot_override_equal_to_baseline(nbits):
    """A slot forcing its site to the baseline row changes nothing in
    that slot, even when another slot's site drives the same cone."""
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, nbits, seed=9)
    values = simulate(circuit, patterns)
    rng = random.Random(nbits)
    a, b = circuit.inputs[:2]
    packed = assert_per_slot_sites(
        circuit, values, rng,
        [{a: values[a].copy()}, {b: random_row(rng, patterns.num_words)}])
    for idx, rows in packed.items():
        if idx != b:
            assert np.array_equal(rows[0], values[idx]), idx
    only_baseline = propagate(
        circuit, values, {a: np.stack([values[a]] * 3)},
        forced_slots={a: [1]})
    assert set(only_baseline) == {a}


def test_forced_slots_must_name_stacked_overrides():
    circuit = generators.random_dag(5, 50, 4, seed=9)
    patterns = PatternSet.random(5, 65, seed=9)
    values = simulate(circuit, patterns)
    a, b = circuit.inputs[:2]
    stack = np.stack([values[a]] * 2)
    with pytest.raises(SimulationError):
        propagate(circuit, values, {a: stack}, forced_slots={b: [0]})
    with pytest.raises(SimulationError):
        propagate(circuit, values, {a: stack}, forced_slots={a: [2]})
