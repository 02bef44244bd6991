"""SCOAP costs and static untestable-fault identification.

The two properties the ISSUE demands of the testability sections:

* the lattice/worklist SCOAP implementation matches an independent
  straight-line recursive reference on acyclic netlists, and is
  monotone under cone growth (a buffer spliced into a stem never makes
  any pre-existing line cheaper);
* every statically-UNTESTABLE verdict is *sound* — confirmed both by
  exhaustive simulation (zero detection mask over all input vectors)
  and by SAT (tying the line to the stuck value is provably a no-op).
"""

import random

import pytest

from repro.analyze.dataflow import NetlistFacts, netlist_facts
from repro.analyze.prove import ProofStatus, prove_equivalent
from repro.analyze.testability import INF, derive_testability, scoap_costs
from repro.circuit import GateType, LineTable, Netlist
from repro.faults.models import apply_correction, stuck_at_correction
from repro.sim import FaultSimulator, PatternSet, SimFault, all_faults
from repro.sim.packing import popcount

_GATE_TYPES = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
               GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF)


def random_netlist(seed: int, num_inputs: int = 8,
                   num_gates: int = 30) -> Netlist:
    """Random acyclic combinational netlist with constants mixed in."""
    rng = random.Random(seed)
    nl = Netlist(f"rnd{seed}")
    for i in range(num_inputs):
        nl.add_input(f"pi{i}")
    for g in range(num_gates):
        if rng.random() < 0.05:
            nl.add_gate(f"g{g}", rng.choice((GateType.CONST0,
                                             GateType.CONST1)), [])
            continue
        gtype = rng.choice(_GATE_TYPES)
        pool = len(nl.gates)
        n_in = 1 if gtype in (GateType.NOT, GateType.BUF) else \
            rng.randint(2, min(3, pool))
        nl.add_gate(f"g{g}", gtype,
                    [rng.randrange(pool) for _ in range(n_in)])
    fanouts = nl.fanouts()
    sinks = [g.index for g in nl.gates
             if not fanouts[g.index] and g.gtype is not GateType.INPUT]
    nl.set_outputs(sinks or [len(nl.gates) - 1])
    return nl


# ----------------------------------------------------------------------
# reference SCOAP: straight-line recursion, no lattice machinery
# ----------------------------------------------------------------------
def _sat(x: int) -> int:
    return min(x, INF)


def _parity_cc(pairs, target: int) -> int:
    """Min total pin cost achieving XOR parity ``target`` (brute force)."""
    best = INF
    for mask in range(1 << len(pairs)):
        ones = bin(mask).count("1")
        if ones % 2 != target:
            continue
        cost = sum(pairs[p][1] if mask >> p & 1 else pairs[p][0]
                   for p in range(len(pairs)))
        best = min(best, cost)
    return _sat(best)


def reference_scoap(nl: Netlist):
    cc = {}
    for i in nl.topo_order():
        gate = nl.gates[i]
        pins = [cc[s] for s in gate.fanin]
        gt = gate.gtype
        if gt in (GateType.INPUT, GateType.DFF):
            cc[i] = (1, 1)
        elif gt is GateType.CONST0:
            cc[i] = (0, INF)
        elif gt is GateType.CONST1:
            cc[i] = (INF, 0)
        elif gt is GateType.BUF:
            cc[i] = (_sat(pins[0][0] + 1), _sat(pins[0][1] + 1))
        elif gt is GateType.NOT:
            cc[i] = (_sat(pins[0][1] + 1), _sat(pins[0][0] + 1))
        elif gt in (GateType.AND, GateType.NAND):
            one = _sat(sum(p[1] for p in pins) + 1)
            zero = _sat(min(p[0] for p in pins) + 1)
            cc[i] = (one, zero) if gt is GateType.NAND else (zero, one)
        elif gt in (GateType.OR, GateType.NOR):
            zero = _sat(sum(p[0] for p in pins) + 1)
            one = _sat(min(p[1] for p in pins) + 1)
            cc[i] = (one, zero) if gt is GateType.NOR else (zero, one)
        else:  # XOR / XNOR
            even = _sat(_parity_cc(pins, 0) + 1)
            odd = _sat(_parity_cc(pins, 1) + 1)
            cc[i] = (even, odd) if gt is GateType.XOR else (odd, even)

    noncontrolling = {GateType.AND: 1, GateType.NAND: 1,
                      GateType.OR: 0, GateType.NOR: 0}
    co = {i: INF for i in range(len(nl.gates))}
    for po in nl.outputs:
        co[po] = 0
    for i in reversed(nl.topo_order()):
        gate = nl.gates[i]
        if gate.gtype is GateType.DFF:
            continue  # same-frame observability only, like the lattice
        down = co[i]
        if down >= INF:
            continue
        for pin, src in enumerate(gate.fanin):
            side = 0
            for q, other in enumerate(gate.fanin):
                if q == pin:
                    continue
                if gate.gtype in noncontrolling:
                    side += cc[other][noncontrolling[gate.gtype]]
                elif gate.gtype in (GateType.XOR, GateType.XNOR):
                    side += min(cc[other])
            co[src] = min(co[src], _sat(down + 1 + side))
    return cc, co


@pytest.mark.parametrize("seed", range(12))
def test_scoap_matches_reference_on_acyclic(seed):
    nl = random_netlist(seed)
    costs = scoap_costs(nl)
    ref_cc, ref_co = reference_scoap(nl)
    for i in range(len(nl.gates)):
        assert (costs.cc0[i], costs.cc1[i]) == ref_cc[i], \
            f"cc mismatch at {nl.gates[i].name}"
        assert costs.co[i] == ref_co[i], \
            f"co mismatch at {nl.gates[i].name}"


@pytest.mark.parametrize("seed", range(6))
def test_scoap_monotone_under_cone_growth(seed):
    """Splicing a buffer into a stem never makes any line cheaper."""
    rng = random.Random(seed)
    nl = random_netlist(seed)
    before = scoap_costs(nl)
    n = len(nl.gates)
    live = sorted(nl.live_set())
    nl.insert_gate_on_stem(rng.choice(live), GateType.BUF)
    after = scoap_costs(nl)
    for i in range(n):
        assert after.cc0[i] >= before.cc0[i]
        assert after.cc1[i] >= before.cc1[i]
        assert after.co[i] >= before.co[i]


# ----------------------------------------------------------------------
# untestable-verdict soundness
# ----------------------------------------------------------------------
def test_untestable_sound_by_simulation_and_sat():
    """Every UNTESTABLE verdict survives exhaustive sim AND SAT."""
    total = 0
    for seed in range(20):
        nl = random_netlist(seed, num_inputs=8, num_gates=25)
        table = LineTable(nl)
        keys = netlist_facts(nl).testability().untestable_line_keys(table)
        if not keys:
            continue
        patterns = PatternSet.exhaustive(nl.num_inputs)
        fsim = FaultSimulator(nl, patterns, table)
        for line, value in sorted(keys):
            total += 1
            mask = fsim.detection_mask(SimFault(line, value))
            assert popcount(mask) == 0, (
                f"seed {seed}: {table[line].describe(nl)}/sa{value} "
                f"flagged untestable but simulation detects it")
            tied = nl.copy()
            apply_correction(tied, LineTable(tied),
                             stuck_at_correction(table, line, value))
            verdict = prove_equivalent(nl, tied)
            assert verdict.status is ProofStatus.PROVEN, (
                f"seed {seed}: {table[line].describe(nl)}/sa{value} "
                f"failed the SAT cross-check: {verdict.status}")
    # the sweep must exercise the property, not vacuously pass
    assert total > 0


def _redundant_netlist() -> Netlist:
    """out = OR(AND(a, NOT a), a): the AND output sa0 is redundant."""
    nl = Netlist("red")
    a = nl.add_input("a")
    na = nl.add_gate("na", GateType.NOT, [a])
    g = nl.add_gate("g", GateType.AND, [a, na])
    out = nl.add_gate("out", GateType.OR, [g, a])
    nl.set_outputs([out])
    return nl


def test_classic_redundancy_identified_without_search():
    nl = _redundant_netlist()
    tb = derive_testability(NetlistFacts(nl))
    g = nl.index_of("g")
    verdict = tb.untestable.get((("stem", g), 0))
    assert verdict is not None
    assert verdict.reason == "impossible-requirement"
    # and the line-key mapping feeds the PODEM pre-check
    table = LineTable(nl)
    assert (table.stem(g).index, 0) in tb.untestable_line_keys(table)


def test_dictionary_skips_statically_untestable():
    from repro.diagnose.dictionary import FaultDictionary
    from repro.tgen.randgen import random_patterns

    nl = _redundant_netlist()
    patterns = random_patterns(nl, 16, seed=3)
    dictionary = FaultDictionary(nl, patterns)
    assert dictionary.statically_skipped > 0
    # skipping is behaviour-preserving: untestable faults never have a
    # nonzero detection mask, so the table holds exactly the faults
    # whose response is nonzero
    fsim = FaultSimulator(nl, patterns, dictionary.table)
    detected = {fault.key() for fault in all_faults(dictionary.table)
                if fsim.output_response(fault).any()}
    assert set(dictionary._signatures) == detected
