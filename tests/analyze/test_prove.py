"""SAT-sweeping engine: every verdict pinned against exhaustive truth.

The acceptance bar for the prove layer is *zero false PROVEN verdicts*:
every proven constant and every proven equivalence class from a sweep
over a random 8-input netlist is re-checked against exhaustive
simulation of all 256 input vectors, and every REFUTED verdict's
counterexample is re-simulated to confirm it actually distinguishes.
Sweeps run with deliberately few seed vectors so candidate classes are
over-merged and the SAT path (queries, refutations, counterexample
harvesting) is genuinely exercised rather than everything being settled
by simulation.
"""

import random

import pytest

from repro.analyze.dataflow import netlist_facts
from repro.analyze.prove import (DEFAULT_CONFLICT_BUDGET, ProofStatus,
                                 Prover, prove_equivalent)
from repro.circuit import GateType, Netlist
from repro.errors import SimulationError
from repro.sim import PatternSet
from repro.sim.logicsim import simulate

_GATE_TYPES = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
               GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF)


def random_netlist(seed: int, num_inputs: int = 8,
                   num_gates: int = 30) -> Netlist:
    """Random acyclic 8-input netlist with constants sprinkled in."""
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


def exhaustive_rows(nl: Netlist):
    """Per-gate value rows over all input vectors, as Python ints."""
    patterns = PatternSet.exhaustive(nl.num_inputs)
    values = simulate(nl, patterns)
    mask = (1 << patterns.nbits) - 1
    rows = [int.from_bytes(row.tobytes(), "little") & mask
            for row in values]
    return rows, patterns.nbits


def signal_on_vector(rows, index, vector):
    """Value of signal ``index`` on the cut assignment ``vector``."""
    code = sum(bit << k for k, bit in enumerate(vector))
    return (rows[index] >> code) & 1


SEEDS = range(10)


# ----------------------------------------------------------------------
# sweep soundness: no false PROVEN, ever
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_proven_constants_hold_exhaustively(seed):
    nl = random_netlist(seed)
    rows, nbits = exhaustive_rows(nl)
    full = (1 << nbits) - 1
    prover = Prover(nl, facts=netlist_facts(nl), nvectors=2, seed=seed)
    result = prover.sweep()
    for index, proven in result.constants.items():
        assert rows[index] == (full if proven.value else 0), \
            f"false PROVEN constant on {nl.gates[index].name} " \
            f"(proof: {proven.proof})"


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_proven_classes_hold_exhaustively(seed):
    nl = random_netlist(seed)
    rows, nbits = exhaustive_rows(nl)
    full = (1 << nbits) - 1
    prover = Prover(nl, facts=netlist_facts(nl), nvectors=2, seed=seed)
    result = prover.sweep()
    assert len(result.classes) == len(result.class_proofs)
    for members, proof in zip(result.classes, result.class_proofs):
        assert proof in ("structural-hash", "sat-sweep")
        base_sig, base_phase = members[0]
        assert not base_phase
        for sig, phase in members[1:]:
            want = rows[base_sig] ^ (full if phase else 0)
            assert rows[sig] == want, \
                f"false PROVEN equivalence {nl.gates[base_sig].name} " \
                f"~ {nl.gates[sig].name} (phase={phase}, proof={proof})"


@pytest.mark.parametrize("seed", SEEDS)
def test_refuted_counterexamples_distinguish(seed):
    """Every REFUTED verdict's vector, re-simulated, shows the diff."""
    nl = random_netlist(seed)
    rows, _nbits = exhaustive_rows(nl)
    prover = Prover(nl, facts=netlist_facts(nl), nvectors=1, seed=seed)
    result = prover.sweep()
    for a, b, phase, verdict in result.refuted_pairs:
        assert verdict.status is ProofStatus.REFUTED
        cex = verdict.counterexample
        assert cex is not None and len(cex) == len(prover.cut_signals)
        va = signal_on_vector(rows, a, cex)
        vb = signal_on_vector(rows, b, cex)
        assert va != (vb ^ int(phase)), \
            "counterexample does not distinguish the refuted pair"
    for index, value, verdict in result.refuted_constants:
        cex = verdict.counterexample
        assert cex is not None
        assert signal_on_vector(rows, index, cex) != value


@pytest.mark.parametrize("seed", SEEDS)
def test_harvested_counterexamples_are_exported(seed):
    nl = random_netlist(seed)
    prover = Prover(nl, facts=netlist_facts(nl), nvectors=1, seed=seed)
    result = prover.sweep()
    assert result.stats.counterexamples == len(prover.counterexamples)
    patterns = prover.distinguishing_patterns()
    assert patterns.nbits == len(prover.counterexamples)
    assert patterns.num_inputs == len(prover.cut_signals)
    for k, cex in enumerate(prover.counterexamples):
        assert [int(v) for v in patterns.vector(k)] == list(cex)


def test_sat_path_is_actually_exercised():
    """With one seed vector, at least one sweep must hit the solver and
    harvest counterexamples — otherwise the suite above only ever tests
    the simulation shortcut."""
    queried = harvested = 0
    for seed in SEEDS:
        nl = random_netlist(seed)
        prover = Prover(nl, facts=netlist_facts(nl), nvectors=1,
                        seed=seed)
        stats = prover.sweep().stats
        queried += stats.queries
        harvested += stats.counterexamples
    assert queried > 0
    assert harvested > 0


# ----------------------------------------------------------------------
# direct queries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_prove_equal_matches_exhaustive_truth(seed):
    nl = random_netlist(seed, num_gates=16)
    rows, nbits = exhaustive_rows(nl)
    full = (1 << nbits) - 1
    prover = Prover(nl, nvectors=4, seed=seed)
    rng = random.Random(seed)
    signals = [g.index for g in nl.gates]
    for _ in range(25):
        a, b = rng.choice(signals), rng.choice(signals)
        phase = rng.random() < 0.5
        verdict = prover.prove_equal(a, b, phase)
        truly_equal = rows[a] == (rows[b] ^ (full if phase else 0))
        if verdict.status is ProofStatus.PROVEN:
            assert truly_equal
        elif verdict.status is ProofStatus.REFUTED:
            assert not truly_equal
        else:
            pytest.fail("default budget exhausted on a 16-gate netlist")


@pytest.mark.parametrize("seed", range(4))
def test_prove_pin_redundant_matches_exhaustive_truth(seed):
    from repro.circuit.gatetypes import MULTI_INPUT_TYPES
    nl = random_netlist(seed, num_gates=16)
    rows, _nbits = exhaustive_rows(nl)
    prover = Prover(nl, nvectors=4, seed=seed)
    checked = 0
    for gate in nl.gates:
        if gate.gtype not in MULTI_INPUT_TYPES or len(gate.fanin) < 2:
            continue
        for pin in range(len(gate.fanin)):
            verdict = prover.prove_pin_redundant(gate.index, pin)
            kept = [s for p, s in enumerate(gate.fanin) if p != pin]
            # oracle: recompute the reduced function from the rows
            from repro.circuit.gatetypes import eval_scalar
            truly = True
            for code in range(1 << nl.num_inputs):
                ins = [(rows[s] >> code) & 1 for s in kept]
                if eval_scalar(gate.gtype, ins) != \
                        (rows[gate.index] >> code) & 1:
                    truly = False
                    break
            if verdict.status is ProofStatus.PROVEN:
                assert truly, f"false redundant pin on {gate.name}"
            elif verdict.status is ProofStatus.REFUTED:
                assert not truly
            checked += 1
    assert checked > 0


def test_prove_pin_redundant_rejects_bad_targets():
    nl = Netlist("t")
    a = nl.add_input("a")
    buf = nl.add_gate("b", GateType.BUF, [a])
    nl.set_outputs([buf])
    prover = Prover(nl)
    with pytest.raises(SimulationError):
        prover.prove_pin_redundant(buf, 0)


def test_unknown_verdict_on_exhausted_budget():
    """A conflict budget of 1 cannot prove a parity equivalence; the
    verdict must be UNKNOWN with the spend recorded — never PROVEN."""
    nl = Netlist("parity")
    ins = [nl.add_input(f"i{k}") for k in range(6)]
    left = nl.add_gate("left", GateType.XOR, ins)
    half1 = nl.add_gate("h1", GateType.XOR, ins[:3])
    half2 = nl.add_gate("h2", GateType.XOR, ins[3:])
    right = nl.add_gate("right", GateType.XOR, [half1, half2])
    nl.set_outputs([left, right])
    prover = Prover(nl, conflict_budget=1, nvectors=64, seed=0)
    verdict = prover.prove_equal(left, right)
    assert verdict.status is ProofStatus.UNKNOWN
    assert verdict.conflicts >= 1
    assert prover.stats.unknown == 1
    # a real budget settles it
    prover.conflict_budget = DEFAULT_CONFLICT_BUDGET
    assert prover.prove_equal(left, right).status is ProofStatus.PROVEN


# ----------------------------------------------------------------------
# netlist-vs-netlist equivalence
# ----------------------------------------------------------------------
def test_prove_equivalent_proves_restructured_circuit(c17):
    other = c17.copy("same")
    verdict = prove_equivalent(c17, other)
    assert verdict.status is ProofStatus.PROVEN


def test_prove_equivalent_counterexample_resimulates(c17):
    other = c17.copy("mut")
    other.set_gate_type(other.index_of("22"), GateType.AND)
    verdict = prove_equivalent(c17, other)
    assert verdict.status is ProofStatus.REFUTED
    vector = list(verdict.counterexample)
    import numpy as np
    from repro.sim import output_rows
    from repro.sim.packing import pack_bits
    probe = PatternSet(pack_bits(
        np.asarray([vector], dtype=np.uint8).T), 1)
    a = output_rows(c17, simulate(c17, probe))
    b = output_rows(other, simulate(other, probe))
    assert (a[:, 0] & np.uint64(1)).tolist() \
        != (b[:, 0] & np.uint64(1)).tolist()


def test_prove_equivalent_de_morgan():
    nl = Netlist("a")
    x = nl.add_input("x")
    y = nl.add_input("y")
    o = nl.add_gate("o", GateType.AND, [x, y])
    nl.set_outputs([o])
    other = Netlist("b")
    x2 = other.add_input("x")
    y2 = other.add_input("y")
    nx = other.add_gate("nx", GateType.NOT, [x2])
    ny = other.add_gate("ny", GateType.NOT, [y2])
    o2 = other.add_gate("o", GateType.NOR, [nx, ny])
    other.set_outputs([o2])
    assert prove_equivalent(nl, other).status is ProofStatus.PROVEN


# ----------------------------------------------------------------------
# caching on the facts bundle
# ----------------------------------------------------------------------
def test_facts_prover_cached_and_invalidated(c17):
    nl = c17.copy("c17m")   # the session fixture must not be mutated
    facts = netlist_facts(nl)
    prover = facts.prover()
    assert facts.prover() is prover            # cached
    facts.prover(conflict_budget=7)
    assert prover.conflict_budget == 7         # budget updatable
    gate = nl.index_of("22")
    nl.set_gate_type(gate, GateType.AND)       # journalled mutation
    refreshed = netlist_facts(nl).prover()
    # The edit installs a fresh facts bundle, whose prover is rebuilt
    # for the *edited* function.
    assert refreshed is not prover
    scratch = Prover(nl, facts=netlist_facts(nl))
    for signal in (gate, nl.outputs[0]):
        for value in (0, 1):
            assert (refreshed.prove_constant(signal, value).status
                    is scratch.prove_constant(signal, value).status)
    assert (refreshed.sweep().classes
            == Prover(nl, facts=netlist_facts(nl)).sweep().classes)
    nl._dirty()                                # full invalidation
    assert netlist_facts(nl).prover() is not refreshed


def test_verdict_and_stats_serialize():
    nl = random_netlist(0, num_gates=12)
    prover = Prover(nl, facts=netlist_facts(nl), nvectors=2, seed=0)
    prover.sweep()
    snapshot = prover.stats_snapshot()
    for key in ("queries", "proven", "refuted", "unknown", "conflicts",
                "structural_merges", "counterexamples", "solver"):
        assert key in snapshot
    for key in ("decisions", "propagations", "conflicts", "restarts"):
        assert key in snapshot["solver"]
    verdict = prover.prove_constant(nl.gates[-1].index, 0)
    d = verdict.to_dict()
    assert d["status"] in ("proven", "refuted", "unknown")
    if verdict.counterexample is not None:
        assert d["counterexample"] == list(verdict.counterexample)
