"""SAT-sweeping suite: sweep effort and proof-backed candidate dedup.

* ``sweep`` — wall time and query accounting (proven / refuted /
  unknown, counterexamples harvested) of a full
  :meth:`~repro.analyze.prove.Prover.sweep` per circuit.  The planted
  ``twins`` workloads carry hash-blind duplicate cones and an opaque
  constant line, so every PROVEN verdict there costs a real UNSAT
  proof; suite circuits measure the overhead on irredundant logic.
  Every query lands in exactly one verdict.
* ``dedup`` — solution-list reduction on a buffered AND chain where a
  stuck-at-0 anywhere on the chain yields the identical repaired
  function, so exact diagnosis inflates the answer with candidates no
  vector set can separate.  The proof-backed dedup pass must collapse
  them, merging only what it checked.
"""

from harness import best_of, named_circuit
from repro.analyze.prove import Prover
from repro.circuit import GateType, Netlist
from repro.diagnose import DiagnosisConfig, IncrementalDiagnoser, Mode
from repro.sim import PatternSet

REQUIRED = {
    "sweep": ("circuit", "gates", "queries", "proven", "refuted",
              "unknown", "sim_refuted", "counterexamples", "conflicts",
              "proven_constants", "proven_classes", "wall_s"),
    "dedup": ("circuit", "gates", "solutions_before", "solutions_after",
              "merged", "checked", "unknown", "wall_s"),
}


def planted_twins(pairs: int = 8) -> Netlist:
    """``pairs`` hash-blind duplicate cones plus one opaque constant.

    Each pair is XOR(a, b) next to its AND/OR decomposition — the
    structural normalization cannot merge them, so the sweep has to
    prove each equivalence with an UNSAT miter.  The tail OR over all
    four two-variable minterms is a constant 1 invisible to ternary
    propagation.
    """
    nl = Netlist(f"twins{pairs}")
    a = nl.add_input("a")
    b = nl.add_input("b")
    outs = []
    for k in range(pairs):
        x = nl.add_gate(f"x{k}", GateType.XOR, [a, b])
        na = nl.add_gate(f"na{k}", GateType.NOT, [a])
        nb = nl.add_gate(f"nb{k}", GateType.NOT, [b])
        t1 = nl.add_gate(f"t1_{k}", GateType.AND, [a, nb])
        t2 = nl.add_gate(f"t2_{k}", GateType.AND, [na, b])
        y = nl.add_gate(f"y{k}", GateType.OR, [t1, t2])
        outs.extend((x, y))
    na = nl.add_gate("cna", GateType.NOT, [a])
    nb = nl.add_gate("cnb", GateType.NOT, [b])
    minterms = [nl.add_gate("m0", GateType.AND, [na, nb]),
                nl.add_gate("m1", GateType.AND, [na, b]),
                nl.add_gate("m2", GateType.AND, [a, nb]),
                nl.add_gate("m3", GateType.AND, [a, b])]
    outs.append(nl.add_gate("tank", GateType.OR, minterms))
    nl.set_outputs(outs)
    return nl


def buffered_chain(depth: int = 4) -> Netlist:
    """AND head, ``depth`` BUFs, OR tail: every sa0 on the chain is the
    same correction, so exact diagnosis returns ``depth + 2`` candidates
    that only a proof can collapse."""
    nl = Netlist(f"chain{depth}")
    x = nl.add_input("x")
    y = nl.add_input("y")
    z = nl.add_input("z")
    prev = nl.add_gate("n0", GateType.AND, [x, y])
    for d in range(depth):
        prev = nl.add_gate(f"b{d}", GateType.BUF, [prev])
    nl.set_outputs([nl.add_gate("o", GateType.OR, [prev, z])])
    return nl


def build_circuit(name: str) -> Netlist:
    if name.startswith("twins"):
        return planted_twins(pairs=int(name[len("twins"):]))
    return named_circuit(name)


def sweep_record(circuit, nvectors: int) -> dict:
    """One full sweep on a fresh prover, with query accounting."""
    prover = Prover(circuit, conflict_budget=20_000, nvectors=nvectors,
                    seed=0)
    wall, result = best_of(prover.sweep)
    stats = result.stats
    return {"kind": "sweep", "circuit": circuit.name,
            "gates": len(circuit.gates), "nvectors": nvectors,
            "queries": stats.queries, "proven": stats.proven,
            "refuted": stats.refuted, "unknown": stats.unknown,
            "sim_refuted": stats.sim_refuted,
            "counterexamples": stats.counterexamples,
            "conflicts": stats.conflicts,
            "proven_constants": len(result.constants),
            "proven_classes": len(result.classes),
            "wall_s": wall}


def dedup_record(depth: int) -> dict:
    """Solution-list reduction on the buffered-chain sa0 workload."""
    good = buffered_chain(depth)
    faulty = buffered_chain(depth)
    faulty.tie_stem_to_constant(faulty.index_of("n0"), 0)
    patterns = PatternSet.exhaustive(3)

    def diagnose(prove_dedup: bool):
        config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                                 max_errors=1, prove_dedup=prove_dedup)
        return IncrementalDiagnoser(faulty, good, patterns, config).run()

    plain = diagnose(False)
    wall, deduped = best_of(lambda: diagnose(True))
    return {"kind": "dedup", "circuit": good.name,
            "gates": len(good.gates),
            "solutions_before": len(plain.solutions),
            "solutions_after": len(deduped.solutions),
            "merged": deduped.stats.dedup_merged,
            "checked": deduped.stats.dedup_checked,
            "unknown": deduped.stats.dedup_unknown,
            "wall_s": wall}


def run(smoke: bool) -> list:
    circuits = ("c17", "twins8") if smoke else ("c17", "r432", "twins8",
                                                "twins32")
    records = [sweep_record(build_circuit(name), 64 if smoke else 128)
               for name in circuits]
    records += [dedup_record(depth) for depth in ((4,) if smoke
                                                  else (4, 12))]
    return records


def check(records) -> list:
    errors = []
    for rec in records:
        where = f"{rec['kind']}/{rec['circuit']}"
        if rec["kind"] == "sweep" and (
                rec["proven"] + rec["refuted"] + rec["unknown"]
                != rec["queries"]):
            errors.append(f"{where}: proven + refuted + unknown != "
                          "queries (a verdict was dropped)")
        if rec["kind"] == "dedup":
            if rec["solutions_after"] + rec["merged"] \
                    != rec["solutions_before"]:
                errors.append(f"{where}: after + merged != before")
            if rec["merged"] > rec["checked"]:
                errors.append(f"{where}: merged > checked")
    return errors
