"""Dataflow-analysis suite: fact sections and the static pre-screen.

* ``facts`` — wall time to materialize each fact section (ternary
  constants, structural hashes, dominators/ODCs, implication closure)
  on a fresh :class:`~repro.analyze.dataflow.NetlistFacts`.
* ``prescreen`` — how many path-trace-marked suspect lines the static
  pre-screen removes before the per-candidate simulation screen, on a
  seeded two-fault workload.  Every marked line is either kept or
  dropped.
"""

from harness import best_of, named_circuit
from repro.analyze.dataflow import NetlistFacts
from repro.circuit import GateType, Netlist
from repro.diagnose import DiagnosisState, path_trace_counts
from repro.diagnose.pathtrace import marked_lines
from repro.diagnose.screening import prescreen_suspects
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet, output_rows, simulate

REQUIRED = {
    "facts": ("circuit", "gates", "constants_s", "hashes_s",
              "dominators_s", "implications_s", "implications"),
    "prescreen": ("circuit", "gates", "suspects_before", "suspects_after",
                  "dropped", "wall_s"),
}


def masked_parity_chain(width: int = 8, depth: int = 24) -> Netlist:
    """Parity chain with one ODC-masked AND cone per stage.

    The masked gates sit behind a dominator whose side input is a
    buffered constant 0, yet every failing XOR path drags them into the
    path-trace suspect set — the workload the static pre-screen exists
    to prune.  ISCAS-style circuits are irredundant, so they measure the
    pre-screen's overhead; this one measures its payoff.
    """
    nl = Netlist(f"masked{depth}")
    xs = [nl.add_input(f"x{i}") for i in range(width)]
    c0 = nl.add_gate("c0", GateType.CONST0, [])
    buf = nl.add_gate("buf", GateType.BUF, [c0])
    acc = xs[0]
    for d in range(depth):
        mid = nl.add_gate(f"mid{d}", GateType.NOT, [xs[d % width]])
        dom = nl.add_gate(f"dom{d}", GateType.AND, [mid, buf])
        mix = nl.add_gate(f"mix{d}", GateType.XOR,
                          [acc, xs[(d + 1) % width]])
        acc = nl.add_gate(f"acc{d}", GateType.XOR, [dom, mix])
    nl.set_outputs([acc])
    return nl


def build_circuit(name: str) -> Netlist:
    if name.startswith("masked"):
        return masked_parity_chain(depth=int(name[len("masked"):]))
    return named_circuit(name)


def facts_record(circuit) -> dict:
    """Time each fact section on a fresh digest of ``circuit``."""
    record = {"kind": "facts", "circuit": circuit.name,
              "gates": len(circuit.gates)}
    facts = NetlistFacts(circuit)
    for key, section in (
            ("constants_s", facts.constants),
            ("hashes_s", facts.duplicate_groups),
            ("dominators_s", facts.blocked_signals),
            ("implications_s", facts.implications)):
        record[key], _ = best_of(section)
    record["implications"] = facts.implications().edge_count()
    record["known_constants"] = len(facts.known_constants(deep=True))
    record["odc_blocked"] = len(facts.blocked_signals(deep=True))
    return record


def prescreen_record(circuit, nvectors: int, seed: int = 1) -> dict:
    """Suspect counts before and after the static pre-screen."""
    workload = inject_stuck_at_faults(circuit, 2, seed=seed)
    patterns = PatternSet.random(circuit.num_inputs, nvectors, seed=0)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(circuit, patterns, device_out)
    lines = marked_lines(path_trace_counts(state, 24, seed))
    wall, (kept, dropped) = best_of(
        lambda: prescreen_suspects(state, lines, deep=True))
    return {"kind": "prescreen", "circuit": circuit.name,
            "gates": len(circuit.gates), "nvectors": nvectors,
            "suspects_before": len(lines), "suspects_after": len(kept),
            "dropped": dropped, "wall_s": wall}


def run(smoke: bool) -> list:
    names = (("c17", "masked24") if smoke
             else ("c17", "r432", "r880", "r1355", "masked24"))
    records = []
    for name in names:
        circuit = build_circuit(name)
        records.append(facts_record(circuit))
        records.append(prescreen_record(circuit, 128 if smoke else 512))
    return records


def check(records) -> list:
    return [f"prescreen/{rec['circuit']}: kept + dropped != before"
            for rec in records
            if rec["kind"] == "prescreen"
            and rec["suspects_after"] + rec["dropped"]
            != rec["suspects_before"]]
