"""Static testability suite: SCOAP costs and SCOAP-guided PODEM.

* ``scoap`` — runtime and cost extremes of the SCOAP
  controllability/observability fixed points plus the static
  untestable-fault identification (:mod:`repro.analyze.testability`).
* ``podem`` — a planted hard-fault workload.  Each base circuit gets
  function-preserving redundancy gadgets ``OR(stem, AND(u, NOT u))``
  with ``u = XOR(x1..x6)`` over fresh inputs: the gadget output is
  constant 0, its stuck-at-0 is statically untestable (exciting it
  needs ``u=1`` and ``u=0`` at once), and proving that by search costs
  an unguided PODEM a walk over the 6-input XOR cone.
  :func:`repro.tgen.deterministic_patterns_with_stats` runs guided
  (SCOAP-costed backtrace + static untestable pre-check) and unguided
  over the identical fault list.  Guidance must strictly cut total
  backtracks, add no aborts and classify every gadget with zero
  search.  Every statically untestable verdict is cross-checked by
  SAT: tying the line to its stuck value must leave the circuit
  provably equivalent (:func:`repro.analyze.prove_equivalent` PROVEN).
"""

import random

from harness import best_of, named_circuit
from repro.analyze.dataflow import netlist_facts
from repro.analyze.prove import prove_equivalent
from repro.analyze.testability import INF
from repro.circuit import GateType, Netlist
from repro.circuit.lines import LineTable
from repro.faults.models import apply_correction, stuck_at_correction
from repro.tgen import deterministic_patterns_with_stats

REQUIRED = {
    "scoap": ("circuit", "gates", "scoap_s", "max_cc", "max_co",
              "fault_sites", "static_untestable"),
    "podem": ("circuit", "gates", "gadgets", "guided", "unguided",
              "sat_checked", "sat_confirmed"),
}
GADGET_WIDTH = 6
BACKTRACK_LIMIT = 120


def plant_gadget(nl: Netlist, stem: int, tag: str) -> int:
    """OR a fresh constant-0 redundancy onto ``stem``; returns its root.

    The root ``g = AND(u, NOT u)`` is identically 0, so
    ``OR(stem, g) == stem`` and the circuit function is preserved —
    but ``g`` stuck-at-0 is a redundancy whose untestability an
    unguided PODEM can only establish by exhausting the XOR cone.
    """
    u = nl.add_input(nl.fresh_name(f"{tag}_x0"))
    for i in range(1, GADGET_WIDTH):
        x = nl.add_input(nl.fresh_name(f"{tag}_x{i}"))
        u = nl.add_gate(nl.fresh_name(f"{tag}_u{i}"), GateType.XOR,
                        [u, x])
    nu = nl.add_gate(nl.fresh_name(f"{tag}_nu"), GateType.NOT, [u])
    g = nl.add_gate(nl.fresh_name(f"{tag}_g"), GateType.AND, [u, nu])
    nl.insert_binary_on_stem(stem, GateType.OR, g,
                             name=nl.fresh_name(f"{tag}_or"))
    return g


def plant_workload(name: str, gadgets: int, seed: int = 11) -> Netlist:
    nl = named_circuit(name)
    rng = random.Random(seed)
    live = nl.live_set()
    stems = [g.index for g in nl.gates
             if g.index in live and g.gtype not in
             (GateType.CONST0, GateType.CONST1, GateType.DFF)]
    for k, stem in enumerate(rng.sample(stems, gadgets)):
        plant_gadget(nl, stem, f"gdt{k}")
    nl.name = f"{name}+{gadgets}gdt"
    return nl


def scoap_record(name: str) -> dict:
    nl = named_circuit(name)

    def analyse():
        facts = netlist_facts(nl)
        return facts.testability(), facts.scoap()

    scoap_s, (tb, costs) = best_of(analyse)
    finite_cc = [c for pair in costs.pairs() for c in pair if c < INF]
    finite_co = [c for c in costs.co if c < INF]
    return {
        "kind": "scoap", "circuit": nl.name, "gates": len(nl.gates),
        "scoap_s": scoap_s,
        "max_cc": max(finite_cc, default=0),
        "max_co": max(finite_co, default=0),
        "fault_sites": len(tb.sites),
        "static_untestable": len(tb.untestable),
    }


def sat_confirm(nl: Netlist) -> tuple:
    """SAT-check every statically untestable stuck-at on ``nl``.

    Tying the faulty line to its stuck value must be a no-op; returns
    the ``(checked, confirmed)`` PROVEN counts.
    """
    table = LineTable(nl)
    keys = sorted(netlist_facts(nl).testability()
                  .untestable_line_keys(table))
    confirmed = 0
    for line, value in keys:
        tied = nl.copy()
        apply_correction(tied, LineTable(tied),
                         stuck_at_correction(table, line, value))
        if prove_equivalent(nl, tied).status.name == "PROVEN":
            confirmed += 1
    return len(keys), confirmed


def podem_record(name: str, gadgets: int) -> dict:
    nl = plant_workload(name, gadgets)
    runs = {}
    for mode, guide in (("guided", True), ("unguided", False)):
        wall, (_, stats) = best_of(lambda: deterministic_patterns_with_stats(
            nl.copy(), seed=0, backtrack_limit=BACKTRACK_LIMIT,
            guide=guide))
        runs[mode] = {**stats.to_dict(), "tgen_s": wall}
    checked, confirmed = sat_confirm(nl)
    return {
        "kind": "podem", "circuit": nl.name, "gates": len(nl.gates),
        "gadgets": gadgets, "backtrack_limit": BACKTRACK_LIMIT,
        "guided": runs["guided"], "unguided": runs["unguided"],
        "sat_checked": checked, "sat_confirmed": confirmed,
    }


def run(smoke: bool) -> list:
    scoap = ("c17", "rca8") if smoke else ("c17", "rca8", "alu4", "r432")
    podem = (("c17", 1),) if smoke else (("c17", 3), ("rca8", 3))
    return ([scoap_record(name) for name in scoap]
            + [podem_record(name, gadgets) for name, gadgets in podem])


def check(records) -> list:
    errors = []
    zero_search = 0
    for rec in records:
        if rec["kind"] != "podem":
            continue
        where = f"podem/{rec['circuit']}"
        guided, unguided = rec["guided"], rec["unguided"]
        if guided.get("faults") != unguided.get("faults"):
            errors.append(f"{where}: guided and unguided ran different "
                          "fault lists")
        if not guided.get("backtracks", 0) < unguided.get("backtracks", 0):
            errors.append(f"{where}: guidance must strictly reduce total "
                          "backtracks")
        if guided.get("aborted", 0) > unguided.get("aborted", 0):
            errors.append(f"{where}: guidance introduced aborts")
        if rec["sat_confirmed"] != rec["sat_checked"]:
            errors.append(f"{where}: a statically untestable verdict "
                          "failed its SAT cross-check")
        if rec["sat_checked"] < rec["gadgets"]:
            errors.append(f"{where}: every planted redundancy must be "
                          "statically identified")
        if guided.get("static_untestable", 0) < rec["gadgets"]:
            errors.append(f"{where}: guided PODEM must classify every "
                          "gadget untestable with zero search")
        zero_search += guided.get("static_untestable", 0)
    if records and not zero_search:
        errors.append("no record classified a fault untestable with zero "
                      "search")
    return errors
