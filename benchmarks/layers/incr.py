"""Incremental fact-maintenance suite: journal repair against scratch.

One record kind, ``maintain``: apply a seeded sequence of journalled
edits (gate-type swaps, safe fanin rewires, inverter insertions) to a
circuit and keep its dataflow facts — ternary constants, structural
hashes, implication closure, observability/dominator blocking — correct
after *every* edit, two ways:

* **warm** — :func:`repro.analyze.dataflow.netlist_facts` repairs the
  cached bundle from the edit-journal delta
  (:func:`repro.analyze.incremental.warm_facts`).
* **scratch** — a fresh :class:`~repro.analyze.dataflow.NetlistFacts`
  is materialized from nothing after each edit.

Both paths replay the identical edit sequence, so the speedup compares
equal work: the final warm and scratch facts must be equal, the warm
path must repair after every edit, and every repair must replay at
least one journal edit.
"""

import random

from harness import best_of, named_circuit
from repro.analyze.dataflow import FACTS_CACHE, NetlistFacts, netlist_facts
from repro.circuit import GateType, Netlist

REQUIRED = {
    "maintain": ("circuit", "gates", "edits", "seed", "identical",
                 "facts_reused", "delta_edits", "warm_s", "scratch_s",
                 "speedup"),
}

_UNARY_POOL = (GateType.BUF, GateType.NOT)
_MULTI_POOL = (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
               GateType.XOR, GateType.XNOR)


def apply_random_edit(rng: random.Random, nl: Netlist) -> None:
    """One journalled, acyclicity-preserving mutation."""
    editable = [g.index for g in nl.gates
                if g.gtype not in (GateType.INPUT, GateType.CONST0,
                                   GateType.CONST1, GateType.DFF)]
    while True:
        target = rng.choice(editable)
        gate = nl.gates[target]
        op = rng.randrange(3)
        if op == 0:
            pool = _UNARY_POOL if len(gate.fanin) == 1 else _MULTI_POOL
            choices = [t for t in pool if t is not gate.gtype]
            nl.set_gate_type(target, rng.choice(choices))
            return
        if op == 1:
            cone = nl.fanout_cone(target)
            sources = [g.index for g in nl.gates
                       if g.index not in cone and g.index != target]
            pin = rng.randrange(len(gate.fanin))
            src = rng.choice(sources)
            if src == gate.fanin[pin]:
                continue  # no-op rewire: journal records nothing
            nl.replace_fanin_pin(target, pin, src)
            return
        pin = rng.randrange(len(gate.fanin))
        nl.insert_gate_on_branch(target, pin, GateType.NOT)
        return


def materialize(facts: NetlistFacts) -> tuple:
    """Touch every benchmarked fact section; return a comparable state."""
    constants = dict(facts.constants())
    groups = facts.duplicate_groups()
    implications = facts.implications().edge_count()
    blocked = facts.blocked_signals(deep=True)
    return (constants, groups, implications, frozenset(blocked))


def replay(nl: Netlist, facts_of, edits: int, seed: int):
    """(seconds spent on facts, final fact state) over the edit sequence."""
    rng = random.Random(seed)
    total, state = 0.0, None
    for _ in range(edits):
        apply_random_edit(rng, nl)
        wall, state = best_of(lambda: materialize(facts_of(nl)))
        total += wall
    return total, state


def maintain_record(name: str, edits: int, seed: int = 7) -> dict:
    """Warm-vs-scratch fact maintenance over one edit sequence."""
    warm_nl = named_circuit(name)
    scratch_nl = named_circuit(name)
    # Both paths start from materialized facts (the diagnosis root).
    FACTS_CACHE.reset()
    materialize(netlist_facts(warm_nl))
    materialize(NetlistFacts(scratch_nl))
    FACTS_CACHE.reset()
    warm_s, warm_state = replay(warm_nl, netlist_facts, edits, seed)
    reused, delta_edits = FACTS_CACHE.facts_reused, FACTS_CACHE.delta_edits
    scratch_s, scratch_state = replay(scratch_nl, NetlistFacts, edits, seed)
    return {
        "kind": "maintain", "circuit": warm_nl.name,
        "gates": len(warm_nl.gates), "edits": edits, "seed": seed,
        "identical": warm_state == scratch_state,
        "facts_reused": reused, "delta_edits": delta_edits,
        "warm_s": warm_s, "scratch_s": scratch_s,
        "warm_per_edit_ms": warm_s / edits * 1e3,
        "scratch_per_edit_ms": scratch_s / edits * 1e3,
        "speedup": scratch_s / warm_s if warm_s > 0 else 0.0,
    }


def run(smoke: bool) -> list:
    names = ("c17", "rca8") if smoke else ("r432", "alu4", "rca8")
    return [maintain_record(name, 20 if smoke else 100) for name in names]


def check(records) -> list:
    errors = []
    for rec in records:
        where = f"maintain/{rec['circuit']}"
        if rec["identical"] is not True:
            errors.append(f"{where}: warm facts diverged from scratch "
                          "facts")
        if rec["facts_reused"] != rec["edits"]:
            errors.append(f"{where}: {rec['facts_reused']} warm repairs "
                          f"for {rec['edits']} edit steps")
        if rec["delta_edits"] < rec["facts_reused"]:
            errors.append(f"{where}: every warm repair must replay at "
                          "least one journal edit")
    return errors
