"""Warming a child netlist's facts from its parent's.

The diagnosis search applies one correction per tree node to a fresh
``parent.copy()`` (§3.3) and pre-screens the child's suspects with
:meth:`~repro.analyze.dataflow.NetlistFacts.blocked_signals`, which reads
only two sections: ternary constants and observability.
:func:`warm_facts` carries exactly those two over from the parent's
bundle, given the :class:`~repro.circuit.delta.NetlistDelta` the
correction recorded; every other section of the child's bundle starts
lazy and is computed from scratch on first use.

Both rules are **exact** — the warmed section equals the from-scratch
computation on the edited netlist:

* **Constants**: region re-solve.  The repair region is the union of
  the fanout cones of the edited gates.  A node outside the region has
  no edited node among its transitive dependencies (else the cone BFS
  would have reached it), so the old fixpoint restricted to the outside
  is a fixpoint of the new system there — and by the uniqueness of the
  least fixpoint of a monotone map it *is* the new fixpoint outside.
  Cycles are wholly in or out of the region (their members are mutually
  reachable), so the region subgraph's own SCC condensation schedules
  exactly like the global one.  Re-descending the region from the
  lattice origin with correct boundary values therefore reproduces the
  scratch answer.
* **Observability** depends only on the graph's edges and the output
  list, so it is copied when the delta holds nothing but
  ``type_changed`` records and recomputed lazily otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..circuit.gatetypes import GateType
from ..circuit.netlist import Netlist
from .dataflow import (NetlistFacts, TernaryConstants,
                       strongly_connected_components)

__all__ = ["warm_facts"]


def _forward_region(netlist: Netlist, seeds: Iterable[int]) -> Set[int]:
    """Union of the combinational fanout cones of ``seeds`` (cycle-safe
    BFS — :meth:`Netlist.sorted_cone` would topo-sort and raise)."""
    gates = netlist.gates
    fanouts = netlist.fanouts()
    seen = set(seeds)
    stack = list(seen)
    while stack:
        node = stack.pop()
        for nxt in fanouts[node]:
            if nxt not in seen and gates[nxt].gtype is not GateType.DFF:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _solve_constants(netlist: Netlist, values: list,
                     region: Set[int]) -> None:
    """Re-run ternary constant propagation on ``region`` only, in place.

    ``values`` must hold the correct new fixpoint outside the region
    (boundary reads stay valid); region entries are reset to the domain
    origin and re-descended over the region subgraph's SCC condensation,
    mirroring :func:`~repro.analyze.dataflow.run_dataflow` exactly.
    """
    if not region:
        return
    domain = TernaryConstants()
    gates = netlist.gates
    members = sorted(region)
    local = {g: i for i, g in enumerate(members)}

    def deps_of(g: int) -> list:
        gate = gates[g]
        return [] if gate.gtype is GateType.DFF else gate.fanin
    local_deps = [[local[d] for d in deps_of(g) if d in local]
                  for g in members]
    comps = strongly_connected_components(len(members),
                                          local_deps.__getitem__)
    for g in members:
        values[g] = domain.start(gates[g])
    for comp in comps:
        cyclic = len(comp) > 1 or comp[0] in local_deps[comp[0]]
        if not cyclic:
            g = members[comp[0]]
            values[g] = domain.transfer(gates[g], values)
            continue
        in_comp = set(comp)
        users: Dict[int, List[int]] = {li: [] for li in comp}
        for li in comp:
            for d in local_deps[li]:
                if d in in_comp:
                    users[d].append(li)
        pending = list(comp)
        queued = set(comp)
        while pending:
            li = pending.pop()
            queued.discard(li)
            g = members[li]
            new = domain.transfer(gates[g], values)
            if new != values[g]:
                values[g] = new
                for u in users[li]:
                    if u not in queued:
                        queued.add(u)
                        pending.append(u)


def warm_facts(netlist: Netlist, base: NetlistFacts,
               delta) -> NetlistFacts:
    """A fresh :class:`NetlistFacts` for ``netlist`` whose constants and
    observability are carried over from ``base`` across ``delta``.

    Only sections ``base`` had materialized are warmed; the rest of the
    new bundle is lazy.  ``base`` is never mutated — the diagnosis
    engine warms a child netlist's bundle from its *parent's*, which
    must stay intact.
    """
    fresh = NetlistFacts(netlist)
    if base._constants is not None:
        values: list = [base._constants.get(i)
                        for i in range(len(netlist.gates))]
        _solve_constants(netlist, values,
                         _forward_region(netlist, delta.touched_gates()))
        fresh._constants = {i: v for i, v in enumerate(values)
                            if v is not None}
    if base._observable is not None and not delta.connectivity_changed():
        fresh._observable = base._observable
    return fresh
