"""Delta-driven repair of cached static analysis facts.

:func:`warm_facts` takes a stale :class:`~repro.analyze.dataflow.NetlistFacts`
bundle plus the :class:`~repro.circuit.delta.NetlistDelta` recorded since
its version, and returns a *fresh* bundle whose materialized sections are
repaired cone-locally instead of recomputed from scratch.  Sections the
base never materialized stay lazy; sections outside the caller's
``sections`` filter are dropped back to lazy too (the diagnosis engine
asks only for what its pre-screen reads).

Every repair rule is **exact** — the repaired section equals the
from-scratch computation on the edited netlist (class *ids* of the
structural hash may differ; the induced partition does not).  The
arguments, per layer:

* **Region re-solve** (:func:`_solve_region`).  For a forward analysis
  the repair region is the union of the fanout cones of the edited
  gates; for a backward analysis the union of the fanin cones of the
  seed set.  A node outside the region has no edited node among its
  transitive dependencies (else the cone BFS would have reached it), so
  the old fixpoint restricted to the outside is a fixpoint of the new
  system there — and by the uniqueness of least/greatest fixpoints of
  monotone maps it *is* the new fixpoint outside.  Cycles are wholly in
  or out of a region (their members are mutually reachable), so the
  region subgraph's own SCC condensation schedules exactly like the
  global one.  Re-descending the region from its lattice origin with
  correct boundary values therefore reproduces the scratch answer.
* **Structural hash**: the repaired run continues the base numbering
  (memo and counter are inherited), so only the edited region is
  rehashed.  Leaf keys ``("leaf", idx)`` coincide in both numberings and
  composite keys correspond inductively, giving a bijection between the
  warm and scratch class ids — partitions, duplicate groups and
  constant-class membership are identical.
* **Implications**: the per-gate direct edges recorded by
  :class:`~repro.analyze.dataflow.Implications` are surgically swapped
  for the edited gates; only literals that can reach a changed
  endpoint (in the old *or* new graph — membership of a removed edge
  matters too) can change their reachability set, so transitive closure
  is recomputed for that affected set only.
* **Reset fixpoint**: warm-started re-descent.  Sweep one re-solves the
  edit region plus the cones of registers whose assumed value differs
  between the cached final state and the sweep's initial state; each
  later sweep re-solves only the cones of the registers the previous
  widening moved to X.  The state sequence — and hence the iteration
  count — matches the scratch loop exactly, because each sweep's value
  vector is reproduced exactly (soundness of warm-started *monotone*
  fixpoints: re-descent from a state that only differs inside the
  region cannot overshoot the scratch fixpoint, unlike restarting from
  an arbitrary warmer point).
* **CNF**: the cached retirable :class:`~repro.analyze.prove.Prover` is
  carried over when the netlist object itself was edited in place —
  stale gate clauses are retired by activation-literal units and the
  edited gates re-encoded append-only (:meth:`Prover.refresh`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..circuit.gatetypes import GateType
from ..circuit.netlist import Netlist
from .dataflow import (DataflowDomain, Implications,
                       NetlistFacts, TernaryConstants, _Dominators,
                       _StructuralClasses, strongly_connected_components)

__all__ = ["warm_facts", "ALL_SECTIONS"]

#: Repairable bundle sections, in dependency order.
ALL_SECTIONS = frozenset([
    "constants", "literals", "implications", "observable", "dominators",
    "cones", "scoap", "testability", "reset", "prover",
])


# ----------------------------------------------------------------------
# regions
# ----------------------------------------------------------------------
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


def _backward_region(netlist: Netlist, seeds: Iterable[int]) -> Set[int]:
    """Union of the combinational fanin cones of ``seeds`` (a DFF's
    fanin is a sequential edge: the walk includes the DFF, stops there)."""
    gates = netlist.gates
    seen = set(seeds)
    stack = list(seen)
    while stack:
        node = stack.pop()
        gate = gates[node]
        if gate.gtype is GateType.DFF:
            continue
        for src in gate.fanin:
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return seen


def _solve_region(netlist: Netlist, domain: DataflowDomain,
                  values: list, region: Set[int]) -> None:
    """Re-run ``domain`` to its fixed point on ``region`` only, in place.

    ``values`` must hold the correct new fixpoint outside the region
    (boundary reads stay valid); region entries are reset to the domain
    origin and re-descended over the region subgraph's SCC condensation,
    mirroring :func:`~repro.analyze.dataflow.run_dataflow` exactly.
    """
    if not region:
        return
    gates = netlist.gates
    members = sorted(region)
    local = {g: i for i, g in enumerate(members)}
    if domain.direction == "forward":
        def deps_of(g: int) -> list:
            gate = gates[g]
            return [] if gate.gtype is GateType.DFF else gate.fanin
    else:
        fanouts = netlist.fanouts()

        def deps_of(g: int) -> list:
            return [c for c in dict.fromkeys(fanouts[g])
                    if gates[c].gtype is not GateType.DFF]
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
        if not domain.iterate_cycles:
            for li in comp:
                g = members[li]
                values[g] = domain.cycle_value(gates[g])
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


# ----------------------------------------------------------------------
# per-section repairs
# ----------------------------------------------------------------------
def _repair_implications(netlist: Netlist, base_imp: Implications,
                         touched: Set[int],
                         constants: Dict[int, int]) -> Implications:
    """Surgical edge swap + affected-set closure recompute."""
    n = len(netlist.gates)
    imp = Implications.__new__(Implications)
    imp.netlist = netlist
    imp.num_nodes = 2 * n
    succ: List[List[int]] = [list(row) for row in base_imp._succ]
    succ.extend([] for _ in range(imp.num_nodes - len(succ)))
    imp._succ = succ
    gate_edges = dict(base_imp._gate_edges)
    # Literals whose outgoing edge multiset changed: for an edge (u, w)
    # that is the tail u and the contrapositive tail w^1.
    changed: Set[int] = set()
    for g in sorted(touched):
        old_edges = gate_edges.get(g, [])
        new_edges = Implications.edges_for_gate(netlist.gates[g])
        if sorted(old_edges) == sorted(new_edges):
            continue
        for u, w in old_edges:
            succ[u].remove(w)
            succ[w ^ 1].remove(u ^ 1)
            changed.add(u)
            changed.add(w ^ 1)
        for u, w in new_edges:
            succ[u].append(w)
            succ[w ^ 1].append(u ^ 1)
            changed.add(u)
            changed.add(w ^ 1)
        if new_edges:
            gate_edges[g] = new_edges
        else:
            gate_edges.pop(g, None)
    imp._gate_edges = gate_edges
    reach = list(base_imp._reach)
    for u in range(len(reach), imp.num_nodes):
        reach.append(1 << u)  # fresh literals reach only themselves yet
    if changed:
        # Only literals that can reach a changed tail — in the old graph
        # (a removed path mattered) or the new one (an added path does) —
        # can see a different closure.  Predecessor walk uses the
        # contrapositive symmetry: preds(x) = {w^1 : w in succ[x^1]}.
        old_succ = base_imp._succ
        affected = set(changed)
        stack = list(changed)
        while stack:
            x = stack.pop()
            rows = []
            if (x ^ 1) < len(old_succ):
                rows.append(old_succ[x ^ 1])
            rows.append(succ[x ^ 1])
            for row in rows:
                for w in row:
                    p = w ^ 1
                    if p not in affected:
                        affected.add(p)
                        stack.append(p)
        aff_sorted = sorted(affected)
        local = {x: i for i, x in enumerate(aff_sorted)}
        local_succ = [[local[w] for w in succ[x] if w in local]
                      for x in aff_sorted]
        comps = strongly_connected_components(len(aff_sorted),
                                              local_succ.__getitem__)
        for comp in comps:
            comp_members = {aff_sorted[li] for li in comp}
            bits = 0
            for li in comp:
                x = aff_sorted[li]
                bits |= 1 << x
                for w in succ[x]:
                    if w in comp_members:
                        continue
                    # Outside the affected set reach[w] never changed;
                    # inside it, successors-first order finalized it.
                    bits |= reach[w]
            for x in comp_members:
                reach[x] = bits
    imp._reach = reach
    imp._impossible = imp._find_impossible(constants)
    imp.implied_constants = imp._implied_constants()
    imp.repair_affected = frozenset(affected) if changed else frozenset()
    return imp


def _repair_reset(netlist: Netlist, base: NetlistFacts,
                  fresh: NetlistFacts, delta, region: Set[int]) -> None:
    """Exact warm re-descent of every cached reset fixpoint."""
    from .seq import ResetFixpoint, widen_state

    for edit in delta:
        if edit.kind == "gate_added" and edit.new[0] is GateType.DFF:
            return  # register set grew: cached state keys are obsolete
    gates = netlist.gates
    n = len(gates)
    for key, base_fx in base._reset.items():
        state = dict(key)
        values = list(base_fx.values)
        values.extend(None for _ in range(n - len(values)))
        # Sweep 1 differs from the cached final sweep inside the edit
        # region and inside the cones of registers whose assumed value
        # changes back from the cached final state to the initial one.
        seeds = set(d for d, v in state.items()
                    if base_fx.state.get(d) != v)
        sweep_region = _forward_region(netlist, seeds) | region
        iterations = 0
        while True:
            iterations += 1
            _solve_region(netlist, TernaryConstants(assume=state),
                          values, sweep_region)
            new_state = widen_state(gates, state, values)
            if new_state == state:
                break
            moved = {d for d in state if new_state[d] != state[d]}
            state = new_state
            sweep_region = _forward_region(netlist, moved)
        fresh._reset[key] = ResetFixpoint(
            state=state, values=values,
            constants={i: v for i, v in enumerate(values)
                       if v is not None},
            stuck_registers={d: v for d, v in sorted(state.items())
                             if v is not None},
            iterations=iterations)


# ----------------------------------------------------------------------
# the bundle repair
# ----------------------------------------------------------------------
def warm_facts(netlist: Netlist, base: NetlistFacts, delta,
               sections: Optional[Iterable[str]] = None) -> NetlistFacts:
    """Build a fresh :class:`NetlistFacts` for ``netlist``, repairing the
    sections ``base`` had materialized from the journalled ``delta``.

    ``base`` is never mutated — the diagnosis engine warms a child
    netlist's bundle from its *parent's*, which must stay intact.
    ``sections`` (default: everything) limits which sections are worth
    repairing; the rest fall back to lazy recomputation on demand.
    """
    want = ALL_SECTIONS if sections is None else frozenset(sections)
    fresh = NetlistFacts(netlist)
    touched = delta.touched_gates()
    sources = delta.touched_sources()
    n = len(netlist.gates)

    region: Optional[Set[int]] = None

    def fwd_region() -> Set[int]:
        nonlocal region
        if region is None:
            region = _forward_region(netlist, touched)
        return region

    # -- constants (needed by literals and implications too) -----------
    need_constants = want & {"constants", "literals", "implications",
                             "reset"}
    if base._constants is not None and need_constants:
        values: list = [base._constants.get(i) for i in range(n)]
        _solve_region(netlist, TernaryConstants(), values, fwd_region())
        fresh._constants = {i: v for i, v in enumerate(values)
                            if v is not None}

    # -- structural hash: continue the base numbering ------------------
    if (base._literals is not None and base._lit_domain is not None
            and "literals" in want):
        consts = fresh.constants()
        domain = _StructuralClasses([consts.get(i) for i in range(n)])
        domain.memo = dict(base._lit_domain.memo)
        domain.next_class = base._lit_domain.next_class
        lits: list = list(base._literals)
        lits.extend(None for _ in range(n - len(lits)))
        _solve_region(netlist, domain, lits, fwd_region())
        fresh._literals = lits
        fresh._lit_domain = domain

    # -- implications --------------------------------------------------
    if base._implications is not None and "implications" in want:
        fresh._implications = _repair_implications(
            netlist, base._implications, touched, fresh.constants())

    # -- observability -------------------------------------------------
    if base._observable is not None and "observable" in want \
            and not delta.connectivity_changed():
        fresh._observable = base._observable

    # -- dominators ----------------------------------------------------
    dom_region: Optional[Set[int]] = None
    if base._dominators is not None and "dominators" in want \
            and base._observable is not None:
        old_obs = base._observable
        new_obs = fresh.observable_set()
        seeds = set(touched) | set(sources)
        outs_before = delta.outputs_before()
        if outs_before is not None:
            seeds |= set(outs_before) ^ set(netlist.outputs)
        seeds |= old_obs ^ new_obs
        dom: list = [base._dominators[i] if i < len(base._dominators)
                     else None for i in range(n)]
        # Old bitsets lack the new gates' bits — exactly right: a new
        # gate on every output path of an un-re-solved node would have
        # put that node inside the repair region.
        dom_region = _backward_region(netlist, seeds)
        _solve_region(netlist, _Dominators(netlist, new_obs), dom,
                      dom_region)
        fresh._dominators = [dom[i] if i in new_obs else None
                             for i in range(n)]

    # -- cones ---------------------------------------------------------
    if base._cones and "cones" in want:
        for start, cone in base._cones.items():
            if sources.isdisjoint(cone):
                fresh._cones[start] = cone

    # -- SCOAP cost lattices -------------------------------------------
    # Controllability is a plain forward analysis: the edit region is
    # exactly the fanout cones of the touched gates.  Observability
    # additionally depends on (a) who consumes a signal (sources), (b)
    # the output list, and (c) the CC costs of the consumers' *side*
    # pins — so the backward seeds are the sources, the output diff,
    # the fanins of every touched gate (its pin set or side costs per
    # type changed) and the fanins of every consumer of a CC-changed
    # signal (their side sums moved).  Everything outside the backward
    # cone of those seeds reads only unchanged values.
    if base._scoap is not None and "scoap" in want:
        from .testability import (INF, ScoapCosts, _Controllability,
                                  _Observability)
        old_sc = base._scoap
        # New gates start at the lattice top: a new gate outside the
        # repair region has no consumers and is no output (anything
        # else would have seeded it in), so top is its true fixpoint.
        cc: list = [(old_sc.cc0[i], old_sc.cc1[i])
                    if i < len(old_sc.cc0) else (INF, INF)
                    for i in range(n)]
        _solve_region(netlist, _Controllability(), cc, fwd_region())
        cc_changed = {i for i in range(n)
                      if i >= len(old_sc.cc0)
                      or cc[i] != (old_sc.cc0[i], old_sc.cc1[i])}
        co: list = [old_sc.co[i] if i < len(old_sc.co) else INF
                    for i in range(n)]
        seeds = set(sources)
        outs_before = delta.outputs_before()
        if outs_before is not None:
            seeds |= set(outs_before) ^ set(netlist.outputs)
        for g in touched:
            seeds.update(netlist.gates[g].fanin)
        if cc_changed:
            fanouts = netlist.fanouts()
            for s in cc_changed:
                for consumer in fanouts[s]:
                    seeds.update(netlist.gates[consumer].fanin)
        _solve_region(netlist, _Observability(netlist, cc), co,
                      _backward_region(netlist, seeds))
        fresh._scoap = ScoapCosts(tuple(c[0] for c in cc),
                                  tuple(c[1] for c in cc), tuple(co))

    # -- static testability --------------------------------------------
    # A site record reads its head's dominators/cone/ODC conditions,
    # the sink's pins (branch sites) and the global DFF-feed frontier —
    # all of which can only change for heads inside the dominator
    # repair region (every witness, including a DFF-feed flip, is
    # combinationally reachable from the head and seeded from
    # touched/sources, and the region is the backward cone of the
    # seeds).  New sites always
    # re-derive (an added gate is touched; a new branch pin's sink is
    # touched or its driver a source — either way inside the region).
    # A verdict outside the region can still flip when the implication
    # closure moved under it: re-derive when any requirement literal's
    # reach row was recomputed (``repair_affected``) or its impossible
    # bit flipped; copy the base verdict everywhere else.
    if base._testability is not None and "testability" in want \
            and fresh._implications is not None \
            and base._implications is not None and dom_region is not None:
        from .testability import (Testability, derive_site, dff_feed_set,
                                  fault_sites, fault_verdict)
        imp = fresh._implications
        changed_nodes = imp.repair_affected or frozenset()
        flipped_bits = imp._impossible ^ base._implications._impossible
        dff_feed = dff_feed_set(netlist)
        base_tb = base._testability
        sites: Dict[tuple, object] = {}
        untestable: Dict[tuple, object] = {}
        for site in fault_sites(netlist):
            base_rec = base_tb.sites.get(site)
            structural = base_rec is None or site[1] in dom_region
            rec = (derive_site(fresh, site, dff_feed) if structural
                   else base_rec)
            sites[site] = rec
            redo = structural
            if not redo:
                for reqs in rec.requirements:
                    for r in reqs:
                        node = 2 * r.signal + r.value
                        if node in changed_nodes \
                                or (flipped_bits >> node) & 1:
                            redo = True
                            break
                    if redo:
                        break
            for value in (0, 1):
                if redo:
                    verdict = fault_verdict(imp, rec, value)
                else:
                    verdict = base_tb.untestable.get((site, value))
                if verdict is not None:
                    untestable[(site, value)] = verdict
        fresh._testability = Testability(sites, untestable)

    # -- reset fixpoints -----------------------------------------------
    if base._reset and "reset" in want:
        _repair_reset(netlist, base, fresh, delta, fwd_region())

    # -- the retirable CNF ---------------------------------------------
    # Only when the *same* netlist object was edited in place — the
    # prover is stolen from the bundle being replaced.  A child copy
    # gets its own prover lazily.  The sequential prover's unrollings
    # are not retirable; it is always rebuilt on demand.
    if base._prover is not None and "prover" in want \
            and base.netlist is netlist:
        prover = base._prover
        if prover.refresh(netlist, delta, facts=fresh):
            fresh._prover = prover

    return fresh
