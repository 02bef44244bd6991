"""Static testability analysis: SCOAP costs and untestable faults.

Two analyses, both derived without any search:

* **SCOAP controllability/observability** (Goldstein's classic
  testability measures).  ``CC0``/``CC1`` — the cost of justifying a
  0/1 on a signal from the primary inputs — is a *forward* min-plus
  fixed point; ``CO`` — the cost of propagating a change on the signal
  to a primary output — is a *backward* one.  Both run as
  :class:`~repro.analyze.dataflow.DataflowDomain` lattices on the
  SCC-scheduled worklist engine, so they are cycle-safe: costs start at
  the saturating top :data:`INF` and only descend, every gate hop adds
  a strictly positive ``+1``, so chaotic iteration inside a cyclic SCC
  converges exactly like Bellman-Ford with non-negative weights.

* **Static untestable-fault identification** (FIRE-style, from the
  implication bundle).  Every collapsed stuck-at fault site carries a
  set of *requirement literals* — fault-free values the single
  detecting vector must realize: the excitation literal (the driver at
  the complement of the stuck value), the *site-side* literals of a
  branch fault (every other fanin of the sink at the sink's
  non-controlling value: the effect enters the circuit only through
  the sink), and the *dominator-side* literals from the ODC conditions
  (every side input of every dominator non-controlling: the effect
  must pass every dominator to reach an output).  A fault whose
  requirement set contains an impossible literal
  (:meth:`Implications.impossible`, which already folds the ternary
  and implied constants in), or two literals that statically
  contradict (:meth:`Implications.holds` of one against the other's
  complement), is UNTESTABLE with provenance — no PODEM search, no SAT
  call.

Sequential soundness.  The implication closure treats ``INPUT`` and
``DFF`` gates as free cuts, so its facts hold in *every* frame of a
sequential circuit.  In the first frame where a faulty-machine trace
diverges from the good one, all incoming state is still equal, so the
divergence must originate at the fault site: the excitation and
site-side requirements apply in that frame unchanged.  What does *not*
survive sequentially is the combinational output-dominator argument —
an effect may escape into a register and come back frames later.  A
site whose fanout cone reaches a DFF input therefore has *escape*: its
dominator-side requirements and the "unobservable" verdict are
disabled, only excitation/site-side reasoning is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..circuit.gatetypes import GateType, controlling_value
from ..circuit.lines import LineTable
from ..circuit.netlist import Gate, Netlist
from .dataflow import DataflowDomain, Implications, run_dataflow

__all__ = [
    "INF", "ScoapCosts", "scoap_costs", "Requirement", "SiteTestability",
    "UntestableFault", "Testability", "fault_sites", "derive_site",
    "fault_verdict", "derive_testability", "dff_feed_set", "describe_site",
]

#: Saturating "unachievable" cost.  Finite so the min-plus algebra stays
#: on plain ints; larger than any realizable cost (every hop adds 1 and
#: netlists are nowhere near 10**9 gates).
INF = 10 ** 9


def _sat1(x: int) -> int:
    """``x + 1`` saturating at :data:`INF`."""
    return x + 1 if x < INF else INF


def _sat_add(a: int, b: int) -> int:
    """``a + b`` saturating at :data:`INF`."""
    s = a + b
    return s if s < INF else INF


# ----------------------------------------------------------------------
# SCOAP lattices
# ----------------------------------------------------------------------
class _Controllability(DataflowDomain):
    """Forward min-plus (CC0, CC1) pairs.

    Lattice: pairs of ints in ``[0, INF]`` ordered pointwise, iteration
    descending from the top ``(INF, INF)``.  The transfer is a min of
    saturating sums of the fanin costs, hence monotone; every formula
    adds the strictly positive ``+1`` gate hop, so in a cyclic SCC a
    path through the cycle only ever costs more than one around it —
    no negative cycles, and the chaotic iteration converges to the
    shortest-justification costs exactly as Bellman-Ford does.

    ``INPUT`` and ``DFF`` gates are free cuts at cost ``(1, 1)``
    (full-scan convention, mirroring how the implication closure and
    the simulator treat registers); constants cost 0 on their forced
    side and :data:`INF` on the other.
    """

    direction = "forward"
    iterate_cycles = True

    def start(self, gate: Gate) -> Tuple[int, int]:
        return (INF, INF)

    def transfer(self, gate: Gate, values: list) -> Tuple[int, int]:
        gt = gate.gtype
        if gt is GateType.CONST0:
            return (0, INF)
        if gt is GateType.CONST1:
            return (INF, 0)
        if gt in (GateType.INPUT, GateType.DFF):
            return (1, 1)
        ins = [values[src] for src in gate.fanin]
        if not ins:
            return (INF, INF)
        if gt is GateType.BUF:
            return (_sat1(ins[0][0]), _sat1(ins[0][1]))
        if gt is GateType.NOT:
            return (_sat1(ins[0][1]), _sat1(ins[0][0]))
        if gt in (GateType.AND, GateType.NAND):
            all1, any0 = 0, INF
            for c0, c1 in ins:
                all1 = _sat_add(all1, c1)
                any0 = min(any0, c0)
            core = (_sat1(any0), _sat1(all1))
            return core if gt is GateType.AND else (core[1], core[0])
        if gt in (GateType.OR, GateType.NOR):
            all0, any1 = 0, INF
            for c0, c1 in ins:
                all0 = _sat_add(all0, c0)
                any1 = min(any1, c1)
            core = (_sat1(all0), _sat1(any1))
            return core if gt is GateType.OR else (core[1], core[0])
        # XOR/XNOR: parity DP over the fanins — (cheapest even-parity,
        # cheapest odd-parity) input combination so far.
        even, odd = 0, INF
        for c0, c1 in ins:
            even, odd = (min(_sat_add(even, c0), _sat_add(odd, c1)),
                         min(_sat_add(even, c1), _sat_add(odd, c0)))
        core = (_sat1(even), _sat1(odd))
        return core if gt is GateType.XOR else (core[1], core[0])


class _Observability(DataflowDomain):
    """Backward min-plus CO given fixed (CC0, CC1) vectors.

    ``CO(po) = 0`` at the output pin; through a consumer gate,
    ``CO(pin) = CO(gate) + 1 + sum(side-pin non-controlling cost)``
    where the non-controlling cost of a side input is ``CC1`` for
    AND/NAND, ``CC0`` for OR/NOR and ``min(CC0, CC1)`` for XOR/XNOR
    (any defined value propagates through an XOR).  A stem's CO is the
    min over its branch pins.  DFF consumers are sequential edges and
    contribute nothing — CO measures same-frame combinational
    observability, matching :meth:`NetlistFacts.observable_set`.

    Monotone descending from :data:`INF` with a strictly positive hop,
    so cyclic SCCs converge (same Bellman-Ford argument as
    :class:`_Controllability`).
    """

    direction = "backward"
    iterate_cycles = True

    def __init__(self, netlist: Netlist, cc: List[Tuple[int, int]]):
        self.netlist = netlist
        self.cc = cc
        self.outputs = set(netlist.outputs)
        self._fanouts = netlist.fanouts()

    def start(self, gate: Gate) -> int:
        return INF

    def _noncontrolling_cost(self, gt: GateType, src: int) -> int:
        c0, c1 = self.cc[src]
        if gt in (GateType.AND, GateType.NAND):
            return c1
        if gt in (GateType.OR, GateType.NOR):
            return c0
        if gt in (GateType.XOR, GateType.XNOR):
            return min(c0, c1)
        return 0  # BUF/NOT: no side pins exist

    def transfer(self, gate: Gate, values: list) -> int:
        i = gate.index
        best = 0 if i in self.outputs else INF
        gates = self.netlist.gates
        for consumer in dict.fromkeys(self._fanouts[i]):
            cgate = gates[consumer]
            gt = cgate.gtype
            if gt is GateType.DFF:
                continue
            down = values[consumer]
            if down >= INF:
                continue
            # Per-pin side costs (python ints don't overflow; cap at
            # the end so one INF side pin poisons only its own pin).
            costs = [self._noncontrolling_cost(gt, src)
                     for src in cgate.fanin]
            total = sum(costs)
            for pin, src in enumerate(cgate.fanin):
                if src != i:
                    continue
                through = down + 1 + (total - costs[pin])
                if through < best:
                    best = through
        return best if best < INF else INF


@dataclass(frozen=True)
class ScoapCosts:
    """SCOAP cost vectors, one entry per gate index."""

    cc0: Tuple[int, ...]
    cc1: Tuple[int, ...]
    co: Tuple[int, ...]

    def pairs(self) -> List[Tuple[int, int]]:
        """(CC0, CC1) per gate — the :class:`_Observability` input."""
        return list(zip(self.cc0, self.cc1))


def scoap_costs(netlist: Netlist) -> ScoapCosts:
    """Compute the full SCOAP cost vectors for one netlist snapshot."""
    cc = run_dataflow(netlist, _Controllability())
    co = run_dataflow(netlist, _Observability(netlist, cc))
    return ScoapCosts(tuple(c[0] for c in cc), tuple(c[1] for c in cc),
                      tuple(co))


# ----------------------------------------------------------------------
# static untestable-fault identification
# ----------------------------------------------------------------------
#: Site keys are structural, liveness-independent and stable across
#: edits: ``("stem", driver)`` for every gate output, ``("branch",
#: sink, pin)`` for every fanout-branch pin (the :class:`LineTable`
#: convention: a branch exists when its source has more than one
#: consumer pin).
Site = Tuple


@dataclass(frozen=True)
class Requirement:
    """One fault-free literal the detecting vector must realize.

    ``origin`` is the provenance: ``"excite"`` (the driver must carry
    the complement of the stuck value), ``"site"`` (a side fanin of a
    branch fault's sink must be non-controlling) or ``"dominator"`` (a
    side input of an output dominator must be non-controlling; only
    sound without sequential escape).  ``anchor`` is the sink or
    dominator gate the literal belongs to (``None`` for excitation).
    """

    signal: int
    value: int
    origin: str
    anchor: Optional[int] = None


@dataclass(frozen=True)
class SiteTestability:
    """Static per-site record: requirement literals for both polarities."""

    site: Site
    head: int
    driver: int
    observable: bool
    escape: bool
    #: ``requirements[v]`` — literals required to detect stuck-at-``v``.
    requirements: Tuple[Tuple[Requirement, ...], Tuple[Requirement, ...]]


@dataclass(frozen=True)
class UntestableFault:
    """One statically-proven untestable stuck-at fault, with provenance.

    ``reason`` is ``"unobservable"`` (no combinational path to any
    output and no sequential escape), ``"impossible-requirement"``
    (a requirement literal occurs in no consistent assignment) or
    ``"conflicting-requirements"`` (one requirement statically implies
    the complement of another).  ``witness`` lists the ``(signal,
    value)`` literals that close the argument.
    """

    site: Site
    value: int
    reason: str
    witness: Tuple[Tuple[int, int], ...] = ()


def dff_feed_set(netlist: Netlist) -> Set[int]:
    """Signals feeding at least one register — the escape frontier."""
    feeds: Set[int] = set()
    for gate in netlist.gates:
        if gate.gtype is GateType.DFF:
            feeds.update(gate.fanin)
    return feeds


def fault_sites(netlist: Netlist) -> List[Site]:
    """Every structural fault site, in deterministic order."""
    fanouts = netlist.fanouts()
    sites: List[Site] = [("stem", gate.index) for gate in netlist.gates]
    for gate in netlist.gates:
        for pin, src in enumerate(gate.fanin):
            if len(fanouts[src]) > 1:
                sites.append(("branch", gate.index, pin))
    return sites


def derive_site(facts, site: Site, dff_feed: Set[int]) -> SiteTestability:
    """Build the requirement record of one site from the facts bundle."""
    netlist = facts.netlist
    gates = netlist.gates
    if site[0] == "stem":
        head = driver = site[1]
    else:
        head = site[1]
        driver = gates[head].fanin[site[2]]
    cone = facts.cone(head)
    observable = facts.dominators(head) is not None
    escape = bool(dff_feed) and not dff_feed.isdisjoint(cone)
    side: List[Requirement] = []
    if site[0] == "branch":
        sink_gate = gates[head]
        ctrl = controlling_value(sink_gate.gtype)
        if ctrl is not None:
            for pin, src in enumerate(sink_gate.fanin):
                # A reconvergent side pin changes with the fault; its
                # fault-free value cannot be required (cycle-safe: in
                # an acyclic netlist no fanin is in cone(sink)).
                if pin == site[2] or src in cone:
                    continue
                side.append(Requirement(src, 1 - ctrl, "site", head))
    doms = tuple(
        Requirement(cond.side_input, 1 - cond.ctrl, "dominator",
                    cond.dominator)
        for cond in facts.odc_conditions(head))
    reqs = tuple(
        (Requirement(driver, 1 - value, "excite"),) + tuple(side) + doms
        for value in (0, 1))
    return SiteTestability(site, head, driver, observable, escape,
                           (reqs[0], reqs[1]))


def fault_verdict(imp: Implications, rec: SiteTestability,
                  value: int) -> Optional[UntestableFault]:
    """The static verdict for stuck-at-``value`` on ``rec``'s site.

    Returns an :class:`UntestableFault` or ``None`` (possibly
    testable).  Under sequential escape only excitation and site-side
    requirements participate (see the module docstring).
    """
    if not rec.observable and not rec.escape:
        return UntestableFault(rec.site, value, "unobservable")
    reqs = rec.requirements[value]
    if rec.escape:
        reqs = tuple(r for r in reqs if r.origin != "dominator")
    literals = sorted({(r.signal, r.value) for r in reqs})
    for sig, val in literals:
        if imp.impossible(sig, val):
            return UntestableFault(rec.site, value,
                                   "impossible-requirement",
                                   ((sig, val),))
    for i, (a, va) in enumerate(literals):
        for b, vb in literals[i + 1:]:
            # Contrapositive completeness makes the one-sided check
            # symmetric; reach includes self, so requiring both phases
            # of one signal conflicts automatically.
            if imp.holds(a, va, b, 1 - vb):
                return UntestableFault(rec.site, value,
                                       "conflicting-requirements",
                                       ((a, va), (b, vb)))
    return None


class Testability:
    """The static testability section of a facts bundle.

    ``sites`` maps every site key to its :class:`SiteTestability`
    record; ``untestable`` maps ``(site, value)`` to the
    :class:`UntestableFault` verdict for every statically-proven
    untestable fault.
    """

    def __init__(self, sites: Dict[Site, SiteTestability],
                 untestable: Dict[Tuple[Site, int], UntestableFault]):
        self.sites = sites
        self.untestable = untestable

    def untestable_line_keys(self, table: LineTable) -> Set[Tuple[int, int]]:
        """``(line_index, stuck_value)`` pairs for a line table.

        Sites without a line (detached gates, which a table skips,
        single-fanout pins) are simply skipped — the mapping only ever
        under-approximates, never invents a fault.
        """
        keys: Set[Tuple[int, int]] = set()
        for site, value in self.untestable:
            if site[0] == "stem":
                try:
                    line = table.stem(site[1])
                except KeyError:
                    continue
            else:
                line = table.branch(site[1], site[2])
                if line is None:
                    continue
            keys.add((line.index, value))
        return keys


def derive_testability(facts) -> Testability:
    """Derive the full static testability section from a facts bundle."""
    netlist = facts.netlist
    imp = facts.implications()
    dff_feed = dff_feed_set(netlist)
    sites: Dict[Site, SiteTestability] = {}
    untestable: Dict[Tuple[Site, int], UntestableFault] = {}
    for site in fault_sites(netlist):
        rec = derive_site(facts, site, dff_feed)
        sites[site] = rec
        for value in (0, 1):
            verdict = fault_verdict(imp, rec, value)
            if verdict is not None:
                untestable[(site, value)] = verdict
    return Testability(sites, untestable)


def describe_site(netlist: Netlist, site: Site) -> str:
    """Human-readable site name matching :meth:`Line.describe`."""
    if site[0] == "stem":
        return netlist.gates[site[1]].name
    sink = netlist.gates[site[1]]
    drv = netlist.gates[sink.fanin[site[2]]].name
    return f"{drv}->{sink.name}.{site[2]}"
