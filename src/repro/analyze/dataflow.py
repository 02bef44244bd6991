"""Fixed-point dataflow engine over netlists, and the facts it derives.

A netlist is a sparse graph, and many useful structural facts are the
least (or greatest) fixed point of a monotone transfer function over a
finite lattice attached to every signal.  This module provides:

* a generic worklist engine (:func:`run_dataflow`) that schedules gates
  over the strongly-connected-component condensation of the netlist —
  forward (fanin-to-fanout) or backward (fanout-to-fanin) — and iterates
  chaotically inside each non-trivial SCC until stable, over the whole
  netlist or re-solving one region of it.  The engine never calls
  :meth:`Netlist.topo_order`, so it is safe on netlists with
  combinational cycles (the lint rules analyze broken circuits too);
* four concrete analyses, packaged as :class:`NetlistFacts`:

  1. **ternary constant propagation** — Kleene 0/1/X values seeded from
     ``CONST0``/``CONST1`` gates (lattice ``X < 0``, ``X < 1``, height 1;
     gate evaluation is monotone in the information order, so every
     signal changes at most once and the iteration terminates without
     widening);
  2. **structural-hash equivalence classes** — AIG-style literal
     numbering with input sorting, duplicate-operand folding and
     De Morgan negation normalization, so ``AND(a, b)``/``AND(b, a)``
     and ``NOR(a, b)``/``NOT(OR(b, a))`` land in the same class (a
     single deps-first pass over the condensation; members of cyclic
     SCCs get opaque leaf classes, which is conservative);
  3. **static implications** with built-in contrapositive closure —
     the implication graph over the ``2n`` literals ``(signal, value)``,
     transitively closed over its own SCC condensation (reachability
     sets only ever grow and are bounded by the finite literal set, so
     the closure terminates); contradictions (``l=v`` implying both
     ``l'=0`` and ``l'=1``) yield *implied constants* that pure ternary
     propagation cannot see, e.g. ``AND(a, NOT a) = 0``;
  4. **single-path dominators and observability don't-care (ODC)
     conditions per line** — post-dominator sets w.r.t. the primary
     outputs (descending intersection from the universal set; the
     lattice of signal subsets is finite and intersection is monotone,
     so the greatest fixed point is reached without widening), plus the
     classic ODC argument: a change on line *l* is invisible whenever a
     side input of one of its dominators carries the dominator's
     controlling value.

The facts are cached on the netlist itself (``netlist._facts``) and
stamped with the netlist's edit version: :func:`netlist_facts` returns
the cached bundle while the version matches and installs a fresh lazy
bundle after any mutation.  The one warm path is the diagnosis search's
child copy, whose constants and observability :func:`warm_facts`
carries over from the parent's bundle across the copy's change record.
Consumers: the deep lint rules
(:mod:`repro.analyze.rules_deep`), the rewired ``const-feed`` /
``unobservable-line`` semantic rules, the static suspect pre-screen in
:mod:`repro.diagnose.screening`, and the ``repro facts`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..circuit.gatetypes import GateType, controlling_value, eval_ternary
from ..circuit.netlist import Gate, Netlist

__all__ = [
    "DataflowDomain", "run_dataflow", "strongly_connected_components",
    "TernaryConstants", "Implications", "OdcCondition", "NetlistFacts",
    "netlist_facts", "warm_facts",
]


# ----------------------------------------------------------------------
# generic machinery
# ----------------------------------------------------------------------
def strongly_connected_components(
        num_nodes: int,
        successors: Callable[[int], Sequence[int]]) -> List[List[int]]:
    """Tarjan's SCC algorithm, iterative, on an arbitrary graph.

    Returns the components in *successors-first* order: every component
    appears after all components reachable from it... reversed, i.e. a
    component's successors are emitted *before* it.  Feeding dependency
    edges therefore yields a valid evaluation schedule.
    """
    index = [0] * num_nodes
    low = [0] * num_nodes
    state = bytearray(num_nodes)  # 0 unseen, 1 on stack, 2 done
    comp_stack: List[int] = []
    comps: List[List[int]] = []
    counter = [1]

    for root in range(num_nodes):
        if state[root]:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child = work[-1]
            if child == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                state[node] = 1
                comp_stack.append(node)
            succ = successors(node)
            advanced = False
            for pos in range(child, len(succ)):
                nxt = succ[pos]
                if state[nxt] == 0:
                    work[-1] = (node, pos + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if state[nxt] == 1:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp: List[int] = []
                while True:
                    member = comp_stack.pop()
                    state[member] = 2
                    comp.append(member)
                    if member == node:
                        break
                comps.append(comp)
    return comps


class DataflowDomain:
    """One monotone analysis the engine can run to a fixed point.

    Subclasses define the lattice implicitly through ``start`` (the
    iteration origin: bottom for ascending analyses, top for descending
    ones) and ``transfer`` (the monotone function of a gate's dependency
    values).  Termination needs no widening as long as the lattice has
    finite height and ``transfer`` is monotone — each subclass documents
    its own argument.

    Attributes:
        direction: ``"forward"`` (a gate depends on its fanins) or
            ``"backward"`` (a gate depends on its combinational
            fanouts).
        iterate_cycles: when False, members of non-trivial SCCs are not
            iterated; they receive :meth:`cycle_value` instead (used by
            analyses whose transfer is only meaningful on acyclic
            regions, e.g. structural hashing).
    """

    direction = "forward"
    iterate_cycles = True

    def start(self, gate: Gate):
        """Value every gate holds before its component is processed."""
        raise NotImplementedError

    def transfer(self, gate: Gate, values: list):
        """New value of ``gate`` given the current value vector."""
        raise NotImplementedError

    def cycle_value(self, gate: Gate):
        """Value assigned inside cyclic SCCs when ``iterate_cycles`` is
        False (conservative default: the start value)."""
        return self.start(gate)


def _dependency_edges(netlist: Netlist, direction: str,
                      region: Optional[Set[int]]
                      ) -> Tuple[Sequence[int], List[Sequence[int]]]:
    """The gates to solve, ascending, and their dependency lists inside
    that set, as positions in it.

    ``region=None`` means every gate, whose positions are the gate
    indices.  DFF edges are sequential, never combinational, so a DFF
    has no forward dependencies and is never a backward dependency —
    exactly the convention of the simulator and the cone helpers.
    """
    gates = netlist.gates
    if direction == "forward":
        def raw(g: int) -> Sequence[int]:
            gate = gates[g]
            return () if gate.gtype is GateType.DFF else gate.fanin
    else:
        fanouts = netlist.fanouts()

        def raw(g: int) -> Sequence[int]:
            return [c for c in dict.fromkeys(fanouts[g])
                    if gates[c].gtype is not GateType.DFF]
    if region is None:
        members: Sequence[int] = range(len(gates))
        return members, [raw(g) for g in members]
    members = sorted(region)
    local = {g: pos for pos, g in enumerate(members)}
    return members, [[local[d] for d in raw(g) if d in local]
                     for g in members]


def run_dataflow(netlist: Netlist, domain: DataflowDomain,
                 values: Optional[list] = None,
                 region: Optional[Set[int]] = None) -> list:
    """Run ``domain`` to its fixed point; returns one value per gate.

    With ``region``, only those gates are re-solved, in place in
    ``values``, which must already hold the fixed point outside the
    region; the region must hold every gate that depends on one of its
    members, so a cycle lies wholly inside or outside it.  The region
    restarts from ``domain.start`` and is scheduled over its own SCC
    condensation, which orders it exactly as the whole netlist's does;
    a whole-netlist run is the region of every gate.

    Scheduling: the SCC condensation of the dependency graph is
    processed dependencies-first.  Acyclic components need exactly one
    transfer application; cyclic components run a chaotic worklist
    restricted to their members until no value changes.  Because every
    domain here is monotone over a finite-height lattice, each member
    of a cyclic SCC is re-evaluated at most ``height * |SCC|`` times.
    """
    gates = netlist.gates
    members, deps = _dependency_edges(netlist, domain.direction, region)
    if values is None:
        values = [domain.start(g) for g in gates]
    else:
        for i in members:
            values[i] = domain.start(gates[i])
    for comp in strongly_connected_components(len(members),
                                              deps.__getitem__):
        cyclic = len(comp) > 1 or comp[0] in deps[comp[0]]
        if not cyclic:
            i = members[comp[0]]
            values[i] = domain.transfer(gates[i], values)
            continue
        if not domain.iterate_cycles:
            for pos in comp:
                i = members[pos]
                values[i] = domain.cycle_value(gates[i])
            continue
        in_comp = set(comp)
        users: Dict[int, List[int]] = {pos: [] for pos in comp}
        for pos in comp:
            for d in deps[pos]:
                if d in in_comp:
                    users[d].append(pos)
        pending = list(comp)
        queued = set(comp)
        while pending:
            pos = pending.pop()
            queued.discard(pos)
            i = members[pos]
            new = domain.transfer(gates[i], values)
            if new != values[i]:
                values[i] = new
                for u in users[pos]:
                    if u not in queued:
                        queued.add(u)
                        pending.append(u)
    return values


def _fanout_closure(netlist: Netlist, seeds: Iterable[int]) -> Set[int]:
    """``seeds`` and every gate combinationally downstream of them.

    A plain BFS rather than :meth:`Netlist.sorted_cone`, so it is safe
    on netlists with combinational cycles, where topological sorting
    raises; DFF fanin edges are sequential and not followed.
    """
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


# ----------------------------------------------------------------------
# analysis 1: ternary constant propagation
# ----------------------------------------------------------------------
class TernaryConstants(DataflowDomain):
    """Forward Kleene 0/1/X propagation.

    Lattice: ``None`` (X, unknown) below ``0`` and ``1``, which are
    incomparable maxima — height 1.  Ternary gate evaluation is monotone
    in this information order (a gate whose output is decided by partial
    inputs keeps that output under any refinement), so starting every
    signal at X the iteration ascends at most once per signal and
    terminates.  Inside combinational cycles the least fixed point keeps
    X unless a value is forced from outside the cycle — the sound answer
    for an oscillator.

    ``assume`` optionally pins cut signals (``INPUT``/``DFF`` gates,
    which otherwise start and stay X) to a known value — the hook the
    sequential reset fixpoint uses to replay per-cycle register state
    through the unchanged combinational analysis.
    """

    direction = "forward"
    iterate_cycles = True

    def __init__(self, assume: Optional[Dict[int, Optional[int]]] = None):
        self.assume: Dict[int, Optional[int]] = dict(assume or {})

    def start(self, gate: Gate) -> Optional[int]:
        return None

    def transfer(self, gate: Gate,
                 values: list) -> Optional[int]:
        gt = gate.gtype
        if gt in (GateType.INPUT, GateType.DFF):
            return self.assume.get(gate.index)
        return eval_ternary(gt, [values[src] for src in gate.fanin])


# ----------------------------------------------------------------------
# analysis 2: structural-hash equivalence classes
# ----------------------------------------------------------------------
#: Class id reserved for the constant-zero function; the constant-one
#: literal is its negation.
_CONST_CLASS = 0

_LIT_FALSE = (_CONST_CLASS, False)
_LIT_TRUE = (_CONST_CLASS, True)


class _StructuralClasses(DataflowDomain):
    """Forward literal numbering under negation/sorting normalization.

    Every signal is assigned a *literal* ``(class, negated)``.  AND-like
    and OR-like gates are normalized to an AND key over literals via
    De Morgan; XOR-like gates to an XOR key over classes with the parity
    of negations folded into the literal's phase.  Keys are hash-consed
    in ``self.memo``, so two gates computing the same normalized
    function share a class.  The pass is a single deps-first sweep (the
    memo only ever grows and a gate's key is a pure function of its
    fanin literals, so no iteration is needed on acyclic regions);
    members of cyclic SCCs receive opaque per-gate leaf classes, which
    only under-approximates equivalence — never wrongly merges.
    """

    direction = "forward"
    iterate_cycles = False

    def __init__(self, constants: Sequence[Optional[int]]):
        self.constants = constants
        self.memo: Dict[tuple, int] = {}
        self.next_class = _CONST_CLASS + 1

    # -- helpers -------------------------------------------------------
    def _fresh(self, key: tuple) -> int:
        cls = self.memo.get(key)
        if cls is None:
            cls = self.next_class
            self.next_class += 1
            self.memo[key] = cls
        return cls

    def _and_key(self, lits: Sequence[Tuple[int, bool]]
                 ) -> Tuple[int, bool]:
        ordered = []
        seen = set()
        for lit in lits:
            if lit == _LIT_FALSE:
                return _LIT_FALSE
            if lit == _LIT_TRUE:
                continue
            if lit in seen:
                continue  # x AND x = x
            if (lit[0], not lit[1]) in seen:
                return _LIT_FALSE  # x AND NOT x = 0
            seen.add(lit)
            ordered.append(lit)
        if not ordered:
            return _LIT_TRUE
        if len(ordered) == 1:
            return ordered[0]
        key = ("and", tuple(sorted(ordered)))
        return (self._fresh(key), False)

    def _xor_key(self, lits: Sequence[Tuple[int, bool]]
                 ) -> Tuple[int, bool]:
        phase = False
        counts: Dict[int, int] = {}
        for cls, neg in lits:
            phase ^= neg
            counts[cls] = counts.get(cls, 0) + 1
        classes = sorted(cls for cls, cnt in counts.items()
                         if cnt % 2 and cls != _CONST_CLASS)
        if not classes:
            return (_CONST_CLASS, phase)
        if len(classes) == 1:
            return (classes[0], phase)
        key = ("xor", tuple(classes))
        return (self._fresh(key), phase)

    @staticmethod
    def _negate(lit: Tuple[int, bool]) -> Tuple[int, bool]:
        return (lit[0], not lit[1])

    # -- domain interface ----------------------------------------------
    def start(self, gate: Gate) -> Tuple[int, bool]:
        return (self._fresh(("leaf", gate.index)), False)

    def cycle_value(self, gate: Gate) -> Tuple[int, bool]:
        return (self._fresh(("cyclic", gate.index)), False)

    def transfer(self, gate: Gate, values: list) -> Tuple[int, bool]:
        const = self.constants[gate.index]
        if const is not None:
            return _LIT_TRUE if const else _LIT_FALSE
        gt = gate.gtype
        if gt in (GateType.INPUT, GateType.DFF):
            return (self._fresh(("leaf", gate.index)), False)
        lits = [values[src] for src in gate.fanin]
        if gt is GateType.BUF:
            return lits[0]
        if gt is GateType.NOT:
            return self._negate(lits[0])
        if gt is GateType.AND:
            return self._and_key(lits)
        if gt is GateType.NAND:
            return self._negate(self._and_key(lits))
        if gt is GateType.OR:
            return self._negate(
                self._and_key([self._negate(lit) for lit in lits]))
        if gt is GateType.NOR:
            return self._and_key([self._negate(lit) for lit in lits])
        if gt is GateType.XOR:
            return self._xor_key(lits)
        if gt is GateType.XNOR:
            return self._negate(self._xor_key(lits))
        # CONST gates were handled through ``constants`` above.
        return _LIT_TRUE if gt is GateType.CONST1 else _LIT_FALSE


# ----------------------------------------------------------------------
# analysis 3: static implications with contrapositive closure
# ----------------------------------------------------------------------
class Implications:
    """The implication graph over literals ``(signal, value)``, closed.

    Node encoding: literal ``signal = v`` is node ``2 * signal + v``;
    its negation is ``node ^ 1``.  Every direct edge is added together
    with its contrapositive, so the closure is contrapositive-complete
    by construction.  Transitive closure runs over the graph's SCC
    condensation; each component's reachability set is the union of its
    members and its successors' sets.  Reachability sets are subsets of
    the finite literal universe and only grow, so the computation is a
    terminating ascending fixed point.

    A literal is *impossible* when it reaches a literal known false
    (the complement of a propagated constant) or reaches both phases of
    some signal; the complement of an impossible literal is an *implied
    constant* — this is how ``AND(a, NOT a)`` is proven 0.
    """

    def __init__(self, netlist: Netlist,
                 constants: Dict[int, int]):
        self.netlist = netlist
        n = len(netlist.gates)
        self.num_nodes = 2 * n
        self._succ: List[List[int]] = [[] for _ in range(self.num_nodes)]
        self._build(netlist)
        self._reach = self._close()
        self._impossible = self._find_impossible(constants)
        self.implied_constants = self._implied_constants()

    # -- construction --------------------------------------------------
    def _edge(self, u: int, w: int) -> None:
        """Add ``u -> w`` and its contrapositive ``not w -> not u``."""
        self._succ[u].append(w)
        self._succ[w ^ 1].append(u ^ 1)

    @staticmethod
    def edges_for_gate(gate: Gate) -> List[Tuple[int, int]]:
        """Direct implication edges contributed by one gate (the
        contrapositives are added separately by :meth:`_edge`)."""
        gt = gate.gtype
        if gt in (GateType.INPUT, GateType.CONST0, GateType.CONST1,
                  GateType.DFF):
            return []
        g1 = 2 * gate.index + 1
        g0 = 2 * gate.index
        ins = gate.fanin
        unary_like = len(ins) == 1
        edges: List[Tuple[int, int]] = []
        if gt is GateType.BUF or (unary_like and gt in (
                GateType.AND, GateType.OR, GateType.XOR)):
            edges.append((g1, 2 * ins[0] + 1))
            edges.append((g0, 2 * ins[0]))
        elif gt is GateType.NOT or (unary_like and gt in (
                GateType.NAND, GateType.NOR, GateType.XNOR)):
            edges.append((g1, 2 * ins[0]))
            edges.append((g0, 2 * ins[0] + 1))
        elif gt is GateType.AND:
            for src in ins:
                edges.append((g1, 2 * src + 1))
        elif gt is GateType.NAND:
            for src in ins:
                edges.append((g0, 2 * src + 1))
        elif gt is GateType.OR:
            for src in ins:
                edges.append((g0, 2 * src))
        elif gt is GateType.NOR:
            for src in ins:
                edges.append((g1, 2 * src))
        # XOR/XNOR with >= 2 inputs admit no single-literal implications.
        return edges

    def _build(self, netlist: Netlist) -> None:
        for gate in netlist.gates:
            for u, w in self.edges_for_gate(gate):
                self._edge(u, w)

    # -- closure -------------------------------------------------------
    def _close(self) -> List[int]:
        comps = strongly_connected_components(
            self.num_nodes, self._succ.__getitem__)
        comp_of = [0] * self.num_nodes
        for cid, comp in enumerate(comps):
            for node in comp:
                comp_of[node] = cid
        comp_reach: List[int] = [0] * len(comps)
        # Tarjan order is successors-first, so every edge target's
        # component set is final before it is unioned in here.
        for cid, comp in enumerate(comps):
            bits = 0
            for node in comp:
                bits |= 1 << node
                for w in self._succ[node]:
                    bits |= comp_reach[comp_of[w]]
            comp_reach[cid] = bits
        return [comp_reach[comp_of[u]] for u in range(self.num_nodes)]

    def _find_impossible(self, constants: Dict[int, int]) -> int:
        seeds = 0
        for signal, value in constants.items():
            seeds |= 1 << (2 * signal + (1 - value))
        n = self.num_nodes // 2
        even_mask = (pow(4, n) - 1) // 3 if n else 0
        impossible = 0
        for u in range(self.num_nodes):
            r = self._reach[u]
            if r & seeds:
                impossible |= 1 << u
                continue
            if (r & (r >> 1)) & even_mask:
                impossible |= 1 << u
        return impossible

    def _implied_constants(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for signal in range(self.num_nodes // 2):
            zero_bad = (self._impossible >> (2 * signal)) & 1
            one_bad = (self._impossible >> (2 * signal + 1)) & 1
            if zero_bad and one_bad:
                continue  # inconsistent region (cyclic netlist); punt
            if one_bad:
                out[signal] = 0
            elif zero_bad:
                out[signal] = 1
        return out

    # -- queries -------------------------------------------------------
    def holds(self, signal: int, value: int,
              other: int, other_value: int) -> bool:
        """True when ``signal=value`` statically implies
        ``other=other_value``."""
        u = 2 * signal + value
        return bool((self._reach[u] >> (2 * other + other_value)) & 1)

    def impossible(self, signal: int, value: int) -> bool:
        """True when ``signal=value`` occurs in no consistent
        assignment."""
        return bool((self._impossible >> (2 * signal + value)) & 1)

    def implied_by(self, signal: int, value: int
                   ) -> List[Tuple[int, int]]:
        """All literals implied by ``signal=value`` (excluding itself)."""
        u = 2 * signal + value
        r = self._reach[u] & ~(1 << u)
        out: List[Tuple[int, int]] = []
        node = 0
        while r:
            if r & 1:
                out.append((node >> 1, node & 1))
            r >>= 1
            node += 1
        return out

    def edge_count(self) -> int:
        """Number of non-trivial closed implications (diagnostic)."""
        total = 0
        for u in range(self.num_nodes):
            r = self._reach[u] & ~(1 << u)
            total += bin(r).count("1")
        return total


# ----------------------------------------------------------------------
# analysis 4: dominators and ODCs
# ----------------------------------------------------------------------
class _Dominators(DataflowDomain):
    """Backward post-dominator sets w.r.t. the primary outputs.

    Value per signal: an int bitset of the signals every combinational
    path from it to *any* primary output passes through (itself
    included); ``dom(po) = {po}`` because observation happens at the
    output pin.  Transfer intersects over the observable combinational
    consumers.  Iteration starts at the universal set (top) and only
    descends; the lattice of signal subsets is finite, intersection and
    union are monotone, so the greatest fixed point is reached without
    widening.  Signals with no path to an output are resolved separately
    by plain reachability (:class:`NetlistFacts` reports them
    unobservable and gives them no dominator set).
    """

    direction = "backward"
    iterate_cycles = True

    def __init__(self, netlist: Netlist, observable: frozenset):
        self.netlist = netlist
        self.observable = observable
        self.outputs = set(netlist.outputs)
        self.universe = (1 << len(netlist.gates)) - 1

    def start(self, gate: Gate) -> int:
        return self.universe

    def transfer(self, gate: Gate, values: list) -> int:
        i = gate.index
        if i not in self.observable:
            return self.universe  # dead; filtered out afterwards
        if i in self.outputs:
            return 1 << i
        meet = self.universe
        gates = self.netlist.gates
        for consumer in dict.fromkeys(self.netlist.fanouts()[i]):
            if gates[consumer].gtype is GateType.DFF:
                continue
            if consumer in self.observable:
                meet &= values[consumer]
        return meet | (1 << i)


@dataclass(frozen=True)
class OdcCondition:
    """One observability don't-care condition of a line.

    Changes on the line are invisible at every primary output whenever
    ``side_input`` (a fanin of ``dominator`` outside the line's fanout
    cone) carries ``ctrl``, the dominator's controlling value.
    """

    dominator: int
    side_input: int
    ctrl: int


# ----------------------------------------------------------------------
# the facts bundle
# ----------------------------------------------------------------------
class NetlistFacts:
    """Lazily-computed static facts about one netlist snapshot.

    Obtain through :func:`netlist_facts`; the instance is cached on the
    netlist and dropped on any structural mutation, so facts never
    outlive the structure they describe.  Sections are materialized on
    first use: constants and equivalence classes are cheap single
    sweeps, dominators one backward fixed point, implications (the
    priciest) only on demand — the diagnosis pre-screen runs without
    them, deep lint forces them.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        #: Edit version this bundle describes; when the netlist moves
        #: past it, :func:`netlist_facts` starts a fresh bundle.
        self.version: int = netlist._version
        self._constants: Optional[Dict[int, int]] = None
        self._literals: Optional[List[Tuple[int, bool]]] = None
        self._implications: Optional[Implications] = None
        self._observable: Optional[frozenset] = None
        self._dominators: Optional[List[Optional[int]]] = None
        self._cones: Dict[int, frozenset] = {}
        self._blocked: Dict[bool, frozenset] = {}
        self._scoap: Optional[object] = None
        self._testability: Optional[object] = None
        self._prover: Optional[object] = None
        self._seq_prover: Optional[object] = None
        self._reset: Dict[tuple, object] = {}

    # -- constants -----------------------------------------------------
    def constants(self) -> Dict[int, int]:
        """Signals with a structurally-forced value (ternary CP only)."""
        if self._constants is None:
            values = run_dataflow(self.netlist, TernaryConstants())
            self._constants = {i: v for i, v in enumerate(values)
                               if v is not None}
        return self._constants

    def implied_constants(self) -> Dict[int, int]:
        """Extra constants proven by implication contradictions."""
        consts = self.constants()
        return {i: v for i, v in self.implications()
                .implied_constants.items() if i not in consts}

    def structural_constants(self) -> Dict[int, int]:
        """Constants proven by hash-consing alone, e.g. ``XOR(g, g)``.

        These are invisible to both ternary propagation (the inputs are
        X) and the implication closure (XOR admits no single-literal
        implications); cancellation in the normalized key is what
        exposes them.
        """
        lits = self.literals()
        consts = self.constants()
        return {i: int(lit[1]) for i, lit in enumerate(lits)
                if lit[0] == _CONST_CLASS and i not in consts}

    def known_constants(self, deep: bool = False) -> Dict[int, int]:
        """Ternary constants, plus implication- and hash-derived ones
        if ``deep``.

        When the implication analysis has not been materialized and
        ``deep`` is False, no extra analysis work is triggered.
        """
        out = dict(self.constants())
        if deep or self._implications is not None:
            out.update(self.implications().implied_constants)
            out.update(self.structural_constants())
        return out

    # -- equivalence classes -------------------------------------------
    def literals(self) -> List[Tuple[int, bool]]:
        """Normalized literal ``(class, negated)`` per signal."""
        if self._literals is None:
            domain = _StructuralClasses(
                [self.constants().get(i)
                 for i in range(len(self.netlist.gates))])
            self._literals = run_dataflow(self.netlist, domain)
        return self._literals

    def duplicate_groups(self) -> List[List[int]]:
        """Groups of >= 2 gates computing the identical function.

        Constant literals are excluded (they belong to the constant
        facts) and so are ``INPUT``/``DFF``/``CONST`` gates, whose
        literals are definitionally unique leaves.
        """
        groups: Dict[Tuple[int, bool], List[int]] = {}
        lits = self.literals()
        for gate in self.netlist.gates:
            if gate.gtype in (GateType.INPUT, GateType.DFF,
                              GateType.CONST0, GateType.CONST1):
                continue
            lit = lits[gate.index]
            if lit[0] == _CONST_CLASS:
                continue
            groups.setdefault(lit, []).append(gate.index)
        # Sorted by member content, not by raw class id, so the order
        # depends only on the partition.
        return sorted(sorted(members) for members in groups.values()
                      if len(members) >= 2)

    # -- implications --------------------------------------------------
    def implications(self) -> Implications:
        if self._implications is None:
            self._implications = Implications(self.netlist,
                                              self.constants())
            self._blocked.clear()  # deep blocking may now see more
        return self._implications

    # -- observability / dominators ------------------------------------
    def observable_set(self) -> frozenset:
        """Signals with a combinational path to some primary output."""
        if self._observable is None:
            self._observable = frozenset(self._reach_outputs())
        return self._observable

    def _reach_outputs(self, removed: int = -1) -> set:
        """Signals with a combinational path to a primary output that
        avoids the gate ``removed`` (DFF fanin edges are not followed)."""
        gates = self.netlist.gates
        seen: set = set()
        stack = [out for out in self.netlist.outputs if out != removed]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if gates[node].gtype is not GateType.DFF:
                stack.extend(src for src in gates[node].fanin
                             if src != removed)
        return seen

    def observable(self, signal: int) -> bool:
        return signal in self.observable_set()

    def _dom_bits(self) -> List[Optional[int]]:
        if self._dominators is None:
            obs = self.observable_set()
            values = run_dataflow(self.netlist,
                                  _Dominators(self.netlist, obs))
            self._dominators = [values[i] if i in obs else None
                                for i in range(len(self.netlist.gates))]
        return self._dominators

    def dominators(self, signal: int) -> Optional[frozenset]:
        """Signals on every path from ``signal`` to a primary output
        (``signal`` included), or ``None`` when no such path exists."""
        bits = self._dom_bits()[signal]
        if bits is None:
            return None
        out = set()
        node = 0
        while bits:
            if bits & 1:
                out.add(node)
            bits >>= 1
            node += 1
        return frozenset(out)

    # -- cones (BFS membership only; cycle-safe on purpose) ------------
    def cone(self, signal: int) -> frozenset:
        """Fanout-cone membership of ``signal`` (itself included),
        cycle-safe (:func:`_fanout_closure`) so lint can run on netlists
        with combinational cycles."""
        cone = self._cones.get(signal)
        if cone is None:
            cone = frozenset(_fanout_closure(self.netlist, (signal,)))
            self._cones[signal] = cone
        return cone

    # -- ODCs ----------------------------------------------------------
    def odc_conditions(self, signal: int) -> Tuple[OdcCondition, ...]:
        """Static ODC conditions of a line, sorted for determinism.

        Only side inputs *outside* the line's fanout cone qualify: a
        reconvergent side input changes together with the line, so its
        value cannot be assumed stable while the line is faulty.
        """
        dom = self.dominators(signal)
        if dom is None:
            return ()
        cone = self.cone(signal)
        gates = self.netlist.gates
        conditions: List[OdcCondition] = []
        for d in sorted(dom):
            if d == signal:
                continue
            ctrl = controlling_value(gates[d].gtype)
            if ctrl is None:
                continue
            for src in gates[d].fanin:
                if src not in cone:
                    conditions.append(OdcCondition(d, src, ctrl))
        return tuple(conditions)

    def blocked_signals(self, deep: bool = False) -> frozenset:
        """All signals whose ODC conditions are statically always-on.

        Seeded from the constants rather than checked per signal: an
        observable gate ``d`` whose fanin ``src`` provably carries
        ``d``'s controlling value blocks every ``s != d`` that ``d``
        dominates (``s`` reaches no output once ``d`` is removed) and
        that is outside ``src``'s fanin cone — exactly the signals with
        an always-on :meth:`odc_conditions` entry.
        """
        key = bool(deep) or self._implications is not None
        cached = self._blocked.get(key)
        if cached is not None:
            return cached
        observable = self.observable_set()
        netlist = self.netlist
        fanouts = netlist.fanouts()
        sides: Dict[int, set] = {}
        for src, value in self.known_constants(deep=key).items():
            for d in fanouts[src]:
                if d in observable and controlling_value(
                        netlist.gates[d].gtype) == value:
                    sides.setdefault(d, set()).add(src)
        blocked: set = set()
        for d, srcs in sides.items():
            # Everything in d's fanin cone is observable through d.
            dominated = netlist.fanin_cone(d) - self._reach_outputs(d)
            dominated.discard(d)
            for src in srcs:
                blocked |= dominated - netlist.fanin_cone(src)
        result = frozenset(blocked)
        self._blocked[key] = result
        return result

    # -- testability ----------------------------------------------------
    def scoap(self):
        """SCOAP CC0/CC1/CO cost vectors for this snapshot.

        Computed by the saturating min-plus lattices of
        :mod:`repro.analyze.testability` on this engine (cycle-safe);
        cached like every other section.
        """
        if self._scoap is None:
            from .testability import scoap_costs
            self._scoap = scoap_costs(self.netlist)
        return self._scoap

    def testability(self):
        """Static untestable-fault identification for this snapshot.

        Requirement-literal records per fault site plus the set of
        statically-proven untestable stuck-at faults (see
        :mod:`repro.analyze.testability`).  Forces the implication
        closure on first use.
        """
        if self._testability is None:
            from .testability import derive_testability
            self._testability = derive_testability(self)
        return self._testability

    # -- proofs ---------------------------------------------------------
    def prover(self, conflict_budget: Optional[int] = None,
               nvectors: Optional[int] = None, seed: int = 0):
        """The SAT-sweeping prover for this snapshot, built once.

        The :class:`~repro.analyze.prove.Prover` carries the Tseitin
        encoding of the whole combinational core plus the accumulated
        simulation signatures; caching it here ties its lifetime to the
        facts bundle, so :meth:`Netlist._dirty` invalidates the CNF with
        every other derived structure.  ``conflict_budget`` updates the
        cached instance's per-query budget; ``nvectors``/``seed`` only
        apply on first construction.  Raises
        :class:`~repro.errors.NetlistError` on combinational cycles.
        """
        from .prove import DEFAULT_CONFLICT_BUDGET, DEFAULT_VECTORS, Prover

        if self._prover is None:
            self._prover = Prover(
                self.netlist, facts=self,
                conflict_budget=(DEFAULT_CONFLICT_BUDGET
                                 if conflict_budget is None
                                 else conflict_budget),
                nvectors=(DEFAULT_VECTORS if nvectors is None
                          else nvectors),
                seed=seed)
        elif conflict_budget is not None:
            self._prover.conflict_budget = conflict_budget
        return self._prover

    # -- sequential facts -----------------------------------------------
    def reset_fixpoint(self, initial_state=0):
        """The reset-state ternary fixpoint of this netlist, cached per
        initial state (see :func:`repro.analyze.seq.reset_fixpoint`).

        Like every other section of the bundle the result describes one
        structural snapshot and is dropped by :meth:`Netlist._dirty`.
        """
        from ..circuit.sequential import normalize_initial_state
        from .seq import reset_fixpoint

        state = normalize_initial_state(self.netlist, initial_state)
        key = tuple(sorted(state.items(),
                           key=lambda kv: (kv[0], kv[1] is None)))
        cached = self._reset.get(key)
        if cached is None:
            cached = reset_fixpoint(self.netlist, state)
            self._reset[key] = cached
        return cached

    def seq_prover(self, k: Optional[int] = None,
                   conflict_budget: Optional[int] = None,
                   nvectors: Optional[int] = None, seed: int = 0,
                   initial_state=0):
        """The k-induction correspondence prover, built once per snapshot.

        Mirrors :meth:`prover`: the
        :class:`~repro.analyze.seq.SeqProver` carries the unrolled
        Tseitin encodings and the per-frame simulation signatures, so
        caching it here ties its lifetime to the facts bundle and
        :meth:`Netlist._dirty` invalidates it with everything else.
        ``conflict_budget`` updates the cached instance's per-query
        budget; ``k``/``nvectors``/``seed``/``initial_state`` only apply
        on first construction.
        """
        from .seq import (DEFAULT_INDUCTION_K, DEFAULT_SEQ_BUDGET,
                          DEFAULT_SEQ_VECTORS, SeqProver)

        if self._seq_prover is None:
            self._seq_prover = SeqProver(
                self.netlist, facts=self,
                k=DEFAULT_INDUCTION_K if k is None else k,
                conflict_budget=(DEFAULT_SEQ_BUDGET
                                 if conflict_budget is None
                                 else conflict_budget),
                nvectors=(DEFAULT_SEQ_VECTORS if nvectors is None
                          else nvectors),
                seed=seed, initial_state=initial_state)
        elif conflict_budget is not None:
            self._seq_prover.conflict_budget = conflict_budget
        return self._seq_prover

    # -- reporting ------------------------------------------------------
    def summary(self, deep: bool = True, seq: bool = False,
                testability: bool = False) -> dict:
        """Deterministic JSON-ready digest (the ``repro facts`` CLI)."""
        names = [g.name for g in self.netlist.gates]
        consts = self.constants()
        if deep:
            implied = {i: v for i, v in self.known_constants(True).items()
                       if i not in consts}
        else:
            implied = {}
        live = self.netlist.live_set()
        unobs = sorted(names[i] for i in range(len(names))
                       if i in live and not self.observable(i))
        blocked = sorted(names[i]
                         for i in self.blocked_signals(deep=deep))
        dup = [[names[i] for i in group]
               for group in self.duplicate_groups()]
        out = {
            "netlist": self.netlist.name,
            "gates": len(names),
            "constants": {names[i]: v
                          for i, v in sorted(consts.items())},
            "implied_constants": {names[i]: v
                                  for i, v in sorted(implied.items())},
            "duplicate_groups": sorted(dup),
            "unobservable": unobs,
            "odc_blocked": blocked,
        }
        if deep:
            out["implications"] = self.implications().edge_count()
        if testability:
            from .testability import INF, describe_site
            sc = self.scoap()
            tb = self.testability()
            finite_cc = [max(c0, c1) for c0, c1 in zip(sc.cc0, sc.cc1)
                         if max(c0, c1) < INF]
            finite_co = [c for c in sc.co if c < INF]
            out["testability"] = {
                "max_cc": max(finite_cc, default=0),
                "max_co": max(finite_co, default=0),
                "untestable_faults": sorted(
                    f"{describe_site(self.netlist, site)}/sa{value}: "
                    f"{verdict.reason}"
                    for (site, value), verdict in tb.untestable.items()
                    if site[1] in live),
            }
        if seq and self.netlist.dffs():
            fx = self.reset_fixpoint()
            result = self.seq_prover().sweep()
            comb = self.constants()
            out["seq"] = {
                "fixpoint_iterations": fx.iterations,
                "stuck_registers": {
                    names[d]: v
                    for d, v in sorted(fx.stuck_registers.items())},
                "seq_constants": {
                    names[i]: v for i, v in sorted(fx.constants.items())
                    if i not in comb
                    and i not in fx.stuck_registers},
                "induction_k": result.k,
                "proven_constants": {
                    names[i]: pc.value
                    for i, pc in sorted(result.constants.items())
                    if i not in comb},
                "proven_classes": sorted(
                    [sorted(names[s] for s, _ph in members)
                     for members in result.classes]),
            }
        return out


def netlist_facts(netlist: Netlist) -> NetlistFacts:
    """The facts bundle for ``netlist``, cached and version-checked.

    The cache rides on ``netlist._facts``.  While the netlist's
    edit version matches the bundle's, the cached object is
    returned as-is; after any mutation a *new* lazy bundle is installed,
    so a stale bundle can never describe a mutated circuit and identity
    of the returned object certifies an unchanged snapshot.
    """
    facts = netlist._facts
    if isinstance(facts, NetlistFacts) and facts.version == netlist._version:
        return facts
    fresh = NetlistFacts(netlist)
    netlist._facts = fresh
    return fresh


def warm_facts(netlist: Netlist, base: NetlistFacts) -> NetlistFacts:
    """A fresh bundle for ``netlist`` — a :meth:`~Netlist.copy` of
    ``base``'s netlist, changed since as its known change record says —
    whose constants and observability are carried over from ``base``.

    Only sections ``base`` had materialized are warmed; the rest of the
    new bundle is lazy, and ``base`` is never mutated.  Both rules are
    exact: the warmed section equals a from-scratch computation.

    * Constants re-solve the fanout closure of ``netlist.touched``.  A
      gate outside it depends on no edited gate, so the old fixed point
      restricted to the outside is a fixed point of the new system there
      and, being unique, the new one; :func:`run_dataflow` re-descends
      the region from those boundary values.
    * Observability depends only on edges and the output list, so it is
      copied unless ``netlist.rewired``.
    """
    fresh = NetlistFacts(netlist)
    if base._constants is not None:
        values = [base._constants.get(i) for i in range(len(netlist.gates))]
        run_dataflow(netlist, TernaryConstants(), values,
                     _fanout_closure(netlist, netlist.touched))
        fresh._constants = {i: v for i, v in enumerate(values)
                            if v is not None}
    if base._observable is not None and not netlist.rewired:
        fresh._observable = base._observable
    return fresh
