"""PODEM automatic test pattern generation.

The paper feeds the diagnosis engine "vectors from [3] along with
6,000–10,000 random vectors" — [3] being a compact deterministic test
set.  We reproduce that recipe with our own deterministic generator: a
classic PODEM (Goel) implementation over the 5-valued D-calculus, one
target fault at a time, plus reverse-order compaction
(:mod:`repro.tgen.compaction`).

The implementation is scalar (one vector at a time) and intentionally
simple; it only needs to top up the random set with hard-fault vectors.
A D-calculus value is a pair of Kleene ternary values, good and faulty
(``None`` is X), both computed by
:func:`~repro.circuit.gatetypes.eval_ternary`.  Implication after a
decision or a backtrack re-evaluates only the fanout cones of the
primary inputs whose value changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit.gatetypes import (GATE_CORE, INVERTING_TYPES, GateType,
                                 controlling_value, eval_ternary)
from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..errors import SimulationError
from ..sim.faultsim import SimFault


@dataclass
class PodemStats:
    """Counters for one :meth:`Podem.generate` call."""

    backtracks: int = 0
    implications: int = 0
    aborted: bool = False
    #: True when the fault was rejected by the static pre-check (zero
    #: search: no implication, no backtrack).
    static_untestable: bool = False


class Podem:
    """PODEM test generator for stuck-at faults on one netlist.

    The netlist must be combinational (full-scan models qualify).

    ``guide`` opts into static-analysis guidance: pass a
    :class:`~repro.analyze.dataflow.NetlistFacts` bundle (or ``True``
    to fetch the netlist's own cached bundle).  Guidance adds

    * SCOAP-cost-driven choices — the D-frontier is tried easiest-to-
      observe first, objectives pick the cheapest input to justify,
      and backtrace descends through the cost-appropriate X fanin
      (hardest-first for all-inputs-needed objectives, cheapest-first
      for any-input ones: the classic SCOAP heuristics); and
    * a pre-check that answers statically-proven untestable faults
      immediately (``stats.static_untestable``) without any search.

    Guidance never changes which faults are testable — only the order
    the same search space is explored, and the skip of faults proven
    untestable by a sound static argument.
    """

    def __init__(self, netlist: Netlist, table: LineTable | None = None,
                 backtrack_limit: int = 250, guide=None):
        if not netlist.is_combinational:
            raise SimulationError(
                "PODEM needs a combinational netlist; full-scan it first")
        self.netlist = netlist
        self.table = table or LineTable(netlist)
        self.backtrack_limit = backtrack_limit
        self._order = netlist.topo_order()
        self._pis = netlist.inputs
        self.guided = bool(guide)
        self._cc0: tuple | None = None
        self._cc1: tuple | None = None
        self._co: tuple | None = None
        self._static_untestable: set = set()
        if guide:
            if guide is True:
                from ..analyze.dataflow import netlist_facts
                facts = netlist_facts(netlist)
            else:
                facts = guide
            costs = facts.scoap()
            self._cc0, self._cc1, self._co = (costs.cc0, costs.cc1,
                                              costs.co)
            self._static_untestable = (
                facts.testability().untestable_line_keys(self.table))

    # ------------------------------------------------------------------
    def generate(self, fault: SimFault
                 ) -> tuple[dict | None, PodemStats]:
        """Find a test for ``fault``.

        Returns ``(assignment, stats)`` where ``assignment`` maps each PI
        gate index to 0/1 (unassigned PIs may be filled arbitrarily), or
        ``None`` if untestable/aborted (see ``stats.aborted``).
        """
        line = self.table[fault.line]
        stats = PodemStats()
        if (fault.line, fault.value) in self._static_untestable:
            stats.static_untestable = True
            return None, stats
        pi_values: dict[int, int] = {}
        decisions: list[tuple[int, int, bool]] = []  # (pi, value, flipped)

        n = len(self.netlist.gates)
        good: list = [None] * n
        faulty: list = [None] * n
        self._imply(pi_values, fault, good, faulty, self._order)
        stats.implications += 1
        while True:
            if self._detected(good, faulty):
                return dict(pi_values), stats
            objective = self._objective(good, faulty, fault, line)
            if objective is not None:
                pi, value = self._backtrace(objective[0], objective[1],
                                            good)
                if pi is not None:
                    decisions.append((pi, value, False))
                    pi_values[pi] = value
                    self._imply(pi_values, fault, good, faulty,
                                self.netlist.sorted_cone(pi))
                    stats.implications += 1
                    continue
            # No objective achievable -> backtrack.
            backtracked = False
            changed = set()
            while decisions:
                pi, value, flipped = decisions.pop()
                del pi_values[pi]
                changed.add(pi)
                stats.backtracks += 1
                if stats.backtracks > self.backtrack_limit:
                    stats.aborted = True
                    return None, stats
                if not flipped:
                    decisions.append((pi, 1 - value, True))
                    pi_values[pi] = 1 - value
                    self._imply(pi_values, fault, good, faulty,
                                self._cones(changed))
                    stats.implications += 1
                    backtracked = True
                    break
            if not backtracked:
                return None, stats  # search space exhausted: untestable

    # ------------------------------------------------------------------
    def _cones(self, pis: set) -> tuple:
        """The union of the fanout cones of ``pis``, topologically
        sorted."""
        cone = set()
        for pi in pis:
            cone.update(self.netlist.sorted_cone(pi))
        return tuple(sorted(cone, key=self.netlist.topo_positions()
                            .__getitem__))

    def _imply(self, pi_values: dict, fault: SimFault, good: list,
               faulty: list, order) -> None:
        """3-valued good/faulty simulation of the gates in ``order`` (a
        topologically sorted set closed under fanout: the whole netlist,
        or the cones of the PIs whose value changed) under a partial PI
        assignment, updating ``good`` and ``faulty`` in place."""
        line = self.table[fault.line]
        stem = line.driver if line.is_stem else None
        sink = None if line.is_stem else line.sink
        gates = self.netlist.gates
        for idx in order:
            gate = gates[idx]
            if gate.gtype is GateType.INPUT:
                good[idx] = faulty[idx] = pi_values.get(idx)
            else:
                good[idx] = eval_ternary(gate.gtype,
                                         [good[src] for src in gate.fanin])
                fvals = [faulty[src] for src in gate.fanin]
                if idx == sink:
                    fvals[line.pin] = fault.value
                faulty[idx] = eval_ternary(gate.gtype, fvals)
            if idx == stem:
                faulty[idx] = fault.value

    def _detected(self, good, faulty) -> bool:
        for po in self.netlist.outputs:
            if (good[po] is not None and faulty[po] is not None
                    and good[po] != faulty[po]):
                return True
        return False

    def _excited(self, good, faulty, fault: SimFault, line) -> int:
        """-1 impossible, 0 not yet (X), 1 excited."""
        sig = good[line.driver]
        if sig is None:
            return 0
        return 1 if sig != fault.value else -1

    def _objective(self, good, faulty, fault: SimFault,
                   line) -> tuple[int, int] | None:
        """Next (signal, value) objective, or None when stuck."""
        state = self._excited(good, faulty, fault, line)
        if state == -1:
            return None
        if state == 0:
            return (line.driver, 1 - fault.value)
        # Fault excited: pick an X-output gate with a D on some input.
        frontier = self._d_frontier(good, faulty, fault, line)
        if self.guided and self._co is not None:
            frontier.sort(key=lambda idx: (self._co[idx], idx))
        for gate_idx in frontier:
            gate = self.netlist.gates[gate_idx]
            ctrl = controlling_value(gate.gtype)
            xs = [src for src in gate.fanin if good[src] is None]
            if not xs:
                continue
            if ctrl is not None:
                want = 1 - ctrl
                if self.guided:
                    # every X side pin must go non-controlling; aim the
                    # cheapest one first
                    cost = self._cc1 if want == 1 else self._cc0
                    return (min(xs, key=lambda s: (cost[s], s)), want)
                return (xs[0], want)
            # XOR-like: any defined value propagates — free choice,
            # cheapest side when guided (the old hard-coded 1 remains
            # the unguided default).
            if self.guided:
                src = min(xs,
                          key=lambda s: (min(self._cc0[s], self._cc1[s]),
                                         s))
                want = 0 if self._cc0[src] <= self._cc1[src] else 1
                return (src, want)
            return (xs[0], 1)
        return None

    def _d_frontier(self, good, faulty, fault: SimFault,
                    line) -> list[int]:
        """X-output gates with a D on some input, in topological order.

        Only the fault site's fanout cone can carry a D, so only it is
        scanned."""
        frontier = []
        for idx in self.netlist.sorted_cone(
                line.driver if line.is_stem else line.sink):
            gate = self.netlist.gates[idx]
            if not gate.fanin or gate.gtype is GateType.INPUT:
                continue
            out_x = good[idx] is None or faulty[idx] is None
            if not out_x:
                continue
            for pin, src in enumerate(gate.fanin):
                good_in, faulty_in = good[src], faulty[src]
                if (not line.is_stem and idx == line.sink
                        and pin == line.pin):
                    # The branch fault's D is visible only in this pin's
                    # view: faulty side reads the stuck value.
                    faulty_in = fault.value
                if (good_in is not None and faulty_in is not None
                        and good_in != faulty_in):
                    frontier.append(idx)
                    break
        return frontier

    def _backtrace(self, signal: int, value: int,
                   good) -> tuple[int | None, int]:
        """Map an objective to an unassigned-PI assignment.

        Walks driver-ward one X fanin at a time until a free primary
        input is reached.  A visited set guards against revisiting a
        signal (impossible on the acyclic netlists ``__init__``
        enforces, but a structural guard beats a magic iteration
        bound).  XOR parity is computed per *pin*: duplicate pins of
        one signal each contribute, and the chosen pin's value is
        forced only when it is the last X pin — otherwise the value is
        a free choice (cost-guided when guidance is on).
        """
        gates = self.netlist.gates
        current, want = signal, value
        visited = set()
        while current not in visited:
            visited.add(current)
            gate = gates[current]
            if gate.gtype is GateType.INPUT:
                if good[current] is None:
                    return current, want
                return None, 0
            if not gate.fanin:
                return None, 0  # constants cannot be justified
            if gate.gtype in INVERTING_TYPES:
                want = 1 - want
            x_pins = [pin for pin, src in enumerate(gate.fanin)
                      if good[src] is None]
            if not x_pins:
                return None, 0
            pin = self._choose_pin(gate, want, x_pins)
            nxt = gate.fanin[pin]
            if gate.gtype in (GateType.XOR, GateType.XNOR):
                acc = 0
                for p, src in enumerate(gate.fanin):
                    if p != pin and good[src] is not None:
                        acc ^= good[src]
                if len(x_pins) == 1:
                    want = want ^ acc  # last X pin: value is forced
                elif self.guided:
                    want = 0 if self._cc0[nxt] <= self._cc1[nxt] else 1
                else:
                    want = want ^ acc
            current = nxt
        return None, 0

    def _choose_pin(self, gate, want: int, x_pins: list[int]) -> int:
        """The X pin to descend through (SCOAP heuristics when guided).

        ``want`` is the post-inversion core value.  All-inputs-needed
        objectives (AND-core 1, OR-core 0, any XOR) descend the
        *hardest* input first — failing fast on the bottleneck; any-
        single-input objectives descend the *easiest*.
        """
        if not self.guided or len(x_pins) == 1:
            return x_pins[0]
        cc0, cc1 = self._cc0, self._cc1
        core = GATE_CORE[gate.gtype][0]
        if core is GateType.AND:
            if want == 1:
                return max(x_pins,
                           key=lambda p: (cc1[gate.fanin[p]], -p))
            return min(x_pins, key=lambda p: (cc0[gate.fanin[p]], p))
        if core is GateType.OR:
            if want == 0:
                return max(x_pins,
                           key=lambda p: (cc0[gate.fanin[p]], -p))
            return min(x_pins, key=lambda p: (cc1[gate.fanin[p]], p))
        return max(x_pins,
                   key=lambda p: (min(cc0[gate.fanin[p]],
                                      cc1[gate.fanin[p]]), -p))


def fill_assignment(netlist: Netlist, assignment: dict,
                    rng=None) -> list[int]:
    """Expand a partial PI assignment into a full 0/1 vector (PI order).

    Unassigned inputs are random-filled (better fortuitous detection) when
    ``rng`` is given, else zero-filled.
    """
    vector = []
    for pi in netlist.inputs:
        if pi in assignment:
            vector.append(int(assignment[pi]))
        elif rng is not None:
            vector.append(rng.randint(0, 1))
        else:
            vector.append(0)
    return vector
