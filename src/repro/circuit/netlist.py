"""Mutable gate-level netlist.

A :class:`Netlist` is a DAG of :class:`Gate` nodes.  Every gate drives one
signal whose index equals the gate's index, so "signal", "net" and "gate
output" are interchangeable here.  Primary inputs are gates of type
``INPUT``; primary outputs are an ordered list of gate indices.

The netlist is *mutable* because the diagnosis algorithm repeatedly applies
structural corrections (change a gate's type, insert an inverter, rewire a
fanin, tie a line to a constant).  Each primitive edit bumps
:attr:`Netlist.version` and *patches* the cached topological order /
fanout lists / cones in place (Pearce–Kelly rank repair for
order-violating edge insertions); a full invalidation
(:meth:`Netlist._dirty`) remains as the fallback for edits the patcher
cannot describe.  A :meth:`Netlist.copy` also keeps a change record —
the gates whose function or fanin changed since the copy
(:attr:`Netlist.touched`) and whether any edge or the output list did
(:attr:`Netlist.rewired`) — from which the diagnosis search warms a
child copy's pre-screen facts from its parent's
(:func:`repro.analyze.dataflow.warm_facts`).

Gates removed by an edit are never physically deleted (indices stay
stable); they become *detached* — no longer reachable from an output — and
are skipped by simulation and reporting.  :meth:`Netlist.compacted` returns
a freshly-numbered copy when a clean netlist is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import NetlistError
from .gatetypes import (GateType, SOURCE_TYPES, arity_ok, demoted,
                        promoted)


@dataclass
class Gate:
    """One node of the netlist.

    Attributes:
        index: position in ``Netlist.gates`` == index of the driven signal.
        name: unique human-readable name (``.bench`` identifier).
        gtype: the gate's :class:`GateType`.
        fanin: indices of driving gates, in pin order.
    """

    index: int
    name: str
    gtype: GateType
    fanin: list = field(default_factory=list)

    def copy(self) -> "Gate":
        return Gate(self.index, self.name, self.gtype, list(self.fanin))


#: Types whose signals cut the combinational graph (free values for the
#: prover, sequential boundaries for cones).  A type change into or out of
#: this set rewires connectivity semantics wholesale, so such edits fall
#: back to full invalidation instead of a cache patch.
_CUT_GTYPES = (GateType.INPUT, GateType.DFF)


class Netlist:
    """A combinational (or DFF-bearing) gate-level circuit."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.gates: list[Gate] = []
        self.outputs: list[int] = []
        self._name2idx: dict[str, int] = {}
        self._fanouts: list[list[int]] | None = None
        self._event_fanouts: list[tuple[int, ...]] | None = None
        self._topo: list[int] | None = None
        self._topo_pos: list[int] | None = None
        self._levels: list[int] | None = None
        self._sorted_cones: dict[int, tuple[int, ...]] = {}
        self._cone_sets: dict[int, set[int]] = {}
        # Flat per-gate tables owned by repro.sim.logicsim (built lazily
        # there, invalidated here with the other derived caches).
        self._sim_tables: tuple | None = None
        # Static-analysis facts owned by repro.analyze.dataflow.  Not
        # dropped by recorded edits: the bundle's version stamp tells
        # netlist_facts to start a fresh one when versions diverge.
        self._facts: object | None = None
        # One bump per primitive edit and per _dirty().
        self._version: int = 0
        #: Change record since :meth:`copy`: the gates whose function or
        #: fanin changed, added gates included; ``None`` when unknown (a
        #: netlist that is not a copy, or after :meth:`_dirty`).
        self.touched: set[int] | None = None
        #: Whether any edge or the output list changed since the copy.
        self.rewired: bool = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(self, name: str, gtype: GateType,
                 fanin: Sequence[int] = ()) -> int:
        """Append a gate and return its index.

        ``fanin`` entries must reference already-existing gates (use
        :meth:`add_gate_deferred`-style two-phase construction via
        ``set_fanin`` if you need forward references).
        """
        if name in self._name2idx:
            raise NetlistError(f"duplicate gate name {name!r}")
        if not arity_ok(gtype, len(fanin)):
            raise NetlistError(
                f"gate {name!r}: {gtype.name} cannot take "
                f"{len(fanin)} fanin(s)")
        for src in fanin:
            if not 0 <= src < len(self.gates):
                raise NetlistError(
                    f"gate {name!r}: fanin index {src} out of range")
        index = len(self.gates)
        self.gates.append(Gate(index, name, gtype, list(fanin)))
        self._name2idx[name] = index
        self._record("gate_added", index)
        return index

    def add_input(self, name: str) -> int:
        """Convenience wrapper for :meth:`add_gate` with ``INPUT`` type."""
        return self.add_gate(name, GateType.INPUT)

    def set_outputs(self, outputs: Iterable[int]) -> None:
        """Declare the ordered list of primary-output gate indices."""
        outs = list(outputs)
        for out in outs:
            if not 0 <= out < len(self.gates):
                raise NetlistError(f"output index {out} out of range")
        if outs == self.outputs:
            return
        self.outputs = outs
        self._record("outputs_set")

    def fresh_name(self, stem: str) -> str:
        """Return a gate name starting with ``stem`` not yet in use."""
        if stem not in self._name2idx:
            return stem
        i = 1
        while f"{stem}_{i}" in self._name2idx:
            i += 1
        return f"{stem}_{i}"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def gate(self, ref) -> Gate:
        """Look a gate up by index or by name."""
        if isinstance(ref, str):
            try:
                return self.gates[self._name2idx[ref]]
            except KeyError:
                raise NetlistError(f"no gate named {ref!r}") from None
        return self.gates[ref]

    def index_of(self, name: str) -> int:
        try:
            return self._name2idx[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r}") from None

    @property
    def inputs(self) -> list[int]:
        """Indices of primary-input gates, in creation order."""
        return [g.index for g in self.gates if g.gtype is GateType.INPUT]

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def fanouts(self) -> list[list[int]]:
        """``fanouts()[i]`` lists gates consuming signal *i* (with
        multiplicity: a gate using a signal on two pins appears twice)."""
        if self._fanouts is None:
            table: list[list[int]] = [[] for _ in self.gates]
            for g in self.gates:
                for src in g.fanin:
                    table[src].append(g.index)
            self._fanouts = table
        return self._fanouts

    def event_fanouts(self) -> list[tuple[int, ...]]:
        """Per-signal *event* sinks: :meth:`fanouts` deduplicated and with
        DFF consumers removed.

        This is the edge list the event-driven simulator walks when a
        signal changes — a multi-pin consumer needs scheduling once, and
        DFF fanin is a sequential edge that combinational events never
        cross.  Cached until the next mutation (rows for edited signals
        are recomputed in place by the cache patcher).
        """
        if self._event_fanouts is None:
            self.fanouts()
            self._event_fanouts = [
                self._event_row(src) for src in range(len(self.gates))]
        return self._event_fanouts

    def _event_row(self, src: int) -> tuple[int, ...]:
        gates = self.gates
        assert self._fanouts is not None
        return tuple(dict.fromkeys(
            sink for sink in self._fanouts[src]
            if gates[sink].gtype is not GateType.DFF))

    def topo_order(self) -> list[int]:
        """Gate indices in topological (fanin-before-gate) order.

        Every gate is included — detached gates too, because diagnosis
        may need their simulated values (e.g. to reconnect a wire whose
        removal orphaned its source).  Raises :class:`NetlistError` on a
        combinational cycle.  The order is cached, repaired by edits and
        inherited by :meth:`copy`, so it is valid but history-dependent.
        """
        if self._topo is None:
            self._topo = self.scratch_topo_order()
        return self._topo

    def topo_positions(self) -> list[int]:
        """Rank of each gate in :meth:`topo_order`.

        ``topo_positions()[i]`` is the position of gate *i* in the
        topological order; every fanin of a gate has a strictly smaller
        rank.  The event-driven simulator uses these ranks to pop its
        worklist in dependency order.
        """
        if self._topo_pos is None:
            pos = [0] * len(self.gates)
            for rank, idx in enumerate(self.topo_order()):
                pos[idx] = rank
            self._topo_pos = pos
        return self._topo_pos

    def scratch_topo_order(self) -> list[int]:
        """A topological order computed afresh, a function of the gates
        alone: for writers and builders whose output follows the order."""
        order: list[int] = []
        state = bytearray(len(self.gates))  # 0 unseen, 1 on stack, 2 done
        stack: list[tuple[int, int]] = []
        for root in range(len(self.gates)):
            if state[root] == 2:
                continue
            stack.append((root, 0))
            while stack:
                node, child = stack[-1]
                if state[node] == 2:
                    stack.pop()
                    continue
                state[node] = 1
                gate = self.gates[node]
                # DFF fanin is a sequential edge, not a combinational one.
                fanin = () if gate.gtype is GateType.DFF else gate.fanin
                if child < len(fanin):
                    stack[-1] = (node, child + 1)
                    nxt = fanin[child]
                    if state[nxt] == 1:
                        raise NetlistError(
                            f"combinational cycle through gate "
                            f"{self.gates[nxt].name!r}")
                    if state[nxt] == 0:
                        stack.append((nxt, 0))
                else:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        return order

    def live_set(self) -> set[int]:
        """Gates reachable (transitively) from the primary outputs.

        DFF fanin edges are followed so state-feeding logic stays live.
        """
        seen: set[int] = set()
        stack = list(self.outputs)
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.gates[node].fanin)
        return seen

    def levels(self) -> list[int]:
        """Levelization: ``levels()[i]`` = longest path from sources to i."""
        if self._levels is None:
            lev = [0] * len(self.gates)
            for idx in self.topo_order():
                gate = self.gates[idx]
                if gate.gtype is GateType.DFF or not gate.fanin:
                    lev[idx] = 0
                else:
                    lev[idx] = 1 + max(lev[src] for src in gate.fanin)
            self._levels = lev
        return self._levels

    def fanout_cone(self, start: int) -> set[int]:
        """All gates whose value can depend on signal ``start`` (incl. it).

        Cached (the same set object is returned until a mutation touches
        the cone); treat the result as read-only.
        """
        cone = self._cone_sets.get(start)
        if cone is None:
            cone = set(self.sorted_cone(start))
            self._cone_sets[start] = cone
        return cone

    def sorted_cone(self, start: int) -> tuple[int, ...]:
        """Fanout cone of ``start`` as a topologically sorted tuple.

        Cached per signal (and invalidated when a mutation touches the
        cone) because diagnosis warms up one cone per suspect line and
        then replays it for every candidate correction at that line.  DFF
        fanin edges are sequential, so cones never cross into a flip-flop.
        """
        cone = self._sorted_cones.get(start)
        if cone is None:
            fos = self.fanouts()
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in fos[node]:
                    if nxt not in seen and \
                            self.gates[nxt].gtype is not GateType.DFF:
                        seen.add(nxt)
                        stack.append(nxt)
            pos = self.topo_positions()
            cone = tuple(sorted(seen, key=pos.__getitem__))
            self._sorted_cones[start] = cone
        return cone

    def fanin_cone(self, start: int) -> set[int]:
        """All gates signal ``start`` transitively depends on (incl. it)."""
        cone = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            gate = self.gates[node]
            if gate.gtype is GateType.DFF:
                continue
            for src in gate.fanin:
                if src not in cone:
                    cone.add(src)
                    stack.append(src)
        return cone

    def dffs(self) -> list[int]:
        return [g.index for g in self.gates if g.gtype is GateType.DFF]

    @property
    def is_combinational(self) -> bool:
        return not any(g.gtype is GateType.DFF for g in self.gates)

    def stats(self) -> dict:
        """Small summary used by reports and the CLI."""
        live = self.live_set()
        return {
            "name": self.name,
            "gates": len(self.gates),
            "live_gates": len(live),
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "dffs": len(self.dffs()),
            "depth": max(self.levels(), default=0),
        }

    # ------------------------------------------------------------------
    # edit version and change record
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone edit counter: one per primitive edit and one per full
        invalidation.  A fresh :meth:`copy` starts at 0."""
        return self._version

    def _record(self, kind: str, gate: int = -1,
                old: Optional[int] = None,
                new: Optional[int] = None) -> None:
        """Count one primitive edit (already applied to ``gates``), add
        it to the change record and patch the structural caches.

        ``kind`` is ``gate_added``, ``type_changed``, ``outputs_set`` or
        a pin edit (``pin_replaced``, ``pin_removed``, ``pin_added``) of
        ``gate`` that drops source ``old`` and/or adds source ``new``.
        """
        self._version += 1
        if kind != "type_changed":
            self.rewired = True
        if kind != "outputs_set" and self.touched is not None:
            self.touched.add(gate)
        self._patch_caches(kind, gate, old, new)

    # ------------------------------------------------------------------
    # cache patching (per primitive edit)
    # ------------------------------------------------------------------
    def _drop_cones_touching(self, srcs: set[int]) -> None:
        """Drop cached cones whose membership may include an edited
        signal (both the sorted tuples and the set views)."""
        for start in list(self._sorted_cones):
            if not srcs.isdisjoint(self._sorted_cones[start]):
                del self._sorted_cones[start]
                self._cone_sets.pop(start, None)
        for start in list(self._cone_sets):
            if not srcs.isdisjoint(self._cone_sets[start]):
                del self._cone_sets[start]
                self._sorted_cones.pop(start, None)

    def _patch_topo_edge(self, src: int, sink: int) -> Optional[set[int]]:
        """Pearce–Kelly rank repair for a new edge ``src -> sink`` that
        violates the cached order (``pos[src] > pos[sink]``).

        Returns the set of gates whose rank moved, or ``None`` when the
        edge closes a combinational cycle — in that case the cached order
        is dropped so the next :meth:`topo_order` raises lazily, matching
        the from-scratch semantics.
        """
        assert self._topo is not None and self._topo_pos is not None
        pos = self._topo_pos
        if src == sink:
            self._topo = self._topo_pos = self._levels = None
            return None
        lb, ub = pos[sink], pos[src]
        gates = self.gates
        fos = self.fanouts()
        # Forward from sink inside the affected window; reaching src
        # means the new edge closes a cycle.
        delta_f = []
        seen = {sink}
        stack = [sink]
        while stack:
            node = stack.pop()
            delta_f.append(node)
            for nxt in fos[node]:
                if nxt in seen or gates[nxt].gtype is GateType.DFF:
                    continue
                if nxt == src:
                    self._topo = self._topo_pos = self._levels = None
                    return None
                if pos[nxt] <= ub:
                    seen.add(nxt)
                    stack.append(nxt)
        # Backward from src inside the window (fanin edges; a DFF's fanin
        # is sequential, so the walk stops there).
        delta_b = []
        seen_b = {src}
        stack = [src]
        while stack:
            node = stack.pop()
            delta_b.append(node)
            gate = gates[node]
            if gate.gtype is GateType.DFF:
                continue
            for prv in gate.fanin:
                if prv not in seen_b and pos[prv] >= lb:
                    seen_b.add(prv)
                    stack.append(prv)
        # Reassign the pooled slots: backward region first (it must now
        # precede the forward region), each side keeping its old relative
        # order.
        delta_b.sort(key=pos.__getitem__)
        delta_f.sort(key=pos.__getitem__)
        movers = delta_b + delta_f
        slots = sorted(pos[node] for node in movers)
        topo = self._topo
        for slot, node in zip(slots, movers):
            topo[slot] = node
            pos[node] = slot
        return set(movers)

    def _patch_caches(self, kind: str, gate: int, old: Optional[int],
                      new: Optional[int]) -> None:
        """Repair the structural caches for one primitive edit (see
        :meth:`_record`).

        Invariant: ``self.gates`` already reflects the edit, and compound
        mutators interleave mutate/record per primitive change, so the
        caches and the gate list agree at every call.
        """
        if kind == "outputs_set":
            return  # no structural cache depends on the output list
        self._sim_tables = None
        if kind == "type_changed":
            # Guarded to comb<->comb by the mutators: connectivity, ranks,
            # cones, levels and fanouts are all type-independent then.
            return
        gates = self.gates
        if kind == "gate_added":
            idx = gate
            gtype, fanin = gates[idx].gtype, gates[idx].fanin
            if self._fanouts is not None:
                self._fanouts.append([])
                for src in fanin:
                    self._fanouts[src].append(idx)
                if self._event_fanouts is not None:
                    self._event_fanouts.append(self._event_row(idx))
                    for src in set(fanin):
                        self._event_fanouts[src] = self._event_row(src)
            else:
                self._event_fanouts = None
            if self._topo is not None:
                if self._topo_pos is not None:
                    self._topo_pos.append(len(self._topo))
                self._topo.append(idx)
            if self._levels is not None:
                if gtype is GateType.DFF or not fanin:
                    self._levels.append(0)
                else:
                    self._levels.append(
                        1 + max(self._levels[src] for src in fanin))
            if fanin and gtype is not GateType.DFF:
                self._drop_cones_touching(set(fanin))
            return
        # pin edits
        sink = gate
        old_srcs: tuple[int, ...] = () if old is None else (old,)
        new_srcs: tuple[int, ...] = () if new is None else (new,)
        if self._fanouts is not None:
            for src in old_srcs:
                self._fanouts[src].remove(sink)
            for src in new_srcs:
                self._fanouts[src].append(sink)
            if self._event_fanouts is not None:
                for src in set(old_srcs + new_srcs):
                    self._event_fanouts[src] = self._event_row(src)
        else:
            self._event_fanouts = None
        self._levels = None
        moved: Optional[set[int]] = None
        if self._topo is not None and new_srcs and \
                gates[sink].gtype is not GateType.DFF:
            pos = self.topo_positions()
            new_src = new_srcs[0]
            if new_src == sink or pos[new_src] > pos[sink]:
                moved = self._patch_topo_edge(new_src, sink)
        self._drop_cones_touching(set(old_srcs + new_srcs))
        if moved:
            # Rank-moved gates keep their cone membership but the cached
            # sorted tuples are stale; the set views stay valid.
            for start in list(self._sorted_cones):
                if not moved.isdisjoint(self._sorted_cones[start]):
                    del self._sorted_cones[start]

    # ------------------------------------------------------------------
    # mutation (used by fault injection and corrections)
    # ------------------------------------------------------------------
    def _dirty(self) -> None:
        """Full invalidation: drop every derived cache and make the
        change record unknown, so a warm from the parent's facts falls
        back to recomputing from scratch.

        The fallback for edits the cache patcher cannot describe
        (cut-type changes, behind-the-API surgery in tests)."""
        self._version += 1
        self.touched = None
        self._fanouts = None
        self._event_fanouts = None
        self._topo = None
        self._topo_pos = None
        self._levels = None
        self._sorted_cones.clear()
        self._cone_sets.clear()
        self._sim_tables = None
        self._facts = None

    def set_gate_type(self, index: int, gtype: GateType) -> None:
        """Replace the function of gate ``index`` keeping its fanin.

        A same-type call is a no-op (no cache invalidation, no version
        bump)."""
        gate = self.gates[index]
        if gate.gtype is gtype:
            return
        if not arity_ok(gtype, len(gate.fanin)):
            raise NetlistError(
                f"gate {gate.name!r}: cannot become {gtype.name} with "
                f"{len(gate.fanin)} fanin(s)")
        old = gate.gtype
        gate.gtype = gtype
        if old in _CUT_GTYPES or gtype in _CUT_GTYPES:
            self._dirty()
        else:
            self._record("type_changed", index)

    def set_fanin(self, index: int, fanin: Sequence[int]) -> None:
        """Rewire all fanin pins of gate ``index`` at once.

        Decomposed into per-pin edits (replace the common prefix, then
        pop or append the tail); an identical fanin list is a no-op."""
        gate = self.gates[index]
        new = list(fanin)
        if not arity_ok(gate.gtype, len(new)):
            raise NetlistError(
                f"gate {gate.name!r}: {gate.gtype.name} cannot take "
                f"{len(new)} fanin(s)")
        if gate.fanin == new:
            return
        for pin in range(min(len(gate.fanin), len(new))):
            if gate.fanin[pin] != new[pin]:
                old_src = gate.fanin[pin]
                gate.fanin[pin] = new[pin]
                self._record("pin_replaced", index, old_src, new[pin])
        while len(gate.fanin) > len(new):
            old_src = gate.fanin.pop()
            self._record("pin_removed", index, old=old_src)
        while len(gate.fanin) < len(new):
            src = new[len(gate.fanin)]
            gate.fanin.append(src)
            self._record("pin_added", index, new=src)

    def replace_fanin_pin(self, index: int, pin: int, new_src: int) -> None:
        """Rewire a single fanin pin of gate ``index``.

        Rewiring a pin to its current source is a no-op (no cache
        invalidation, no version bump)."""
        gate = self.gates[index]
        if not 0 <= pin < len(gate.fanin):
            raise NetlistError(f"gate {gate.name!r}: no pin {pin}")
        old_src = gate.fanin[pin]
        if old_src == new_src:
            return
        gate.fanin[pin] = new_src
        self._record("pin_replaced", index, old_src, new_src)

    def remove_fanin_pin(self, index: int, pin: int) -> None:
        """Drop one fanin pin (the "extra input wire" error/correction)."""
        gate = self.gates[index]
        if len(gate.fanin) <= 1:
            raise NetlistError(
                f"gate {gate.name!r}: cannot drop pin of 1-input gate")
        if not 0 <= pin < len(gate.fanin):
            raise NetlistError(f"gate {gate.name!r}: no pin {pin}")
        old_src = gate.fanin[pin]
        del gate.fanin[pin]
        self._record("pin_removed", index, old=old_src)
        if len(gate.fanin) == 1:
            self.set_gate_type(index, demoted(gate.gtype))

    def add_fanin_pin(self, index: int, new_src: int) -> None:
        """Append a fanin (the "missing input wire" error/correction)."""
        gate = self.gates[index]
        if gate.gtype in SOURCE_TYPES:
            raise NetlistError(
                f"gate {gate.name!r}: {gate.gtype.name} takes no fanin")
        if gate.gtype is GateType.DFF:
            raise NetlistError("cannot add fanin to a DFF")
        # A BUF/NOT becomes AND/NAND; the caller may pick the real type.
        self.set_gate_type(index, promoted(gate.gtype))
        gate.fanin.append(new_src)
        self._record("pin_added", index, new=new_src)

    def _rewire_consumers(self, old_src: int, new_src: int,
                          skip: int) -> None:
        """Point every consumer pin (and PO slot) of ``old_src`` at
        ``new_src``, recording one ``pin_replaced`` per pin."""
        for g in self.gates:
            if g.index == skip:
                continue
            for pin, src in enumerate(g.fanin):
                if src == old_src:
                    g.fanin[pin] = new_src
                    self._record("pin_replaced", g.index, old_src,
                                 new_src)
        if old_src in self.outputs:
            self.set_outputs(new_src if out == old_src else out
                             for out in self.outputs)

    def insert_gate_on_stem(self, index: int, gtype: GateType,
                            name: str | None = None) -> int:
        """Insert a unary gate after signal ``index`` feeding *all* its
        current consumers (and PO slots).  Returns the new gate's index.

        Implements "extra inverter on a stem" (injection) and the matching
        "missing inverter" correction.
        """
        if name is None:
            name = self.fresh_name(f"{self.gates[index].name}_{gtype.name.lower()}")
        new_idx = self.add_gate(name, gtype, [index])
        self._rewire_consumers(index, new_idx, skip=new_idx)
        return new_idx

    def insert_binary_on_stem(self, index: int, gtype: GateType,
                              other: int, name: str | None = None) -> int:
        """Insert a 2-input gate after signal ``index``: consumers of the
        signal now read ``gtype(index, other)``.

        Models the "missing gate" design error's repair (and, inversely,
        "extra gate" injection).  ``other`` must not depend on ``index``
        (checked by the caller to avoid an O(V+E) scan here).
        """
        if name is None:
            name = self.fresh_name(
                f"{self.gates[index].name}_{gtype.name.lower()}2")
        new_idx = self.add_gate(name, gtype, [index, other])
        self._rewire_consumers(index, new_idx, skip=new_idx)
        return new_idx

    def insert_gate_on_branch(self, sink: int, pin: int, gtype: GateType,
                              name: str | None = None) -> int:
        """Insert a unary gate on the branch feeding ``sink`` pin ``pin``."""
        gate = self.gates[sink]
        if not 0 <= pin < len(gate.fanin):
            raise NetlistError(f"gate {gate.name!r}: no pin {pin}")
        src = gate.fanin[pin]
        if name is None:
            name = self.fresh_name(
                f"{self.gates[src].name}_{gtype.name.lower()}_b")
        new_idx = self.add_gate(name, gtype, [src])
        self.replace_fanin_pin(sink, pin, new_idx)
        return new_idx

    def bypass_gate(self, index: int,
                    survivor_pin: int | None = None) -> None:
        """Make every consumer of ``index`` read one fanin instead.

        Used to *remove* an inverter/buffer (the gate becomes detached).
        Without ``survivor_pin`` the gate must be 1-input; with it, any
        fanin of a wider gate may be elected the survivor (the
        "extra gate" design-error repair).
        """
        gate = self.gates[index]
        if survivor_pin is None:
            if len(gate.fanin) != 1:
                raise NetlistError(
                    f"gate {gate.name!r}: can only bypass 1-input gates")
            survivor_pin = 0
        elif not 0 <= survivor_pin < len(gate.fanin):
            raise NetlistError(f"gate {gate.name!r}: no pin "
                               f"{survivor_pin}")
        src = gate.fanin[survivor_pin]
        self._rewire_consumers(index, src, skip=-1)

    def tie_stem_to_constant(self, index: int, value: int) -> int:
        """Force signal ``index`` to a constant for all consumers/POs.

        Models a stuck-at fault on a stem.  Returns the constant gate index.
        """
        gtype = GateType.CONST1 if value else GateType.CONST0
        name = self.fresh_name(f"{self.gates[index].name}_sa{int(bool(value))}")
        const_idx = self.add_gate(name, gtype)
        self._rewire_consumers(index, const_idx, skip=const_idx)
        return const_idx

    def tie_branch_to_constant(self, sink: int, pin: int, value: int) -> int:
        """Force the branch into ``sink`` pin ``pin`` to a constant."""
        gate = self.gates[sink]
        if not 0 <= pin < len(gate.fanin):
            raise NetlistError(f"gate {gate.name!r}: no pin {pin}")
        gtype = GateType.CONST1 if value else GateType.CONST0
        src = gate.fanin[pin]
        name = self.fresh_name(
            f"{self.gates[src].name}_sa{int(bool(value))}_b")
        const_idx = self.add_gate(name, gtype)
        self.replace_fanin_pin(sink, pin, const_idx)
        return const_idx

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep copy (indices preserved).  The copy starts at version 0
        with an empty change record, so :attr:`version`, :attr:`touched`
        and :attr:`rewired` describe exactly the mutations applied to the
        copy.  The caches the patcher repairs in place (fanouts, event
        fanouts, topological order and ranks, levels) are carried as
        independent copies, so a corrected copy patches them instead of
        rebuilding them."""
        dup = Netlist(name or self.name)
        dup.touched = set()
        dup.gates = [g.copy() for g in self.gates]
        dup.outputs = list(self.outputs)
        dup._name2idx = dict(self._name2idx)
        if self._fanouts is not None:
            dup._fanouts = [list(row) for row in self._fanouts]
        for attr in ("_event_fanouts", "_topo", "_topo_pos", "_levels"):
            cached = getattr(self, attr)
            if cached is not None:
                setattr(dup, attr, list(cached))
        return dup

    def compacted(self, name: str | None = None) -> "Netlist":
        """Copy with detached gates removed and indices renumbered.

        INPUT gates are always retained (a circuit's interface must not
        silently shrink because a fault detached a cone).
        """
        keep = sorted(self.live_set() | set(self.inputs))
        remap = {old: new for new, old in enumerate(keep)}
        dup = Netlist(name or self.name)
        for old in keep:
            gate = self.gates[old]
            dup.gates.append(Gate(remap[old], gate.name, gate.gtype,
                                  [remap[s] for s in gate.fanin]))
            dup._name2idx[gate.name] = remap[old]
        dup.outputs = [remap[out] for out in self.outputs]
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Netlist({self.name!r}, gates={len(self.gates)}, "
                f"inputs={self.num_inputs}, outputs={self.num_outputs})")
