"""Levelized bit-parallel logic simulation.

Simulates 64 test vectors per ``uint64`` word with numpy kernels.  Two
entry points:

* :func:`simulate` — full-circuit simulation, returning a value matrix
  (one packed row per gate/signal).
* :func:`propagate` — incremental re-simulation of the fanout cone of a
  set of overridden signals/pins, returning only the changed rows.  This
  is the workhorse behind the paper's heuristic 1 (invert a suspect
  line's failing values and push the difference to the outputs) and
  heuristic 3 (push candidate corrections' effects across the passing
  vectors).  Overrides may carry k slots — one per candidate — so that
  every correction on one suspect line shares a single sweep of its
  fanout cone: candidate parallelism on top of the 64-way vector
  parallelism, as in parallel-fault simulation.  A site may also be
  forced in only some slots (*per-slot sites*), so k suspect lines,
  each inverted in its own slot, share one sweep of their cones too.

:func:`propagate` is an *event-driven* kernel: a worklist seeded from
the overridden stems/pins is drained level by level (every fanin sits on
a strictly smaller level, so it is final before its sinks are
evaluated), gates whose fanin words did not change are never scheduled,
and the sweep stops as soon as the event frontier dies — instead of
scanning the whole ``topo_order()`` and testing cone membership per
gate.

Inside the event kernel, packed rows are carried as Python big-ints
rather than numpy arrays.  Incremental cones are deep and narrow — a
handful of gates per level — so there is nothing to vectorize *across*,
and per-gate numpy dispatch (≈ µs per call even on a 16-word row)
swamps the actual bit work.  A bitwise op on a 1024-bit Python int runs
in ≈ 100 ns, an order of magnitude cheaper; only the rows an event
actually touches are converted, lazily, and changed rows are converted
back to ``uint64`` arrays at the end.  The property tests check it
against a full topological scan kept under ``tests/sim``.

Both kernels take gate semantics from the one table,
:data:`~repro.circuit.gatetypes.GATE_CORE`: :func:`simulate` calls
:func:`~repro.circuit.gatetypes.eval_words`, and the event kernel's
per-gate ``(core op, invert)`` pairs are derived from the table, while
its AND/OR/XOR reduction stays inlined because it is the hot loop.

Overrides are keyed by a line's *site*
(:attr:`repro.circuit.lines.Line.site`), in one map: an int key (a
stem) replaces a signal for every consumer, a ``(sink, pin)`` key (a
fanout branch) replaces the value one gate sees on one fanin.
"""

from __future__ import annotations

import heapq
import sys
from typing import Mapping

import numpy as np

from ..circuit.gatetypes import GATE_CORE, GateType, eval_words
from ..circuit.netlist import Netlist
from ..errors import SimulationError
from .packing import PatternSet

#: Gate types :func:`propagate` never re-evaluates: sources hold their
#: baseline value and DFF fanin is a sequential edge, not an event path.
_PASSIVE_TYPES = (GateType.INPUT, GateType.DFF,
                  GateType.CONST0, GateType.CONST1)

#: (core-op index, invert) per evaluable gate type, read from
#: :data:`~repro.circuit.gatetypes.GATE_CORE`: 0 = AND, 1 = OR, 2 = XOR
#: over the fanin ints.
_CORE_INDEX = {GateType.AND: 0, GateType.OR: 1, GateType.XOR: 2}
_INT_OP = {gtype: (_CORE_INDEX[core], invert)
           for gtype, (core, invert) in GATE_CORE.items()}

_LITTLE_ENDIAN = sys.byteorder == "little"


def _row_to_int(row: np.ndarray, copies: int = 1) -> int:
    """Packed uint64 row(s) -> one big-int (bit *i* of the stream = bit
    *i*), with the whole stream repeated ``copies`` times end to end."""
    data = row if _LITTLE_ENDIAN else row.byteswap()
    return int.from_bytes(data.tobytes() * copies, "little")


def _sim_tables(netlist: Netlist) -> tuple[list, list]:
    """Flat per-gate ``(op, invert)`` and fanin-tuple tables.

    Cached on the netlist (invalidated with the other derived structures
    on mutation) so the event kernel's hot loop does plain list indexing
    instead of ``Gate`` attribute access plus enum-keyed dict lookups.
    Passive gate types get ``None`` — they are never scheduled.
    """
    tables = netlist._sim_tables
    if tables is None:
        ops = [_INT_OP.get(g.gtype) for g in netlist.gates]
        fanins = [tuple(g.fanin) for g in netlist.gates]
        netlist._sim_tables = tables = (ops, fanins)
    return tables


def simulate(netlist: Netlist, patterns: PatternSet,
             ppi_values: Mapping[int, np.ndarray] | None = None
             ) -> np.ndarray:
    """Simulate all patterns; returns a (num_gates x num_words) matrix.

    ``patterns`` rows map to ``netlist.inputs`` in order.  DFF gates act
    as pseudo-inputs: their packed values come from ``ppi_values`` (zeros
    if absent) — full-scan models have no DFFs left, so most callers never
    pass it.  Detached gates get zero rows.
    """
    pis = netlist.inputs
    if patterns.num_inputs != len(pis):
        raise SimulationError(
            f"pattern set has {patterns.num_inputs} inputs, netlist "
            f"{netlist.name!r} has {len(pis)}")
    nwords = patterns.num_words
    values = np.zeros((len(netlist.gates), nwords), dtype=np.uint64)
    for row, pi in enumerate(pis):
        values[pi] = patterns.words[row]
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    gates = netlist.gates
    for idx in netlist.topo_order():
        gate = gates[idx]
        gtype = gate.gtype
        if gtype is GateType.INPUT:
            continue
        if gtype is GateType.DFF:
            if ppi_values and idx in ppi_values:
                values[idx] = ppi_values[idx]
            continue
        if gtype is GateType.CONST0:
            continue
        if gtype is GateType.CONST1:
            values[idx] = ones
            continue
        values[idx] = eval_words(gtype, [values[src] for src in gate.fanin])
    return values


def output_rows(netlist: Netlist, values: np.ndarray) -> np.ndarray:
    """Slice the primary-output rows out of a value matrix (PO order)."""
    return values[netlist.outputs]


def propagate(netlist: Netlist, values: np.ndarray,
              overrides: Mapping, base_ints: dict | None = None,
              forced_slots: Mapping | None = None) -> dict:
    """Re-simulate the fanout cone of the overridden signals.

    Event-driven: only gates reachable from an actual value change are
    evaluated, level by level, and the sweep ends when the worklist
    empties.  An override equal to the baseline seeds no events.  Rows
    are evaluated as Python big-ints inside the kernel (see module
    docstring); only touched rows are converted.

    **Slot packing.**  Overrides may be ``(k, nwords)`` stacks instead
    of single rows: slot *s* of every override is one independent
    hypothesis, and the k hypotheses share one sweep.  Each big-int row
    then holds the k slots side by side (slot *s* at bit offset
    ``64 * nwords * s``); baseline rows are replicated k times.  A gate
    is scheduled when *any* slot changes it, so slots equal to the
    baseline ride along for free.  Every override must have the same
    shape.

    **Per-slot sites.**  By default an override forces its site in
    every slot.  ``forced_slots`` maps a site (a key of ``overrides``)
    to the slots it forces; in its other slots the site runs free and
    the stack's rows there are ignored.  So k hypotheses on k *different* sites share one sweep,
    slot *s* forcing only its own site (heuristic 1 inverts one suspect
    line per slot).  A partly forced stem that lies downstream of
    another slot's site is re-evaluated for its free slots, then
    re-forced in its own, so its returned row holds the real value of
    every slot.  A stem forced in every slot is never evaluated.

    Args:
        values: baseline value matrix from :func:`simulate` (not modified).
        overrides: {site: packed words}.  An int site is a signal,
            forced for all its consumers; a ``(sink_gate, pin)`` site is
            one fanin of one gate, forced for that gate only.
        base_ints: optional {gate: big-int row} cache of *baseline*
            conversions, owned by the caller and reused across calls that
            share one ``values`` matrix and one slot count (each row is
            replicated once per slot, so a cache serves one count only;
            a suspect sweep converts the same rows hundreds of times
            otherwise).  Must be dropped when ``values`` changes;
            ``DiagnosisState`` holds one for single rows per value
            matrix, and one per slot count for each of its multi-slot
            sweeps.
        forced_slots: optional {site: slot indices} restricting an
            override to some slots (stacks only); sites missing from it
            are forced in every slot.

    Returns:
        {gate_index: new packed words} for every gate whose value differs
        from the baseline in at least one slot, **plus** all overridden
        stems (even when equal); rows have the overrides' shape.  Look
        up a gate first in this dict, then in ``values``.
    """
    if not overrides:
        return {}
    gates = netlist.gates
    efanouts = netlist.event_fanouts()
    levels = netlist.levels()
    ops, fanins = _sim_tables(netlist)
    nwords = values.shape[1]
    shape = next(iter(overrides.values())).shape
    slots = 1 if len(shape) == 1 else shape[0]
    for words in overrides.values():
        if words.shape != shape:
            raise SimulationError(
                f"override shapes differ: {words.shape} vs {shape}")
    width = 64 * nwords
    ones = (1 << (width * slots)) - 1
    # Partly forced sites: the bits of their free slots, and their
    # forced rows (zero in the free slots), converted in one go: the
    # whole stack is one big-int with slot s at bit offset width * s.
    keep_of: dict = {}
    forced_of: dict = {}
    slot_ones = (1 << width) - 1
    for site, chosen in (forced_slots or {}).items():
        stack = overrides.get(site)
        if stack is None or stack.ndim != 2:
            raise SimulationError(
                f"forced_slots names {site!r}, which has no stacked "
                f"override")
        mask = 0
        for s in chosen:
            if not 0 <= s < slots:
                raise SimulationError(
                    f"slot {s} of {site!r} outside 0..{slots - 1}")
            mask |= slot_ones << (width * s)
        if mask != ones:
            keep_of[site] = ones ^ mask
            forced_of[site] = _row_to_int(stack) & mask
    base = base_ints if base_ints is not None else {}
    base_get = base.get
    cur: dict[int, int] = {}      # overridden/changed rows, as ints
    cur_get = cur.get
    diff: list[int] = []          # evaluated gates that differ, in order
    buckets: dict[int, list[int]] = {}
    level_heap: list[int] = []
    scheduled: set[int] = set()

    def schedule(idx: int) -> None:
        if idx in scheduled:
            return
        scheduled.add(idx)
        lev = levels[idx]
        bucket = buckets.get(lev)
        if bucket is None:
            buckets[lev] = bucket = []
            heapq.heappush(level_heap, lev)
        bucket.append(idx)

    # Stems seed first, then pins, each in the map's order.
    stems: dict = {}              # the forced stems, returned as given
    pin_sites: list = []
    for sig, words in overrides.items():
        if isinstance(sig, tuple):
            pin_sites.append((sig, words))
            continue
        stems[sig] = words
        b = base_get(sig)
        if b is None:
            base[sig] = b = _row_to_int(values[sig], slots)
        keep = keep_of.get(sig)
        forced = (_row_to_int(words) if keep is None
                  else (b & keep) | forced_of[sig])
        cur[sig] = forced
        if forced == b:
            continue  # no event: downstream cannot change
        for sink in efanouts[sig]:
            schedule(sink)
    pins_by_sink: dict[int, dict] = {}
    for site, words in pin_sites:
        sink, pin = site
        if gates[sink].gtype in _PASSIVE_TYPES:
            continue  # sources hold their value; DFF edges are sequential
        keep = keep_of.get(site)
        pins_by_sink.setdefault(sink, {})[pin] = (
            _row_to_int(words) if keep is None
            else (keep, forced_of[site]))
        schedule(sink)

    # Every scheduled gate is evaluable: event fanouts exclude DFFs, and
    # source gates never appear as sinks (they have no fanin).
    while level_heap:
        lev = heapq.heappop(level_heap)
        for idx in buckets.pop(lev):
            if idx in stems and idx not in keep_of:
                continue  # forced in every slot, do not recompute
            pin_map = pins_by_sink.get(idx) if pins_by_sink else None
            op, invert = ops[idx]
            acc = None
            for pin, src in enumerate(fanins[idx]):
                val = pin_map.get(pin) if pin_map else None
                if val is None:
                    val = cur_get(src)
                    if val is None:
                        val = base_get(src)
                        if val is None:
                            base[src] = val = _row_to_int(values[src],
                                                          slots)
                elif val.__class__ is tuple:  # pin forced in some slots
                    free = cur_get(src)
                    if free is None:
                        free = base_get(src)
                        if free is None:
                            base[src] = free = _row_to_int(values[src],
                                                           slots)
                    val = (free & val[0]) | val[1]
                if acc is None:
                    acc = val
                elif op == 0:
                    acc &= val
                elif op == 1:
                    acc |= val
                else:
                    acc ^= val
            if invert:
                acc ^= ones
            b = base_get(idx)
            if b is None:
                base[idx] = b = _row_to_int(values[idx], slots)
            if keep_of and idx in keep_of:
                # A partly forced stem: free slots take the evaluated
                # value, its own slots stay forced.
                acc = (acc & keep_of[idx]) | forced_of[idx]
                cur[idx] = acc
                if acc != b:
                    for sink in efanouts[idx]:
                        schedule(sink)
                continue
            if acc == b:
                continue  # event dies here; fanouts never scheduled by us
            cur[idx] = acc
            diff.append(idx)
            for sink in efanouts[idx]:
                schedule(sink)
    changed: dict = stems
    # Partly forced stems report their real rows, not their stacks.
    emit = diff + [sig for sig in stems
                   if sig in keep_of] if keep_of else diff
    if emit:
        # One buffer + one frombuffer for all emitted rows (the returned
        # rows are views into it), instead of a numpy call per row.
        nbytes = nwords * slots * 8
        buf = b"".join(cur[idx].to_bytes(nbytes, "little")
                       for idx in emit)
        rows = np.frombuffer(bytearray(buf), dtype=np.uint64)
        rows = rows.reshape((len(emit),) + shape)
        if not _LITTLE_ENDIAN:
            rows = rows.byteswap()
        for i, idx in enumerate(emit):
            changed[idx] = rows[i]
    return changed


def lookup(changed: dict, values: np.ndarray, idx: int) -> np.ndarray:
    """Value row for ``idx`` after a :func:`propagate` call."""
    row = changed.get(idx)
    return values[idx] if row is None else row
