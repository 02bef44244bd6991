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
  parallelism, as in parallel-fault simulation.

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

Overrides come in two flavours mirroring the line model: a *stem*
override replaces a signal everywhere; a *pin* override replaces the
value seen by one specific (gate, pin) — i.e. a fanout branch.
"""

from __future__ import annotations

import heapq
import sys
from typing import Mapping

import numpy as np

from ..circuit.gatetypes import GateType, eval_words
from ..circuit.netlist import Netlist
from ..errors import SimulationError
from .packing import PatternSet

#: Gate types :func:`propagate` never re-evaluates: sources hold their
#: baseline value and DFF fanin is a sequential edge, not an event path.
_PASSIVE_TYPES = (GateType.INPUT, GateType.DFF,
                  GateType.CONST0, GateType.CONST1)

#: (core-op index, invert) per evaluable gate type: 0 = AND, 1 = OR,
#: 2 = XOR over the fanin ints.  BUF/NOT reduce over a single fanin, so
#: any core works — AND is used.
_INT_OP = {
    GateType.BUF: (0, False), GateType.NOT: (0, True),
    GateType.AND: (0, False), GateType.NAND: (0, True),
    GateType.OR: (1, False), GateType.NOR: (1, True),
    GateType.XOR: (2, False), GateType.XNOR: (2, True),
}

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
              stem_overrides: Mapping[int, np.ndarray] | None = None,
              pin_overrides: Mapping[tuple, np.ndarray] | None = None,
              base_ints: dict | None = None) -> dict:
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

    Args:
        values: baseline value matrix from :func:`simulate` (not modified).
        stem_overrides: {signal: packed words} forced for all consumers.
        pin_overrides: {(sink_gate, pin): packed words} forced for one pin.
        base_ints: optional {gate: big-int row} cache of *baseline*
            conversions, owned by the caller and reused across calls that
            share one ``values`` matrix (a suspect sweep converts the
            same rows hundreds of times otherwise).  Must be dropped when
            ``values`` changes; ``DiagnosisState`` holds one per value
            matrix.  Only single-row calls use it.

    Returns:
        {gate_index: new packed words} for every gate whose value differs
        from the baseline in at least one slot, **plus** all overridden
        stems (even when equal); rows have the overrides' shape.  Look
        up a gate first in this dict, then in ``values``.
    """
    stem_overrides = dict(stem_overrides or {})
    pin_overrides = dict(pin_overrides or {})
    if not stem_overrides and not pin_overrides:
        return {}
    gates = netlist.gates
    efanouts = netlist.event_fanouts()
    levels = netlist.levels()
    ops, fanins = _sim_tables(netlist)
    nwords = values.shape[1]
    shape = next(iter((stem_overrides or pin_overrides).values())).shape
    slots = 1 if len(shape) == 1 else shape[0]
    for words in (*stem_overrides.values(), *pin_overrides.values()):
        if words.shape != shape:
            raise SimulationError(
                f"override shapes differ: {words.shape} vs {shape}")
    ones = (1 << (64 * nwords * slots)) - 1
    base = base_ints if base_ints is not None and slots == 1 else {}
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

    for sig, words in stem_overrides.items():
        forced = _row_to_int(words)
        cur[sig] = forced
        b = base_get(sig)
        if b is None:
            base[sig] = b = _row_to_int(values[sig], slots)
        if forced == b:
            continue  # no event: downstream cannot change
        for sink in efanouts[sig]:
            schedule(sink)
    pins_by_sink: dict[int, dict[int, int]] = {}
    for (sink, pin), words in pin_overrides.items():
        if gates[sink].gtype in _PASSIVE_TYPES:
            continue  # sources hold their value; DFF edges are sequential
        pins_by_sink.setdefault(sink, {})[pin] = _row_to_int(words)
        schedule(sink)

    # Every scheduled gate is evaluable: event fanouts exclude DFFs, and
    # source gates never appear as sinks (they have no fanin).
    while level_heap:
        lev = heapq.heappop(level_heap)
        for idx in buckets.pop(lev):
            if idx in stem_overrides:
                continue  # forced value, do not recompute
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
            if acc == b:
                continue  # event dies here; fanouts never scheduled by us
            cur[idx] = acc
            diff.append(idx)
            for sink in efanouts[idx]:
                schedule(sink)
    changed: dict = dict(stem_overrides)
    if diff:
        # One buffer + one frombuffer for all changed rows (the returned
        # rows are views into it), instead of a numpy call per row.
        nbytes = nwords * slots * 8
        buf = b"".join(cur[idx].to_bytes(nbytes, "little")
                       for idx in diff)
        rows = np.frombuffer(bytearray(buf), dtype=np.uint64)
        rows = rows.reshape((len(diff),) + shape)
        if not _LITTLE_ENDIAN:
            rows = rows.byteswap()
        for i, idx in enumerate(diff):
            changed[idx] = rows[i]
    return changed


def lookup(changed: dict, values: np.ndarray, idx: int) -> np.ndarray:
    """Value row for ``idx`` after a :func:`propagate` call."""
    row = changed.get(idx)
    return values[idx] if row is None else row
