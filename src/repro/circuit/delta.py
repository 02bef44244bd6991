"""Structured netlist edit journal.

Each :class:`~repro.circuit.netlist.Netlist` mutation appends one or
more :class:`NetlistEdit` records and advances a monotone version
counter.  Two consumers read the recorded delta instead of recomputing
from scratch: the netlist's own structural caches (fanouts, ranks,
levels), and :mod:`repro.analyze.incremental`, which warms a diagnosis
child's constants and observability from its parent's facts.

Edit kinds (one record per primitive change; compound mutators such as
``insert_gate_on_stem`` decompose into a ``gate_added`` plus one
``pin_replaced`` per rewired consumer pin plus an ``outputs_set``):

========== ===========================================================
kind        payload
========== ===========================================================
gate_added  ``gate`` = new index, ``new`` = ``(gtype, fanin tuple)``
type_changed  ``gate``, ``old``/``new`` = the :class:`GateType` pair
pin_replaced  ``gate``, ``pin``, ``old``/``new`` = source indices
pin_removed   ``gate``, ``pin``, ``old`` = removed source index
pin_added     ``gate``, ``new`` = appended source index
outputs_set   ``old``/``new`` = the output index tuples
========== ===========================================================

The journal is bounded (:data:`JOURNAL_CAP`); when it overflows, or when
an edit defies per-record description (legacy ``_dirty()`` calls, cut
type changes), the netlist falls back to *full invalidation*: the
journal resets and :meth:`Netlist.edits_since` answers ``None`` for any
version predating the reset, which every consumer must treat as
"recompute from scratch".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Set, Tuple

__all__ = ["NetlistEdit", "NetlistDelta", "JOURNAL_CAP"]

#: Maximum journal length; beyond it the oldest half is discarded and
#: consumers holding versions older than the cut see a full invalidate.
#: Construction appends thousands of ``gate_added`` records, so the cap
#: also bounds the journal memory of freshly parsed netlists.
JOURNAL_CAP = 1024


@dataclass(frozen=True)
class NetlistEdit:
    """One primitive structural change (see module table for payloads)."""

    kind: str
    gate: int = -1
    pin: int = -1
    old: object = None
    new: object = None


class NetlistDelta:
    """An ordered slice of the edit journal between two versions.

    Obtained from :meth:`Netlist.edits_since`.  The accessors are pure
    functions of the edit list (computed lazily, cached on the instance).
    """

    __slots__ = ("edits", "_touched")

    def __init__(self, edits: Tuple[NetlistEdit, ...]):
        self.edits = edits
        self._touched: Optional[Set[int]] = None

    def __len__(self) -> int:
        return len(self.edits)

    def __iter__(self) -> Iterator[NetlistEdit]:
        return iter(self.edits)

    def __bool__(self) -> bool:
        return bool(self.edits)

    def touched_gates(self) -> Set[int]:
        """Gates whose *function or fanin list* changed (added gates
        included) — the forward-analysis seed set."""
        if self._touched is None:
            touched: Set[int] = set()
            for e in self.edits:
                if e.kind in ("gate_added", "type_changed", "pin_replaced",
                              "pin_removed", "pin_added"):
                    touched.add(e.gate)
            self._touched = touched
        return self._touched

    def connectivity_changed(self) -> bool:
        """True when any edge or the output list changed (anything but
        pure ``type_changed`` records)."""
        return any(e.kind != "type_changed" for e in self.edits)

