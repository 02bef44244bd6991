"""Line model: the fault/correction sites of a netlist.

The paper counts circuit *lines* the ISCAS way: every gate output is a
*stem* line, and every fanout branch of a signal with more than one
consumer is an additional *branch* line.  Faults and corrections attach to
lines, not gates — a stuck-at on a branch affects only one consumer, while
a stuck-at on the stem affects all of them.

:class:`LineTable` enumerates the lines of a netlist and provides the
index mapping used throughout the diagnosis engine.
"""

from __future__ import annotations

import enum

from .netlist import Netlist


class LineKind(enum.Enum):
    STEM = "stem"
    BRANCH = "branch"


class Line:
    """One fault site (a slotted record: one table is built per tree node).

    Attributes:
        index: position in the owning :class:`LineTable`.
        kind: stem or fanout branch.
        driver: gate whose output signal the line carries.
        sink: consuming gate (branches only, else ``None``).
        pin: fanin position at ``sink`` (branches only, else ``None``).
    """

    __slots__ = ("index", "kind", "driver", "sink", "pin")

    def __init__(self, index: int, kind: LineKind, driver: int,
                 sink: int | None = None, pin: int | None = None):
        self.index = index
        self.kind = kind
        self.driver = driver
        self.sink = sink
        self.pin = pin

    @property
    def is_stem(self) -> bool:
        return self.kind is LineKind.STEM

    @property
    def site(self) -> int | tuple[int, int]:
        """Where a forced value enters the netlist: the driver index for
        a stem, ``(sink, pin)`` for a branch — the key of an override in
        :func:`repro.sim.logicsim.propagate`."""
        if self.kind is LineKind.STEM:
            return self.driver
        return (self.sink, self.pin)

    def describe(self, netlist: Netlist) -> str:
        """Human-readable site name, e.g. ``n12`` or ``n12->g7.1``."""
        drv = netlist.gates[self.driver].name
        if self.is_stem:
            return drv
        snk = netlist.gates[self.sink].name
        return f"{drv}->{snk}.{self.pin}"


class LineTable:
    """All lines of a netlist's live gates and primary inputs, in
    deterministic order (stems first in gate order, then branches in
    (sink, pin) order).  Detached gates have no lines."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._stem_of_gate: dict[int, int] = {}
        self._branch_of: dict[tuple[int, int], int] = {}
        live = netlist.live_set() | set(netlist.inputs)
        fanouts = netlist.fanouts()
        stems: list[Line] = []
        branches: list[Line] = []
        # Every live gate gets a stem, so branches start at len(live).
        for gate in netlist.gates:
            sink = gate.index
            if sink not in live:
                continue
            self._stem_of_gate[sink] = len(stems)
            stems.append(Line(len(stems), LineKind.STEM, sink))
            for pin, src in enumerate(gate.fanin):
                if len(fanouts[src]) > 1:
                    idx = len(live) + len(branches)
                    self._branch_of[(sink, pin)] = idx
                    branches.append(Line(idx, LineKind.BRANCH, src, sink, pin))
        self.lines: list[Line] = stems + branches

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    def __getitem__(self, index: int) -> Line:
        return self.lines[index]

    def stem(self, gate_index: int) -> Line:
        """The stem line of a gate's output signal."""
        return self.lines[self._stem_of_gate[gate_index]]

    def branch(self, sink: int, pin: int) -> Line | None:
        """The branch line into ``sink.pin`` or ``None`` if single-fanout."""
        idx = self._branch_of.get((sink, pin))
        return None if idx is None else self.lines[idx]

    @property
    def stem_of_gate(self) -> dict[int, int]:
        """Gate index -> index of its stem line (read-only), for kernels
        that look stems up per gate."""
        return self._stem_of_gate

    @property
    def branch_of(self) -> dict[tuple[int, int], int]:
        """``(sink, pin)`` -> index of its branch line (read-only);
        single-fanout pins have no entry."""
        return self._branch_of

    def describe(self, index: int) -> str:
        return self.lines[index].describe(self.netlist)
