"""Fault and correction models.

The paper deliberately blurs faults and design errors: "we will not
distinguish between faults and design errors or between fault models and
corrections" (§1).  We follow that: a :class:`Correction` is *any*
modification attached to a line — a stuck-at fault model in diagnosis
mode, or an Abadir-style design-error fix in DEDC mode.

A correction references a :class:`~repro.circuit.lines.Line` of a specific
netlist.  :func:`apply_correction` performs the structural edit;
:func:`corrected_line_words` predicts the corrected line's packed values
from an existing simulation *without* mutating anything (this is what the
screening heuristics evaluate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..circuit.gatetypes import GateType, demoted, eval_words, promoted
from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..errors import InjectionError
from ..sim.packing import const_row


class CorrectionKind(enum.Enum):
    """Every modification the engine may attach to a line."""

    STUCK_AT_0 = "sa0"
    STUCK_AT_1 = "sa1"
    GATE_REPLACE = "gate_replace"          # driver gets a new function
    INSERT_INVERTER = "insert_inverter"    # fixes a missing-inverter error
    REMOVE_INVERTER = "remove_inverter"    # fixes an extra-inverter error
    REMOVE_INPUT_WIRE = "remove_wire"      # fixes an extra-input-wire error
    ADD_INPUT_WIRE = "add_wire"            # fixes a missing-input-wire error
    REPLACE_INPUT_WIRE = "replace_wire"    # fixes a wrong-input-wire error
    BYPASS_GATE = "bypass_gate"            # fixes an extra-gate error
    INSERT_GATE = "insert_gate"            # fixes a missing-gate error


#: Kinds legal in pure stuck-at fault diagnosis mode.
STUCK_AT_KINDS = (CorrectionKind.STUCK_AT_0, CorrectionKind.STUCK_AT_1)


@dataclass(frozen=True)
class Correction:
    """One fault model / design-error fix attached to a line.

    Attributes:
        line: line index in the owning netlist's :class:`LineTable`.
        kind: what to do there.
        new_type: replacement function (``GATE_REPLACE`` only).
        pin: driver fanin pin (wire corrections on stems).
        other_signal: new wire source gate index (add/replace wire).
    """

    line: int
    kind: CorrectionKind
    new_type: GateType | None = None
    pin: int | None = None
    other_signal: int | None = None

    def describe(self, netlist: Netlist, table: LineTable) -> str:
        """Stable human-readable signature, e.g. ``sa1@n12`` or
        ``gate_replace[NOR]@g7``."""
        site = table.describe(self.line)
        extra = ""
        if self.new_type is not None:
            extra = f"[{self.new_type.name}]"
        if self.pin is not None:
            extra += f"[pin{self.pin}]"
        if self.other_signal is not None:
            extra += f"[<-{netlist.gates[self.other_signal].name}]"
        return f"{self.kind.value}{extra}@{site}"


@dataclass(frozen=True)
class StuckAtFault:
    """A stuck-at fault site, independent of any line table."""

    site: str       # line description string ("n12" or "n12->g7.1")
    value: int      # 0 or 1

    def __str__(self) -> str:
        return f"{self.site}/sa{self.value}"


def stuck_at_correction(table: LineTable, line_index: int,
                        value: int) -> Correction:
    kind = CorrectionKind.STUCK_AT_1 if value else CorrectionKind.STUCK_AT_0
    return Correction(line_index, kind)


# ----------------------------------------------------------------------
# structural application
# ----------------------------------------------------------------------
def apply_correction(netlist: Netlist, table: LineTable,
                     corr: Correction) -> None:
    """Mutate ``netlist`` according to ``corr``.

    The caller owns the copy discipline: the decision tree always applies
    corrections to a private netlist copy.  After this call the netlist's
    line table is stale; build a fresh :class:`LineTable` if needed.
    """
    line = table[corr.line]
    kind = corr.kind
    if kind is CorrectionKind.STUCK_AT_0 or kind is CorrectionKind.STUCK_AT_1:
        value = 1 if kind is CorrectionKind.STUCK_AT_1 else 0
        if line.is_stem:
            netlist.tie_stem_to_constant(line.driver, value)
        else:
            netlist.tie_branch_to_constant(line.sink, line.pin, value)
        return
    if kind is CorrectionKind.INSERT_INVERTER:
        if line.is_stem:
            netlist.insert_gate_on_stem(line.driver, GateType.NOT)
        else:
            netlist.insert_gate_on_branch(line.sink, line.pin, GateType.NOT)
        return
    if kind is CorrectionKind.REMOVE_INVERTER:
        driver = netlist.gates[line.driver]
        if driver.gtype is not GateType.NOT:
            raise InjectionError(
                f"cannot remove inverter: {driver.name!r} is "
                f"{driver.gtype.name}")
        if line.is_stem:
            netlist.bypass_gate(line.driver)
        else:
            netlist.replace_fanin_pin(line.sink, line.pin,
                                      driver.fanin[0])
        return
    # Remaining kinds modify the gate driving the (stem) line.
    if not line.is_stem:
        raise InjectionError(
            f"{kind.value} applies to stem lines, got branch "
            f"{line.describe(netlist)}")
    driver = line.driver
    if kind is CorrectionKind.GATE_REPLACE:
        if corr.new_type is None:
            raise InjectionError("GATE_REPLACE needs new_type")
        netlist.set_gate_type(driver, corr.new_type)
        return
    if kind is CorrectionKind.REMOVE_INPUT_WIRE:
        if corr.pin is None:
            raise InjectionError("REMOVE_INPUT_WIRE needs pin")
        netlist.remove_fanin_pin(driver, corr.pin)
        return
    if kind is CorrectionKind.ADD_INPUT_WIRE:
        if corr.other_signal is None:
            raise InjectionError("ADD_INPUT_WIRE needs other_signal")
        netlist.add_fanin_pin(driver, corr.other_signal)
        if corr.new_type is not None:
            # A unary gate that lost a wire also lost its multi-input
            # identity (OR degraded to BUF, NOR to NOT...); the repair
            # states which identity to restore.
            netlist.set_gate_type(driver, corr.new_type)
        return
    if kind is CorrectionKind.REPLACE_INPUT_WIRE:
        if corr.pin is None or corr.other_signal is None:
            raise InjectionError("REPLACE_INPUT_WIRE needs pin and "
                                 "other_signal")
        netlist.replace_fanin_pin(driver, corr.pin, corr.other_signal)
        return
    if kind is CorrectionKind.BYPASS_GATE:
        if corr.pin is None:
            raise InjectionError("BYPASS_GATE needs pin (survivor fanin)")
        gate = netlist.gates[driver]
        if not 0 <= corr.pin < len(gate.fanin):
            raise InjectionError(f"gate {gate.name!r}: no pin {corr.pin}")
        netlist.bypass_gate(driver, survivor_pin=corr.pin)
        return
    if kind is CorrectionKind.INSERT_GATE:
        if corr.new_type is None or corr.other_signal is None:
            raise InjectionError("INSERT_GATE needs new_type and "
                                 "other_signal")
        netlist.insert_binary_on_stem(driver, corr.new_type,
                                      corr.other_signal)
        return
    raise InjectionError(f"unhandled correction kind {kind}")


# ----------------------------------------------------------------------
# non-mutating prediction of the corrected line value
# ----------------------------------------------------------------------
def corrected_line_words(netlist: Netlist, table: LineTable,
                         corr: Correction,
                         values: np.ndarray) -> np.ndarray:
    """Packed values the corrected line would carry, from the baseline
    simulation matrix ``values`` (single-gate re-evaluation, no mutation).

    This is the "single simulation step on the gate driving l and the
    fan-ins to that gate" the paper uses for the heuristic-2 screen.
    """
    return fields_line_words(netlist, table, values, corr.line, corr.kind,
                             corr.new_type, corr.pin, corr.other_signal)


def fields_line_words(netlist: Netlist, table: LineTable,
                      values: np.ndarray, line_index: int,
                      kind: CorrectionKind, new_type: GateType | None = None,
                      pin: int | None = None,
                      other_signal: int | None = None) -> np.ndarray:
    """:func:`corrected_line_words` of the correction with these fields
    (a :class:`Correction`'s, in order), without building the object:
    the DEDC vocabulary evaluates corrections it may never keep."""
    line = table[line_index]
    current = values[line.driver]
    if kind is CorrectionKind.STUCK_AT_0:
        return const_row(0, len(current))
    if kind is CorrectionKind.STUCK_AT_1:
        return const_row(1, len(current))
    if kind is CorrectionKind.INSERT_INVERTER:
        return ~current
    driver = netlist.gates[line.driver]
    if kind is CorrectionKind.REMOVE_INVERTER:
        if driver.gtype is not GateType.NOT:
            raise InjectionError(
                f"cannot remove inverter at {driver.name!r}")
        return values[driver.fanin[0]].copy()
    if kind is CorrectionKind.GATE_REPLACE:
        return eval_words(new_type,
                          [values[src] for src in driver.fanin])
    if kind is CorrectionKind.REMOVE_INPUT_WIRE:
        remaining = [values[src] for p, src in enumerate(driver.fanin)
                     if p != pin]
        gtype = (demoted(driver.gtype) if len(remaining) == 1
                 else driver.gtype)
        return eval_words(gtype, remaining)
    if kind is CorrectionKind.ADD_INPUT_WIRE:
        gtype = promoted(new_type or driver.gtype)
        ins = [values[src] for src in driver.fanin]
        ins.append(values[other_signal])
        return eval_words(gtype, ins)
    if kind is CorrectionKind.REPLACE_INPUT_WIRE:
        ins = [values[src] if p != pin else values[other_signal]
               for p, src in enumerate(driver.fanin)]
        return eval_words(driver.gtype, ins)
    if kind is CorrectionKind.BYPASS_GATE:
        if pin is None or not 0 <= pin < len(driver.fanin):
            raise InjectionError("BYPASS_GATE needs a valid pin")
        return values[driver.fanin[pin]].copy()
    if kind is CorrectionKind.INSERT_GATE:
        if new_type is None or other_signal is None:
            raise InjectionError("INSERT_GATE needs new_type and "
                                 "other_signal")
        return eval_words(new_type,
                          [values[line.driver],
                           values[other_signal]])
    raise InjectionError(f"unhandled correction kind {kind}")
