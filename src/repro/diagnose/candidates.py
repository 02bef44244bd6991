"""Candidate-correction enumeration per line.

"Given an error location l that qualified, the algorithm exhaustively
compiles a list of corrections from the design error or fault model"
(§3.2).  Stuck-at mode tries the two fault models; design-error mode
tries every Abadir-model fix applicable at the line: gate replacement,
insert/remove inverter, and remove/replace/add input wire.

Wire corrections need new source signals.  The paper does not specify a
restriction; we score **every** structurally legal signal (live, outside
the driver's fanout cone) in one bit-parallel sweep — how many failing-
vector bits the rewired gate would flip minus how many passing-vector
bits it would corrupt — and keep the top ``wire_source_limit`` per pin
(DESIGN.md §7).  This keeps the wire-correction space bounded without
randomly missing the actual source, which path-trace alone cannot see
(a *missing* wire is outside every sensitized path).
"""

from __future__ import annotations

import numpy as np

from ..circuit.gatetypes import (GateType, REPLACEMENT_CLASSES,
                                 SOURCE_TYPES, eval_words)
from ..faults.models import Correction, CorrectionKind
from ..sim.packing import row_popcounts
from .bitlists import DiagnosisState
from .config import DiagnosisConfig, Mode

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def is_correctable_line(state: DiagnosisState, line_index: int) -> bool:
    """Lines driven by constant gates are not fault/correction sites.

    Real netlists tie constants at cell boundaries, and — more
    importantly — the constants the engine itself introduces when
    applying stuck-at corrections must not become sites for *further*
    corrections (stacking two corrections on one site is just a
    different single correction, and its signature would reference an
    artifact gate no test engineer could probe).
    """
    driver = state.netlist.gates[state.table[line_index].driver]
    return driver.gtype not in (GateType.CONST0, GateType.CONST1)


def stuck_at_corrections(line_index: int) -> list[Correction]:
    """The two stuck-at fault models on a line."""
    return [Correction(line_index, CorrectionKind.STUCK_AT_0),
            Correction(line_index, CorrectionKind.STUCK_AT_1)]


def _legal_sources_mask(state: DiagnosisState, driver: int) -> np.ndarray:
    """Boolean mask over gate indices: may legally feed ``driver``.

    Detached gates are legal sources on purpose: a missing-input-wire
    error orphans its former source, and the repair must reconnect it.
    The fanout-cone exclusion keeps the rewiring acyclic either way.
    """
    netlist = state.netlist
    mask = np.ones(len(netlist.gates), dtype=bool)
    cone = netlist.sorted_cone(driver)
    mask[np.fromiter(cone, dtype=np.intp, count=len(cone))] = False
    mask[netlist.gates[driver].fanin] = False
    mask[driver] = False
    return mask


def _combine(base: np.ndarray, values: np.ndarray, gtype: GateType,
             invert: bool) -> np.ndarray:
    """New gate output for every candidate source at once.

    ``base`` is the gate's core (non-inverted) function over the retained
    fanins; ``values`` is the full value matrix, one candidate per row.
    """
    if gtype in (GateType.AND, GateType.NAND):
        new = values & base
    elif gtype in (GateType.OR, GateType.NOR):
        new = values | base
    else:  # XOR/XNOR
        new = values ^ base
    if invert:
        new = new ^ _ONES
    return new


_CORE_OF = {
    GateType.BUF: (GateType.AND, False),
    GateType.NOT: (GateType.AND, True),
    GateType.AND: (GateType.AND, False),
    GateType.NAND: (GateType.AND, True),
    GateType.OR: (GateType.OR, False),
    GateType.NOR: (GateType.OR, True),
    GateType.XOR: (GateType.XOR, False),
    GateType.XNOR: (GateType.XOR, True),
}


def scored_wire_sources(state: DiagnosisState, driver: int,
                        skip_pin: int | None, limit: int,
                        as_type: GateType | None = None) -> list[int]:
    """Best source signals for an add-wire (``skip_pin=None``) or
    replace-wire (``skip_pin=p``) correction on gate ``driver``.

    Scores every legal signal bit-parallel: (failing bits the new output
    flips) − (passing bits it corrupts); returns the top ``limit`` with
    positive flip counts.  ``as_type`` scores the gate as if promoted to
    that type (needed when a missing-wire error degraded OR->BUF etc.).
    """
    netlist = state.netlist
    gate = netlist.gates[driver]
    gtype = as_type or gate.gtype
    retained = [src for pin, src in enumerate(gate.fanin)
                if pin != skip_pin]
    if gtype not in _CORE_OF:
        return []
    core, invert = _CORE_OF[gtype]
    if retained:
        base = eval_words(core, [state.values[src] for src in retained])
    else:
        # Replacing the only fanin: the new source alone defines the core.
        base = (np.zeros_like(state.values[driver])
                if core in (GateType.OR, GateType.XOR)
                else np.full_like(state.values[driver], _ONES))
    old = state.values[driver]
    new = _combine(base, state.values, core, invert)
    delta = new ^ old
    err_flips = row_popcounts(delta & state.err_mask)
    corr_flips = row_popcounts(delta & state.corr_mask)
    score = err_flips - corr_flips
    legal = _legal_sources_mask(state, driver) & (err_flips > 0)
    if not legal.any():
        return []
    sentinel = score.min() - 1
    score = np.where(legal, score, sentinel)
    order = np.argsort(score, kind="stable")[::-1]
    return [int(g) for g in order[:limit] if legal[g]]


def design_error_corrections(state: DiagnosisState, line_index: int,
                             config: DiagnosisConfig
                             ) -> list[Correction]:
    """Every Abadir-model correction applicable at a line."""
    netlist = state.netlist
    line = state.table[line_index]
    driver_gate = netlist.gates[line.driver]
    corrections: list[Correction] = []
    # Inverter fixes apply to stems and branches alike.
    corrections.append(Correction(line_index,
                                  CorrectionKind.INSERT_INVERTER))
    if driver_gate.gtype is GateType.NOT:
        corrections.append(Correction(line_index,
                                      CorrectionKind.REMOVE_INVERTER))
    if not line.is_stem:
        return corrections
    if driver_gate.gtype in SOURCE_TYPES or \
            driver_gate.gtype is GateType.DFF:
        return corrections
    # Gate type replacement (same fanin count).
    n_in = len(driver_gate.fanin)
    for new_type in REPLACEMENT_CLASSES.get(driver_gate.gtype, ()):
        if new_type in (GateType.XOR, GateType.XNOR) and n_in > 4:
            continue  # implausibly wide parity gates
        corrections.append(Correction(line_index,
                                      CorrectionKind.GATE_REPLACE,
                                      new_type=new_type))
    # Wire removal (extra-input-wire error).
    if n_in >= 2:
        for pin in range(n_in):
            corrections.append(Correction(
                line_index, CorrectionKind.REMOVE_INPUT_WIRE, pin=pin))
        # Extra-gate error: the whole gate is spurious; consumers should
        # read one of its fanins directly.
        for pin in range(n_in):
            corrections.append(Correction(
                line_index, CorrectionKind.BYPASS_GATE, pin=pin))
    # Wire addition / replacement with bit-parallel-scored sources.
    limit = config.wire_source_limit
    if driver_gate.gtype in (GateType.BUF, GateType.NOT):
        # A unary gate may be a degraded multi-input gate; try restoring
        # each plausible identity along with the re-added wire.
        inverted = driver_gate.gtype is GateType.NOT
        promotions = ((GateType.NAND, GateType.NOR, GateType.XNOR)
                      if inverted
                      else (GateType.AND, GateType.OR, GateType.XOR))
        for promo in promotions:
            for src in scored_wire_sources(state, line.driver, None,
                                           limit, as_type=promo):
                corrections.append(Correction(
                    line_index, CorrectionKind.ADD_INPUT_WIRE,
                    other_signal=src, new_type=promo))
    else:
        for src in scored_wire_sources(state, line.driver, None, limit):
            corrections.append(Correction(
                line_index, CorrectionKind.ADD_INPUT_WIRE,
                other_signal=src))
    for pin in range(n_in):
        for src in scored_wire_sources(state, line.driver, pin, limit):
            corrections.append(Correction(
                line_index, CorrectionKind.REPLACE_INPUT_WIRE,
                pin=pin, other_signal=src))
    # Missing-gate error: insert a 2-input gate between this line and
    # its consumers.  Score each promotion type like an add-wire whose
    # "retained fanin" is the line itself.
    for promo in (GateType.AND, GateType.OR, GateType.XOR):
        for src in _scored_insert_sources(state, line.driver, promo,
                                          max(2, limit // 2)):
            corrections.append(Correction(
                line_index, CorrectionKind.INSERT_GATE,
                new_type=promo, other_signal=src))
    return corrections


def _scored_insert_sources(state: DiagnosisState, driver: int,
                           gtype: GateType, limit: int) -> list[int]:
    """Source candidates for an INSERT_GATE correction on a stem.

    The inserted gate computes ``gtype(line, src)``; scoring is the same
    failing-bits-flipped minus passing-bits-corrupted sweep as for wire
    corrections, with the line itself as the retained operand.
    """
    core, invert = _CORE_OF[gtype]
    base = state.values[driver]
    new = _combine(base, state.values, core, invert)
    delta = new ^ base
    err_flips = row_popcounts(delta & state.err_mask)
    corr_flips = row_popcounts(delta & state.corr_mask)
    score = err_flips - corr_flips
    legal = _legal_sources_mask(state, driver) & (err_flips > 0)
    if not legal.any():
        return []
    sentinel = score.min() - 1
    score = np.where(legal, score, sentinel)
    order = np.argsort(score, kind="stable")[::-1]
    return [int(g) for g in order[:limit] if legal[g]]


def corrections_for_line(state: DiagnosisState, line_index: int,
                         config: DiagnosisConfig) -> list[Correction]:
    """Mode dispatch: the correction vocabulary at one line."""
    if config.mode is Mode.STUCK_AT:
        return stuck_at_corrections(line_index)
    return design_error_corrections(state, line_index, config)

