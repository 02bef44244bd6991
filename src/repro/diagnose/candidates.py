"""Candidate-correction enumeration per line.

"Given an error location l that qualified, the algorithm exhaustively
compiles a list of corrections from the design error or fault model"
(§3.2).  Stuck-at mode tries the two fault models; design-error mode
tries every Abadir-model fix applicable at the line: gate replacement,
insert/remove inverter, and remove/replace/add input wire.

Wire corrections need new source signals.  The paper does not specify a
restriction; we score **every** structurally legal signal (live, outside
the driver's fanout cone) in one bit-parallel sweep per line — how many
failing-vector bits the rewired gate would flip minus how many
passing-vector bits it would corrupt — and keep the top
``wire_source_limit`` per pin (DESIGN.md §7).  This keeps the
wire-correction space bounded without randomly missing the actual
source, which path-trace alone cannot see (a *missing* wire is outside
every sensitized path).

Every correction comes with its predicted line words, which the screens
of :mod:`repro.diagnose.screening` consume: a wire or inserted-gate
correction's words are its row of the scoring sweep, and every other
kind evaluates its gate once with
:func:`~repro.faults.models.corrected_line_words`.
"""

from __future__ import annotations

import numpy as np

from ..circuit.gatetypes import (CORE_UFUNC, GATE_CORE, GateType,
                                 REPLACEMENT_CLASSES, SOURCE_TYPES,
                                 eval_words)
from ..faults.models import (Correction, CorrectionKind,
                             corrected_line_words)
from ..sim.packing import const_row, row_popcounts
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


def _rewired_core(state: DiagnosisState, driver: int,
                  skip_pin: int | None, gtype: GateType) -> tuple:
    """``(core, invert, base)`` of gate ``driver`` read as ``gtype``,
    with fanin ``skip_pin`` removed (``None`` keeps every fanin).

    ``base`` is the core function over the retained fanins, so a new
    source ``src`` makes the gate compute ``core(base, src)``.
    """
    core, invert = GATE_CORE[gtype]
    retained = [src for pin, src in enumerate(state.netlist.gates[driver]
                                              .fanin) if pin != skip_pin]
    if retained:
        base = eval_words(core, [state.values[src] for src in retained])
    else:
        # Replacing the only fanin: the new source alone defines the core.
        base = const_row(core not in (GateType.OR, GateType.XOR),
                         state.values.shape[1])
    return core, invert, base


def scored_sources(state: DiagnosisState, driver: int,
                   sweeps: list) -> list[tuple[list[int], np.ndarray]]:
    """Best new source signals for several rewirings of gate ``driver``,
    all scored in one bit-parallel sweep.

    Each sweep ``(core, invert, base, limit)`` is a candidate gate
    computing ``core(base, src)`` (inverted if ``invert``) for every
    signal ``src`` at once: an added or replaced input wire (base from
    :func:`_rewired_core`) or an inserted gate (base = the line
    itself).  A source scores (failing bits the new output flips) −
    (passing bits it corrupts); each sweep keeps its top ``limit``
    legal sources (:func:`_legal_sources_mask`, computed once for all
    sweeps) with positive flip counts.

    Returns, per sweep, the sources and the gate output each one gives:
    a ``(len(sources), nwords)`` stack of owned rows, which are the
    corrections' predicted line words.
    """
    values = state.values
    m = len(sweeps)
    new = np.empty((m,) + values.shape, dtype=values.dtype)
    for j, (core, invert, base, _limit) in enumerate(sweeps):
        CORE_UFUNC[core](values, base, out=new[j])
        if invert:
            new[j] ^= _ONES
    delta = (new ^ values[driver]).reshape(-1, values.shape[1])
    err_flips = row_popcounts(delta & state.err_mask).reshape(m, -1)
    corr_flips = row_popcounts(delta & state.corr_mask).reshape(m, -1)
    ok = _legal_sources_mask(state, driver) & (err_flips > 0)
    score = err_flips - corr_flips
    score = np.where(ok, score, score.min() - 1)
    # Best first; ties go to the higher gate index.
    order = np.argsort(score, axis=1, kind="stable")[:, ::-1]
    picked = []
    for j, (_core, _invert, _base, limit) in enumerate(sweeps):
        top = [int(g) for g in order[j, :limit] if ok[j, g]]
        picked.append((top, new[j, top]))
    return picked


def _predict(state: DiagnosisState,
             corrections: list[Correction]) -> np.ndarray:
    """Predicted line words of corrections that take one gate
    evaluation each, stacked (row *i* for correction *i*)."""
    return np.stack([corrected_line_words(state.netlist, state.table,
                                          corr, state.values)
                     for corr in corrections])


def design_error_corrections(state: DiagnosisState, line_index: int,
                             config: DiagnosisConfig
                             ) -> tuple[list[Correction], np.ndarray]:
    """Every Abadir-model correction applicable at a line, with the
    ``(k, nwords)`` stack of the line words each one predicts.

    Inverter, gate-replacement, wire-removal and bypass corrections
    evaluate their gate once each; the words of wire-addition,
    wire-replacement and gate-insertion corrections are the rows their
    source-scoring sweep already computed.
    """
    netlist = state.netlist
    line = state.table[line_index]
    driver_gate = netlist.gates[line.driver]
    # Inverter fixes apply to stems and branches alike.
    corrections = [Correction(line_index, CorrectionKind.INSERT_INVERTER)]
    if driver_gate.gtype is GateType.NOT:
        corrections.append(Correction(line_index,
                                      CorrectionKind.REMOVE_INVERTER))
    if not line.is_stem or driver_gate.gtype in SOURCE_TYPES or \
            driver_gate.gtype is GateType.DFF:
        return corrections, _predict(state, corrections)
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
    # Wire addition / replacement and gate insertion, with sources
    # scored in one sweep over every signal.
    limit = config.wire_source_limit
    sweeps, fields = [], []
    if driver_gate.gtype in (GateType.BUF, GateType.NOT):
        # A unary gate may be a degraded multi-input gate; try restoring
        # each plausible identity along with the re-added wire.
        inverted = driver_gate.gtype is GateType.NOT
        promotions = ((GateType.NAND, GateType.NOR, GateType.XNOR)
                      if inverted
                      else (GateType.AND, GateType.OR, GateType.XOR))
        for promo in promotions:
            sweeps.append((*_rewired_core(state, line.driver, None, promo),
                           limit))
            fields.append({"kind": CorrectionKind.ADD_INPUT_WIRE,
                           "new_type": promo})
    else:
        sweeps.append((*_rewired_core(state, line.driver, None,
                                      driver_gate.gtype), limit))
        fields.append({"kind": CorrectionKind.ADD_INPUT_WIRE})
    for pin in range(n_in):
        sweeps.append((*_rewired_core(state, line.driver, pin,
                                      driver_gate.gtype), limit))
        fields.append({"kind": CorrectionKind.REPLACE_INPUT_WIRE,
                       "pin": pin})
    # Missing-gate error: insert a 2-input gate between this line and
    # its consumers, scored like an add-wire whose "retained fanin" is
    # the line itself.
    for promo in (GateType.AND, GateType.OR, GateType.XOR):
        core, invert = GATE_CORE[promo]
        sweeps.append((core, invert, state.values[line.driver],
                       max(2, limit // 2)))
        fields.append({"kind": CorrectionKind.INSERT_GATE,
                       "new_type": promo})
    blocks = [_predict(state, corrections)]
    for (sources, rows), extra in zip(
            scored_sources(state, line.driver, sweeps), fields):
        corrections.extend(Correction(line_index, other_signal=src,
                                      **extra) for src in sources)
        blocks.append(rows)
    return corrections, np.concatenate(blocks)


def corrections_for_line(state: DiagnosisState, line_index: int,
                         config: DiagnosisConfig
                         ) -> tuple[list[Correction], np.ndarray]:
    """Mode dispatch: the correction vocabulary at one line, with the
    ``(k, nwords)`` stack of the line words each correction predicts
    (row *i* belongs to correction *i*)."""
    if config.mode is Mode.STUCK_AT:
        corrections = stuck_at_corrections(line_index)
        return corrections, _predict(state, corrections)
    return design_error_corrections(state, line_index, config)
