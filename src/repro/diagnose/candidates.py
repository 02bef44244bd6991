"""Candidate-correction enumeration: the vocabulary of a decision-tree node.

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
:func:`~repro.faults.models.fields_line_words` (what
:func:`~repro.faults.models.corrected_line_words` computes, from the
correction's fields).

A DEDC node builds the vocabulary of all its qualifying lines at once
(:func:`node_vocabulary`): one ``(K, nwords)`` word stack with the
corrections as plain field tuples, lines in potential order and each
line's corrections in enumeration order.  The node screen
(:func:`repro.diagnose.screening.screen_corrections`) rejects most of
them on one popcount and builds a ``Correction`` only for a survivor.
"""

from __future__ import annotations

import numpy as np

from ..circuit.gatetypes import (CORE_UFUNC, GATE_CORE, GateType,
                                 REPLACEMENT_CLASSES, SOURCE_TYPES,
                                 eval_words)
from ..faults.models import (Correction, CorrectionKind,
                             fields_line_words)
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


def _predict(state: DiagnosisState, fields: list[tuple]) -> np.ndarray:
    """Predicted line words of corrections (as field tuples) that take
    one gate evaluation each, stacked (row *i* for correction *i*)."""
    netlist, table, values = state.netlist, state.table, state.values
    return np.stack([fields_line_words(netlist, table, values, *entry)
                     for entry in fields])


def _stuck_at_vocabulary(state: DiagnosisState, line_index: int,
                         config: DiagnosisConfig, fields: list,
                         blocks: list) -> None:
    """Append the two stuck-at fault models on a line to ``fields`` and
    their words to ``blocks``."""
    models = [(line_index, CorrectionKind.STUCK_AT_0, None, None, None),
              (line_index, CorrectionKind.STUCK_AT_1, None, None, None)]
    fields.extend(models)
    blocks.append(_predict(state, models))


def _design_error_vocabulary(state: DiagnosisState, line_index: int,
                             config: DiagnosisConfig, fields: list,
                             blocks: list) -> None:
    """Append every Abadir-model correction applicable at a line to
    ``fields`` and the ``(k, nwords)`` stacks of their predicted line
    words to ``blocks``.

    Inverter, gate-replacement, wire-removal and bypass corrections
    evaluate their gate once each; the words of wire-addition,
    wire-replacement and gate-insertion corrections are the rows their
    source-scoring sweep already computed.
    """
    netlist = state.netlist
    line = state.table[line_index]
    driver_gate = netlist.gates[line.driver]
    # Inverter fixes apply to stems and branches alike.
    fixed = [(line_index, CorrectionKind.INSERT_INVERTER, None, None, None)]
    if driver_gate.gtype is GateType.NOT:
        fixed.append((line_index, CorrectionKind.REMOVE_INVERTER, None,
                      None, None))
    if not line.is_stem or driver_gate.gtype in SOURCE_TYPES or \
            driver_gate.gtype is GateType.DFF:
        fields.extend(fixed)
        blocks.append(_predict(state, fixed))
        return
    # Gate type replacement (same fanin count).
    n_in = len(driver_gate.fanin)
    for new_type in REPLACEMENT_CLASSES.get(driver_gate.gtype, ()):
        if new_type in (GateType.XOR, GateType.XNOR) and n_in > 4:
            continue  # implausibly wide parity gates
        fixed.append((line_index, CorrectionKind.GATE_REPLACE, new_type,
                      None, None))
    # Wire removal (extra-input-wire error).
    if n_in >= 2:
        fixed.extend((line_index, CorrectionKind.REMOVE_INPUT_WIRE, None,
                      pin, None) for pin in range(n_in))
        # Extra-gate error: the whole gate is spurious; consumers should
        # read one of its fanins directly.
        fixed.extend((line_index, CorrectionKind.BYPASS_GATE, None, pin,
                      None) for pin in range(n_in))
    fields.extend(fixed)
    blocks.append(_predict(state, fixed))
    # Wire addition / replacement and gate insertion, with sources
    # scored in one sweep over every signal.  ``kinds`` holds each
    # sweep's (kind, new_type, pin).
    limit = config.wire_source_limit
    sweeps, kinds = [], []
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
            kinds.append((CorrectionKind.ADD_INPUT_WIRE, promo, None))
    else:
        sweeps.append((*_rewired_core(state, line.driver, None,
                                      driver_gate.gtype), limit))
        kinds.append((CorrectionKind.ADD_INPUT_WIRE, None, None))
    for pin in range(n_in):
        sweeps.append((*_rewired_core(state, line.driver, pin,
                                      driver_gate.gtype), limit))
        kinds.append((CorrectionKind.REPLACE_INPUT_WIRE, None, pin))
    # Missing-gate error: insert a 2-input gate between this line and
    # its consumers, scored like an add-wire whose "retained fanin" is
    # the line itself.
    for promo in (GateType.AND, GateType.OR, GateType.XOR):
        core, invert = GATE_CORE[promo]
        sweeps.append((core, invert, state.values[line.driver],
                       max(2, limit // 2)))
        kinds.append((CorrectionKind.INSERT_GATE, promo, None))
    for (sources, rows), (kind, new_type, pin) in zip(
            scored_sources(state, line.driver, sweeps), kinds):
        fields.extend((line_index, kind, new_type, pin, src)
                      for src in sources)
        blocks.append(rows)


def node_vocabulary(state: DiagnosisState, lines,
                    config: DiagnosisConfig
                    ) -> tuple[list[tuple], np.ndarray]:
    """The correction vocabulary of every line of ``lines``, as one
    stack: the corrections' field tuples ``(line, kind, new_type, pin,
    other_signal)`` and the ``(K, nwords)`` stack of the line words each
    one predicts (row *i* belongs to correction *i*).

    Lines keep their given order, and each line's corrections keep the
    vocabulary's order, so a node's stable-sorted ranking is the same
    as one built line by line.  A correction stays a field tuple until
    it survives the screen (``Correction(*fields)`` builds it):
    most of a node's vocabulary fails heuristic 2 and never needs an
    object.
    """
    fields: list[tuple] = []
    blocks: list[np.ndarray] = []
    add = (_stuck_at_vocabulary if config.mode is Mode.STUCK_AT
           else _design_error_vocabulary)
    for line_index in lines:
        add(state, line_index, config, fields, blocks)
    if not blocks:
        return fields, np.empty((0, state.values.shape[1]),
                                dtype=state.values.dtype)
    return fields, np.concatenate(blocks)


def corrections_for_line(state: DiagnosisState, line_index: int,
                         config: DiagnosisConfig
                         ) -> tuple[list[Correction], np.ndarray]:
    """The correction vocabulary at one line (mode dispatch), as
    :class:`~repro.faults.models.Correction` objects with the
    ``(k, nwords)`` stack of the line words each one predicts (row *i*
    belongs to correction *i*)."""
    fields, words = node_vocabulary(state, [line_index], config)
    return [Correction(*entry) for entry in fields], words
