"""Reference correction vocabulary: one line at a time, as objects.

:func:`line_vocabulary` enumerates a line's corrections the way the
engine did before the node vocabulary: ``Correction`` objects built
one by one, in enumeration order, with every fixed-kind row from
:func:`~repro.faults.models.corrected_line_words`.  The source-scoring
sweep (:func:`~repro.diagnose.candidates.scored_sources`) is shared
with the library, because it is what picks the wire sources.
:func:`node_reference` concatenates the lines of a node in order, the
order the library's :func:`~repro.diagnose.candidates.node_vocabulary`
must keep.
"""

import numpy as np

from repro.circuit.gatetypes import (GATE_CORE, GateType,
                                     REPLACEMENT_CLASSES, SOURCE_TYPES)
from repro.diagnose.candidates import (_rewired_core, scored_sources,
                                       stuck_at_corrections)
from repro.diagnose.config import Mode
from repro.faults.models import (Correction, CorrectionKind,
                                 corrected_line_words)


def _fixed_rows(state, corrections):
    return [corrected_line_words(state.netlist, state.table, corr,
                                 state.values) for corr in corrections]


def line_vocabulary(state, line_index, config):
    """``(corrections, rows)`` of one line, in enumeration order."""
    if config.mode is Mode.STUCK_AT:
        corrections = stuck_at_corrections(line_index)
        return corrections, _fixed_rows(state, corrections)
    line = state.table[line_index]
    gate = state.netlist.gates[line.driver]
    corrections = [Correction(line_index, CorrectionKind.INSERT_INVERTER)]
    if gate.gtype is GateType.NOT:
        corrections.append(Correction(line_index,
                                      CorrectionKind.REMOVE_INVERTER))
    if not line.is_stem or gate.gtype in SOURCE_TYPES or \
            gate.gtype is GateType.DFF:
        return corrections, _fixed_rows(state, corrections)
    n_in = len(gate.fanin)
    for new_type in REPLACEMENT_CLASSES.get(gate.gtype, ()):
        if new_type in (GateType.XOR, GateType.XNOR) and n_in > 4:
            continue
        corrections.append(Correction(line_index,
                                      CorrectionKind.GATE_REPLACE,
                                      new_type=new_type))
    if n_in >= 2:
        corrections += [Correction(line_index,
                                   CorrectionKind.REMOVE_INPUT_WIRE, pin=p)
                        for p in range(n_in)]
        corrections += [Correction(line_index, CorrectionKind.BYPASS_GATE,
                                   pin=p) for p in range(n_in)]
    rows = _fixed_rows(state, corrections)
    limit = config.wire_source_limit
    sweeps, fields = [], []
    if gate.gtype in (GateType.BUF, GateType.NOT):
        promotions = ((GateType.NAND, GateType.NOR, GateType.XNOR)
                      if gate.gtype is GateType.NOT
                      else (GateType.AND, GateType.OR, GateType.XOR))
        for promo in promotions:
            sweeps.append((*_rewired_core(state, line.driver, None, promo),
                           limit))
            fields.append({"kind": CorrectionKind.ADD_INPUT_WIRE,
                           "new_type": promo})
    else:
        sweeps.append((*_rewired_core(state, line.driver, None,
                                      gate.gtype), limit))
        fields.append({"kind": CorrectionKind.ADD_INPUT_WIRE})
    for pin in range(n_in):
        sweeps.append((*_rewired_core(state, line.driver, pin, gate.gtype),
                       limit))
        fields.append({"kind": CorrectionKind.REPLACE_INPUT_WIRE,
                       "pin": pin})
    for promo in (GateType.AND, GateType.OR, GateType.XOR):
        core, invert = GATE_CORE[promo]
        sweeps.append((core, invert, state.values[line.driver],
                       max(2, limit // 2)))
        fields.append({"kind": CorrectionKind.INSERT_GATE,
                       "new_type": promo})
    for (sources, sweep_rows), extra in zip(
            scored_sources(state, line.driver, sweeps), fields):
        corrections += [Correction(line_index, other_signal=src, **extra)
                        for src in sources]
        rows += list(sweep_rows)
    return corrections, rows


def node_reference(state, lines, config):
    """The vocabulary of ``lines``, line by line: ``(corrections, (K,
    nwords) rows)``."""
    corrections, rows = [], []
    for line in lines:
        line_corrections, line_rows = line_vocabulary(state, line, config)
        corrections += line_corrections
        rows += line_rows
    if not rows:
        return corrections, np.empty((0, state.patterns.num_words),
                                     dtype=np.uint64)
    return corrections, np.stack(rows)
