"""Correction screening: static pre-screen, Theorem 1, heuristics 2 & 3.

**Static pre-screen**: before any heuristic runs, suspects whose
complement provably cannot reach a primary output — unobservable or
ODC-blocked per the dataflow facts — are dropped without a single
simulation (:func:`prescreen_suspects`).

**Theorem 1** (§3.2): among the lines l1..lN of any valid correction set,
the largest excitation set Vi has at least ``|V| / N`` vectors — so at
least one member correction must complement at least that many bits of
its line's ``Verr`` bit-list.  :func:`theorem1_bound` computes the bound;
:func:`screen_verr` applies it (or the stricter empirical ``h2``
threshold) with "a single simulation step on the gate driving l".

**Heuristic 3** (§3.2): "Any qualifying correction may sensitize only a
small number of new paths to previously correct primary outputs" — but
not zero, because partially-corrected designs can legitimately get worse
before they get better (the paper's Fig. 1 reconvergence example).
:func:`screen_corrections` measures the actual effect by bit-parallel
propagation over the ``Vcorr`` bit-lists and rejects corrections whose
kept-correct fraction falls below ``h3``.  Bits are vector-parallel as
in the paper, and the corrections on one suspect line are
candidate-parallel too: they share one slot-packed propagate.

The "single simulation step on the gate driving l" is not repeated
here: the vocabulary (:func:`repro.diagnose.candidates.corrections_for_line`)
hands every correction over with its predicted line words, most of
them rows of the source-scoring sweep that picked the correction.
Exact mode's one-correction screen (:func:`screen_verr`) still
evaluates the gate itself (:func:`predicted_words`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from ..errors import InjectionError
from ..faults.models import Correction, corrected_line_words
from ..sim.packing import popcount, row_popcounts
from .bitlists import DiagnosisState, OverrideOutcome


def prescreen_suspects(state: DiagnosisState, lines,
                       deep: bool = False) -> tuple[list, int]:
    """Static suspect pre-screen: drop lines no correction can excite.

    Runs *before* Heuristic 1, on the dataflow facts of the node's
    netlist (:func:`repro.analyze.dataflow.netlist_facts` — cached on
    the netlist, so repeated expansions of one node pay nothing).  A
    suspect line is dropped when its driver signal

    * has no combinational path to any primary output, or
    * is ODC-blocked: some dominator of the signal has a side input,
      outside the signal's fanout cone, that provably carries the
      dominator's controlling value on every vector.

    Both conditions imply the complement of the line changes **no
    primary output on any input vector** (the side input is outside the
    perturbed region, so its constant proof survives the fault) — the
    line cannot explain any failing response, so no simulation is
    spent on it.  Branch lines inherit their stem's verdict: every
    branch path is a stem path, so a blocked stem blocks its branches.
    The blocked set is seeded from the known constants, so the screen
    reads no dominator sets or cones.

    ``deep=True`` additionally uses implication- and hash-derived
    constants (pricier; the engine enables it for root-level
    expansions, where the facts are computed once per run).

    The drop is airtight per suspect.  Across a *tuple* of corrections
    the screen is re-applied per node on the partially-corrected
    netlist, which in principle can hide exotic tuples whose members
    pairwise mask each other's observability; the pre-screen shares
    this per-node character with the Theorem 1 screen and can be
    switched off via ``DiagnosisConfig(static_prescreen=False)``.

    Returns ``(kept_lines, dropped_count)`` with order preserved.
    """
    from ..analyze.dataflow import netlist_facts
    facts = netlist_facts(state.netlist)
    observable = facts.observable_set()
    blocked = facts.blocked_signals(deep=deep)
    table_lines = state.table.lines
    kept = []
    dropped = 0
    for line_index in lines:
        driver = table_lines[line_index].driver
        if driver not in observable or driver in blocked:
            dropped += 1
        else:
            kept.append(line_index)
    return kept, dropped


def theorem1_bound(num_failing: int, num_errors: int) -> int:
    """Minimum ``|Verr|`` bits the best member of an N-error correction
    set must complement: ``ceil(|V| / N)`` by the pigeonhole principle."""
    if num_failing <= 0:
        return 0
    if num_errors <= 0:
        raise ValueError("num_errors must be positive")
    return math.ceil(num_failing / num_errors)


@dataclass
class ScreenedCorrection:
    """A correction that survived screening, with its measured effect."""

    correction: Correction
    new_words: np.ndarray
    complemented: int          # Verr bits flipped (heuristic 2 count)
    outcome: OverrideOutcome   # propagation effect (heuristics 1 & 3)
    h1_score: float
    h3_score: float

    @property
    def fixes_all(self) -> bool:
        return self.outcome.fixes_all


def predicted_words(state: DiagnosisState,
                    corr: Correction) -> np.ndarray | None:
    """Corrected line values, or None when structurally impossible."""
    try:
        return corrected_line_words(state.netlist, state.table, corr,
                                    state.values)
    except InjectionError:
        return None


def screen_verr(state: DiagnosisState, corr: Correction,
                required_bits: int,
                new_words: np.ndarray | None = None) -> int | None:
    """Heuristic 2: count complemented ``Verr`` bits; None if rejected.

    ``required_bits`` is either the empirical ``h2 * |Verr|`` threshold
    or the Theorem 1 bound (exact mode).  A correction that changes no
    bit at all (on failing or passing vectors) is also rejected — it is
    a no-op.
    """
    if new_words is None:
        new_words = predicted_words(state, corr)
    if new_words is None:
        return None
    delta = new_words ^ state.line_values(corr.line)
    complemented = popcount(delta & state.err_mask)
    if complemented < max(required_bits, 1):
        return None
    return complemented


def screen_corrections(state: DiagnosisState, corrections,
                       words: np.ndarray, required_bits: int,
                       h3: float) -> list[ScreenedCorrection]:
    """Heuristics 2 and 3 over many corrections, one propagate per line.

    ``words`` is the ``(k, nwords)`` stack of predicted line words, row
    *i* for correction *i*, as
    :func:`~repro.diagnose.candidates.corrections_for_line` returns it
    (no correction is re-evaluated here).  Every correction on one line
    overrides the same stem or ``(sink, pin)``, so all of them travel
    the same fanout cone.  Each run of consecutive corrections on one
    line is screened as a batch:

    1. every heuristic-2 count (``Verr`` bits complemented) comes from
       one row popcount of the run's words; counts below
       ``max(required_bits, 1)`` are rejected, which also drops no-ops;
    2. the survivors share one slot-packed propagate
       (:meth:`DiagnosisState.outcome_of_override`), which gives each
       one's rectified, broken and fixed-pair counts;
    3. heuristic 3 rejects survivors whose kept-correct fraction falls
       below ``h3``; ``h3 <= 0`` disables it (the ablation's "no
       heuristic 3" and "no screening" schedules).

    Survivors keep their input order and own their rows.
    """
    corrections = list(corrections)
    survivors: list[ScreenedCorrection] = []
    start = 0
    for line, run in groupby(corrections, key=attrgetter("line")):
        stop = start + sum(1 for _corr in run)
        survivors.extend(_screen_line(state, line, corrections[start:stop],
                                      words[start:stop], required_bits,
                                      h3))
        start = stop
    return survivors


def _screen_line(state: DiagnosisState, line: int, corrections: list,
                 words: np.ndarray, required_bits: int,
                 h3: float) -> list[ScreenedCorrection]:
    """:func:`screen_corrections` for corrections all on ``line``."""
    flips = row_popcounts((words ^ state.line_values(line))
                          & state.err_mask).tolist()
    need = max(required_bits, 1)
    keep = [i for i, count in enumerate(flips) if count >= need]
    if not keep:
        return []
    outcomes = state.outcome_of_override(line, words[keep])
    survivors = []
    for i, outcome in zip(keep, outcomes):
        h3_score = outcome.h3_score(state)
        if h3 > 0 and h3_score < h3:
            continue
        # An owned row: a view would keep the whole stack alive for as
        # long as the tree holds this correction.
        survivors.append(ScreenedCorrection(
            corrections[i], words[i].copy(), flips[i], outcome,
            outcome.h1_score(state), h3_score))
    return survivors
