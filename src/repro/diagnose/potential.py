"""Heuristic 1: the correcting potential of a suspect line.

Second diagnosis step (§3.1): "for each line l, we invert the logic
values in its Verr_l bit-list and propagate this difference throughout
the fan-out cone of l ... Inversion and propagation of all of its values
emulate the maximum effect any modification to this line can have on the
circuit.  Once done, we count the number of erroneous primary outputs
that are rectified and sort all lines according to these counts."

The suspects are node-parallel: up to
:data:`~repro.diagnose.bitlists.SWEEP_SLOTS` of them share one
slot-packed ``propagate``, each forcing its own stem or pin in its own
slot and running free in the others (per-slot sites of
:func:`repro.sim.logicsim.propagate`).  The node screen of heuristics 2
and 3 packs its corrections the same way
(:meth:`~repro.diagnose.bitlists.DiagnosisState.sweep_outcomes`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitlists import DiagnosisState


@dataclass(frozen=True)
class LinePotential:
    """Correcting potential of one candidate line."""

    line: int
    fixed_pairs: int          # failing (output, vector) pairs rectified
    rectified_vectors: int    # failing vectors fully rectified
    score: float              # fraction of failing pairs rectified

    def qualifies(self, h1: float) -> bool:
        return self.score >= h1


def correcting_potentials(state: DiagnosisState,
                          candidates) -> list[LinePotential]:
    """Heuristic 1 for each line of ``candidates``, in order.

    Only the failing-vector bits are inverted (that is exactly the
    ``Verr`` bit-list); passing vectors are untouched, so the measured
    effect is purely "how many failures could *any* modification of
    this line possibly repair".  The flipped rows of all suspects are
    built at once, and up to :data:`~repro.diagnose.bitlists.SWEEP_SLOTS`
    suspects share one slot-packed ``propagate``, slot *s* forcing only
    suspect *s* (:meth:`DiagnosisState.sweep_outcomes`).
    """
    lines = list(candidates)
    if not lines:
        return []
    denom = state.num_err_pairs if state.num_err_pairs else 1
    drivers = [state.table[line].driver for line in lines]
    flips = state.values[drivers] ^ state.err_mask
    return [LinePotential(line, outcome.fixed_pairs,
                          outcome.rectified_vectors,
                          outcome.fixed_pairs / denom)
            for line, outcome in zip(lines,
                                     state.sweep_outcomes(lines, flips))]


def rank_lines(state: DiagnosisState, candidates,
               h1: float) -> list[LinePotential]:
    """Evaluate and sort candidate lines by decreasing potential.

    Lines failing the ``h1`` threshold are dropped ("eliminate lines that
    have no potential to lead towards an optimal solution", §3.1).
    """
    potentials = correcting_potentials(state, candidates)
    kept = [p for p in potentials if p.qualifies(h1)]
    kept.sort(key=lambda p: (-p.fixed_pairs, p.line))
    return kept
