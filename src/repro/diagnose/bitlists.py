"""Diagnosis state: the paper's ``Verr``/``Vcorr`` bit-lists.

Section 2: "we simulate a number of random input test vectors V and
create two bit-lists, Verr_l and Vcorr_l, on every line l in the circuit.
The i-th entry of the Verr_l (Vcorr_l) list contains the logic value of l
when we simulate the i-th input test vector from V with erroneous
(correct) primary output responses."

We store the same information column-wise: one packed value matrix for
the whole implementation plus two packed vector masks (``err_mask``,
``corr_mask``) partitioning V.  ``Verr_l`` is then ``values[l] &
err_mask`` conceptually; every count the heuristics need reduces to an
AND + popcount.  The bit-lists are "properly updated during diagnosis and
correction" incrementally: only a root state is simulated in full, and
every decision-tree child derives its value matrix from its parent's by
propagating the corrected line through its fanout cone
(:meth:`DiagnosisState.child`, shared by both searches).
"""

from __future__ import annotations

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..faults.models import Correction
from ..sim.compare import masked
from ..sim.logicsim import output_rows, propagate, simulate
from ..sim.packing import PatternSet, popcount, row_popcounts, tail_mask


#: Most slots one multi-site sweep (:meth:`DiagnosisState.sweep_outcomes`)
#: packs, for heuristic 1's suspects and the node screen's corrections
#: alike.  Every big-int row of a sweep is this many slots wide,
#: including each partly forced site's forced row, so the per-sweep
#: memory grows with its square; wider packing raised peak RSS without
#: a matching gain in time.
SWEEP_SLOTS = 32


def reference_outputs(netlist: Netlist,
                      patterns: PatternSet) -> np.ndarray:
    """Packed output rows of a netlist over a pattern set.

    The shared *ingest* step of the staged pipeline
    (:mod:`repro.diagnose.pipeline`): the combinational engine uses it
    for the spec's reference responses, the time-frame and SAT
    diagnosers for the faulty device's observed responses.
    """
    return output_rows(netlist, simulate(netlist, patterns))


def error_partition(out: np.ndarray, ref_out: np.ndarray,
                    nbits: int) -> tuple:
    """Partition V against reference responses (the *bitlists* step).

    Returns ``(diff, err_mask, num_err)``: per-output packed mismatch
    rows (tail-masked), the packed mask of vectors failing on any
    output, and its popcount.  One definition shared by
    :class:`DiagnosisState` and the time-frame joint state.
    """
    diff = masked(out ^ ref_out, nbits)
    err_mask = np.bitwise_or.reduce(diff, axis=0)
    return diff, err_mask, popcount(err_mask)


class DiagnosisState:
    """Simulation snapshot of one implementation against the spec.

    This object is immutable in spirit: the decision tree creates a fresh
    state per node with :meth:`child` (after applying that node's
    correction to a netlist copy).

    Attributes:
        netlist: the (possibly partially corrected) implementation.
        table: its line table (fault/correction sites).
        values: packed value matrix, one row per signal.
        spec_out: packed spec responses, one row per primary output.
        diff: per-output packed mismatch rows (tail-masked).
        err_mask: packed mask of failing vectors (any output wrong).
        corr_mask: packed mask of passing vectors.
        num_err / num_corr: vector counts per partition.
        num_err_pairs: failing (output, vector) pairs.
    """

    def __init__(self, netlist: Netlist, patterns: PatternSet,
                 spec_out: np.ndarray,
                 values: np.ndarray | None = None):
        self.netlist = netlist
        self.patterns = patterns
        self.table = LineTable(netlist)
        self.values = simulate(netlist, patterns) if values is None \
            else values
        self.spec_out = spec_out
        out = output_rows(netlist, self.values)
        self.diff, self.err_mask, self.num_err = error_partition(
            out, spec_out, patterns.nbits)
        self.corr_mask = masked(~self.err_mask, patterns.nbits)
        self.num_corr = patterns.nbits - self.num_err
        self.num_err_pairs = popcount(self.diff)
        self._tail = tail_mask(patterns.nbits)
        # Baseline big-int rows for the event kernel, shared by every
        # propagate call on this state (values never mutates in place).
        self._base_ints: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def rectified(self) -> bool:
        """True when the implementation matches the spec on all of V."""
        return self.num_err == 0

    @property
    def v_ratio(self) -> float:
        """Fraction of failing vectors (the ranking formula's V_ratio)."""
        if self.patterns.nbits == 0:
            return 0.0
        return self.num_err / self.patterns.nbits

    def line_values(self, line_index: int) -> np.ndarray:
        """Packed logic values carried by a line (== its stem signal)."""
        return self.values[self.table[line_index].driver]

    # ------------------------------------------------------------------
    def child(self, child_netlist: Netlist, corr: Correction,
              new_words: np.ndarray) -> DiagnosisState:
        """State of ``child_netlist``, this netlist with ``corr`` applied.

        ``new_words`` is the corrected line's value
        (:func:`~repro.faults.models.corrected_line_words`).  A
        correction changes values only inside the line's fanout cone, so
        the child's matrix is this one with the propagated rows replaced
        and one row per gate the correction appended (a constant,
        inverter or inserted gate carrying the line).  A stem driver
        whose own definition is unchanged keeps computing its old value:
        its consumers were rewired to the carrier, or, for a bypass, to
        a fanin of the now detached driver.
        """
        line = self.table[corr.line]
        changed = self.propagate_line_override(corr.line, new_words)
        parent_rows = len(self.values)
        values = np.empty((len(child_netlist.gates), self.values.shape[1]),
                          dtype=self.values.dtype)
        values[:parent_rows] = self.values
        values[parent_rows:] = new_words
        for idx, row in changed.items():
            values[idx] = row
        if line.is_stem:
            old = self.netlist.gates[line.driver]
            new = child_netlist.gates[line.driver]
            if new.gtype is old.gtype and new.fanin == old.fanin:
                values[line.driver] = self.values[line.driver]
        return DiagnosisState(child_netlist, self.patterns, self.spec_out,
                              values=values)

    def propagate_line_override(self, line_index, new_words: np.ndarray,
                                base_ints: dict | None = None) -> dict:
        """Push hypothetical line values through their fanout cones.

        Stem lines override the whole signal, branch lines only the sink
        pin.  ``line_index`` is one line, overridden in every slot of
        ``new_words``, or a sequence of k lines, one per slot of the
        ``(k, nwords)`` stack: slot *s* then forces only line *s*, and
        the other slots' lines run free in it (per-slot sites of
        :func:`repro.sim.logicsim.propagate`).  A single row always
        uses the state's own baseline cache; ``base_ints`` is the
        caller's cache for a stack, kept per slot count.  Returns the
        changed-row dict of that propagate.
        """
        if new_words.ndim == 1:
            base_ints = self._base_ints
        if isinstance(line_index, (int, np.integer)):
            return propagate(self.netlist, self.values,
                             {self.table[line_index].site: new_words},
                             base_ints=base_ints)
        overrides: dict = {}
        forced: dict = {}
        for slot, index in enumerate(line_index):
            site = self.table[index].site
            overrides[site] = new_words
            forced.setdefault(site, []).append(slot)
        return propagate(self.netlist, self.values, overrides,
                         base_ints=base_ints, forced_slots=forced)

    def rectified_by(self, overrides: dict) -> bool:
        """True when forcing ``overrides`` (one row per site, the map
        :func:`~repro.sim.logicsim.propagate` takes) on this state makes
        every vector of V pass: the one "does this candidate rectify V?"
        check, so a candidate gets a netlist only once it passes."""
        changed = propagate(self.netlist, self.values, overrides,
                            base_ints=self._base_ints)
        return not self._diff_after(changed, self.diff.copy()).any()

    def outcome_of_override(self, line_index, new_words: np.ndarray,
                            base_ints: dict | None = None
                            ) -> list[OverrideOutcome]:
        """Propagate candidate line values and summarize each one's
        effect on V.

        ``new_words`` is a ``(k, nwords)`` stack with one candidate
        value per slot, or a single ``(nwords,)`` row (one slot).
        ``line_index`` is the line every slot overrides (k corrections
        of one line), or a sequence of k lines, slot *s* overriding
        only line *s* (k suspects, or k corrections on several lines).
        Either way the k overrides share one slot-packed propagate
        (``base_ints`` as for :meth:`propagate_line_override`).
        Returns one :class:`OverrideOutcome` per slot, in slot order.
        """
        if new_words.ndim == 2 and len(new_words) == 1:
            new_words = new_words[0]
            if not isinstance(line_index, (int, np.integer)):
                line_index, = line_index
        changed = self.propagate_line_override(line_index, new_words,
                                               base_ints)
        if new_words.ndim == 1:
            # One slot: the 2-D summary, which is measurably cheaper
            # than a 3-D one with a unit axis on every per-leaf call.
            diff_after = self._diff_after(changed, self.diff.copy())
            err_after = np.bitwise_or.reduce(diff_after, axis=0)
            return [OverrideOutcome(popcount(self.err_mask & ~err_after),
                                    popcount(self.corr_mask & err_after),
                                    popcount(self.diff & ~diff_after),
                                    not err_after.any())]
        # k slots: (output, slot, word) rows, so each output's propagated
        # (k, nwords) row block lands in place with one XOR.
        slots = len(new_words)
        stacked = np.empty((len(self.diff), slots, self.diff.shape[1]),
                           dtype=self.diff.dtype)
        stacked[:] = self.diff[:, None, :]
        diff_after = self._diff_after(changed, stacked)
        err_after = np.bitwise_or.reduce(diff_after, axis=0)
        fixed = (self.diff[:, None, :] & ~diff_after).swapaxes(0, 1)
        rectified = row_popcounts(self.err_mask & ~err_after).tolist()
        broken = row_popcounts(self.corr_mask & err_after).tolist()
        fixed_pairs = row_popcounts(fixed.reshape(slots, -1)).tolist()
        dirty = err_after.any(axis=1).tolist()
        return [OverrideOutcome(r, b, f, not d) for r, b, f, d
                in zip(rectified, broken, fixed_pairs, dirty)]

    def sweep_outcomes(self, lines: list,
                       new_words: np.ndarray) -> list[OverrideOutcome]:
        """:meth:`outcome_of_override` for slot *s* forcing ``lines[s]``
        to row *s* of the ``(k, nwords)`` stack, over any k.

        Consecutive slots share sweeps of at most :data:`SWEEP_SLOTS`;
        a sweep whose slots all lie on one line forces that line in
        every slot (the one-site path), any other forces each slot's
        own line only.  Heuristic 1 (one suspect per slot) and the node
        screen (one correction per slot) both measure through it.  The
        sweeps share baseline conversions, one cache per slot count,
        dropped when the call returns.
        """
        out: list[OverrideOutcome] = []
        caches: dict[int, dict] = {}
        for start in range(0, len(lines), SWEEP_SLOTS):
            chunk = lines[start:start + SWEEP_SLOTS]
            first = chunk[0]
            site = first if chunk.count(first) == len(chunk) else chunk
            out.extend(self.outcome_of_override(
                site, new_words[start:start + SWEEP_SLOTS],
                caches.setdefault(len(chunk), {})))
        return out

    def _diff_after(self, changed: dict, diff_after: np.ndarray
                    ) -> np.ndarray:
        """Overwrite, in ``diff_after`` (indexed by output position
        first, holding this state's ``diff``), the mismatch rows of every
        primary output the propagate result ``changed`` touches."""
        for pos, po in enumerate(self.netlist.outputs):
            row = changed.get(po)
            if row is not None:
                np.bitwise_xor(row, self.spec_out[pos], out=diff_after[pos])
        diff_after[..., -1] &= self._tail
        return diff_after


class OverrideOutcome:
    """Effect of one hypothetical line override on the vector set."""

    __slots__ = ("rectified_vectors", "broken_vectors", "fixed_pairs",
                 "fixes_all")

    def __init__(self, rectified_vectors: int, broken_vectors: int,
                 fixed_pairs: int, fixes_all: bool):
        self.rectified_vectors = rectified_vectors
        self.broken_vectors = broken_vectors
        self.fixed_pairs = fixed_pairs
        self.fixes_all = fixes_all

    def h1_score(self, state: DiagnosisState) -> float:
        """Fraction of failing vectors this override rectifies."""
        return (self.rectified_vectors / state.num_err
                if state.num_err else 1.0)

    def h3_score(self, state: DiagnosisState) -> float:
        """Fraction of passing vectors that stay passing."""
        return (1.0 - self.broken_vectors / state.num_corr
                if state.num_corr else 1.0)
