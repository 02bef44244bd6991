"""Debug-mode invariants of the diagnosis engine's internal state.

Section 2 of the paper partitions the simulated vector set V into the
failing vectors (whose line values form the ``Verr`` bit-lists) and the
passing vectors (``Vcorr``).  Every heuristic count and the Theorem 1
screen silently assume that partition is *disjoint* and *complete* and
that the screen's denominator N (errors still to find) is positive.
An engine bug violating any of these does not crash — it produces wrong
diagnoses.  The same holds for a child state's value matrix, which is
derived from its parent's by cone propagation rather than simulated.
:class:`InvariantChecker` turns such bugs into immediate
:class:`InvariantViolation` errors.

The checker is opt-in (``DiagnosisConfig(check_invariants=True)``); when
disabled the engine carries a ``None`` and pays one ``if`` per node.
"""

from __future__ import annotations

import numpy as np

from ..circuit.gatetypes import GateType
from ..circuit.netlist import Netlist
from ..errors import InvariantViolation
from ..sim.logicsim import simulate
from ..sim.packing import popcount, tail_mask
from .dataflow import NetlistFacts


class InvariantChecker:
    """Asserts the Section 2 / Theorem 1 invariants on live engine state.

    Attributes:
        checks_run: total number of invariant checks performed, for
            tests and overhead accounting.
    """

    def __init__(self) -> None:
        self.checks_run = 0

    # ------------------------------------------------------------------
    def check_state(self, state) -> None:
        """The state's netlist carries sound structural caches, its
        value matrix equals a full simulation of that netlist, and the
        ``Verr``/``Vcorr`` partition is disjoint and complete.

        ``state`` is a :class:`~repro.diagnose.bitlists.DiagnosisState`;
        typed loosely to keep this module import-light.
        """
        self.checks_run += 1
        _check_structure(state.netlist)
        simulated = simulate(state.netlist, state.patterns)
        if state.values.shape != simulated.shape:
            raise InvariantViolation(
                f"value matrix has shape {state.values.shape}, a full "
                f"simulation of the netlist {simulated.shape}")
        wrong = np.flatnonzero((state.values != simulated).any(axis=1))
        if len(wrong):
            raise InvariantViolation(
                f"value matrix disagrees with a full simulation on "
                f"{len(wrong)} row(s), first "
                f"{state.netlist.gates[wrong[0]].name!r}")
        nbits = state.patterns.nbits
        overlap = popcount(state.err_mask & state.corr_mask)
        if overlap:
            raise InvariantViolation(
                f"Verr/Vcorr partition not disjoint: {overlap} vector(s) "
                f"in both bit-lists")
        full = np.full_like(state.err_mask,
                            np.uint64(0xFFFFFFFFFFFFFFFF))
        if len(full):
            full[-1] = tail_mask(nbits)
        union = state.err_mask | state.corr_mask
        if popcount(union ^ full):
            missing = nbits - popcount(union)
            raise InvariantViolation(
                f"Verr/Vcorr partition not complete: {missing} of "
                f"{nbits} vector(s) in neither bit-list")
        if state.num_err + state.num_corr != nbits:
            raise InvariantViolation(
                f"vector counts inconsistent: |Verr|={state.num_err} + "
                f"|Vcorr|={state.num_corr} != |V|={nbits}")
        if state.num_err != popcount(state.err_mask):
            raise InvariantViolation(
                f"cached |Verr|={state.num_err} disagrees with err_mask "
                f"popcount {popcount(state.err_mask)}")

    # ------------------------------------------------------------------
    def check_facts(self, netlist: Netlist) -> None:
        """Every section a facts warm filled on ``netlist`` — the
        constants and the observable set — equals a from-scratch
        :class:`~repro.analyze.dataflow.NetlistFacts` of it."""
        self.checks_run += 1
        facts = netlist._facts
        if not isinstance(facts, NetlistFacts) \
                or facts.version != netlist.version:
            return
        scratch = NetlistFacts(netlist)
        for label, warm, fresh in (
                ("constants", facts._constants, scratch.constants),
                ("observable set", facts._observable,
                 scratch.observable_set)):
            if warm is not None and warm != fresh():
                raise InvariantViolation(
                    f"warmed {label} of {netlist.name!r} differ from a "
                    f"scratch recompute")

    # ------------------------------------------------------------------
    def check_theorem1(self, num_failing: int, num_errors: int) -> None:
        """The ``|Verr|/N`` screen is only applied with N >= 1 and a
        non-empty failing set (a rectified state must never be
        screened — the engine checks ``rectified`` first)."""
        self.checks_run += 1
        if num_errors <= 0:
            raise InvariantViolation(
                f"Theorem 1 screen applied with N={num_errors}; the "
                f"|Verr|/N bound is undefined for N=0")
        if num_failing <= 0:
            raise InvariantViolation(
                "Theorem 1 screen applied to a rectified state "
                "(|Verr|=0); the engine must stop at rectification")

    # ------------------------------------------------------------------
    def check_screen(self, state, screened) -> None:
        """Every screened correction's outcome, measured in a
        slot-packed batch, equals a one-row propagate of its line words.

        ``screened`` holds the survivors of
        :func:`~repro.diagnose.screening.screen_corrections`.
        """
        self.checks_run += 1
        fields = ("rectified_vectors", "broken_vectors", "fixed_pairs",
                  "fixes_all")
        for sc in screened:
            single, = state.outcome_of_override(sc.correction.line,
                                                sc.new_words)
            batched = tuple(getattr(sc.outcome, f) for f in fields)
            expected = tuple(getattr(single, f) for f in fields)
            if batched != expected:
                raise InvariantViolation(
                    f"batched screen of "
                    f"{sc.correction.describe(state.netlist, state.table)}"
                    f" gave {dict(zip(fields, batched))}, a one-row "
                    f"propagate {dict(zip(fields, expected))}")

    # ------------------------------------------------------------------
    def check_potentials(self, state, potentials) -> None:
        """Every heuristic-1 potential, measured in a multi-site
        slot-packed sweep, equals a one-row propagate of its line's
        inverted ``Verr`` bits.

        ``potentials`` are :class:`~repro.diagnose.potential.LinePotential`
        records of :func:`~repro.diagnose.potential.rank_lines`.
        """
        self.checks_run += 1
        denom = state.num_err_pairs if state.num_err_pairs else 1
        for pot in potentials:
            single, = state.outcome_of_override(
                pot.line, state.line_values(pot.line) ^ state.err_mask)
            expected = (single.fixed_pairs, single.rectified_vectors,
                        single.fixed_pairs / denom)
            packed = (pot.fixed_pairs, pot.rectified_vectors, pot.score)
            if packed != expected:
                raise InvariantViolation(
                    f"packed heuristic 1 of line "
                    f"{state.table.describe(pot.line)} gave (fixed "
                    f"pairs, rectified vectors, score) {packed}, a "
                    f"one-row propagate {expected}")

    # ------------------------------------------------------------------
    def check_lines_live(self, state, line_indices) -> None:
        """Decision-tree candidates only reference lines of the state's
        own table whose drivers are live (or primary inputs)."""
        self.checks_run += 1
        table = state.table
        netlist = state.netlist
        allowed = netlist.live_set() | set(netlist.inputs)
        for line_index in line_indices:
            if not 0 <= line_index < len(table):
                raise InvariantViolation(
                    f"correction references line {line_index} outside "
                    f"the state's table (0..{len(table) - 1})")
            driver = table[line_index].driver
            if driver not in allowed:
                raise InvariantViolation(
                    f"correction references line "
                    f"{table.describe(line_index)} whose driver "
                    f"{netlist.gates[driver].name!r} is detached")


def _check_structure(netlist: Netlist) -> None:
    """Materialized structural caches (inherited by ``copy()``, patched
    per edit) equal a recompute; the order need only be valid."""
    scratch = Netlist(netlist.name)
    scratch.gates = netlist.gates  # read-only: same gates, no caches
    for label, cached, fresh in (
            ("fanouts", netlist._fanouts, scratch.fanouts),
            ("event fanouts", netlist._event_fanouts,
             scratch.event_fanouts)):
        if cached is not None and \
                [sorted(row) for row in cached] != \
                [sorted(row) for row in fresh()]:
            raise InvariantViolation(f"cached {label} are stale")
    if netlist._levels is not None and netlist._levels != scratch.levels():
        raise InvariantViolation("cached levels are stale")
    topo, n = netlist._topo, len(netlist.gates)
    if topo is None:
        return
    pos = {idx: rank for rank, idx in enumerate(topo)}
    if sorted(topo) != list(range(n)) or any(
            pos[src] >= pos[gate.index] for gate in netlist.gates
            if gate.gtype is not GateType.DFF for src in gate.fanin) \
            or netlist._topo_pos not in (None, [pos[i] for i in range(n)]):
        raise InvariantViolation("cached topological order is invalid")
