"""Simulation-guided SAT sweeping: heuristic facts become proofs.

The dataflow layer (:mod:`repro.analyze.dataflow`) derives *structural*
facts — hash-consed equivalence classes, ternary constants, ODC
dominators.  Those are sound but incomplete: two cones can compute the
identical function without sharing a normalized key, and a line can be
constant for reasons no local rewrite exposes.  This module closes the
gap with the classic SAT-sweeping loop used by AIG packages and
SAT-based model-based-diagnosis systems:

1. the combinational core is Tseitin-encoded **once** per netlist
   snapshot (one CNF variable per signal; primary inputs and DFF outputs
   are free *cut* variables), cached inside :class:`NetlistFacts` and
   dropped by :meth:`Netlist._dirty` with every other derived structure;
2. candidate equivalences are seeded from the structural hash classes
   (pre-merged at zero solver cost — hash consing is a proof already)
   plus *random-simulation signatures*: bit-parallel rows over the cut
   points; two signals are candidates only while their signatures match
   up to complement;
3. every candidate merge becomes an XOR-miter query under a per-query
   conflict budget.  UNSAT promotes the pair to a proven equivalence or
   antivalence (proven constant against 0/1 for the constant
   candidates); SAT yields a counterexample cut assignment that is
   *harvested* back into the signatures, splitting every class it
   distinguishes before the next query; a budget-exhausted query is
   recorded as UNKNOWN — never silently dropped.

Every answer is a three-valued :class:`Verdict` (``PROVEN`` / ``REFUTED``
/ ``UNKNOWN``) carrying the refuting counterexample when one exists and
the solver conflicts spent on the query.

Consumers: the ``prove`` lint rule group
(:mod:`repro.analyze.rules_prove`), the diagnosis candidate dedup pass
(:mod:`repro.diagnose.dedup`), the ``repro prove`` CLI subcommand and
the SAT-backed distinguishing-vector generator in
:mod:`repro.tgen.distinguish`.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.gatetypes import GateType, MULTI_INPUT_TYPES, eval_row
from ..circuit.miter import build_miter
from ..circuit.netlist import Netlist
from ..errors import SimulationError
from ..sat.cnf import CnfBuilder
from ..sat.solver import SatSolver

__all__ = [
    "ProofStatus", "Verdict", "ProvenConstant", "SweepStats",
    "SweepResult", "Prover", "prove_equivalent",
    "DEFAULT_CONFLICT_BUDGET", "DEFAULT_VECTORS",
]

#: Conflicts one query may spend before it is declared UNKNOWN.
DEFAULT_CONFLICT_BUDGET = 20_000

#: Random signature vectors seeded before the first query.
DEFAULT_VECTORS = 128

#: Cut gate types: their CNF variables are left unconstrained.
_CUT_TYPES = (GateType.INPUT, GateType.DFF)


class ProofStatus(enum.Enum):
    """Outcome of one budgeted proof obligation."""

    PROVEN = "proven"      # UNSAT miter: holds on every input vector
    REFUTED = "refuted"    # counterexample in hand
    UNKNOWN = "unknown"    # conflict budget exhausted; undecided

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Verdict:
    """One three-valued answer with its evidence and its cost.

    Attributes:
        status: proven / refuted / unknown.
        counterexample: for REFUTED verdicts, one 0/1 value per cut
            signal (:attr:`Prover.cut_signals` order — primary inputs
            first, so on a combinational netlist this *is* an input
            vector); ``None`` otherwise.
        conflicts: solver conflicts this query spent (0 when random
            simulation alone refuted the obligation).
    """

    status: ProofStatus
    counterexample: Optional[Tuple[int, ...]] = None
    conflicts: int = 0

    def to_dict(self) -> dict:
        out: dict = {"status": str(self.status),
                     "conflicts": self.conflicts}
        if self.counterexample is not None:
            out["counterexample"] = list(self.counterexample)
        return out


@dataclass(frozen=True)
class ProvenConstant:
    """A line proven constant, with the analysis that proved it.

    ``proof`` is ``"sat-sweep"`` for solver-established constants, or
    the dataflow provenance (``"ternary-propagation"`` /
    ``"implication-contradiction"`` / ``"structural-hash"``) when the
    heuristic layer had already proven the value and no query was spent.
    """

    value: int
    proof: str
    verdict: Verdict


@dataclass
class SweepStats:
    """Effort accounting of one sweep — no silent caps anywhere."""

    queries: int = 0             # SAT queries issued
    proven: int = 0              # queries answered UNSAT (fact proven)
    refuted: int = 0             # queries answered SAT (counterexample)
    unknown: int = 0             # queries that exhausted their budget
    sim_refuted: int = 0         # obligations killed by signatures alone
    structural_merges: int = 0   # classes pre-merged from hash consing
    counterexamples: int = 0     # vectors harvested into the signatures
    conflicts: int = 0           # total solver conflicts spent
    time_s: float = 0.0
    solver: dict = field(default_factory=dict)  # SolverStats snapshot

    def to_dict(self) -> dict:
        return {
            "queries": self.queries, "proven": self.proven,
            "refuted": self.refuted, "unknown": self.unknown,
            "sim_refuted": self.sim_refuted,
            "structural_merges": self.structural_merges,
            "counterexamples": self.counterexamples,
            "conflicts": self.conflicts, "time_s": self.time_s,
            "solver": dict(self.solver),
        }


@dataclass
class SweepResult:
    """Everything one full sweep established about a netlist.

    Attributes:
        constants: signal -> :class:`ProvenConstant` (heuristic and
            SAT-proven combined, provenance recorded per entry).
        classes: proven equivalence classes with >= 2 members, each a
            list of ``(signal, phase)`` with phase relative to the first
            member (``True`` = antivalent to it); sorted and
            deterministic.
        class_proofs: per class (same order) ``"structural-hash"`` when
            hash consing alone merged it, ``"sat-sweep"`` when at least
            one member needed the solver.
        refuted_pairs / unknown_pairs: candidate merges that failed or
            ran out of budget, as ``(a, b, phase, verdict)``.
        refuted_constants / unknown_constants: constant candidates that
            failed or ran out of budget, as ``(signal, value, verdict)``.
        stats: the sweep's :class:`SweepStats`.
    """

    constants: Dict[int, ProvenConstant]
    classes: List[List[Tuple[int, bool]]]
    class_proofs: List[str]
    refuted_pairs: List[Tuple[int, int, bool, Verdict]]
    unknown_pairs: List[Tuple[int, int, bool, Verdict]]
    refuted_constants: List[Tuple[int, int, Verdict]]
    unknown_constants: List[Tuple[int, int, Verdict]]
    stats: SweepStats


# ----------------------------------------------------------------------
# phase-aware union-find
# ----------------------------------------------------------------------
class _PhaseUnionFind:
    """Union-find over signals where edges carry a complement phase."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._phase: Dict[int, bool] = {}

    def find(self, x: int) -> Tuple[int, bool]:
        """Root of ``x`` and x's phase relative to it."""
        if self._parent.setdefault(x, x) == x:
            self._phase.setdefault(x, False)
            return x, False
        chain: List[int] = []
        node = x
        while self._parent[node] != node:
            chain.append(node)
            node = self._parent[node]
        root = node
        acc = False
        for node in reversed(chain):
            acc ^= self._phase[node]
            self._parent[node] = root
            self._phase[node] = acc
        return root, acc

    def union(self, a: int, b: int, phase: bool) -> bool:
        """Record ``a == b ^ phase``; False on phase inconsistency."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return (pa ^ pb) == phase
        self._parent[rb] = ra
        self._phase[rb] = pa ^ phase ^ pb
        return True

    def same(self, a: int, b: int) -> bool:
        return self.find(a)[0] == self.find(b)[0]

    def groups(self) -> List[List[Tuple[int, bool]]]:
        """Classes with >= 2 members, phases relative to the smallest
        member, sorted for determinism."""
        by_root: Dict[int, List[Tuple[int, bool]]] = {}
        for x in sorted(self._parent):
            root, phase = self.find(x)
            by_root.setdefault(root, []).append((x, phase))
        out: List[List[Tuple[int, bool]]] = []
        for members in by_root.values():
            if len(members) < 2:
                continue
            members.sort()
            base = members[0][1]
            out.append([(sig, phase ^ base) for sig, phase in members])
        out.sort()
        return out


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class Prover:
    """Budgeted SAT proofs over one (acyclic) netlist snapshot.

    The CNF encoding, signature rows and union-find survive across
    queries, so every call refines the same incremental state: proofs
    merge classes, counterexamples split them.  Obtain a cached instance
    through :meth:`NetlistFacts.prover` so the state is invalidated with
    the netlist's other derived structures; standalone construction is
    fine for one-shot checks (see :func:`prove_equivalent`).

    Raises :class:`~repro.errors.NetlistError` on combinational cycles
    (the lint driver never reaches the prove rules on those: comb-loop
    is a semantic ERROR and later groups are gated on error-free runs).
    """

    def __init__(self, netlist: Netlist, facts=None,
                 conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
                 nvectors: int = DEFAULT_VECTORS, seed: int = 0):
        self.netlist = netlist
        self.conflict_budget = conflict_budget
        self.stats = SweepStats()
        self._topo = list(netlist.topo_order())
        self._topo_pos = {idx: pos for pos, idx in enumerate(self._topo)}
        #: Free variables of the combinational core: primary inputs in
        #: netlist order, then DFF outputs — a counterexample is one 0/1
        #: value per entry, in this order.
        self.cut_signals: List[int] = list(netlist.inputs) + sorted(
            g.index for g in netlist.gates if g.gtype is GateType.DFF)
        self._builder = CnfBuilder(SatSolver())
        self.var: Dict[int, int] = {
            idx: self._builder.new_var() for idx in self._topo}
        for idx in self._topo:
            gate = netlist.gates[idx]
            if gate.gtype in _CUT_TYPES:
                continue
            self._builder.encode_gate(
                gate.gtype, self.var[idx],
                [self.var[src] for src in gate.fanin])
        # -- simulation signatures ------------------------------------
        self._rng = random.Random(seed)
        self._nbits = 0
        self._rows: List[int] = [0] * len(netlist.gates)
        self._cex: List[Tuple[int, ...]] = []
        self._add_random_patterns(max(1, nvectors))
        # -- heuristic seeding ----------------------------------------
        self._uf = _PhaseUnionFind()
        self._merge_kinds: List[Tuple[int, int, str]] = []
        self._known_constants: Dict[int, int] = {}
        self._facts = facts
        if facts is not None:
            self._known_constants = dict(facts.known_constants(deep=True))
            self._seed_structural(facts)
        # -- query memos ----------------------------------------------
        self._xor_vars: Dict[Tuple[int, int], int] = {}
        self._reduced_vars: Dict[Tuple[int, int], int] = {}
        self._pair_verdicts: Dict[Tuple[int, int, bool], Verdict] = {}
        self._const_verdicts: Dict[int, Tuple[int, Verdict]] = {}
        self._swept: Optional[SweepResult] = None

    # -- signatures ----------------------------------------------------
    @property
    def mask(self) -> int:
        return (1 << self._nbits) - 1

    @property
    def counterexamples(self) -> List[Tuple[int, ...]]:
        """Cut assignments harvested from SAT answers, discovery order."""
        return list(self._cex)

    def _add_random_patterns(self, count: int) -> None:
        for cut in self.cut_signals:
            self._rows[cut] |= self._rng.getrandbits(count) << self._nbits
        self._nbits += count
        self._resimulate()

    def _resimulate(self) -> None:
        mask = self.mask
        rows = self._rows
        gates = self.netlist.gates
        for idx in self._topo:
            gate = gates[idx]
            if gate.gtype in _CUT_TYPES:
                rows[idx] &= mask
                continue
            rows[idx] = eval_row(
                gate.gtype, [rows[src] for src in gate.fanin], mask)

    def _harvest(self, model: dict) -> Tuple[int, ...]:
        """Append one counterexample column and refresh every row."""
        bit = self._nbits
        values = []
        for cut in self.cut_signals:
            value = 1 if model.get(self.var[cut]) else 0
            values.append(value)
            self._rows[cut] |= value << bit
        self._nbits += 1
        self._resimulate()
        vector = tuple(values)
        self._cex.append(vector)
        self.stats.counterexamples += 1
        return vector

    def _cut_vector(self, bit: int) -> Tuple[int, ...]:
        """The cut assignment stored at signature column ``bit``."""
        return tuple((self._rows[cut] >> bit) & 1
                     for cut in self.cut_signals)

    def _sim_refuted(self, diff: int) -> Verdict:
        """REFUTED verdict from a nonzero signature difference row."""
        bit = (diff & -diff).bit_length() - 1
        self.stats.sim_refuted += 1
        return Verdict(ProofStatus.REFUTED, self._cut_vector(bit), 0)

    # -- structural seeding --------------------------------------------
    def _seed_structural(self, facts) -> None:
        """Pre-merge hash-consed classes: proofs at zero solver cost."""
        by_class: Dict[int, List[Tuple[int, bool]]] = {}
        for idx, (cls, neg) in enumerate(facts.literals()):
            if cls == 0 or idx in self._known_constants:
                continue  # constants are handled by the constant facts
            by_class.setdefault(cls, []).append((idx, neg))
        for members in by_class.values():
            if len(members) < 2:
                continue
            rep, rep_neg = members[0]
            for sig, neg in members[1:]:
                if self._uf.union(rep, sig, rep_neg ^ neg):
                    self.stats.structural_merges += 1
                    self._merge_kinds.append((rep, sig,
                                              "structural-hash"))

    # -- the budgeted queries ------------------------------------------
    def _query(self, assumptions: List[int]) -> Tuple[Optional[bool], int]:
        solver = self._builder.solver
        before = solver.stats.conflicts
        answer = solver.solve(assumptions,
                              conflict_limit=self.conflict_budget)
        spent = solver.stats.conflicts - before
        self.stats.queries += 1
        self.stats.conflicts += spent
        return answer, spent

    def _finish(self, answer: Optional[bool], spent: int) -> Verdict:
        if answer is False:
            self.stats.proven += 1
            return Verdict(ProofStatus.PROVEN, None, spent)
        if answer is None:
            self.stats.unknown += 1
            return Verdict(ProofStatus.UNKNOWN, None, spent)
        self.stats.refuted += 1
        vector = self._harvest(self._builder.solver.model())
        return Verdict(ProofStatus.REFUTED, vector, spent)

    def prove_constant(self, signal: int, value: int) -> Verdict:
        """Is ``signal`` equal to ``value`` on every cut assignment?"""
        diff = (self._rows[signal] ^ (self.mask if value else 0)) \
            & self.mask
        if diff:
            return self._sim_refuted(diff)
        lit = self.var[signal] if value == 0 else -self.var[signal]
        answer, spent = self._query([lit])
        return self._finish(answer, spent)

    def _xor_var(self, a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        var = self._xor_vars.get(key)
        if var is None:
            var = self._builder.new_var()
            self._builder._xor2(var, self.var[key[0]], self.var[key[1]])
            self._xor_vars[key] = var
        return var

    def prove_equal(self, a: int, b: int, phase: bool = False) -> Verdict:
        """Is ``a == b`` (``a == NOT b`` when ``phase``) everywhere?

        The XOR miter variable is created once per pair and serves both
        phases: UNSAT under assumption ``xor`` proves equivalence, UNSAT
        under ``-xor`` proves antivalence.
        """
        if a == b:
            return Verdict(ProofStatus.REFUTED if phase
                           else ProofStatus.PROVEN, None, 0)
        diff = (self._rows[a] ^ self._rows[b]
                ^ (self.mask if phase else 0)) & self.mask
        if diff:
            return self._sim_refuted(diff)
        xor = self._xor_var(a, b)
        answer, spent = self._query([-xor] if phase else [xor])
        return self._finish(answer, spent)

    def prove_pin_redundant(self, gate_index: int, pin: int) -> Verdict:
        """Does dropping fanin ``pin`` leave the gate's function intact?

        Only meaningful for multi-input gates with >= 2 fanins; the
        reduced function (same type, one pin removed) is encoded lazily
        and compared against the gate's own variable.
        """
        gate = self.netlist.gates[gate_index]
        if (gate.gtype not in MULTI_INPUT_TYPES
                or len(gate.fanin) < 2
                or not 0 <= pin < len(gate.fanin)):
            raise SimulationError(
                f"gate {gate.name!r} has no droppable pin {pin}")
        reduced = [src for p, src in enumerate(gate.fanin) if p != pin]
        row = eval_row(gate.gtype, [self._rows[s] for s in reduced],
                        self.mask)
        diff = (row ^ self._rows[gate_index]) & self.mask
        if diff:
            return self._sim_refuted(diff)
        key = (gate_index, pin)
        var = self._reduced_vars.get(key)
        if var is None:
            var = self._builder.new_var()
            self._builder.encode_gate(gate.gtype, var,
                                      [self.var[s] for s in reduced])
            self._reduced_vars[key] = var
        xor = self._builder.new_var()
        self._builder._xor2(xor, self.var[gate_index], var)
        answer, spent = self._query([xor])
        return self._finish(answer, spent)

    # -- the sweep -----------------------------------------------------
    def _constant_provenance(self, signal: int) -> str:
        facts = self._facts
        if facts is None:
            return "sat-sweep"
        if signal in facts.constants():
            return "ternary-propagation"
        if signal in facts.implications().implied_constants:
            return "implication-contradiction"
        if signal in facts.structural_constants():
            return "structural-hash"
        return "sat-sweep"

    def _candidates(self) -> Tuple[List[Tuple[int, int]],
                                   List[List[Tuple[int, bool]]]]:
        """Constant and merge candidates from the current signatures."""
        mask = self.mask
        constants: List[Tuple[int, int]] = []
        groups: Dict[int, List[Tuple[int, bool]]] = {}
        for gate in self.netlist.gates:
            idx = gate.index
            if gate.gtype in (GateType.CONST0, GateType.CONST1):
                continue
            row = self._rows[idx] & mask
            if idx in self._known_constants:
                continue
            if row == 0 or row == mask:
                if gate.gtype not in _CUT_TYPES:
                    constants.append((idx, 0 if row == 0 else 1))
                continue
            if row & 1:
                groups.setdefault(row ^ mask, []).append((idx, True))
            else:
                groups.setdefault(row, []).append((idx, False))
        merge = [sorted(members, key=lambda m: self._topo_pos[m[0]])
                 for members in groups.values() if len(members) >= 2]
        merge.sort(key=lambda members: members[0])
        return constants, merge

    def sweep(self, force: bool = False) -> SweepResult:
        """Run the refinement loop to quiescence and report everything.

        The result is cached (the netlist cannot change under a live
        Prover: :class:`NetlistFacts` drops the whole bundle on
        mutation); ``force`` recomputes, reusing every memoized verdict.
        """
        if self._swept is not None and not force:
            return self._swept
        t0 = time.perf_counter()
        refuted_pairs: List[Tuple[int, int, bool, Verdict]] = []
        unknown_pairs: List[Tuple[int, int, bool, Verdict]] = []
        refuted_consts: List[Tuple[int, int, Verdict]] = []
        unknown_consts: List[Tuple[int, int, Verdict]] = []
        proven_consts: Dict[int, ProvenConstant] = {
            sig: ProvenConstant(val, self._constant_provenance(sig),
                                Verdict(ProofStatus.PROVEN, None, 0))
            for sig, val in sorted(self._known_constants.items())}
        restart = True
        while restart:
            restart = False
            const_cands, merge_cands = self._candidates()
            for signal, value in const_cands:
                if signal in self._const_verdicts:
                    continue
                verdict = self.prove_constant(signal, value)
                self._const_verdicts[signal] = (value, verdict)
                if verdict.status is ProofStatus.PROVEN:
                    proven_consts[signal] = ProvenConstant(
                        value, "sat-sweep", verdict)
                elif verdict.status is ProofStatus.UNKNOWN:
                    unknown_consts.append((signal, value, verdict))
                else:
                    refuted_consts.append((signal, value, verdict))
                    restart = True
                    break
            if restart:
                continue
            for members in merge_cands:
                rep, rep_phase = members[0]
                for sig, sig_phase in members[1:]:
                    if self._uf.same(rep, sig):
                        continue
                    phase = rep_phase ^ sig_phase
                    key = (min(rep, sig), max(rep, sig), phase)
                    if key in self._pair_verdicts:
                        continue
                    verdict = self.prove_equal(rep, sig, phase)
                    self._pair_verdicts[key] = verdict
                    if verdict.status is ProofStatus.PROVEN:
                        self._uf.union(rep, sig, phase)
                        self._merge_kinds.append((rep, sig, "sat-sweep"))
                    elif verdict.status is ProofStatus.UNKNOWN:
                        unknown_pairs.append((rep, sig, phase, verdict))
                    else:
                        refuted_pairs.append((rep, sig, phase, verdict))
                        restart = True
                        break
                if restart:
                    break
        classes = self._uf.groups()
        class_proofs = []
        for members in classes:
            signals = {sig for sig, _phase in members}
            proof = "structural-hash"
            for a, b, kind in self._merge_kinds:
                if kind == "sat-sweep" and a in signals and b in signals:
                    proof = "sat-sweep"
                    break
            class_proofs.append(proof)
        self.stats.time_s += time.perf_counter() - t0
        self.stats.solver = self._builder.solver.stats.to_dict()
        self._swept = SweepResult(
            constants=proven_consts, classes=classes,
            class_proofs=class_proofs,
            refuted_pairs=sorted(refuted_pairs,
                                 key=lambda r: (r[0], r[1], r[2])),
            unknown_pairs=sorted(unknown_pairs,
                                 key=lambda r: (r[0], r[1], r[2])),
            refuted_constants=sorted(refuted_consts,
                                     key=lambda r: (r[0], r[1])),
            unknown_constants=sorted(unknown_consts,
                                     key=lambda r: (r[0], r[1])),
            stats=self.stats)
        return self._swept

    # -- exports -------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Current effort accounting with a fresh solver-stats view."""
        self.stats.solver = self._builder.solver.stats.to_dict()
        return self.stats.to_dict()

    def distinguishing_patterns(self):
        """Harvested counterexamples as a simulatable pattern set.

        Each SAT counterexample is, by construction, a vector on which
        two near-equivalent cones disagree — exactly the distinguishing
        stimulus :mod:`repro.tgen.distinguish` hunts for.  Only defined
        for combinational netlists, where the cut points are precisely
        the primary inputs.
        """
        from ..sim.packing import PatternSet

        if not self.netlist.is_combinational:
            raise SimulationError(
                "distinguishing patterns need a combinational netlist "
                "(full-scan sequential designs first)")
        if not self._cex:
            import numpy as np
            return PatternSet(
                np.zeros((len(self.cut_signals), 0), dtype=np.uint64), 0)
        return PatternSet.from_vectors(self._cex)


def prove_equivalent(a: Netlist, b: Netlist,
                     conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
                     nvectors: int = 64, seed: int = 0) -> Verdict:
    """Budgeted combinational equivalence check of two netlists.

    Builds the full miter (shared inputs, XOR per output pair, OR of the
    XORs) and asks whether its output can ever be 1.  PROVEN means the
    netlists agree on every input vector; a REFUTED verdict carries the
    distinguishing input vector (miter inputs == the shared primary
    inputs, positionally matched); UNKNOWN means the conflict budget ran
    out first.
    """
    miter = build_miter(a, b)
    prover = Prover(miter, conflict_budget=conflict_budget,
                    nvectors=nvectors, seed=seed)
    return prover.prove_constant(miter.outputs[0], 0)
