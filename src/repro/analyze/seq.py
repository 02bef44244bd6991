"""Sequential static analysis: reset fixpoint + k-induction correspondence.

Every analysis in :mod:`repro.analyze.dataflow` and
:mod:`repro.analyze.prove` stops dead at flip-flop boundaries: DFF
outputs are free cut points, so a register stuck at its reset value, a
redundant state bit or a cross-frame equivalence is invisible to both
the lint rules and the diagnosis pre-screen.  This module closes that
gap with two cooperating engines:

* :func:`reset_fixpoint` — a **reset-state ternary fixpoint**.  The
  per-DFF state lattice ``{0, 1, X}`` is seeded from the initial state
  and the existing combinational constant propagation
  (:class:`~repro.analyze.dataflow.TernaryConstants` with the new
  ``assume`` hook) is iterated across time frames; a register whose
  computed next-state value disagrees with its current state value is
  *widened* to X, so the iteration only descends and terminates after at
  most ``#DFFs + 1`` sweeps.  The stable state map is an inductive
  invariant from reset: every non-X signal of the final sweep holds its
  value at **every cycle** under **arbitrary inputs** (primary inputs
  stay X throughout), which is exactly what "sequentially constant" and
  "stuck register" mean.

* :class:`SeqProver` — SAT-backed **k-induction register/signal
  correspondence** in the style of ABC's ``scorr``.  Candidate
  equivalence classes are seeded from bit-parallel random simulation
  *from reset* (per-frame big-int rows via
  :func:`repro.analyze.prove.eval_row`; a signature is the tuple of
  per-frame rows, normalized up to complement).  Each candidate then
  faces two budgeted proof obligations over
  :func:`repro.circuit.unroll.unroll`-built models reusing the PR 4
  Tseitin encoding:

  - **base**: unroll ``k`` frames from the reset state and prove the
    candidate at every frame ``0..k-1``.  A SAT answer here is a
    concrete input sequence from reset — a genuine counterexample — so
    the candidate is ``REFUTED`` with the decoded :class:`SeqTrace`
    attached;
  - **step**: unroll ``k+1`` frames with a *free* initial state, assume
    **all** surviving candidates at frames ``0..k-1`` (plus the reset
    fixpoint's stuck-register values, which are globally invariant, at
    every frame) and prove the candidate at frame ``k``.  A SAT answer
    here may start from an unreachable state, so it only demotes the
    candidate to ``UNKNOWN`` — never ``REFUTED`` — and, because the
    dropped candidate was an assumption for its peers, the step loop
    restarts until a full pass survives intact.

  The survivors are simultaneously inductive, hence all ``PROVEN``
  (classic strengthening argument: base gives cycles ``0..k-1``;
  induction over ``T`` extends every candidate from cycles
  ``T..T+k-1`` to ``T+k`` at once).

Consumers: the ``seq`` lint group (:mod:`repro.analyze.rules_seq`), the
sequential diagnosis pre-screen (:func:`seq_masked_signals`, driven by
``DiagnosisConfig(seq_prescreen=True)``), the ``repro facts --seq``
digest and the ``seq`` suite of ``benchmarks/harness.py``.  Instances
are cached on :class:`~repro.analyze.dataflow.NetlistFacts`
(``reset_fixpoint`` / ``seq_prover``) and dropped by
:meth:`Netlist._dirty`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.gatetypes import GateType, eval_ternary
from ..circuit.netlist import Netlist
from ..circuit.sequential import full_scan, normalize_initial_state
from ..circuit.unroll import unroll
from ..sat.cnf import CnfBuilder
from ..sat.solver import SatSolver
from .prove import ProofStatus, Prover, _PhaseUnionFind, eval_row

__all__ = [
    "ResetFixpoint", "reset_fixpoint", "SeqTrace", "SeqVerdict",
    "SeqConstant", "SeqStats", "SeqSweepResult", "SeqProver",
    "replay_trace", "seq_masked_signals",
    "DEFAULT_INDUCTION_K", "DEFAULT_SEQ_BUDGET", "DEFAULT_SEQ_VECTORS",
]

#: Induction depth used when the caller does not pick one.
DEFAULT_INDUCTION_K = 2

#: Conflicts one base/step query may spend before UNKNOWN.
DEFAULT_SEQ_BUDGET = 20_000

#: Random stimulus sequences simulated to seed candidate classes.
DEFAULT_SEQ_VECTORS = 64


# ----------------------------------------------------------------------
# the reset-state ternary fixpoint
# ----------------------------------------------------------------------
@dataclass
class ResetFixpoint:
    """Stable result of iterating ternary propagation across frames.

    Attributes:
        state: per-DFF inductive state value (``None`` = X); non-X
            entries are registers provably holding that value at every
            cycle from reset.
        values: one ternary value per gate from the final sweep — every
            non-X entry holds at every cycle under arbitrary inputs.
        constants: the non-X entries of ``values`` as a dict (includes
            the purely combinational constants).
        stuck_registers: the non-X entries of ``state``.
        iterations: dataflow sweeps until stability (bounded by
            ``#DFFs + 1``).
    """

    state: Dict[int, Optional[int]]
    values: List[Optional[int]]
    constants: Dict[int, int]
    stuck_registers: Dict[int, int]
    iterations: int


def widen_state(gates, state, values):
    """One widening step of the reset fixpoint: any register whose
    computed next state (its fanin's value in ``values``) disagrees
    with its assumed value descends to X.  Shared with the incremental
    warm-start so both paths widen identically."""
    return {
        dff: (value if value == values[gates[dff].fanin[0]]
              else None)
        for dff, value in state.items()}


def reset_fixpoint(netlist: Netlist,
                   initial_state=0) -> ResetFixpoint:
    """Greatest inductive ternary invariant of ``netlist`` from reset.

    Iterates :class:`~repro.analyze.dataflow.TernaryConstants` with the
    current state map assumed on the DFF outputs; any register whose
    computed next state disagrees with its assumed value is widened to
    X and the sweep repeats.  The state lattice only descends
    (``0``/``1`` → X, never back), so at most ``#DFFs + 1`` sweeps run.

    Soundness: the returned ``state`` satisfies *(i)* it holds at cycle
    0 (it only weakens the initial state) and *(ii)* assuming it at
    cycle ``t`` forces it at cycle ``t+1`` (that is the stability
    condition), so by induction it holds at every cycle; the final
    sweep's non-X signal values follow from the state assumption alone
    — primary inputs stay X — hence hold at every cycle under
    arbitrary stimulus.
    """
    from .dataflow import TernaryConstants, run_dataflow

    state = normalize_initial_state(netlist, initial_state)
    gates = netlist.gates
    iterations = 0
    while True:
        iterations += 1
        values = run_dataflow(netlist, TernaryConstants(assume=state))
        new_state = widen_state(gates, state, values)
        if new_state == state:
            break
        state = new_state
    return ResetFixpoint(
        state=state, values=values,
        constants={i: v for i, v in enumerate(values) if v is not None},
        stuck_registers={d: v for d, v in sorted(state.items())
                         if v is not None},
        iterations=iterations)


# ----------------------------------------------------------------------
# verdicts, traces, stats
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeqTrace:
    """A concrete input sequence from reset refuting a candidate.

    Attributes:
        initial: ``((dff_index, value), ...)`` — the fully resolved
            reset state (X entries of the configured initial state get
            the counterexample's chosen bit).
        inputs: per-frame primary-input vectors in ``netlist.inputs``
            order.
        frame: first frame at which the violated property is visible.
    """

    initial: Tuple[Tuple[int, int], ...]
    inputs: Tuple[Tuple[int, ...], ...]
    frame: int

    def to_dict(self) -> dict:
        return {"initial": [list(pair) for pair in self.initial],
                "inputs": [list(cycle) for cycle in self.inputs],
                "frame": self.frame}


@dataclass(frozen=True)
class SeqVerdict:
    """One three-valued sequential answer with evidence and cost.

    ``REFUTED`` always carries a :class:`SeqTrace` (base-case or
    simulation counterexamples only — an induction-step SAT answer may
    start from an unreachable state and is reported ``UNKNOWN``).
    """

    status: ProofStatus
    trace: Optional[SeqTrace] = None
    conflicts: int = 0

    def to_dict(self) -> dict:
        out: dict = {"status": str(self.status),
                     "conflicts": self.conflicts}
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        return out


@dataclass(frozen=True)
class SeqConstant:
    """A signal proven sequentially constant, with its provenance.

    ``proof`` is ``"reset-fixpoint"`` when the ternary fixpoint alone
    established the value (``"ternary-propagation"`` when even the
    state assumption was unnecessary), or ``"k-induction"`` for
    SAT-proven constants the fixpoint cannot see.
    """

    value: int
    proof: str
    verdict: SeqVerdict


@dataclass
class SeqStats:
    """Effort accounting of one sequential sweep — no silent caps."""

    k: int = 0
    sim_frames: int = 0
    fixpoint_iterations: int = 0
    constant_candidates: int = 0
    pair_candidates: int = 0
    base_queries: int = 0
    step_queries: int = 0
    proven: int = 0
    refuted: int = 0
    unknown: int = 0
    step_restarts: int = 0
    conflicts: int = 0
    time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "k": self.k, "sim_frames": self.sim_frames,
            "fixpoint_iterations": self.fixpoint_iterations,
            "constant_candidates": self.constant_candidates,
            "pair_candidates": self.pair_candidates,
            "base_queries": self.base_queries,
            "step_queries": self.step_queries,
            "proven": self.proven, "refuted": self.refuted,
            "unknown": self.unknown,
            "step_restarts": self.step_restarts,
            "conflicts": self.conflicts, "time_s": self.time_s,
        }


@dataclass
class SeqSweepResult:
    """Everything one sequential sweep established about a netlist.

    Attributes:
        k: induction depth used.
        fixpoint: the :class:`ResetFixpoint` (its constants are folded
            into ``constants`` with provenance ``"reset-fixpoint"``).
        constants: signal -> :class:`SeqConstant`, every entry proven
            to hold at every cycle from reset.
        classes: proven correspondence classes with >= 2 members, each
            a list of ``(signal, phase)`` with phase relative to the
            first member (``True`` = antivalent); members agree at
            every cycle from reset.
        refuted_constants / refuted_pairs: candidates killed by a
            concrete reset trace, verdicts carrying the
            :class:`SeqTrace`.
        unknown_constants / unknown_pairs: candidates whose base query
            ran out of budget or whose induction step failed (possibly
            from an unreachable state) — undecided, never dropped
            silently.
        stats: the sweep's :class:`SeqStats`.
    """

    k: int
    fixpoint: ResetFixpoint
    constants: Dict[int, SeqConstant]
    classes: List[List[Tuple[int, bool]]]
    refuted_constants: List[Tuple[int, int, SeqVerdict]]
    unknown_constants: List[Tuple[int, int, SeqVerdict]]
    refuted_pairs: List[Tuple[int, int, bool, SeqVerdict]]
    unknown_pairs: List[Tuple[int, int, bool, SeqVerdict]]
    stats: SeqStats = field(default_factory=SeqStats)

    def stuck_registers(self, netlist: Netlist) -> Dict[int, SeqConstant]:
        """The proven-constant DFF outputs (stuck registers)."""
        return {i: c for i, c in self.constants.items()
                if netlist.gates[i].gtype is GateType.DFF}


# ----------------------------------------------------------------------
# trace replay (the test oracle for REFUTED verdicts)
# ----------------------------------------------------------------------
def replay_trace(netlist: Netlist, trace: SeqTrace) -> List[List[int]]:
    """Cycle-accurate replay of a :class:`SeqTrace`.

    Returns one fully-resolved value list per frame (indexed by gate),
    so a test can check the violated property directly at
    ``trace.frame`` — e.g. that a REFUTED constant candidate really
    does take the other value there.
    """
    gates = netlist.gates
    order = list(netlist.topo_order())
    state: Dict[int, int] = dict(trace.initial)
    frames: List[List[int]] = []
    for cycle in trace.inputs:
        pi_values = dict(zip(netlist.inputs, cycle))
        values: List[Optional[int]] = [None] * len(gates)
        for idx in order:
            gate = gates[idx]
            if gate.gtype is GateType.INPUT:
                values[idx] = int(pi_values[idx])
            elif gate.gtype is GateType.DFF:
                values[idx] = state[idx]
            else:
                values[idx] = eval_ternary(
                    gate.gtype, [values[src] for src in gate.fanin])
        state = {dff: values[gates[dff].fanin[0]] for dff in state}
        frames.append(values)  # type: ignore[arg-type]
    return frames  # type: ignore[return-value]


# ----------------------------------------------------------------------
# the k-induction engine
# ----------------------------------------------------------------------
class SeqProver:
    """Budgeted k-induction proofs over one sequential netlist snapshot.

    Obtain a cached instance through
    :meth:`NetlistFacts.seq_prover <repro.analyze.dataflow.NetlistFacts.seq_prover>`
    so its unrolled encodings die with the netlist's other derived
    structures; standalone construction is fine for one-shot sweeps.

    Raises :class:`~repro.errors.NetlistError` on combinational cycles
    (unrolling needs a topological order; the lint driver never reaches
    the seq rules on those — comb-loop is a semantic ERROR and later
    groups are gated on error-free runs).
    """

    def __init__(self, netlist: Netlist, facts=None,
                 k: int = DEFAULT_INDUCTION_K,
                 conflict_budget: int = DEFAULT_SEQ_BUDGET,
                 nvectors: int = DEFAULT_SEQ_VECTORS, seed: int = 0,
                 initial_state=0, sim_frames: Optional[int] = None):
        if k < 1:
            raise ValueError("induction depth k must be >= 1")
        self.netlist = netlist
        self.k = k
        self.conflict_budget = conflict_budget
        self.init = normalize_initial_state(netlist, initial_state)
        self.stats = SeqStats(k=k)
        self._facts = facts
        if facts is not None:
            self.fixpoint = facts.reset_fixpoint(self.init)
        else:
            self.fixpoint = reset_fixpoint(netlist, self.init)
        self.stats.fixpoint_iterations = self.fixpoint.iterations
        # -- base model: k frames from reset --------------------------
        self._base_model, self._base_umap = unroll(
            netlist, k, initial_state=self.init,
            name=f"{netlist.name}_base{k}")
        self._base_prover = Prover(
            self._base_model, conflict_budget=conflict_budget,
            nvectors=max(1, nvectors), seed=seed)
        # -- step model: k+1 frames, free initial state ----------------
        self._step_model, self._step_umap = unroll(
            netlist, k + 1, initial_state=None,
            name=f"{netlist.name}_step{k}")
        self._step_builder = CnfBuilder(SatSolver())
        self._step_var: Dict[int, int] = {}
        for idx in self._step_model.topo_order():
            self._step_var[idx] = self._step_builder.new_var()
        for idx in self._step_model.topo_order():
            gate = self._step_model.gates[idx]
            if gate.gtype is GateType.INPUT:
                continue
            self._step_builder.encode_gate(
                gate.gtype, self._step_var[idx],
                [self._step_var[src] for src in gate.fanin])
        self._step_xor: Dict[Tuple[int, int], int] = {}
        # -- sequential signatures from reset --------------------------
        self._rng = random.Random(seed)
        self.sim_frames = (sim_frames if sim_frames is not None
                           else max(k + 1, 4))
        self.stats.sim_frames = self.sim_frames
        self._nbits = max(1, nvectors)
        self._sim_rows = self._simulate_sequences()
        self._swept: Optional[SeqSweepResult] = None

    # -- sequential bit-parallel simulation ----------------------------
    def _simulate_sequences(self) -> List[List[int]]:
        """Per-frame big-int rows from reset under random stimulus."""
        mask = (1 << self._nbits) - 1
        gates = self.netlist.gates
        order = list(self.netlist.topo_order())
        state_rows = {
            dff: (0 if value == 0 else mask if value == 1
                  else self._rng.getrandbits(self._nbits))
            for dff, value in self.init.items()}
        frames: List[List[int]] = []
        for _t in range(self.sim_frames):
            rows = [0] * len(gates)
            for idx in order:
                gate = gates[idx]
                if gate.gtype is GateType.INPUT:
                    rows[idx] = self._rng.getrandbits(self._nbits)
                elif gate.gtype is GateType.DFF:
                    rows[idx] = state_rows[idx]
                else:
                    rows[idx] = eval_row(
                        gate.gtype,
                        [rows[src] for src in gate.fanin], mask)
            state_rows = {dff: rows[gates[dff].fanin[0]]
                          for dff in state_rows}
            frames.append(rows)
        return frames

    # -- candidate seeding ---------------------------------------------
    def _candidates(self) -> Tuple[List[Tuple[int, int]],
                                   List[Tuple[int, int, bool]]]:
        """Constant and pair candidates from the per-frame signatures.

        A signature is the tuple of a signal's rows at every simulated
        frame, normalized by complementing when the first vector of
        frame 0 reads 1 — so equivalence and antivalence candidates
        land in the same bucket with a relative phase.
        """
        mask = (1 << self._nbits) - 1
        known = self.fixpoint.constants
        constants: List[Tuple[int, int]] = []
        groups: Dict[Tuple[int, ...], List[Tuple[int, bool]]] = {}
        for gate in self.netlist.gates:
            idx = gate.index
            if gate.gtype in (GateType.INPUT, GateType.CONST0,
                              GateType.CONST1):
                continue
            if idx in known:
                continue  # the fixpoint already proved these
            sig = tuple(rows[idx] & mask for rows in self._sim_rows)
            if all(row == 0 for row in sig):
                constants.append((idx, 0))
                continue
            if all(row == mask for row in sig):
                constants.append((idx, 1))
                continue
            if sig[0] & 1:
                sig = tuple(row ^ mask for row in sig)
                phase = True
            else:
                phase = False
            groups.setdefault(sig, []).append((idx, phase))
        pairs: List[Tuple[int, int, bool]] = []
        for members in groups.values():
            if len(members) < 2:
                continue
            members.sort()
            rep, rep_phase = members[0]
            pairs.extend((rep, idx, rep_phase ^ phase)
                         for idx, phase in members[1:])
        pairs.sort()
        return constants, pairs

    # -- base obligations ----------------------------------------------
    def _decode_base_cex(self, cex: Tuple[int, ...],
                         frame: int) -> SeqTrace:
        """Base-model counterexample -> concrete trace from reset.

        The base model is combinational, so the prover's cut signals
        are exactly its primary inputs; ``pi_rows``/``init_rows`` map
        input-list positions back to (frame, PI) and X-reset DFFs.
        """
        umap = self._base_umap
        inputs = tuple(
            tuple(cex[umap.pi_rows[(t, pos)]]
                  for pos in range(self.netlist.num_inputs))
            for t in range(self.k))
        initial = tuple(
            (dff, value if value is not None
             else cex[umap.init_rows[dff]])
            for dff, value in sorted(self.init.items()))
        return SeqTrace(initial, inputs, frame)

    def _base_constant(self, signal: int,
                       value: int) -> Optional[SeqVerdict]:
        """Prove ``signal == value`` at frames 0..k-1 from reset.

        Returns ``None`` when every frame is PROVEN (candidate moves on
        to the induction step), a REFUTED verdict with the decoded
        trace, or an UNKNOWN verdict on budget exhaustion.
        """
        conflicts = 0
        for t in range(self.k):
            inst = self._base_umap.instance[t][signal]
            verdict = self._base_prover.prove_constant(inst, value)
            self.stats.base_queries += 1
            self.stats.conflicts += verdict.conflicts
            conflicts += verdict.conflicts
            if verdict.status is ProofStatus.REFUTED:
                return SeqVerdict(
                    ProofStatus.REFUTED,
                    self._decode_base_cex(verdict.counterexample, t),
                    conflicts)
            if verdict.status is ProofStatus.UNKNOWN:
                return SeqVerdict(ProofStatus.UNKNOWN, None, conflicts)
        return None

    def _base_pair(self, a: int, b: int,
                   phase: bool) -> Optional[SeqVerdict]:
        """Prove ``a == b ^ phase`` at frames 0..k-1 from reset."""
        conflicts = 0
        for t in range(self.k):
            inst = self._base_umap.instance[t]
            verdict = self._base_prover.prove_equal(
                inst[a], inst[b], phase)
            self.stats.base_queries += 1
            self.stats.conflicts += verdict.conflicts
            conflicts += verdict.conflicts
            if verdict.status is ProofStatus.REFUTED:
                return SeqVerdict(
                    ProofStatus.REFUTED,
                    self._decode_base_cex(verdict.counterexample, t),
                    conflicts)
            if verdict.status is ProofStatus.UNKNOWN:
                return SeqVerdict(ProofStatus.UNKNOWN, None, conflicts)
        return None

    # -- step obligations ----------------------------------------------
    def _step_xor_var(self, a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        var = self._step_xor.get(key)
        if var is None:
            var = self._step_builder.new_var()
            self._step_builder._xor2(var, self._step_var[key[0]],
                                     self._step_var[key[1]])
            self._step_xor[key] = var
        return var

    def _assume_constant(self, signal: int, value: int,
                         frame: int) -> int:
        var = self._step_var[self._step_umap.instance[frame][signal]]
        return var if value else -var

    def _assume_pair(self, a: int, b: int, phase: bool,
                     frame: int) -> int:
        inst = self._step_umap.instance[frame]
        xor = self._step_xor_var(inst[a], inst[b])
        return xor if phase else -xor

    def _step_query(self, assumptions: List[int]) -> Tuple[Optional[bool],
                                                           int]:
        solver = self._step_builder.solver
        before = solver.stats.conflicts
        answer = solver.solve(assumptions,
                              conflict_limit=self.conflict_budget)
        spent = solver.stats.conflicts - before
        self.stats.step_queries += 1
        self.stats.conflicts += spent
        return answer, spent

    def _step_pass(self, const_survivors: List[Tuple[int, int]],
                   pair_survivors: List[Tuple[int, int, bool]]
                   ) -> Tuple[set, Dict[object, int]]:
        """One pass of the induction step under mutual assumptions.

        Returns the keys that failed (SAT or budget-out) and the
        conflicts each query spent.  All candidates — plus the globally
        invariant stuck-register values at every frame — are assumed at
        frames 0..k-1; each candidate is then attacked at frame k.
        """
        assumptions: List[int] = []
        for frame in range(self.k + 1):
            for dff, value in self.fixpoint.stuck_registers.items():
                assumptions.append(
                    self._assume_constant(dff, value, frame))
        for frame in range(self.k):
            for signal, value in const_survivors:
                assumptions.append(
                    self._assume_constant(signal, value, frame))
            for a, b, phase in pair_survivors:
                assumptions.append(self._assume_pair(a, b, phase, frame))
        failed: set = set()
        spent_by_key: Dict[object, int] = {}
        for signal, value in const_survivors:
            goal = -self._assume_constant(signal, value, self.k)
            answer, spent = self._step_query(assumptions + [goal])
            spent_by_key[(signal, value)] = spent
            if answer is not False:
                failed.add((signal, value))
        for a, b, phase in pair_survivors:
            goal = -self._assume_pair(a, b, phase, self.k)
            answer, spent = self._step_query(assumptions + [goal])
            spent_by_key[(a, b, phase)] = spent
            if answer is not False:
                failed.add((a, b, phase))
        return failed, spent_by_key

    # -- the sweep -----------------------------------------------------
    def _constant_provenance(self, signal: int) -> str:
        if self._facts is not None:
            if signal in self._facts.constants():
                return "ternary-propagation"
        return "reset-fixpoint"

    def sweep(self, force: bool = False) -> SeqSweepResult:
        """Run base + induction to quiescence and report everything.

        The result is cached (the netlist cannot change under a live
        SeqProver: :class:`NetlistFacts` drops the bundle on mutation);
        ``force`` recomputes from the candidate seeding on.
        """
        if self._swept is not None and not force:
            return self._swept
        t0 = time.perf_counter()
        const_cands, pair_cands = self._candidates()
        self.stats.constant_candidates = len(const_cands)
        self.stats.pair_candidates = len(pair_cands)
        proven: Dict[int, SeqConstant] = {
            sig: SeqConstant(value, self._constant_provenance(sig),
                             SeqVerdict(ProofStatus.PROVEN))
            for sig, value in sorted(self.fixpoint.constants.items())}
        refuted_consts: List[Tuple[int, int, SeqVerdict]] = []
        unknown_consts: List[Tuple[int, int, SeqVerdict]] = []
        refuted_pairs: List[Tuple[int, int, bool, SeqVerdict]] = []
        unknown_pairs: List[Tuple[int, int, bool, SeqVerdict]] = []
        # -- base: refute from reset or establish frames 0..k-1 --------
        const_survivors: List[Tuple[int, int]] = []
        base_conflicts: Dict[object, int] = {}
        for signal, value in const_cands:
            verdict = self._base_constant(signal, value)
            if verdict is None:
                const_survivors.append((signal, value))
                base_conflicts[(signal, value)] = 0
            elif verdict.status is ProofStatus.REFUTED:
                self.stats.refuted += 1
                refuted_consts.append((signal, value, verdict))
            else:
                self.stats.unknown += 1
                unknown_consts.append((signal, value, verdict))
        pair_survivors: List[Tuple[int, int, bool]] = []
        for a, b, phase in pair_cands:
            verdict = self._base_pair(a, b, phase)
            if verdict is None:
                pair_survivors.append((a, b, phase))
                base_conflicts[(a, b, phase)] = 0
            elif verdict.status is ProofStatus.REFUTED:
                self.stats.refuted += 1
                refuted_pairs.append((a, b, phase, verdict))
            else:
                self.stats.unknown += 1
                unknown_pairs.append((a, b, phase, verdict))
        # -- step: drop non-inductive candidates and restart -----------
        spent: Dict[object, int] = dict(base_conflicts)
        while const_survivors or pair_survivors:
            failed, spent_by_key = self._step_pass(const_survivors,
                                                   pair_survivors)
            for key, cost in spent_by_key.items():
                spent[key] = spent.get(key, 0) + cost
            if not failed:
                break
            self.stats.step_restarts += 1
            for signal, value in list(const_survivors):
                if (signal, value) in failed:
                    const_survivors.remove((signal, value))
                    self.stats.unknown += 1
                    unknown_consts.append((signal, value, SeqVerdict(
                        ProofStatus.UNKNOWN, None,
                        spent[(signal, value)])))
            for a, b, phase in list(pair_survivors):
                if (a, b, phase) in failed:
                    pair_survivors.remove((a, b, phase))
                    self.stats.unknown += 1
                    unknown_pairs.append((a, b, phase, SeqVerdict(
                        ProofStatus.UNKNOWN, None, spent[(a, b, phase)])))
        # -- survivors are simultaneously inductive: all proven --------
        for signal, value in const_survivors:
            self.stats.proven += 1
            proven[signal] = SeqConstant(
                value, "k-induction",
                SeqVerdict(ProofStatus.PROVEN, None,
                           spent[(signal, value)]))
        uf = _PhaseUnionFind()
        for a, b, phase in pair_survivors:
            self.stats.proven += 1
            uf.union(a, b, phase)
        self.stats.time_s += time.perf_counter() - t0
        self._swept = SeqSweepResult(
            k=self.k, fixpoint=self.fixpoint, constants=proven,
            classes=uf.groups(),
            refuted_constants=sorted(refuted_consts,
                                     key=lambda r: (r[0], r[1])),
            unknown_constants=sorted(unknown_consts,
                                     key=lambda r: (r[0], r[1])),
            refuted_pairs=sorted(refuted_pairs,
                                 key=lambda r: (r[0], r[1], r[2])),
            unknown_pairs=sorted(unknown_pairs,
                                 key=lambda r: (r[0], r[1], r[2])),
            stats=self.stats)
        return self._swept

    def stats_snapshot(self) -> dict:
        """Current effort accounting (the lint driver's seq_stats)."""
        return self.stats.to_dict()


# ----------------------------------------------------------------------
# the sequential diagnosis pre-screen
# ----------------------------------------------------------------------
def seq_masked_signals(netlist: Netlist, initial_state=0,
                       deep: bool = False) -> frozenset:
    """Signals provably masked from reset — the seq pre-screen's core.

    A signal is *masked* when a stuck-at fault on it (present in every
    cycle, the time-frame fault model) provably changes no primary
    output at any cycle from the given reset.  Two sufficient
    conditions, both evaluated on the **full-scan model** so "escapes"
    through next-state logic count as observations:

    * no combinational path to any primary output *or any flip-flop
      data input* (unobservable in the scan model, whose output list
      appends every DFF's D fanin);
    * ODC-blocked in the scan model, where the side input's constant
      value may come from the scan model's combinational constants
      *or* from the reset fixpoint's sequential constants of the
      original netlist (indices coincide — ``full_scan`` copies the
      netlist preserving gate indices).

    Soundness, by induction over cycles: suppose the state is
    fault-free entering cycle ``T`` (true at ``T = 0``: reset values
    do not travel through faulty wires).  Within cycle ``T`` the fault
    only perturbs the signal's combinational fanout cone; a blocking
    side input lies outside that cone, so it carries its fault-free
    value — which equals the proven constant, because sequential
    constants hold at every cycle of the *fault-free* machine and the
    state is fault-free by hypothesis.  The dominator therefore kills
    the difference before it reaches any primary output or any DFF
    data input, so cycle ``T`` observes nothing and the state entering
    ``T + 1`` is again fault-free.

    Like the combinational pre-screen this is airtight per suspect;
    across a *tuple* of joint corrections one masked member can in
    principle unmask another, so the pre-screen is off by default
    (``DiagnosisConfig(seq_prescreen=False)``) and shares the per-node
    caveat documented on
    :func:`repro.diagnose.screening.prescreen_suspects`.
    """
    from .dataflow import netlist_facts

    scan, _smap = full_scan(netlist)
    facts = netlist_facts(scan)
    fx = netlist_facts(netlist).reset_fixpoint(initial_state)
    consts = dict(facts.known_constants(deep=deep))
    consts.update(fx.constants)
    observable = facts.observable_set()
    masked = set()
    for gate in netlist.gates:
        index = gate.index
        if index not in observable:
            masked.add(index)
            continue
        for cond in facts.odc_conditions(index):
            if consts.get(cond.side_input) == cond.ctrl:
                masked.add(index)
                break
    return frozenset(masked)
