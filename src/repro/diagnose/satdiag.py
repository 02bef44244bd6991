"""SAT-based multiple stuck-at diagnosis (baseline).

The same research group later recast diagnosis as Boolean satisfiability
(Smith, Veneris & Viglas, *Design Diagnosis Using Boolean
Satisfiability*).  This module implements that formulation over our
from-scratch CDCL solver as an independent cross-check for the
simulation-based engine:

* every suspect line gets two selector variables (stuck-at-0 /
  stuck-at-1, mutually exclusive);
* the netlist is Tseitin-encoded once per *constraint vector*, with each
  line's modeled value multiplexed between its driving function and the
  selected stuck value;
* output variables are pinned to the faulty device's observed responses;
* a sequential-counter constraint caps the number of active selectors
  at N, and solutions are enumerated with blocking clauses.

Encoding all of V would be wasteful, so a subset of failing + passing
vectors constrains the CNF and every SAT answer is then verified by
forced-site propagation over all of V — candidates that only fit the
subset are dropped (and their blocking clause keeps enumeration going).

Setup (device simulation, V partition, constraint-vector choice) runs
through the shared ``ingest``/``bitlists``/``rank-screen`` stages of
:mod:`repro.diagnose.pipeline`; the enumeration is a
:class:`SatSearchStrategy`, so ``result.stats.stages`` carries the same
per-stage breakdown as the other modes.  Because each model is
verified as soon as it is enumerated, the ``verify`` stage
here is a summary record of that interleaved work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..circuit.gatetypes import GateType
from ..circuit.netlist import Netlist
from ..faults.models import apply_correction, stuck_at_correction
from ..sat.cnf import CnfBuilder
from ..sat.solver import SatSolver
from ..sim.packing import PatternSet, WORD_BITS, bit_indices, const_row
from . import clock
from .bitlists import DiagnosisState, reference_outputs
from .config import DiagnosisConfig
from .pipeline import DiagnosisSession, SearchStrategy, TraceWriter
from .report import (CorrectionRecord, EngineStats, Solution,
                     mark_truncated)


@dataclass
class SatDiagnosisResult:
    solutions: list = field(default_factory=list)
    sat_candidates: int = 0     # models returned by the solver
    verified: int = 0           # candidates that rectify all of V
    total_time: float = 0.0
    truncated: bool = False
    #: pipeline stats (stage records, truncation) of the run; kept
    #: optional so pickled pre-refactor results still load.
    stats: EngineStats | None = None

    @property
    def found(self) -> bool:
        return bool(self.solutions)


class SatSearchStrategy(SearchStrategy):
    """Selector-variable enumeration with interleaved verification.

    One ``search`` stage record per target cardinality; the solver's
    models are verified against the full V as they stream out, so the
    enumeration and verification costs share the stage.
    """

    name = "sat"

    def search(self, session: DiagnosisSession,
               diag) -> SatDiagnosisResult:
        result = SatDiagnosisResult()
        for target in range(1, diag.max_faults + 1):
            candidates_before = result.sat_candidates
            with session.stage("search", target=target,
                               items_in=len(diag.suspects)) as rec:
                diag._enumerate(target, result, session.deadline)
                rec.items_out = (result.sat_candidates
                                 - candidates_before)
                rec.info = {"verified": result.verified,
                            "solutions": len(result.solutions),
                            "truncated": result.truncated}
            if result.solutions or result.truncated:
                break
        return result


def _forced(builder: CnfBuilder, selector: tuple, base: int) -> int:
    """Fresh variable equal to ``base`` unless a selector forces it:
    ``s0 -> ~var``, ``s1 -> var``."""
    s0, s1 = selector
    var = builder.new_var()
    builder.add([-s0, -var])
    builder.add([-s1, var])
    builder.add([s0, s1, -var, base])
    builder.add([s0, s1, var, -base])
    return var


class SatDiagnoser:
    """Enumerate minimal stuck-at tuples explaining a faulty device."""

    def __init__(self, device: Netlist, good: Netlist,
                 patterns: PatternSet, max_faults: int = 2,
                 max_constraint_vectors: int = 24,
                 max_solutions: int = 64,
                 time_budget: float | None = 60.0,
                 suspects: list | None = None,
                 config: DiagnosisConfig | None = None,
                 trace: TraceWriter | None = None):
        if config is not None:
            config.validate()
        self.device = device
        self.good = good
        self.patterns = patterns
        self.max_faults = max_faults
        self.max_solutions = max_solutions
        self.time_budget = time_budget
        self.session = DiagnosisSession(config or DiagnosisConfig(),
                                        trace=trace)
        with self.session.stage("ingest",
                                items_in=patterns.nbits) as rec:
            self.device_out = reference_outputs(device, patterns)
            # The good netlist against the device: its line table,
            # values and partition of V.
            self.state = DiagnosisState(good, patterns, self.device_out)
            self.suspects = (list(suspects) if suspects is not None
                             else [line.index for line in self.state.table])
            rec.items_out = len(self.suspects)
            rec.info = {"suspects": len(self.suspects),
                        "vectors": patterns.nbits}
        with self.session.stage("bitlists",
                                items_in=patterns.nbits) as rec:
            rec.items_out = self.state.num_err
            rec.info = {"num_err": self.state.num_err}
        with self.session.stage("rank-screen",
                                items_in=patterns.nbits) as rec:
            self._constraint_vectors = self._pick_vectors(
                max_constraint_vectors)
            rec.items_out = len(self._constraint_vectors)
            rec.info = {"failing_chosen": min(
                self.state.num_err, max(1, max_constraint_vectors // 2))}
        self.session.freeze_setup()

    # ------------------------------------------------------------------
    def _pick_vectors(self, cap: int) -> list[int]:
        failing = bit_indices(self.state.err_mask, self.patterns.nbits)
        failing_set = set(failing)
        passing = [v for v in range(self.patterns.nbits)
                   if v not in failing_set]
        half = max(1, cap // 2)
        chosen = failing[:half] + passing[: cap - len(failing[:half])]
        return chosen

    def _observed_bit(self, po_pos: int, vector: int) -> bool:
        word, bit = divmod(vector, WORD_BITS)
        return bool((int(self.device_out[po_pos, word]) >> bit) & 1)

    # ------------------------------------------------------------------
    def _encode(self) -> tuple[CnfBuilder, dict]:
        builder = CnfBuilder(SatSolver())
        netlist = self.good
        table = self.state.table
        sel = {}
        site_sel = {}    # the same selector pairs, keyed by line site
        for line_index in self.suspects:
            pair = (builder.new_var(), builder.new_var())
            builder.add([-pair[0], -pair[1]])
            sel[line_index] = site_sel[table[line_index].site] = pair

        # The structure is the same for every vector: walk it once.
        live = netlist.live_set() | set(netlist.inputs)
        live_gates = [netlist.gates[idx] for idx in netlist.topo_order()
                      if idx in live]
        input_pos = {idx: pos for pos, idx in enumerate(netlist.inputs)}
        for vector in self._constraint_vectors:
            modeled = {}   # gate -> value seen by consumers
            vbits = self.patterns.vector(vector)
            for gate in live_gates:
                idx = gate.index
                var = builder.new_var()
                if gate.gtype is GateType.INPUT:
                    builder.constant(var, bool(vbits[input_pos[idx]]))
                else:
                    pin_vars = []
                    for pin, src in enumerate(gate.fanin):
                        selector = site_sel.get((idx, pin))
                        pin_vars.append(
                            modeled[src] if selector is None
                            else _forced(builder, selector, modeled[src]))
                    builder.encode_gate(gate.gtype, var, pin_vars)
                selector = site_sel.get(idx)
                modeled[idx] = (var if selector is None
                                else _forced(builder, selector, var))
            for po_pos, po in enumerate(netlist.outputs):
                builder.constant(modeled[po],
                                 self._observed_bit(po_pos, vector))
        return builder, sel

    # ------------------------------------------------------------------
    def _verify(self, picks: list) -> Solution | None:
        """Check the candidate tuple on the full vector set by forced-site
        propagation; only a tuple that passes gets a netlist."""
        table = self.state.table
        nwords = self.state.values.shape[1]
        if not self.state.rectified_by(
                {table[line_index].site: const_row(value, nwords)
                 for line_index, value in picks}):
            return None
        candidate = self.good.copy()
        records = []
        for line_index, value in picks:
            site = table.describe(line_index)
            records.append(CorrectionRecord(f"sa{value}@{site}",
                                            f"sa{value}", site))
            apply_correction(candidate, table,
                             stuck_at_correction(table, line_index, value))
        return Solution(tuple(records), candidate)

    def _enumerate(self, target: int, result: SatDiagnosisResult,
                   deadline: float | None) -> None:
        """Enumerate and verify the models at one target cardinality."""
        builder, sel = self._encode()
        all_selectors = [v for pair in sel.values() for v in pair]
        builder.at_most_k(all_selectors, target)
        builder.at_least_one(all_selectors)
        solver = builder.solver
        while True:
            if len(result.solutions) >= self.max_solutions:
                cause = "max-solutions"
            elif clock.expired(deadline):
                cause = "time-budget"
            else:
                cause = None
            if cause is not None:
                result.truncated = True
                mark_truncated(self.session.stats, cause)
                break
            status = solver.solve()
            if status is not True:
                break
            model = solver.model()
            picks = []
            active = []
            for line_index, (s0, s1) in sel.items():
                if model.get(s0):
                    picks.append((line_index, 0))
                    active.append(s0)
                if model.get(s1):
                    picks.append((line_index, 1))
                    active.append(s1)
            result.sat_candidates += 1
            solver.block(active)
            solution = self._verify(picks)
            if solution is not None:
                keys = {s.key for s in result.solutions}
                if solution.key not in keys:
                    result.verified += 1
                    result.solutions.append(solution)

    def run(self) -> SatDiagnosisResult:
        session = self.session
        t0 = clock.now()
        stats = session.begin_run(
            time_budget=self.time_budget, mode="sat",
            vectors=self.patterns.nbits,
            initial_failing=self.state.num_err)
        result = SatSearchStrategy().search(session, self)
        result.stats = stats
        with session.stage("verify",
                           items_in=result.sat_candidates) as rec:
            rec.items_out = result.verified
            rec.info = {"method": "forced-site propagation",
                        "interleaved": True}
        with session.stage("report",
                           items_in=len(result.solutions)) as rec:
            rec.items_out = len(result.solutions)
        result.total_time = clock.now() - t0
        stats.total_time = result.total_time
        session.end_run(found=result.found,
                        solutions=len(result.solutions),
                        nodes=result.sat_candidates,
                        truncated=result.truncated,
                        total_s=result.total_time)
        return result
