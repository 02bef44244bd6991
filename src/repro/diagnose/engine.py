"""The incremental diagnosis and correction engine (top-level API).

Usage::

    from repro import IncrementalDiagnoser, DiagnosisConfig, Mode

    engine = IncrementalDiagnoser(spec, impl, patterns,
                                  DiagnosisConfig(mode=Mode.STUCK_AT))
    result = engine.run()
    for solution in result.solutions:
        print(solution.describe())

Two protocols from the paper:

* **Exact stuck-at diagnosis** (Table 1): the search tree is fully
  traversed; the engine returns *all* minimal-cardinality stuck-at fault
  tuples that explain the failing responses.  Candidates are screened by
  the Theorem 1 bound, so the traversal stays tractable without (in
  practice) losing tuples.
* **DEDC** (Table 2): the round-based BFS/DFS traversal with the
  h1/h2/h3 relaxation ladder returns the first valid correction set from
  the design-error model.

Minimality in both modes comes from iterative deepening on the target
cardinality: the engine never looks for N+1-correction sets while an
N-correction set exists.

Since the staged-pipeline refactor this class is a thin wrapper: it
ingests the netlists into a :class:`~repro.diagnose.pipeline.
DiagnosisSession` and delegates the deepening loop to the mode's
:class:`~repro.diagnose.pipeline.SearchStrategy` (exact stuck-at or
DEDC ladder).  Every shard of either plan runs through
:func:`execute_shard`: the exact strategy dispatches its plan through
:func:`repro.parallel.run_shards` (``DiagnosisConfig(jobs=1)``
in-process, ``jobs=N`` on the caller plus ``N - 1`` forked workers)
with the same shard plan, per-shard budgets and merge order either
way, so the solution list and the deterministic counters are identical
at any ``jobs``.  Per-stage instrumentation lands in
``EngineStats.stages``.
"""

from __future__ import annotations

import math

from ..analyze.invariants import InvariantChecker
from ..circuit.netlist import Netlist
from ..errors import DiagnosisError
from ..faults.models import Correction, CorrectionKind, apply_correction
from ..parallel import ShardResult
from ..sim.packing import PatternSet, row_popcounts
from . import clock
from .bitlists import DiagnosisState, reference_outputs
from .candidates import is_correctable_line
from .config import DiagnosisConfig, Mode
from .pathtrace import derive_seed, marked_lines, path_trace_counts
from .pipeline import DiagnosisSession, TraceWriter, select_strategy
from .report import (CorrectionRecord, DiagnosisResult, EngineStats,
                     Solution, mark_truncated, sort_solutions)
from .screening import (predicted_words, prescreen_suspects, screen_verr,
                        theorem1_bound)
from .tree import DecisionTree, warm_child_facts


class IncrementalDiagnoser:
    """Diagnose and correct a faulty implementation against its spec."""

    def __init__(self, spec: Netlist, impl: Netlist,
                 patterns: PatternSet,
                 config: DiagnosisConfig | None = None,
                 trace: TraceWriter | None = None):
        config = config or DiagnosisConfig()
        config.validate(sequential=False)
        if spec.num_inputs != impl.num_inputs:
            raise DiagnosisError(
                f"spec has {spec.num_inputs} inputs, implementation has "
                f"{impl.num_inputs}")
        if spec.num_outputs != impl.num_outputs:
            raise DiagnosisError(
                f"spec has {spec.num_outputs} outputs, implementation "
                f"has {impl.num_outputs}")
        if not impl.is_combinational:
            raise DiagnosisError(
                "implementation must be combinational; full-scan "
                "sequential designs first (repro.circuit.full_scan)")
        self.spec = spec
        self.impl = impl
        self.patterns = patterns
        self.config = config
        self.session = DiagnosisSession(config, trace=trace)
        with self.session.stage("ingest",
                                items_in=patterns.nbits) as rec:
            self.spec_out = reference_outputs(spec, patterns)
            rec.items_out = len(self.spec_out)
            rec.info = {"outputs": spec.num_outputs,
                        "vectors": patterns.nbits}
        with self.session.stage("bitlists",
                                items_in=patterns.nbits) as rec:
            self.root_state = DiagnosisState(impl, patterns,
                                             self.spec_out)
            rec.items_out = self.root_state.num_err
            rec.info = {"num_err": self.root_state.num_err,
                        "num_corr": self.root_state.num_corr}
        self.session.freeze_setup()
        self.invariants = (InvariantChecker()
                           if self.config.check_invariants else None)
        if self.invariants:
            self.invariants.check_state(self.root_state)

    # ------------------------------------------------------------------
    def run(self) -> DiagnosisResult:
        """Iterative-deepening search per the configured protocol."""
        session = self.session
        t0 = clock.now()
        stats = session.begin_run(
            mode=self.config.mode.value, exact=self.config.exact,
            jobs=self.config.jobs, vectors=self.patterns.nbits,
            initial_failing=self.root_state.num_err)
        solutions: list[Solution] = []
        if not self.root_state.rectified:
            solutions = select_strategy(self.config).search(session,
                                                            self)
        if self.config.prove_dedup and len(solutions) > 1:
            from .dedup import dedup_solutions
            with session.stage("dedup", items_in=len(solutions)) as rec:
                solutions = dedup_solutions(
                    solutions, stats,
                    conflict_budget=self.config.prove_budget)
                rec.items_out = len(solutions)
                rec.info = {"checked": stats.dedup_checked,
                            "merged": stats.dedup_merged,
                            "unknown": stats.dedup_unknown}
        with session.stage("verify", items_in=len(solutions)) as rec:
            # Reported tuples are rectifying by construction (every
            # child state is re-checked against the full V); the stage
            # records that accounting rather than re-simulating.
            rec.items_out = len(solutions)
            rec.info = {"method": "constructive"}
        with session.stage("report", items_in=len(solutions)) as rec:
            result = DiagnosisResult(solutions, stats,
                                     self.patterns.nbits,
                                     self.root_state.num_err)
            rec.items_out = len(result.solutions)
        stats.total_time = clock.now() - t0
        session.end_run(found=result.found, solutions=len(solutions),
                        nodes=stats.nodes, truncated=stats.truncated,
                        total_s=stats.total_time)
        return result

    # ------------------------------------------------------------------
    # scheduler plumbing shared by both protocols
    # ------------------------------------------------------------------
    def _worker_payload(self) -> tuple:
        """Read-only state each forked worker rebuilds its context from."""
        return (self.impl, self.patterns, self.spec_out, self.config)

    def _local_context(self):
        from ..parallel import DiagnosisContext
        return DiagnosisContext(self.impl, self.patterns, self.spec_out,
                                self.config, root_state=self.root_state)


def _attempt_label(target: int, h, fraction) -> str:
    return f"N={target} h={h}" + (" full" if fraction else "")


def fast_stuck_at_child(state: DiagnosisState, corr) -> DiagnosisState:
    """Child state for a stuck-at correction without re-simulation.

    Tying a line to a constant adds one constant gate and changes values
    only inside the line's fanout cone; :meth:`DiagnosisState.child`
    derives the child's value matrix from the parent's.  (Exact mode
    applies thousands of these; the incremental rebuild is the
    difference between milliseconds and microseconds per node.)
    """
    child_netlist = state.netlist.copy()
    apply_correction(child_netlist, state.table, corr)
    return state.child(child_netlist, corr, predicted_words(state, corr))


# ----------------------------------------------------------------------
# exact-mode node expansion, decomposed along the pipeline stages
# ----------------------------------------------------------------------
def pathtrace_suspects(state: DiagnosisState, applied_keys: frozenset,
                       config: DiagnosisConfig,
                       stats: EngineStats) -> list:
    """Path-trace-marked suspect lines at one node (pathtrace stage).

    Deterministic given ``(state, applied_keys, config)``: the sample
    uses the node's derived seed.
    """
    t0 = clock.now()
    counts = path_trace_counts(state, config.pathtrace_samples,
                               derive_seed(config.seed, applied_keys))
    lines = marked_lines(counts)
    stats.diag_time += clock.now() - t0
    return lines


def prescreen_lines(state: DiagnosisState, lines: list,
                    applied_keys: frozenset, config: DiagnosisConfig,
                    stats: EngineStats) -> list:
    """Static pre-screen of the marked suspects (prescreen stage)."""
    if not config.static_prescreen:
        return lines
    t0 = clock.now()
    lines, dropped = prescreen_suspects(state, lines,
                                        deep=not applied_keys)
    stats.prescreen_dropped += dropped
    stats.diag_time += clock.now() - t0
    return lines


def screen_and_rank(state: DiagnosisState, lines: list,
                    applied_keys: frozenset, remaining: int,
                    config: DiagnosisConfig, stats: EngineStats,
                    invariants=None) -> list:
    """Theorem 1 screen + outcome-guided ordering (rank-screen stage).

    Returns ordered ``(complemented, correction, fixes_all)`` triples;
    every sort is stable, so the order is deterministic.  ``fixes_all``
    is the head ordering's measured verdict — does the correction alone
    rectify V? — and ``None`` for a tail entry, whose outcome was never
    measured.
    """
    if invariants:
        invariants.check_theorem1(state.num_err, remaining)
        invariants.check_lines_live(state, lines)
    bound = theorem1_bound(state.num_err, remaining)
    bound = max(1, int(math.ceil(bound * config.theorem1_safety)))
    t1 = clock.now()
    # SA0 on a line complements the Verr bits where its driver is 1,
    # SA1 the rest: one popcount of the whole value matrix gives every
    # count, and only corrections that reach the bound are built.
    ones = row_popcounts(state.values & state.err_mask).tolist()
    screened = []
    for line in lines:
        if not is_correctable_line(state, line):
            continue
        driver_ones = ones[state.table[line].driver]
        for kind, complemented in (
                (CorrectionKind.STUCK_AT_0, driver_ones),
                (CorrectionKind.STUCK_AT_1, state.num_err - driver_ones)):
            if complemented >= bound:
                corr = Correction(line, kind)
                screened.append((screen_verr(state, corr, bound), corr))
    screened.sort(key=lambda pair: -pair[0])
    # Outcome-guided ordering: for the most promising candidates
    # (by Verr bits complemented) measure the actual failing-
    # vector count after the correction and explore the best
    # first.  The tail keeps its heuristic order, so the
    # traversal stays exhaustive — only better directed.
    head_n = min(len(screened), config.corrections_per_node)
    scored_head = []
    for complemented, corr in screened[:head_n]:
        outcome, = state.outcome_of_override(
            corr.line, predicted_words(state, corr))
        err_after = state.num_err - outcome.rectified_vectors \
            + outcome.broken_vectors
        scored_head.append((err_after, -complemented, corr,
                            outcome.fixes_all))
    scored_head.sort(key=lambda t: t[:2])
    ordered = ([(-c, corr, fixes_all)
                for (_e, c, corr, fixes_all) in scored_head]
               + [(c, corr, None) for c, corr in screened[head_n:]])
    stats.corr_time += clock.now() - t1
    return ordered


def exact_candidates(state: DiagnosisState, applied_keys: frozenset,
                     remaining: int, config: DiagnosisConfig,
                     stats: EngineStats,
                     invariants=None) -> list:
    """Ordered ``(complemented, correction, fixes_all)`` candidates at
    one exact-mode node: path trace, static pre-screen, Theorem 1 screen,
    outcome-guided head ordering.

    Composes the three stage functions above.  Deterministic given
    ``(state, applied_keys, config)`` — which is what lets the root
    expansion double as the shard plan of the parallel scheduler.
    """
    lines = pathtrace_suspects(state, applied_keys, config, stats)
    lines = prescreen_lines(state, lines, applied_keys, config, stats)
    return screen_and_rank(state, lines, applied_keys, remaining,
                           config, stats, invariants)


class _SearchTruncated(Exception):
    """Unwinds the whole exact DFS when a budget or deadline expires.

    The pre-PR code checked the budget *after* marking a candidate
    visited — the last candidate was recorded as explored but never
    was — and a mid-DFS ``return`` only unwound one recursion level,
    so ancestor loops kept burning candidate-screening work after the
    budget was gone.  Raising propagates the stop cleanly through
    every level, and the check now runs before any marking.
    """


class _ExactSearch:
    """Exhaustive subtree exploration for the exact stuck-at protocol.

    One instance is one shard: a private visited set, node budget and
    deadline.  ``stats.truncated`` (with a cause) is set on *every*
    path that drops reachable work — budget exhaustion and deadline
    expiry both raise :class:`_SearchTruncated` before the dropped
    candidate is marked visited.
    """

    def __init__(self, config: DiagnosisConfig, target: int,
                 stats: EngineStats, deadline: float | None = None):
        self.config = config
        self.target = target
        self.stats = stats
        self.deadline = deadline
        self.visited: set = set()
        self.solutions: dict = {}
        self.budget = config.max_nodes
        self.invariants = (InvariantChecker()
                           if config.check_invariants else None)

    def explore(self, state: DiagnosisState, applied: tuple,
                applied_keys: frozenset, ordered=None) -> None:
        if ordered is None:
            ordered = exact_candidates(state, applied_keys,
                                       self.target - len(applied),
                                       self.config, self.stats,
                                       self.invariants)
        for _complemented, corr, fixes_all in ordered:
            signature = corr.describe(state.netlist, state.table)
            if signature in applied_keys:
                continue
            new_keys = applied_keys | {signature}
            if new_keys in self.visited:
                continue
            self._check_budget()  # before marking: truncation must
            self.visited.add(new_keys)  # never hide unexplored work
            self.budget -= 1
            self.stats.nodes += 1
            t0 = clock.now()
            # A leaf is only worth a netlist if it rectifies V.  The
            # head ordering measured that already; for a tail entry,
            # propagating the forced line through the parent says so.
            leaf = len(applied) + 1 == self.target
            if leaf and fixes_all is None:
                fixes_all = state.rectified_by(
                    {state.table[corr.line].site:
                     predicted_words(state, corr)})
            child_state = (None if leaf and not fixes_all
                           else fast_stuck_at_child(state, corr))
            self.stats.apply_time += clock.now() - t0
            if child_state is None:
                continue
            if self.invariants:
                self.invariants.check_state(child_state)
            record = CorrectionRecord(signature, corr.kind.value,
                                      state.table.describe(corr.line))
            child_applied = applied + (record,)
            if child_state.rectified:
                self.solutions.setdefault(
                    new_keys, Solution(child_applied,
                                       child_state.netlist))
            elif len(child_applied) < self.target:
                if self.config.static_prescreen:
                    # The recursion is about to pre-screen this child:
                    # warm its facts from the parent's before it does.
                    warm_child_facts(state.netlist, child_state.netlist,
                                     self.stats)
                self.explore(child_state, child_applied, new_keys)

    def _check_budget(self) -> None:
        if self.budget <= 0:
            mark_truncated(self.stats, "node-budget")
            raise _SearchTruncated
        if clock.expired(self.deadline):
            mark_truncated(self.stats, "time-budget")
            raise _SearchTruncated


# ----------------------------------------------------------------------
# shard execution (runs in-process at jobs=1, in a worker at jobs>1)
# ----------------------------------------------------------------------
def execute_shard(context, task) -> ShardResult:
    """Run one shard of the scheduler's plan on a worker context.

    Budget/deadline exhaustion is reported as a truncated *result*;
    only genuine failures (crashes) surface as errors, and those are
    wrapped by the scheduler, not raised from here.
    """
    kind, index = task[0], task[1]
    stats = EngineStats()
    t0 = clock.now()
    if kind == "exact":
        _kind, _index, target, corr, fixes_all, wall_deadline = task
        search = _ExactSearch(context.config, target, stats,
                              clock.wall_to_perf(wall_deadline))
        try:
            search.explore(context.root_state, (), frozenset(),
                           ordered=((0, corr, fixes_all),))
        except _SearchTruncated:
            pass
        stats.total_time = clock.now() - t0
        found = sort_solutions(search.solutions.values())
        return ShardResult(index, found, stats)
    if kind == "attempt":
        _kind, _index, target, h, fraction, wall_deadline = task
        tree = DecisionTree(context.root_state, target, h,
                            context.config, stats,
                            candidate_fraction=fraction,
                            deadline=clock.wall_to_perf(wall_deadline))
        solutions = tree.run(traversal=context.config.traversal)
        stats.total_time = clock.now() - t0
        return ShardResult(index, solutions, stats)
    raise ValueError(f"unknown shard kind {kind!r}")


def diagnose(spec: Netlist, impl: Netlist, patterns: PatternSet,
             mode: Mode = Mode.STUCK_AT,
             trace: TraceWriter | None = None, **config_kwargs
             ) -> DiagnosisResult:
    """One-call convenience wrapper around :class:`IncrementalDiagnoser`."""
    config = DiagnosisConfig(mode=mode, **config_kwargs)
    return IncrementalDiagnoser(spec, impl, patterns, config,
                                trace=trace).run()
