"""Staged diagnosis pipeline core: session, stages, instrumentation.

Every diagnosis mode — exact stuck-at, DEDC tree, time-frame
sequential, SAT-based — is one walk through the same stage sequence::

    ingest -> bitlists -> pathtrace -> prescreen -> rank-screen
           -> search -> dedup -> verify -> report

A :class:`DiagnosisSession` owns what the stages share: the config, the
run deadline and a single :class:`~repro.diagnose.report.EngineStats`.
Each stage execution is wrapped in :meth:`DiagnosisSession.stage`,
which appends one structured record to ``EngineStats.stages`` (and
mirrors it to the opt-in ``--trace`` JSONL stream): stage name,
optional deepening target, input/output item counts, a free-form
``info`` dict and the stage's wall time.  Wall times come from :mod:`repro.diagnose.clock` and are
*excluded* from the determinism contract; every other record field is a
deterministic function of ``(netlist, patterns, config)``.

Modes differ in how much of the sequence they delegate: the exact
protocol records ``pathtrace``/``prescreen``/``rank-screen`` for the
root expansion that doubles as its shard plan (the same computations
recur inside every search node, where they are accounted in the time
counters, not as stage records); the DEDC ladder folds them into the
per-node tree work and records its attempt plan under ``rank-screen``;
the SAT mode's ``verify`` is interleaved with enumeration and reported
as a summary record.  Iterative-deepening modes repeat the middle
stages once per target cardinality (``target`` tells them apart).

The search stage itself is one :class:`SearchStrategy` per mode.  The
two engine strategies run every shard through
:func:`repro.diagnose.engine.execute_shard`: the exact plan and the
sharded ladder dispatch through :func:`repro.parallel.run_shards`, and
the serial ladder runs one rung at a time in-process.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .. import parallel
from . import clock
from .report import EngineStats, mark_truncated, sort_solutions

#: JSONL trace stream schema (the ``run-start`` event carries it).
TRACE_SCHEMA = "repro.trace/1"

#: Canonical stage sequence.  A mode may skip stages or repeat the
#: per-target middle of the sequence, but never invents new names.
STAGE_ORDER = ("ingest", "bitlists", "pathtrace", "prescreen",
               "rank-screen", "search", "dedup", "verify", "report")


class StageRecord:
    """Mutable record handed to the body of one stage execution.

    The body fills ``items_out`` / ``info`` (and may correct
    ``items_in``); the session stamps ``wall_s`` and files the frozen
    dict into ``EngineStats.stages`` when the stage closes.
    """

    __slots__ = ("name", "target", "items_in", "items_out", "info",
                 "wall_s")

    def __init__(self, name: str, target: int | None = None,
                 items_in: int = 0):
        if name not in STAGE_ORDER:
            raise ValueError(f"unknown stage {name!r}; stages are "
                             f"{', '.join(STAGE_ORDER)}")
        self.name = name
        self.target = target
        self.items_in = items_in
        self.items_out = 0
        self.info: dict = {}
        self.wall_s = 0.0

    def to_dict(self) -> dict:
        return {"stage": self.name, "target": self.target,
                "in": self.items_in, "out": self.items_out,
                "info": dict(self.info), "wall_s": self.wall_s}


class TraceWriter:
    """Opt-in JSONL event stream (``repro diagnose --trace FILE``).

    One JSON object per line, ``seq``-numbered in emission order:
    ``run-start`` (carries the schema tag and run parameters), one
    ``stage`` event per closed stage record, ``run-end`` (outcome
    summary).  ``wall_s`` / ``total_s`` are measurements; every other
    field is deterministic.
    """

    def __init__(self, stream):
        self._stream = stream
        self._seq = 0

    def emit(self, event: str, **payload) -> None:
        line = {"seq": self._seq, "event": event}
        line.update(payload)
        self._stream.write(json.dumps(line, sort_keys=True) + "\n")
        self._seq += 1


def validate_trace_events(events) -> list:
    """Schema-check a parsed trace stream; returns error strings."""
    errors: list = []
    if not events:
        return ["empty trace"]
    for pos, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {pos}: not an object")
            continue
        if event.get("seq") != pos:
            errors.append(f"event {pos}: seq {event.get('seq')!r} out "
                          "of order")
        kind = event.get("event")
        if kind == "run-start":
            if event.get("schema") != TRACE_SCHEMA:
                errors.append(f"event {pos}: run-start schema must be "
                              f"{TRACE_SCHEMA}")
        elif kind == "stage":
            if event.get("stage") not in STAGE_ORDER:
                errors.append(f"event {pos}: unknown stage "
                              f"{event.get('stage')!r}")
            for key in ("in", "out"):
                value = event.get(key)
                if not isinstance(value, int) or value < 0:
                    errors.append(f"event {pos}: {key!r} must be a "
                                  "non-negative int")
            if not isinstance(event.get("wall_s"), (int, float)) \
                    or event["wall_s"] < 0:
                errors.append(f"event {pos}: wall_s must be a "
                              "non-negative number")
            if not isinstance(event.get("info"), dict):
                errors.append(f"event {pos}: info must be an object")
        elif kind == "run-end":
            for key in ("found", "solutions", "nodes", "truncated",
                        "total_s"):
                if key not in event:
                    errors.append(f"event {pos}: run-end missing {key}")
        else:
            errors.append(f"event {pos}: unknown event {kind!r}")
    if events and events[0].get("event") != "run-start":
        errors.append("first event must be run-start")
    if events and events[-1].get("event") != "run-end":
        errors.append("last event must be run-end")
    return errors


def validate_trace_file(path: str) -> list:
    """Parse and schema-check a ``--trace`` JSONL file."""
    events = []
    errors: list = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
    return errors + validate_trace_events(events)


class DiagnosisSession:
    """Shared resources and instrumentation of one diagnosis run.

    Owns the config, the single :class:`EngineStats`, the monotonic run
    deadline and the optional :class:`TraceWriter`.  Diagnosers record
    construction-time
    stages (``ingest``/``bitlists``/...) on the session, call
    :meth:`freeze_setup`, and then each :meth:`begin_run` starts a fresh
    ``EngineStats`` pre-seeded with copies of those setup records — so
    ``run()`` stays repeatable while the one-time setup cost remains
    visible in every result.
    """

    def __init__(self, config, trace: TraceWriter | None = None):
        self.config = config
        self.trace = trace
        self.stats = EngineStats()
        self.deadline: float | None = None
        self._setup_stages: list = []
        # Construction-time stage events are deferred until the first
        # begin_run so the trace stream always opens with run-start.
        self._run_started = False

    # -- lifecycle -----------------------------------------------------
    def freeze_setup(self) -> None:
        """Snapshot construction-time stage records for replay."""
        self._setup_stages = [dict(rec) for rec in self.stats.stages]

    def begin_run(self, time_budget: float | None = None,
                  **payload) -> EngineStats:
        """Fresh stats (setup stages replayed), armed deadline, trace."""
        self.stats = EngineStats()
        self.stats.stages.extend(dict(rec) for rec in self._setup_stages)
        budget = (time_budget if time_budget is not None
                  else self.config.time_budget)
        self.deadline = clock.deadline_in(budget)
        self._run_started = True
        if self.trace:
            self.trace.emit("run-start", schema=TRACE_SCHEMA, **payload)
            for rec in self.stats.stages:
                self.trace.emit("stage", **rec)
        return self.stats

    def end_run(self, **payload) -> None:
        if self.trace:
            self.trace.emit("run-end", **payload)

    # -- deadline ------------------------------------------------------
    def expired(self) -> bool:
        return clock.expired(self.deadline)

    def wall_deadline(self) -> float | None:
        """The run deadline as an epoch timestamp workers can share."""
        return clock.perf_to_wall(self.deadline)

    # -- instrumentation -----------------------------------------------
    @contextmanager
    def stage(self, name: str, target: int | None = None,
              items_in: int = 0):
        """Record one stage execution (stats + trace) around a body."""
        record = StageRecord(name, target=target, items_in=items_in)
        t0 = clock.now()
        try:
            yield record
        finally:
            record.wall_s = clock.now() - t0
            frozen = record.to_dict()
            self.stats.stages.append(frozen)
            if self.trace and self._run_started:
                self.trace.emit("stage", **frozen)

    # -- shard plumbing (shared by the engine strategies) --------------
    def merge_shard(self, stats: EngineStats, res, label: str,
                    merged: dict | None) -> None:
        """Fold one shard's outcome into the level stats, in plan order.

        A failed shard (worker crash, deadline overrun) truncates the
        run but never drops its siblings' solutions.
        """
        if res.error is not None:
            mark_truncated(stats, f"{label}: {res.error}")
            stats.shards.append({"shard": label, "nodes": 0,
                                 "truncated": True, "wall_s": 0.0,
                                 "error": res.error})
            return
        stats.merge(res.stats)
        stats.shards.append({"shard": label, "nodes": res.stats.nodes,
                             "truncated": res.stats.truncated,
                             "wall_s": res.stats.total_time,
                             "error": None})
        if merged is not None:
            for solution in res.solutions:
                merged.setdefault(solution.key, solution)


# ----------------------------------------------------------------------
# search-stage strategies
# ----------------------------------------------------------------------
class SearchStrategy:
    """One diagnosis mode's search stage.

    ``search(session, diagnoser)`` runs the mode's deepening loop,
    recording per-target stage records on the session, and returns the
    mode's solution container.  The four concrete strategies are
    :class:`ExactStuckAtStrategy` and :class:`LadderStrategy` here plus
    ``TimeFrameStrategy`` (:mod:`repro.diagnose.timeframe`) and
    ``SatSearchStrategy`` (:mod:`repro.diagnose.satdiag`).
    """

    name = "?"

    def search(self, session: DiagnosisSession, diagnoser):
        raise NotImplementedError


def select_strategy(config) -> SearchStrategy:
    """The engine strategy a config asks for (validated upstream)."""
    from .config import Mode
    if config.exact and config.mode is Mode.STUCK_AT:
        return ExactStuckAtStrategy()
    return LadderStrategy()


class ExactStuckAtStrategy(SearchStrategy):
    """Exact stuck-at protocol (Table 1): iterative deepening over a
    sharded exhaustive search, one shard per screened root correction,
    merged in plan order (see :mod:`repro.parallel`)."""

    name = "exact-stuck-at"

    def search(self, session: DiagnosisSession, diagnoser):
        stats = session.stats
        for target in range(1, session.config.max_errors + 1):
            if session.expired():
                mark_truncated(stats, "time-budget")
                break
            level = EngineStats()
            found = self._search_level(session, diagnoser, target, level)
            stats.merge(level)
            stats.levels_tried.append(f"N={target} exact")
            if found:
                return found
        return []

    def _search_level(self, session: DiagnosisSession, diagnoser,
                      target: int, level: EngineStats) -> list:
        from .engine import (pathtrace_suspects, prescreen_lines,
                             screen_and_rank)
        config = session.config
        state = diagnoser.root_state
        with session.stage("pathtrace", target=target,
                           items_in=state.num_err) as rec:
            lines = pathtrace_suspects(state, frozenset(), config, level)
            rec.items_out = len(lines)
            rec.info = {"samples": config.pathtrace_samples}
        with session.stage("prescreen", target=target,
                           items_in=len(lines)) as rec:
            kept = prescreen_lines(state, lines, frozenset(), config,
                                   level)
            rec.items_out = len(kept)
            rec.info = {"enabled": config.static_prescreen,
                        "dropped": len(lines) - len(kept)}
        with session.stage("rank-screen", target=target,
                           items_in=len(kept)) as rec:
            ordered = screen_and_rank(state, kept, frozenset(), target,
                                      config, level,
                                      diagnoser.invariants)
            rec.items_out = len(ordered)
            rec.info = {"head": min(len(ordered),
                                    config.corrections_per_node)}
        if not ordered:
            return []
        with session.stage("search", target=target,
                           items_in=len(ordered)) as rec:
            wall_deadline = session.wall_deadline()
            tasks = [("exact", i, target, corr, wall_deadline)
                     for i, (_complemented, corr) in enumerate(ordered)]
            results = parallel.run_shards(
                tasks, config.jobs, payload=diagnoser._worker_payload(),
                context=diagnoser._local_context(),
                wall_deadline=wall_deadline)
            merged: dict = {}
            for res in results:
                signature = ordered[res.index][1].describe(
                    state.netlist, state.table)
                session.merge_shard(level, res,
                                    f"N={target} {signature}", merged)
            found = sort_solutions(merged.values())
            rec.items_out = len(found)
            rec.info = {"shards": len(tasks), "jobs": config.jobs,
                        "nodes": level.nodes,
                        "facts_reused": level.facts_reused,
                        "truncated": level.truncated}
        return found


class LadderStrategy(SearchStrategy):
    """DEDC / first-solution protocol (Table 2): the h1/h2/h3
    relaxation ladder, one decision-tree attempt per rung, then a final
    full-candidate attempt — serial or speculatively sharded, with
    identical deterministic counters either way."""

    name = "ladder"

    def search(self, session: DiagnosisSession, diagnoser):
        stats = session.stats
        for target in range(1, session.config.max_errors + 1):
            if session.expired():
                mark_truncated(stats, "time-budget")
                break
            found = self._search_level(session, diagnoser, target)
            if found:
                return found
        return []

    def _search_level(self, session: DiagnosisSession, diagnoser,
                      target: int) -> list:
        from .engine import _attempt_label
        config = session.config
        stats = session.stats
        ladder = config.ladder(target)
        # Relaxation ladder, then one last attempt with every path-
        # trace-marked line as a candidate (the "reduce progressively
        # when the algorithm returns with no corrections" endgame of
        # §3.2).  Path trace and pre-screen run inside every tree node
        # here, so this plan record is the level's rank-screen stage.
        attempts = [(h, None) for h in ladder] + [(ladder[-1], 1.0)]
        with session.stage("rank-screen", target=target,
                           items_in=len(ladder)) as rec:
            rec.items_out = len(attempts)
            rec.info = {"attempts": [_attempt_label(target, h, fraction)
                                     for h, fraction in attempts]}
        nodes_before = stats.nodes
        with session.stage("search", target=target,
                           items_in=len(attempts)) as rec:
            if config.jobs > 1 and len(attempts) > 1:
                found = self._sharded(session, diagnoser, target,
                                      attempts)
            else:
                found = self._serial(session, diagnoser, target,
                                     attempts)
            rec.items_out = len(found)
            rec.info = {"jobs": config.jobs,
                        "nodes": stats.nodes - nodes_before,
                        "truncated": stats.truncated}
        return found

    def _serial(self, session: DiagnosisSession, diagnoser, target: int,
                attempts: list) -> list:
        # Each rung runs the pool workers' shard body in-process (one
        # shard record per rung executed), so jobs=1 and jobs=N report
        # identical deterministic counters.  An exception in a rung
        # propagates; only run_shards turns a crash into a failed shard.
        from . import engine
        stats = session.stats
        context = diagnoser._local_context()
        wall_deadline = session.wall_deadline()
        for index, (h, fraction) in enumerate(attempts):
            if session.expired():
                mark_truncated(stats, "time-budget")
                break
            res = engine.execute_shard(
                context, ("attempt", index, target, h, fraction,
                          wall_deadline))
            label = engine._attempt_label(target, h, fraction)
            session.merge_shard(stats, res, label, None)
            stats.levels_tried.append(label)
            if res.solutions:
                return res.solutions
        return []

    def _sharded(self, session: DiagnosisSession, diagnoser,
                 target: int, attempts: list) -> list:
        """Speculative ladder: every rung runs as its own shard.

        The serial loop stops at the first rung that yields; here all
        rungs run concurrently and the merge keeps the earliest
        successful one, folding in only the stats of rungs the serial
        loop would have executed (rungs at or before the winner) so the
        deterministic counters match ``jobs=1``.  Work spent on
        discarded speculative rungs is real but unreported by design.
        """
        from .engine import _attempt_label
        stats = session.stats
        wall_deadline = session.wall_deadline()
        tasks = [("attempt", i, target, h, fraction, wall_deadline)
                 for i, (h, fraction) in enumerate(attempts)]
        results = parallel.run_shards(tasks, session.config.jobs,
                                      payload=diagnoser._worker_payload(),
                                      context=diagnoser._local_context(),
                                      wall_deadline=wall_deadline)
        winner = None
        for res in results:
            if res.error is None and res.solutions:
                winner = res.index
                break
        last = winner if winner is not None else len(results) - 1
        for res in results[:last + 1]:
            h, fraction = attempts[res.index]
            label = _attempt_label(target, h, fraction)
            session.merge_shard(stats, res, label, None)
            if res.error is None:
                stats.levels_tried.append(label)
        if winner is None:
            return []
        return list(results[winner].solutions)
