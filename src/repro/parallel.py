"""Process-pool work scheduler for parallel decision-tree diagnosis.

The round-based decision-tree traversal (§3.3) is embarrassingly
parallel across subtrees: once the root node has been expanded, the
exploration below any two root corrections shares no mutable state.
Sharding the candidate space is the standard scaling move for
model-based diagnosis (greedy stochastic search over diagnosis spaces,
hierarchical decomposition); this module brings it to both engine
protocols.

**Sharding model.**  Exact stuck-at mode distributes depth-1 subtrees:
the parent expands the root node once (path trace, Theorem 1 screen,
outcome-guided ordering) and emits one shard per screened root
correction; each shard explores the entire subtree under its root
correction with a private visited set and a per-shard node/time budget
(``DiagnosisConfig.worker_budget``).  DEDC mode distributes the
relaxation-ladder attempts: each rung of the h1/h2/h3 ladder is an
independent decision-tree run, evaluated speculatively; the merge keeps
the earliest successful rung — the one the serial loop would have
stopped at — and discards the speculative rest.

**Determinism contract.**  The shard plan, each shard's exploration and
the merge order are all functions of (netlist, patterns, config) —
never of pool size or completion order — so ``jobs=N`` returns the same
solution list and the same deterministic counters (``nodes``,
``truncated``, ``prescreen_dropped``, ``levels_tried``, per-shard node
counts) as ``jobs=1`` for every ``N``.  Wall-clock fields are
measurements and vary.  The contract requires ``time_budget=None``:
wall-clock expiry truncates whatever was in flight and is inherently
timing-dependent.

**Worker failure.**  A crashed worker (hard death, broken pool,
unpicklable result) or a shard that outlives the wall-clock deadline
degrades to a failed :class:`ShardResult`; the merge keeps every other
shard's solutions and flags the run ``truncated`` with the failure
recorded in ``EngineStats.truncation_causes`` — never a hang, never a
silently dropped solution.  Shards check their deadline at every tree
node, so a deadline-expired worker reports its partial result within
one node expansion; :data:`DEADLINE_GRACE` bounds how long the
scheduler waits for that report before writing the shard off.

**Dispatch.**  The engine strategies of
:mod:`repro.diagnose.pipeline` call :func:`run_shards` through this
module at dispatch time; it returns one :class:`ShardResult` per task,
in plan order.  Deadlines cross the process boundary as epoch
timestamps (``time.time``), the one place the diagnose stack uses
wall-clock: ``perf_counter`` values are not comparable between
processes (see :mod:`repro.diagnose.clock`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field

#: Seconds past the wall-clock deadline a shard may take to report its
#: partial (self-truncated) result before the scheduler gives up on it.
DEADLINE_GRACE = 10.0

_CONTEXT = None   # per-worker DiagnosisContext (set by _init_worker)


class DiagnosisContext:
    """Read-only diagnosis context each worker rebuilds exactly once.

    The payload shipped to the pool initializer is the pickle of
    ``(netlist, patterns, spec_out, config)`` — the netlist and the
    packed pattern words cross the process boundary once per *worker*,
    not once per shard.  The root
    :class:`~repro.diagnose.bitlists.DiagnosisState` (one simulation of
    the implementation) is rebuilt inside the worker; its packed value
    matrix never crosses the boundary at all.
    """

    def __init__(self, netlist, patterns, spec_out, config,
                 root_state=None):
        from .diagnose.bitlists import DiagnosisState
        self.config = config
        if root_state is None:
            root_state = DiagnosisState(netlist, patterns, spec_out)
        self.root_state = root_state


@dataclass
class ShardResult:
    """What one shard reports back to the scheduler.

    Budget/deadline exhaustion inside a shard is a *result* (partial
    ``solutions`` with ``stats.truncated`` set), not an ``error``;
    ``error`` is reserved for shards that produced nothing at all.
    """

    index: int                  # position in the deterministic shard plan
    solutions: list = field(default_factory=list)   # list[Solution]
    stats: object | None = None                     # EngineStats
    error: str | None = None    # worker crash / deadline overrun


def _init_worker(payload) -> None:
    global _CONTEXT
    netlist, patterns, spec_out, config = payload
    _CONTEXT = DiagnosisContext(netlist, patterns, spec_out, config)


def _worker_entry(task) -> ShardResult:
    # Import inside the worker: repro.diagnose.engine imports this
    # module at its top level, so the reverse import must stay lazy.
    from .diagnose import engine
    try:
        return engine.execute_shard(_CONTEXT, task)
    except Exception as exc:  # a shard must never take down its siblings
        return ShardResult(task[1],
                           error=f"{type(exc).__name__}: {exc}")


def run_shards(tasks, jobs: int, payload=None, context=None,
               wall_deadline: float | None = None) -> list:
    """Execute a deterministic shard plan; results come back in plan
    order regardless of completion order.

    ``tasks`` are the engine's shard descriptors (tuples whose second
    element is the plan index).  With ``jobs <= 1`` — or a single-shard
    plan, where a pool could only add overhead — the same shards run
    in-process on ``context``: the serial path *is* the parallel path
    with a one-slot pool, which is what makes ``jobs=1`` and ``jobs=N``
    comparable counter-for-counter.
    """
    if jobs <= 1 or len(tasks) <= 1:
        from .diagnose import engine
        if context is None:
            context = DiagnosisContext(*payload)
        results = []
        for task in tasks:
            try:
                results.append(engine.execute_shard(context, task))
            except Exception as exc:
                results.append(ShardResult(
                    task[1], error=f"{type(exc).__name__}: {exc}"))
        return results
    return _run_pool(tasks, jobs, payload, wall_deadline)


def _run_pool(tasks, jobs: int, payload,
              wall_deadline: float | None) -> list:
    results: list = [None] * len(tasks)
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                               initializer=_init_worker,
                               initargs=(payload,))
    try:
        futures = [pool.submit(_worker_entry, task) for task in tasks]
        for index, future in enumerate(futures):
            timeout = None
            if wall_deadline is not None:
                timeout = (max(0.0, wall_deadline - time.time())
                           + DEADLINE_GRACE)
            try:
                results[index] = future.result(timeout=timeout)
            except _FutureTimeout:
                future.cancel()
                results[index] = ShardResult(
                    index,
                    error="shard outlived the wall-clock deadline")
            except Exception as exc:  # BrokenProcessPool and friends
                results[index] = ShardResult(
                    index,
                    error=f"worker failed: {type(exc).__name__}: {exc}")
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results
