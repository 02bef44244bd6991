"""Self-scheduling shard executor for parallel decision-tree diagnosis.

The round-based decision-tree traversal (§3.3) is embarrassingly
parallel across subtrees: once the root node has been expanded, the
exploration below any two root corrections shares no mutable state.
Sharding the candidate space is the standard scaling move for
model-based diagnosis (greedy stochastic search over diagnosis spaces,
hierarchical decomposition); this module brings it to both engine
protocols.

**Sharding model.**  Exact stuck-at mode distributes depth-1 subtrees:
the caller expands the root node once (path trace, Theorem 1 screen,
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
never of ``jobs``, of which process claims a shard or of completion
order — so ``jobs=N`` returns the same solution list and the same
deterministic counters (``nodes``, ``truncated``,
``prescreen_dropped``, ``levels_tried``, per-shard node counts) as
``jobs=1`` for every ``N``.  Wall-clock fields are
measurements and vary.  The contract requires ``time_budget=None``:
wall-clock expiry truncates whatever was in flight and is inherently
timing-dependent.

**Worker failure.**  A crashed worker (hard death, broken pool,
unpicklable result) or one that outlives the wall-clock deadline turns
every shard it claimed into a failed :class:`ShardResult` at that
shard's plan index; the merge keeps every other shard's solutions and
flags the run ``truncated`` with the failure recorded in
``EngineStats.truncation_causes`` — never a hang, never a silently
dropped solution.  The caller keeps claiming while a worker is gone,
so the rest of the plan still runs.  A broken pool takes all of its
workers down, so at ``jobs >= 3`` one death loses every forked
worker's claimed shards; the caller's own shards always survive.
Shards check their deadline at every tree node, so a deadline-expired
worker reports its partial result within one node expansion;
:data:`DEADLINE_GRACE` bounds how long the scheduler waits for that
report before writing the worker off.

**Dispatch.**  The engine strategies of
:mod:`repro.diagnose.pipeline` call :func:`run_shards` through this
module at dispatch time; it returns one :class:`ShardResult` per task,
in plan order.  ``jobs=N`` means N processes counting the caller;
N−1 are forked.  Every executor claims the next unclaimed plan index
from one shared counter and runs that shard, so fast shards never wait
behind slow ones and the caller, which already holds the warm root
state, does its share instead of idling.  Each forked worker gets one
future for its whole share and returns its results in one reply.
Under spawn or forkserver a worker attaches to the counter only when
its interpreter has started; at ``jobs >= 3`` one that starts after
the plan is finished finds the counter gone and exits with an error,
which costs nothing because every shard has been reported by then.
Deadlines cross the process boundary as epoch timestamps
(``time.time``), the one place the diagnose stack uses wall-clock:
``perf_counter`` values are not comparable between processes (see
:mod:`repro.diagnose.clock`).
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field

#: Seconds past the wall-clock deadline a shard may take to report its
#: partial (self-truncated) result before the scheduler gives up on it.
DEADLINE_GRACE = 10.0

_WORKER = None   # per-worker (context, tasks, claim), set by _init_worker


class DiagnosisContext:
    """Read-only diagnosis context: the root state every shard starts from.

    The caller runs its shards on the diagnoser's own context, whose root
    :class:`~repro.diagnose.bitlists.DiagnosisState` is already built.
    A forked worker rebuilds its context exactly once, in the pool
    initializer, from the payload ``(netlist, patterns, spec_out,
    config)``.  Under fork the payload is inherited with the process
    memory; it is pickled, once per worker and never per shard, only
    under the spawn or forkserver start methods.  The root state (one
    simulation of the implementation) is rebuilt inside the worker; its
    packed value matrix never crosses the process boundary.
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


def _claim(counter) -> int:
    # The locked section is a bare read-and-increment, so a worker the
    # pool kills is all but never holding the lock when it dies.
    with counter.get_lock():
        index = counter.value
        counter.value = index + 1
    return index


def _drain(context, tasks, claim) -> list:
    """Run shards in claim order until the plan is exhausted."""
    # Import at call time: repro.diagnose.engine imports this module at
    # its top level, so the reverse import must stay lazy.
    from .diagnose import engine
    results = []
    while (index := claim()) < len(tasks):
        task = tasks[index]
        try:
            results.append(engine.execute_shard(context, task))
        except Exception as exc:  # a shard must never take down its siblings
            results.append(ShardResult(
                task[1], error=f"{type(exc).__name__}: {exc}"))
    return results


def _init_worker(payload, tasks, counter) -> None:
    global _WORKER
    _WORKER = (DiagnosisContext(*payload), tasks,
               functools.partial(_claim, counter))


def _worker_entry() -> list:
    return _drain(*_WORKER)


def run_shards(tasks, jobs: int, payload=None, context=None,
               wall_deadline: float | None = None) -> list:
    """Execute a deterministic shard plan; results come back in plan
    order regardless of which process ran which shard.

    ``tasks`` are the engine's shard descriptors (tuples whose second
    element is the plan index).  ``jobs`` counts the calling process,
    which runs its shards in-process on ``context`` (built from
    ``payload`` when not given); the other ``jobs - 1`` executors are
    forked only when the plan has shards enough to share.  The serial
    path *is* the parallel path with no forked workers, which is what
    makes ``jobs=1`` and ``jobs=N`` comparable counter-for-counter.
    """
    if context is None:
        context = DiagnosisContext(*payload)
    workers = min(jobs, len(tasks)) - 1
    if workers <= 0:
        return _drain(context, tasks, itertools.count().__next__)
    return _run_pool(tasks, workers, context, payload, wall_deadline)


def _run_pool(tasks, workers: int, context, payload,
              wall_deadline: float | None) -> list:
    counter = multiprocessing.Value("i", 0)
    lost = None   # why the shards no executor reported on were lost
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=_init_worker,
                               initargs=(payload, tasks, counter))
    try:
        futures = [pool.submit(_worker_entry) for _ in range(workers)]
        reported = _drain(context, tasks,
                          functools.partial(_claim, counter))
        for future in futures:
            timeout = None
            if wall_deadline is not None:
                timeout = max(0.0, wall_deadline + DEADLINE_GRACE
                              - time.time())
            try:
                reported += future.result(timeout=timeout)
            except _FutureTimeout:
                lost = lost or "worker outlived the wall-clock deadline"
            except Exception as exc:  # BrokenProcessPool and friends
                lost = lost or (f"worker failed: "
                                f"{type(exc).__name__}: {exc}")
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    results: list = [None] * len(tasks)
    for res in reported:
        results[res.index] = res
    return [res if res is not None else ShardResult(index, error=lost)
            for index, res in enumerate(results)]
