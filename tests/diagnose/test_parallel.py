"""Parallel scheduler determinism, truncation semantics, per-node seeds.

The scheduler's contract (repro.parallel): the shard plan, per-shard
exploration and merge order are functions of (netlist, patterns,
config) only, so ``jobs=N`` must return the same solution list and the
same deterministic counters as ``jobs=1``.  Wall-clock fields are
measurements and are excluded from every comparison here.
"""

import multiprocessing
import os
import time

import pytest

from repro import parallel as scheduler
from repro.circuit import generators
from repro.diagnose import (DiagnosisConfig, DiagnosisState,
                            IncrementalDiagnoser, Mode, derive_seed,
                            path_trace_counts, rectifies,
                            solution_sort_key)
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
from repro.diagnose import engine
from repro.parallel import ShardResult, run_shards
from repro.sim import PatternSet
from repro.sim.logicsim import output_rows, simulate
from repro.tgen import random_patterns


def _exact_result(spec, workload, patterns, **kwargs):
    # Stuck-at convention (see tests/test_integration.py): the faulty
    # unit's observed behavior is the "spec"; the golden netlist is the
    # implementation that gets stuck-at corrections injected until it
    # reproduces that behavior.
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True, **kwargs)
    return IncrementalDiagnoser(workload.impl, spec, patterns,
                                config).run()


def _describes(result):
    return [s.describe() for s in result.solutions]


def _deterministic_stats(stats):
    """Every EngineStats field of the determinism contract (no times)."""
    return {
        "nodes": stats.nodes,
        "rounds": stats.rounds,
        "truncated": stats.truncated,
        "truncation_causes": list(stats.truncation_causes),
        "prescreen_dropped": stats.prescreen_dropped,
        "levels_tried": list(stats.levels_tried),
        "shards": [(s["shard"], s["nodes"], s["truncated"], s["error"])
                   for s in stats.shards],
    }


# ----------------------------------------------------------------------
# jobs=1 ≡ jobs=N
# ----------------------------------------------------------------------
# Every pool width from one forked worker up; the jobs=4 cases keep
# their long-standing seed-only ids.
@pytest.mark.parametrize("seed, jobs", [
    pytest.param(seed, jobs, id=str(seed) if jobs == 4
                 else f"{seed}-jobs{jobs}")
    for jobs in (4, 2, 3) for seed in (0, 1, 2)])
def test_exact_jobs_identical_on_random_netlists(seed, jobs):
    spec = generators.random_dag(5, 30, 3, seed=seed)
    workload = inject_stuck_at_faults(spec, 2, seed=seed + 7)
    patterns = PatternSet.random(5, 256, seed=seed + 1)
    serial = _exact_result(spec, workload, patterns, max_errors=2,
                           jobs=1)
    parallel = _exact_result(spec, workload, patterns, max_errors=2,
                             jobs=jobs)
    assert _describes(serial) == _describes(parallel)
    assert (_deterministic_stats(serial.stats)
            == _deterministic_stats(parallel.stats))


def _spy_plans(monkeypatch) -> list:
    """Record every ``run_shards`` call as (tasks, payload, results)."""
    plans = []
    real = scheduler.run_shards

    def run_shards(tasks, jobs, **kwargs):
        results = real(tasks, jobs, **kwargs)
        plans.append((tasks, kwargs["payload"], results))
        return results

    monkeypatch.setattr(scheduler, "run_shards", run_shards)
    return plans


def test_results_come_back_in_plan_order(c17, monkeypatch):
    """Whichever executor claims a shard, its result lands at its plan
    index, and every width reports what jobs=1 reports."""
    plans = _spy_plans(monkeypatch)
    workload = inject_stuck_at_faults(c17, 2, seed=3)
    patterns = PatternSet.random(5, 512, seed=9)
    _exact_result(c17, workload, patterns, max_errors=2)
    tasks, payload, _results = plans[-1]
    assert len(tasks) >= 5
    for size in (1, 2, 5):
        plan = tasks[:size]
        serial = None
        for jobs in (1, 2, 3):
            results = run_shards(plan, jobs, payload=payload)
            assert [r.index for r in results] == list(range(size))
            assert all(r.error is None for r in results)
            outcome = [([s.describe() for s in r.solutions], r.stats.nodes)
                       for r in results]
            serial = serial or outcome
            assert outcome == serial


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the worker must inherit the patched engine")
def test_dead_worker_loses_only_its_claimed_shards(c17, monkeypatch,
                                                   tmp_path):
    """A worker that dies mid-plan turns the shards it claimed into
    failed results; the caller finishes the rest of the plan, and the
    run is flagged truncated with the cause recorded."""
    workload = inject_stuck_at_faults(c17, 1, seed=1)
    patterns = PatternSet.random(5, 512, seed=9)
    plans = _spy_plans(monkeypatch)
    _exact_result(c17, workload, patterns, max_errors=1, jobs=1)
    (_tasks, _payload, serial), = plans
    assert len(serial) >= 3

    caller, died, ran = os.getpid(), tmp_path / "died", []
    real = engine.execute_shard

    def execute_shard(context, task):
        if os.getpid() != caller:
            died.touch()
            os._exit(1)
        # Hold the caller's first shard until the worker has claimed
        # one and died, so the plan has a lost shard on every run.
        give_up = time.monotonic() + 60
        while not died.exists() and time.monotonic() < give_up:
            time.sleep(0.01)
        ran.append(task[1])
        return real(context, task)

    monkeypatch.setattr(engine, "execute_shard", execute_shard)
    result = _exact_result(c17, workload, patterns, max_errors=1, jobs=2)
    (_tasks, _payload, results), = plans[1:]
    assert [r.index for r in results] == list(range(len(serial)))
    lost = [r.index for r in results if r.index not in ran]
    assert ran and lost and len(ran) + len(lost) == len(results)
    for res in results:
        if res.index in ran:
            assert res.error is None
            assert ([s.describe() for s in res.solutions]
                    == [s.describe() for s in serial[res.index].solutions])
        else:
            assert res.error.startswith("worker failed")
    assert result.stats.truncated
    causes = [c for c in result.stats.truncation_causes
              if "worker failed" in c]
    assert len(causes) == len(lost)


def test_dedc_jobs_identical(alu4):
    patterns = random_patterns(alu4, 512, seed=5)
    workload = observable_design_error_workload(alu4, 2, patterns,
                                                seed=11)

    def run(jobs):
        config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                                 max_errors=3, jobs=jobs)
        return IncrementalDiagnoser(alu4, workload.impl, patterns,
                                    config).run()

    serial, parallel = run(1), run(4)
    assert _describes(serial) == _describes(parallel)
    assert serial.stats.levels_tried == parallel.stats.levels_tried
    assert serial.stats.nodes == parallel.stats.nodes
    assert rectifies(alu4, parallel.solutions[0].netlist, patterns)


def test_same_config_same_result(c17):
    """Reproducibility: two identical runs print identically."""
    workload = inject_stuck_at_faults(c17, 2, seed=3)
    patterns = PatternSet.random(5, 512, seed=9)
    first = _exact_result(c17, workload, patterns, max_errors=2)
    second = _exact_result(c17, workload, patterns, max_errors=2)
    assert _describes(first) == _describes(second)
    assert (_deterministic_stats(first.stats)
            == _deterministic_stats(second.stats))


def test_solutions_canonically_sorted(c17):
    """Exact-mode output order is (cardinality, signature tuple), not
    dict discovery order."""
    workload = inject_stuck_at_faults(c17, 2, seed=3)
    patterns = PatternSet.random(5, 512, seed=9)
    result = _exact_result(c17, workload, patterns, max_errors=2,
                           jobs=2)
    assert len(result.solutions) > 1
    keys = [solution_sort_key(s) for s in result.solutions]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# truncation semantics
# ----------------------------------------------------------------------
def test_node_budget_yields_partial_flagged_result(c17):
    """Shard budget exhaustion keeps the solutions found so far and
    flags the run — never a silent drop."""
    workload = inject_stuck_at_faults(c17, 2, seed=3)
    patterns = PatternSet.random(5, 512, seed=9)
    full = _exact_result(c17, workload, patterns, max_errors=2)
    partial = _exact_result(c17, workload, patterns, max_errors=2,
                            max_nodes=2)
    assert not full.stats.truncated
    assert partial.stats.truncated
    assert "node-budget" in partial.stats.truncation_causes
    assert partial.found  # outcome-guided ordering finds some early
    assert set(_describes(partial)) <= set(_describes(full))
    for solution in partial.solutions:
        assert rectifies(workload.impl, solution.netlist, patterns)


def test_one_node_budget_truncates_every_shard(c17):
    """The budget check runs before a candidate is marked visited or
    explored, and ``max_nodes`` applies to each shard: with a budget of
    one node every shard stops after its root correction, and the run is
    flagged."""
    workload = inject_stuck_at_faults(c17, 2, seed=3)
    patterns = PatternSet.random(5, 512, seed=9)
    result = _exact_result(c17, workload, patterns, max_errors=2,
                           max_nodes=1)
    assert result.stats.truncated
    assert "node-budget" in result.stats.truncation_causes
    assert len(result.stats.shards) > 1
    assert all(shard["nodes"] <= 1 for shard in result.stats.shards)


def test_time_budget_expiry_mid_tree_truncates(c17):
    """Deadline expiry deep in the DFS unwinds every recursion level
    (not just one) and still reports the partial solutions found."""
    workload = inject_stuck_at_faults(c17, 3, seed=0)
    patterns = PatternSet.random(5, 512, seed=9)
    result = _exact_result(c17, workload, patterns, max_errors=3,
                           time_budget=0.05)
    assert result.stats.truncated
    assert "time-budget" in result.stats.truncation_causes
    for solution in result.solutions:
        assert rectifies(workload.impl, solution.netlist, patterns)


def test_failed_shard_degrades_not_hangs(c17):
    """A shard that dies (here: an unknown task kind reaching the
    worker) comes back as an error result; the merge would flag the
    run truncated instead of dropping it silently."""
    patterns = PatternSet.random(5, 64, seed=0)
    spec_out = output_rows(c17, simulate(c17, patterns))
    config = DiagnosisConfig()
    payload = (c17, patterns, spec_out, config)
    for jobs in (1, 2):
        results = run_shards([("bogus-kind", 0)], jobs, payload=payload)
        assert len(results) == 1
        assert results[0].error is not None
        assert "bogus-kind" in results[0].error


def test_merge_records_failed_shard_as_truncated(c17):
    patterns = PatternSet.random(5, 64, seed=0)
    engine = IncrementalDiagnoser(c17, c17, patterns)
    from repro.diagnose.report import EngineStats
    stats = EngineStats()
    engine.session.merge_shard(stats, ShardResult(0, error="worker died"),
                               "N=1 sa0@n1", None)
    assert stats.truncated
    assert stats.truncation_causes == ["N=1 sa0@n1: worker died"]
    assert stats.shards[0]["error"] == "worker died"


# ----------------------------------------------------------------------
# per-node path-trace seeds
# ----------------------------------------------------------------------
def test_derive_seed_stable_and_decorrelated():
    # root keeps the base seed; any applied signature perturbs it
    assert derive_seed(7, ()) == 7
    a = derive_seed(0, ("sa1@n12",))
    b = derive_seed(0, ("sa0@n12",))
    c = derive_seed(0, ("sa1@n12", "sa0@g3"))
    assert len({0, a, b, c}) == 4
    # application-order independent (correction sets are frozensets)
    assert derive_seed(0, ("x", "y")) == derive_seed(0, ("y", "x"))
    # cross-process/cross-version stable (cryptographic, not hash())
    assert a == 3606144054781808809


def test_per_node_samples_decorrelated(c17):
    """Same state, different tree nodes => different path-trace samples
    (the pre-PR bug sampled the identical vector subset everywhere)."""
    workload = inject_stuck_at_faults(c17, 2, seed=3)
    patterns = PatternSet.random(5, 1024, seed=9)
    spec_out = output_rows(c17, simulate(c17, patterns))
    state = DiagnosisState(workload.impl, patterns, spec_out)
    assert state.num_err > 24  # sampling actually kicks in
    root = path_trace_counts(state, 24, derive_seed(0, ()))
    child = path_trace_counts(state, 24,
                              derive_seed(0, ("sa0@fake",)))
    again = path_trace_counts(state, 24,
                              derive_seed(0, ("sa0@fake",)))
    assert (child == again).all()        # reproducible per node
    assert not (root == child).all()     # decorrelated across nodes
