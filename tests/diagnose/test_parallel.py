"""Parallel scheduler determinism, truncation semantics, per-node seeds.

The scheduler's contract (repro.parallel): the shard plan, per-shard
exploration and merge order are functions of (netlist, patterns,
config) only, so ``jobs=N`` must return the same solution list and the
same deterministic counters as ``jobs=1``.  Wall-clock fields are
measurements and are excluded from every comparison here.
"""

import pytest

from repro.circuit import generators
from repro.diagnose import (DiagnosisConfig, DiagnosisState,
                            IncrementalDiagnoser, Mode, derive_seed,
                            path_trace_counts, rectifies,
                            solution_sort_key)
from repro.faults import (inject_stuck_at_faults,
                          observable_design_error_workload)
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
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_jobs_identical_on_random_netlists(seed):
    spec = generators.random_dag(5, 30, 3, seed=seed)
    workload = inject_stuck_at_faults(spec, 2, seed=seed + 7)
    patterns = PatternSet.random(5, 256, seed=seed + 1)
    serial = _exact_result(spec, workload, patterns, max_errors=2,
                           jobs=1)
    parallel = _exact_result(spec, workload, patterns, max_errors=2,
                             jobs=4)
    assert _describes(serial) == _describes(parallel)
    assert (_deterministic_stats(serial.stats)
            == _deterministic_stats(parallel.stats))


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
                            worker_budget=2)
    assert not full.stats.truncated
    assert partial.stats.truncated
    assert "node-budget" in partial.stats.truncation_causes
    assert partial.found  # outcome-guided ordering finds some early
    assert set(_describes(partial)) <= set(_describes(full))
    for solution in partial.solutions:
        assert rectifies(workload.impl, solution.netlist, patterns)


def test_zero_budget_truncates_before_any_node(c17):
    """The budget check runs before a candidate is marked visited or
    explored (the pre-PR bug explored budget-0 nodes and marked the
    first dropped candidate as visited)."""
    workload = inject_stuck_at_faults(c17, 1, seed=1)
    patterns = PatternSet.random(5, 512, seed=9)
    result = _exact_result(c17, workload, patterns, max_errors=1,
                           worker_budget=0)
    assert result.stats.truncated
    assert result.stats.nodes == 0
    assert not result.found


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
