"""Incremental facts warming inside the diagnosis engine.

With ``static_prescreen`` on, the engine warms every expandable child
node's dataflow-facts bundle from its parent's via its change record
instead of recomputing at the child's pre-screen.  Every warm repair is
exact, so the *only* observable difference from a scratch run
(:func:`~tests.diagnose.fakes.scratch_facts`) must be the
``facts_reused`` / ``facts_recomputed`` / ``delta_edits`` counters —
solutions, node counts, prescreen drops and ladder rungs are
bit-identical.
"""

from repro.diagnose import DiagnosisConfig, IncrementalDiagnoser, Mode
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet
from tests.diagnose.fakes import scratch_facts


def run(spec, impl, patterns, **kwargs):
    config = DiagnosisConfig(**kwargs)
    return IncrementalDiagnoser(spec, impl, patterns, config).run()


def outcome(result):
    """Everything deterministic a run reports, minus the new counters."""
    return (
        [tuple(sorted(r.signature for r in s.records))
         for s in result.solutions],
        result.stats.nodes,
        result.stats.prescreen_dropped,
        result.stats.levels_tried,
    )


def facts_counters(result):
    stats = result.stats
    return (stats.facts_reused, stats.facts_recomputed,
            stats.delta_edits)


# ----------------------------------------------------------------------
# bit-identity: warmed vs scratch facts
# ----------------------------------------------------------------------
def test_exact_mode_bit_identical_and_counts_reuse(rca4):
    workload = inject_stuck_at_faults(rca4, 2, seed=3)
    patterns = PatternSet.random(rca4.num_inputs, 512, seed=9)
    kwargs = dict(mode=Mode.STUCK_AT, exact=True, max_errors=2)
    on = run(workload.impl, rca4, patterns, **kwargs)
    with scratch_facts():
        off = run(workload.impl, rca4, patterns, **kwargs)
    assert on.found
    assert outcome(on) == outcome(off)
    assert on.stats.facts_reused > 0
    assert on.stats.delta_edits >= on.stats.facts_reused
    assert facts_counters(off) == (0, 0, 0)


def test_tree_mode_bit_identical_and_counts_reuse(rca4):
    workload = inject_stuck_at_faults(rca4, 2, seed=5)
    patterns = PatternSet.random(rca4.num_inputs, 512, seed=9)
    kwargs = dict(mode=Mode.STUCK_AT, exact=False, max_errors=2)
    on = run(workload.impl, rca4, patterns, **kwargs)
    with scratch_facts():
        off = run(workload.impl, rca4, patterns, **kwargs)
    assert outcome(on) == outcome(off)
    # warms fire only for children that may expand; a first-round hit
    # can legitimately leave the counter at zero, but the scratch run
    # must never move it
    assert facts_counters(off) == (0, 0, 0)
    if on.stats.nodes > len(on.solutions):
        assert on.stats.facts_reused + on.stats.facts_recomputed > 0


def test_dedc_mode_bit_identical(alu4):
    from repro.faults import observable_design_error_workload
    from repro.tgen import random_patterns
    patterns = random_patterns(alu4, 512, seed=5)
    workload = observable_design_error_workload(alu4, 2, patterns,
                                                seed=7)
    kwargs = dict(mode=Mode.DESIGN_ERROR, exact=False, max_errors=2,
                  time_budget=120.0)
    on = run(alu4, workload.impl, patterns, **kwargs)
    with scratch_facts():
        off = run(alu4, workload.impl, patterns, **kwargs)
    assert outcome(on) == outcome(off)
    assert facts_counters(off) == (0, 0, 0)


# ----------------------------------------------------------------------
# counter gating
# ----------------------------------------------------------------------
def test_counters_stay_zero_without_prescreen(rca4):
    workload = inject_stuck_at_faults(rca4, 2, seed=3)
    patterns = PatternSet.random(rca4.num_inputs, 512, seed=9)
    result = run(workload.impl, rca4, patterns, mode=Mode.STUCK_AT,
                 exact=True, max_errors=2, static_prescreen=False)
    assert facts_counters(result) == (0, 0, 0)


# ----------------------------------------------------------------------
# scheduler determinism contract extends to the new counters
# ----------------------------------------------------------------------
def test_counters_identical_serial_vs_pool(rca4):
    workload = inject_stuck_at_faults(rca4, 2, seed=3)
    patterns = PatternSet.random(rca4.num_inputs, 512, seed=9)
    serial = run(workload.impl, rca4, patterns, mode=Mode.STUCK_AT,
                 exact=True, max_errors=2, jobs=1)
    pooled = run(workload.impl, rca4, patterns, mode=Mode.STUCK_AT,
                 exact=True, max_errors=2, jobs=2)
    assert outcome(serial) == outcome(pooled)
    assert facts_counters(serial) == facts_counters(pooled)
    assert serial.stats.facts_reused > 0
