"""Staged pipeline core: session, stages, config validation, tracing."""

import io
import json

import pytest

from repro.circuit import bench_io, generators
from repro.cli import main
from repro.diagnose import (STAGE_ORDER, TRACE_SCHEMA, DiagnosisConfig,
                            DiagnosisSession, HLevel,
                            IncrementalDiagnoser, Mode, StageRecord,
                            TraceWriter, select_strategy,
                            validate_trace_events, validate_trace_file)
from repro.diagnose import clock
from repro.diagnose.pipeline import ExactStuckAtStrategy, LadderStrategy
from repro.diagnose.report import EngineStats
from repro.errors import DiagnosisError
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet


def scrub(stages, drop_info=()):
    """Stage records minus wall-clock (a measurement) and any ``info``
    keys that echo the config under comparison (e.g. ``jobs``)."""
    out = []
    for rec in stages:
        rec = {k: v for k, v in rec.items() if k != "wall_s"}
        rec["info"] = {k: v for k, v in rec["info"].items()
                       if k not in drop_info}
        out.append(rec)
    return out


# ----------------------------------------------------------------------
# DiagnosisConfig.validate
# ----------------------------------------------------------------------
def test_validate_returns_self_on_good_config():
    config = DiagnosisConfig()
    assert config.validate() is config


def test_validate_coerces_mode_string():
    config = DiagnosisConfig(mode="stuck-at")
    config.validate()
    assert config.mode is Mode.STUCK_AT


@pytest.mark.parametrize("kwargs,needle", [
    ({"mode": "sideways"}, "valid modes"),
    ({"mode": Mode.DESIGN_ERROR, "exact": True}, "exact=True"),
    ({"traversal": "zigzag"}, "traversal"),
    ({"max_errors": 0}, "max_errors"),
    ({"jobs": 0}, "jobs"),
    ({"jobs": 2.5}, "jobs"),
    ({"pathtrace_samples": 0}, "pathtrace_samples"),
    ({"max_nodes": 0}, "max_nodes"),
    ({"corrections_per_node": 0}, "corrections_per_node"),
    ({"candidate_fraction": 0.0}, "candidate_fraction"),
    ({"candidate_fraction": 1.5}, "candidate_fraction"),
    ({"theorem1_safety": 0.0}, "theorem1_safety"),
    ({"prove_budget": 0}, "prove_budget"),
    ({"time_budget": 0}, "time_budget"),
    ({"schedule": ["not-a-level"]}, "HLevel"),
    ({"schedule": [HLevel(0.3, 0.7, 1.5)]}, "[0, 1]"),
])
def test_validate_rejects(kwargs, needle):
    with pytest.raises(DiagnosisError) as excinfo:
        DiagnosisConfig(**kwargs).validate()
    assert needle in str(excinfo.value)


def test_validate_allows_ablation_zero_heuristics():
    # bench/ablation.py disables heuristics by zeroing them.
    DiagnosisConfig(schedule=[HLevel(0.3, 0.0, 0.0)]).validate()


def test_validate_seq_prescreen_needs_sequential_engine():
    config = DiagnosisConfig(seq_prescreen=True)
    config.validate()                      # entry point unknown: fine
    config.validate(sequential=True)       # TimeFrameDiagnoser: fine
    with pytest.raises(DiagnosisError, match="seq_prescreen"):
        config.validate(sequential=False)  # combinational engine: no


def test_engine_rejects_invalid_config(c17):
    config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=True)
    patterns = PatternSet.random(c17.num_inputs, 64, seed=0)
    with pytest.raises(DiagnosisError, match="exact=True"):
        IncrementalDiagnoser(c17, c17.copy(), patterns, config)


# ----------------------------------------------------------------------
# stage records
# ----------------------------------------------------------------------
def test_stage_record_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown stage"):
        StageRecord("frobnicate")


def test_stage_record_to_dict_shape():
    record = StageRecord("ingest", target=2, items_in=7)
    record.items_out = 3
    record.info = {"k": 1}
    assert record.to_dict() == {"stage": "ingest", "target": 2,
                                "in": 7, "out": 3, "info": {"k": 1},
                                "wall_s": 0.0}


def test_stage_recorded_even_when_body_raises():
    session = DiagnosisSession(DiagnosisConfig())
    with pytest.raises(RuntimeError):
        with session.stage("ingest"):
            raise RuntimeError("boom")
    assert session.stats.stages[-1]["stage"] == "ingest"


def test_select_strategy():
    exact = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True)
    assert isinstance(select_strategy(exact), ExactStuckAtStrategy)
    first = DiagnosisConfig(mode=Mode.STUCK_AT, exact=False)
    assert isinstance(select_strategy(first), LadderStrategy)
    dedc = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False)
    assert isinstance(select_strategy(dedc), LadderStrategy)


def test_engine_stats_merge_concatenates_stages():
    a, b = EngineStats(), EngineStats()
    a.stages.append({"stage": "ingest"})
    b.stages.append({"stage": "search"})
    a.merge(b)
    assert [r["stage"] for r in a.stages] == ["ingest", "search"]


# ----------------------------------------------------------------------
# determinism of the stage records
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def exact_workload():
    spec = generators.random_dag(5, 30, 3, seed=0)
    workload = inject_stuck_at_faults(spec, 2, seed=7)
    patterns = PatternSet.random(5, 256, seed=1)
    return spec, workload.impl, patterns


def run_stage_records(spec, impl, patterns, **kwargs):
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             max_errors=2, **kwargs)
    result = IncrementalDiagnoser(impl, spec, patterns, config).run()
    return result.stats.stages


def test_stage_records_identical_jobs_1_vs_4(exact_workload):
    spec, impl, patterns = exact_workload
    serial = run_stage_records(spec, impl, patterns, jobs=1)
    sharded = run_stage_records(spec, impl, patterns, jobs=4)
    # ``info.jobs`` echoes the config knob under comparison; everything
    # else — counts, node totals, shard plans — must match exactly.
    assert (scrub(serial, drop_info=("jobs",))
            == scrub(sharded, drop_info=("jobs",)))


def test_run_is_repeatable(exact_workload):
    spec, impl, patterns = exact_workload
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             max_errors=2)
    diag = IncrementalDiagnoser(impl, spec, patterns, config)
    first = diag.run()
    second = diag.run()
    assert ([s.describe() for s in first.solutions]
            == [s.describe() for s in second.solutions])
    assert scrub(first.stats.stages) == scrub(second.stats.stages)


def test_stage_sequence_follows_canonical_order(exact_workload):
    spec, impl, patterns = exact_workload
    stages = [r["stage"] for r in
              run_stage_records(spec, impl, patterns)]
    assert stages[0] == "ingest"
    assert stages[-1] == "report"
    assert set(stages) <= set(STAGE_ORDER)


# ----------------------------------------------------------------------
# trace stream
# ----------------------------------------------------------------------
def test_trace_stream_schema_valid(exact_workload):
    spec, impl, patterns = exact_workload
    buf = io.StringIO()
    config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                             max_errors=2)
    IncrementalDiagnoser(impl, spec, patterns, config,
                         trace=TraceWriter(buf)).run()
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert validate_trace_events(events) == []
    assert events[0]["event"] == "run-start"
    assert events[0]["schema"] == TRACE_SCHEMA
    assert events[-1]["event"] == "run-end"
    # the setup stages recorded at construction appear after run-start
    assert [e["stage"] for e in events[1:3]] == ["ingest", "bitlists"]


@pytest.mark.parametrize("events,needle", [
    ([], "empty trace"),
    ([{"seq": 0, "event": "run-end", "found": True, "solutions": 1,
       "nodes": 1, "truncated": False, "total_s": 0.1}],
     "first event must be run-start"),
    ([{"seq": 0, "event": "run-start", "schema": TRACE_SCHEMA}],
     "last event must be run-end"),
    ([{"seq": 0, "event": "run-start", "schema": "bogus/9"},
      {"seq": 1, "event": "run-end", "found": False, "solutions": 0,
       "nodes": 0, "truncated": False, "total_s": 0.0}],
     "schema"),
    ([{"seq": 0, "event": "run-start", "schema": TRACE_SCHEMA},
      {"seq": 5, "event": "run-end", "found": False, "solutions": 0,
       "nodes": 0, "truncated": False, "total_s": 0.0}],
     "out of order"),
    ([{"seq": 0, "event": "run-start", "schema": TRACE_SCHEMA},
      {"seq": 1, "event": "stage", "stage": "frobnicate", "in": 0,
       "out": 0, "info": {}, "wall_s": 0.0},
      {"seq": 2, "event": "run-end", "found": False, "solutions": 0,
       "nodes": 0, "truncated": False, "total_s": 0.0}],
     "unknown stage"),
    ([{"seq": 0, "event": "run-start", "schema": TRACE_SCHEMA},
      {"seq": 1, "event": "stage", "stage": "ingest", "in": -2,
       "out": 0, "info": {}, "wall_s": 0.0},
      {"seq": 2, "event": "run-end", "found": False, "solutions": 0,
       "nodes": 0, "truncated": False, "total_s": 0.0}],
     "non-negative"),
    ([{"seq": 0, "event": "run-start", "schema": TRACE_SCHEMA},
      {"seq": 1, "event": "run-end", "found": False}],
     "run-end missing"),
])
def test_validate_trace_events_rejects(events, needle):
    errors = validate_trace_events(events)
    assert any(needle in err for err in errors), errors


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_cli_trace_and_trace_check(tmp_path, capsys):
    spec_path = tmp_path / "spec.bench"
    impl_path = tmp_path / "impl.bench"
    trace_path = tmp_path / "run.trace"
    bench_io.dump(generators.c17(), spec_path)
    assert main(["inject", str(spec_path), str(impl_path),
                 "--faults", "1", "--seed", "3"]) == 0
    capsys.readouterr()
    rc = main(["diagnose", str(spec_path), str(impl_path),
               "--vectors", "256", "--trace", str(trace_path),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["stages"][0]["stage"] == "ingest"
    assert validate_trace_file(str(trace_path)) == []
    assert main(["trace-check", str(trace_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_trace_check_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"seq": 0, "event": "nonsense"}\n')
    assert main(["trace-check", str(bad)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_diagnose_rejects_bad_flag_combo(tmp_path):
    spec_path = tmp_path / "spec.bench"
    bench_io.dump(generators.c17(), spec_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["diagnose", str(spec_path), str(spec_path), "--jobs", "0"])
    assert "jobs" in str(excinfo.value)


# ----------------------------------------------------------------------
# clock helpers
# ----------------------------------------------------------------------
def test_clock_deadline_roundtrip():
    assert clock.deadline_in(None) is None
    assert clock.perf_to_wall(None) is None
    deadline = clock.deadline_in(60.0)
    assert not clock.expired(deadline)
    assert clock.expired(clock.now() - 1.0)
    assert not clock.expired(None)
    wall = clock.perf_to_wall(deadline)
    back = clock.wall_to_perf(wall)
    assert abs(back - deadline) < 0.5
