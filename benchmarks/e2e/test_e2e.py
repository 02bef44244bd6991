"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --smoke`` (2 instances per workload, untraced and
traced) once and checks its output against ``BENCHMARK.json``.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
from instances import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_harness(spec):
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(measure.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_is_printed_with_its_unit(spec, smoke):
    _lines, result = smoke
    assert result["correct"] is True
    assert result["failed"] == 0
    # --trace 0 measures every instance, --trace 1 the first half.
    assert result["attempted"] == len(WORKLOADS) * (run.SMOKE_INSTANCES + 1)
    metrics = result["metrics"]
    for workload in spec["workloads"]:
        assert NAME.fullmatch(workload["name"])
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert NAME.fullmatch(metric["name"])
            entry = metrics[f"{workload['name']}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def test_traced_round_reaches_each_workloads_layers(smoke):
    _lines, result = smoke

    def value(workload, metric):
        return result["metrics"][f"{workload}.{metric}"]["value"]

    for span in ("engine.child", "engine.candidates", "circuit.linetable",
                 "pathtrace", "screening.verr", "parallel.run_shards"):
        assert value("exact-sa", f"{span}.calls") > 0
    for span in ("tree.expand", "tree.child", "screening.corrections",
                 "potential.rank_lines", "bitlists.outcome",
                 "sim.propagate", "sim.simulate"):
        assert value("dedc-de", f"{span}.calls") > 0
    assert value("dedc-de", "engine.child.calls") == 0
    assert value("exact-jobs2", "parallel.run_shards.calls") > 0
    for workload in WORKLOADS:
        assert value(workload, "search.nodes") > 0
        for span in ("bitlists.state", "pathtrace"):
            inclusive = value(workload, f"{span}.s")
            assert 0 < value(workload, f"{span}.self_s") <= inclusive


def test_jobs2_digests_equal_jobs1(smoke):
    """exact-jobs2 runs exact-sa's instances at jobs=2."""
    lines, _result = smoke
    digests = {}
    for line in lines:
        match = re.match(r"([a-z0-9-]+): seed=.* digest=([0-9a-f]+)", line)
        if match:
            digests[match.group(1)] = match.group(2)
    assert digests["exact-jobs2"] == digests["exact-sa"]
    assert "exact-sa and exact-jobs2 digests agree: True" in lines


def test_a_diagnosis_that_raises_fails_the_run(monkeypatch, capsys):
    """A crash must fail the run, not drop out of the timings."""

    class Broken:
        def __init__(self, *args):
            raise RuntimeError("injected failure")

    monkeypatch.setattr(measure, "IncrementalDiagnoser", Broken)
    monkeypatch.setattr(
        run, "run_workload",
        lambda name, seed, seconds, trace, smoke: measure.measure(
            name, seed, seconds, bool(trace), run.SMOKE_INSTANCES))
    code = run.main(["--workload", "exact-sa", "--smoke", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == run.SMOKE_INSTANCES
