"""The layer benchmark harness, ``benchmarks/harness.py``.

The committed ``BENCH_layers.json`` must validate, and a corrupted copy
of any of its records must trip the owning suite's check.
"""

import copy
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import harness  # noqa: E402


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / "BENCH_layers.json").read_text(encoding="utf-8"))


def _set(**fields):
    return lambda rec: rec.update(fields)


def _nested(key, **fields):
    return lambda rec: rec[key].update(fields)


CORRUPTIONS = [
    # (suite, kind, circuit prefix, corruption, expected message)
    ("sim", "micro", "", _set(kernel="scan"), "unknown kernel"),
    ("sim", "scaling", "", _set(nvectors=0), "nvectors must be"),
    ("sim", "micro", "", _set(wall_s=0.0), "wall_s must be positive"),
    ("sim", "scaling", "", _set(events_per_s=-1.0), "events_per_s must be"),
    ("analyze", "prescreen", "masked",
     lambda r: r.update(dropped=r["dropped"] + 1), "kept + dropped"),
    ("prove", "sweep", "twins",
     lambda r: r.update(unknown=r["unknown"] + 1), "!= queries"),
    ("prove", "dedup", "",
     lambda r: r.update(merged=r["merged"] + 1), "after + merged"),
    ("prove", "dedup", "",
     lambda r: r.update(checked=r["merged"] - 1), "merged > checked"),
    ("seq", "fixpoint", "stuck",
     lambda r: r.update(iterations=r["dffs"] + 2), "termination bound"),
    ("seq", "fixpoint", "stuck",
     lambda r: r.update(stuck_registers=r["dffs"] - 1), "not all recovered"),
    ("seq", "scorr", "twinreg",
     lambda r: r.update(proven=r["proven"] + 1), "!= candidates"),
    ("seq", "prescreen", "", _set(identical=False), "changed the solution"),
    ("seq", "prescreen", "", _set(dropped=0), "dropped nothing"),
    ("testability", "podem", "",
     lambda r: r["guided"].update(backtracks=r["unguided"]["backtracks"]),
     "strictly reduce"),
    ("testability", "podem", "",
     lambda r: r["guided"].update(faults=r["unguided"]["faults"] + 1),
     "different fault lists"),
    ("testability", "podem", "",
     lambda r: r["guided"].update(aborted=r["unguided"]["aborted"] + 1),
     "introduced aborts"),
    ("testability", "podem", "",
     lambda r: r.update(sat_confirmed=r["sat_checked"] - 1),
     "SAT cross-check"),
    ("testability", "podem", "",
     lambda r: r.update(sat_checked=r["gadgets"] - 1),
     "statically identified"),
    ("testability", "podem", "", _nested("guided", static_untestable=0),
     "zero search"),
]


def test_committed_payload_is_valid(committed):
    assert harness.validate(committed) == []
    assert set(committed["suites"]) == set(harness.SUITES)
    assert not committed["smoke"]
    assert len(committed["provenance"]["git_sha"]) == 40


@pytest.mark.parametrize("suite,kind,prefix,corrupt,message", CORRUPTIONS,
                         ids=[f"{c[0]}-{c[4]}" for c in CORRUPTIONS])
def test_corrupted_record_trips_its_suite_check(committed, suite, kind,
                                                prefix, corrupt, message):
    bad = copy.deepcopy(committed)
    record = next(rec for rec in bad["suites"][suite]
                  if rec["kind"] == kind and rec["circuit"].startswith(prefix))
    corrupt(record)
    errors = harness.validate(bad)
    assert any(err.startswith(f"{suite}/") and message in err
               for err in errors), errors


@pytest.mark.parametrize("suite", harness.SUITES)
def test_missing_key_and_unknown_kind_are_errors(committed, suite):
    bad = copy.deepcopy(committed)
    records = bad["suites"][suite]
    kind = records[0]["kind"]
    del records[0][harness.suite(suite).REQUIRED[kind][-1]]
    records.append({"kind": "bogus", "circuit": "c17"})
    errors = harness.validate(bad)
    assert any(err.startswith(f"{suite}/{kind}/") and "missing" in err
               for err in errors), errors
    assert f"{suite}/bogus/c17: unknown record kind" in errors


def test_payload_without_provenance_is_rejected(committed, tmp_path):
    bad = copy.deepcopy(committed)
    del bad["provenance"]
    assert any("provenance" in err for err in harness.validate(bad))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert harness.main(["--check", str(path)]) == 2


def test_payload_missing_a_suite_is_rejected(committed):
    bad = copy.deepcopy(committed)
    del bad["suites"]["seq"]
    assert "seq: no records" in harness.validate(bad)


def test_one_suite_round_trips_through_write_and_check(tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(harness, "SUITES", ("analyze",))
    out = tmp_path / "layers.json"
    assert harness.main(["--smoke", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["smoke"] is True
    assert set(payload["provenance"]) == set(harness.PROVENANCE)
    assert harness.main(["--check", str(out)]) == 0
