"""Ranked fault-dictionary diagnosis."""

import sys

import pytest

from repro.circuit import generators
from repro.diagnose.baselines import dictionary_diagnosis
from repro.diagnose.dictionary import FaultDictionary
from repro.faults import inject_stuck_at_faults
from repro.faults.bridging import BridgingDiagnoser, inject_bridging_fault
from repro.sim import PatternSet, count_failing, logicsim, output_rows


@pytest.fixture(scope="module")
def c17_dict():
    circuit = generators.c17()
    patterns = PatternSet.exhaustive(5)
    return circuit, patterns, FaultDictionary(circuit, patterns)


def test_dictionary_drops_undetectable_faults(c17_dict):
    circuit, patterns, dictionary = c17_dict
    # c17 has no redundant faults under exhaustive vectors
    assert len(dictionary) == 2 * 17


def test_exact_match_for_single_fault(c17_dict):
    circuit, patterns, dictionary = c17_dict
    for seed in range(4):
        workload = inject_stuck_at_faults(circuit, 1, seed=seed)
        matches = dictionary.lookup(workload.impl, top=5)
        best = matches[0]
        assert best.exact
        truth = workload.truth[0]
        # the top candidates are the truth fault's equivalence class;
        # the truth site must appear among the exact matches
        exact_sites = {(m.site, m.fault.value)
                       for m in matches if m.exact}
        assert (truth.site, int(truth.kind[-1])) in exact_sites


def test_ranking_degrades_gracefully_for_double_faults(c17_dict):
    """No exact single-fault match exists (usually), but the ranking
    still puts faults on the involved sites near the top."""
    circuit, patterns, dictionary = c17_dict
    workload = inject_stuck_at_faults(circuit, 2, seed=4)
    matches = dictionary.lookup(workload.impl, top=10)
    assert matches
    assert matches[0].hits >= matches[-1].hits - \
        (matches[-1].misses + matches[-1].mispredictions)
    truth_drivers = {r.site.split("->", 1)[0] for r in workload.truth}
    top_drivers = {m.site.split("->", 1)[0] for m in matches}
    assert truth_drivers & top_drivers


def test_pass_fail_vs_full_response_resolution():
    """The full-response dictionary can only sharpen the ranking."""
    circuit = generators.ripple_carry_adder(3)
    patterns = PatternSet.exhaustive(7)
    full = FaultDictionary(circuit, patterns, full_response=True)
    pf = FaultDictionary(circuit, patterns, full_response=False)
    workload = inject_stuck_at_faults(circuit, 1, seed=2)
    full_exact = [m for m in full.lookup(workload.impl, top=50)
                  if m.exact]
    pf_exact = [m for m in pf.lookup(workload.impl, top=50) if m.exact]
    full_sites = {(m.site, m.fault.value) for m in full_exact}
    pf_sites = {(m.site, m.fault.value) for m in pf_exact}
    assert full_sites <= pf_sites   # full response is strictly stricter
    assert full_exact               # and still finds the real fault


def test_clean_device_has_zero_hit_candidates(c17_dict):
    circuit, patterns, dictionary = c17_dict
    matches = dictionary.lookup(circuit.copy(), top=3)
    assert all(m.hits == 0 for m in matches)
    assert not any(m.exact for m in matches)


def count_calls(monkeypatch, func):
    """Route every loaded ``repro`` module's binding of ``func`` through
    a counter; returns the list of netlists it is called on."""
    seen = []

    def counted(netlist, *args, **kwargs):
        seen.append(netlist)
        return func(netlist, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return seen


def test_each_fault_and_good_netlist_simulated_once(c17, monkeypatch):
    """A full-response dictionary propagates each simulated fault once,
    and the dictionary and bridging diagnosers simulate the good
    netlist once."""
    patterns = PatternSet.exhaustive(5)
    propagates = count_calls(monkeypatch, logicsim.propagate)
    dictionary = FaultDictionary(c17, patterns, full_response=True)
    simulated = 2 * len(dictionary.table) - dictionary.statically_skipped
    assert len(propagates) == simulated

    simulations = count_calls(monkeypatch, logicsim.simulate)
    impl = inject_stuck_at_faults(c17, 1, seed=1).impl
    dictionary_diagnosis(c17, impl, patterns)
    assert sum(netlist is c17 for netlist in simulations) == 1

    device = inject_bridging_fault(c17, seed=0).impl
    good_out = output_rows(c17, logicsim.simulate(c17, patterns))
    device_out = output_rows(device, logicsim.simulate(device, patterns))
    assert count_failing(good_out, device_out, patterns.nbits)
    simulations.clear()
    BridgingDiagnoser(device, c17, patterns).run()
    assert sum(netlist is c17 for netlist in simulations) == 1
