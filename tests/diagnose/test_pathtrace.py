"""Path-trace marking and its completeness guarantee.

The load-bearing property (from Veneris & Hajj, used in §3.1): for any
failing vector, path trace marks at least one line from every set of
valid corrections — in particular, at least one line of the *actual*
injected fault set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import GateType, Netlist, generators
from repro.diagnose import (DiagnosisState, path_trace_counts,
                            path_trace_vector, marked_lines,
                            top_fraction)
from repro.faults import inject_stuck_at_faults
from repro.sim import PatternSet, output_rows, simulate
from repro.sim.packing import bit_indices, num_words
from tests.diagnose.pathtrace_oracle import (dfs_path_trace_counts,
                                             dfs_path_trace_vector)


def diagnosis_state_for(spec, count, seed, nbits=256):
    """State in the fault-modeling direction (good netlist vs device)."""
    workload = inject_stuck_at_faults(spec, count, seed=seed)
    patterns = PatternSet.random(spec.num_inputs, nbits, seed=seed + 1)
    device_out = output_rows(workload.impl,
                             simulate(workload.impl, patterns))
    state = DiagnosisState(spec, patterns, device_out)
    return state, workload


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000), count=st.integers(1, 3))
def test_pathtrace_marks_a_fault_line(seed, count):
    """Property: every failing vector's marking hits >=1 injected site."""
    spec = generators.random_dag(6, 50, 4, seed=seed % 7)
    state, workload = diagnosis_state_for(spec, count, seed)
    failing = bit_indices(state.err_mask, state.patterns.nbits)
    if not failing:
        return  # the random faults were unobservable on these vectors
    truth_drivers = {r.site.split("->", 1)[0] for r in workload.truth}
    for vector in failing[:10]:
        marked = path_trace_vector(state, vector)
        marked_drivers = {
            state.netlist.gates[state.table[m].driver].name
            for m in marked}
        assert marked_drivers & truth_drivers, (
            seed, count, vector, sorted(marked_drivers),
            sorted(truth_drivers))


def test_controlling_input_rule():
    """At an AND with one controlling (0) input, only that side is
    traced; with all-1 inputs, both sides are traced."""
    nl = Netlist("pt")
    a = nl.add_input("a")
    b = nl.add_input("b")
    g = nl.add_gate("g", GateType.AND, [a, b])
    nl.set_outputs([g])
    patterns = PatternSet.from_vectors([[0, 1], [1, 1]])
    # make both vectors "failing" against an inverted spec
    spec_out = ~simulate(nl, patterns)[[g]]
    state = DiagnosisState(nl, patterns, spec_out)
    marked0 = {state.table.describe(m)
               for m in path_trace_vector(state, 0)}
    assert "a" in marked0      # a=0 controls
    assert "b" not in marked0  # b=1 is not traced
    marked1 = {state.table.describe(m)
               for m in path_trace_vector(state, 1)}
    assert {"a", "b"} <= marked1


def test_branch_lines_get_marked(c17):
    state, workload = diagnosis_state_for(c17, 1, seed=0)
    counts = path_trace_counts(state, max_vectors=16, seed=0)
    described = {state.table.describe(m) for m in marked_lines(counts)}
    assert any("->" in d for d in described)  # some branch marked


def test_counts_zero_when_rectified(c17):
    patterns = PatternSet.random(5, 64, seed=0)
    spec_out = output_rows(c17, simulate(c17, patterns))
    state = DiagnosisState(c17, patterns, spec_out)
    counts = path_trace_counts(state)
    assert counts.sum() == 0


def test_counts_sampling_is_bounded(c17):
    state, _ = diagnosis_state_for(c17, 2, seed=1)
    counts = path_trace_counts(state, max_vectors=4, seed=0)
    assert counts.max() <= 4


def test_top_fraction_tie_inclusive():
    counts = np.array([0, 5, 5, 5, 2, 0])
    top = top_fraction(counts, 0.34)  # 1/3 of the 4 marked lines
    # lines 1,2,3 tie at 5; all three must be kept
    assert set(top) == {1, 2, 3}
    assert top_fraction(np.zeros(4, dtype=int), 0.5) == []


def test_marked_lines_sorted_by_count():
    counts = np.array([1, 7, 0, 3])
    assert marked_lines(counts) == [1, 3, 0]


# ----------------------------------------------------------------------
# the one-sweep kernel against the per-vector DFS oracle
# ----------------------------------------------------------------------
def random_spec_state(netlist, nbits, seed):
    """State against random reference responses: many failing vectors,
    each failing on an arbitrary subset of outputs."""
    patterns = PatternSet.random(netlist.num_inputs, nbits, seed=seed)
    rng = np.random.default_rng(seed + 1)
    spec_out = rng.integers(0, 2**63, size=(netlist.num_outputs,
                                            num_words(nbits)),
                            dtype=np.uint64)
    spec_out |= rng.integers(0, 2, size=spec_out.shape,
                             dtype=np.uint64) << np.uint64(63)
    return DiagnosisState(netlist, patterns, spec_out)


def shared_source_netlist():
    """Every traced gate type, a multi-fanout stem, a gate reading one
    source on two pins, and a PO that also feeds other gates."""
    nl = Netlist("shared")
    a, b, c = (nl.add_input(n) for n in "abc")
    n1 = nl.add_gate("n1", GateType.NAND, [a, a])   # one source, two pins
    x1 = nl.add_gate("x1", GateType.XOR, [n1, b])
    x2 = nl.add_gate("x2", GateType.XNOR, [b, c])
    inv = nl.add_gate("inv", GateType.NOT, [x1])
    buf = nl.add_gate("buf", GateType.BUF, [x2])
    o1 = nl.add_gate("o1", GateType.OR, [inv, buf, n1])
    o2 = nl.add_gate("o2", GateType.NOR, [x1, c, c])
    o3 = nl.add_gate("o3", GateType.AND, [o1, x2, b])
    nl.set_outputs([o1, o2, o3])
    return nl


ORACLE_NBITS = (1, 63, 64, 65, 1000)
ORACLE_SAMPLES = (1, 24, 64, 65, 100)


@pytest.mark.parametrize("nbits", ORACLE_NBITS)
@pytest.mark.parametrize("max_vectors", ORACLE_SAMPLES)
def test_counts_match_the_dfs_oracle(nbits, max_vectors, c17):
    nets = [c17, shared_source_netlist(),
            generators.random_dag(6, 40, 4, seed=nbits + max_vectors)]
    for i, netlist in enumerate(nets):
        state = random_spec_state(netlist, nbits, seed=nbits * 7 + i)
        for seed in (0, 3):
            got = path_trace_counts(state, max_vectors, seed)
            want = dfs_path_trace_counts(state, max_vectors, seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (netlist.name, seed)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5_000), count=st.integers(1, 3),
       nbits=st.sampled_from(ORACLE_NBITS),
       max_vectors=st.sampled_from(ORACLE_SAMPLES))
def test_counts_match_the_oracle_on_random_dags(seed, count, nbits,
                                                max_vectors):
    spec = generators.random_dag(6, 50, 4, seed=seed % 11)
    state, _ = diagnosis_state_for(spec, count, seed, nbits=nbits)
    assert np.array_equal(path_trace_counts(state, max_vectors, seed),
                          dfs_path_trace_counts(state, max_vectors, seed))


def test_vector_marking_matches_the_oracle(c17):
    for netlist in (c17, shared_source_netlist()):
        state = random_spec_state(netlist, 65, seed=5)
        for vector in range(65):
            assert path_trace_vector(state, vector) \
                == dfs_path_trace_vector(state, vector)


# ----------------------------------------------------------------------
# the kernel's gate-type dispatch, on every traced type and on children
# ----------------------------------------------------------------------
KERNEL_NBITS = (1, 63, 64, 65)
UNCONTROLLED = {GateType.XOR, GateType.XNOR, GateType.BUF, GateType.NOT}


@pytest.mark.parametrize("nbits", KERNEL_NBITS)
@pytest.mark.parametrize("seed", range(3))
def test_counts_match_the_oracle_on_every_gate_type(nbits, seed):
    """``random_dag`` netlists hold XOR/XNOR/BUF/NOT gates next to the
    controlling ones; every count matches the per-vector oracle."""
    netlist = generators.random_dag(6, 60, 4, seed=seed)
    assert UNCONTROLLED <= {g.gtype for g in netlist.gates}
    state = random_spec_state(netlist, nbits, seed=seed + nbits)
    for max_vectors in (1, 24, 65):
        assert np.array_equal(
            path_trace_counts(state, max_vectors, seed),
            dfs_path_trace_counts(state, max_vectors, seed))


def tied_children(netlist):
    """A stem tie on the deepest multi-fanout gate and a branch tie on
    one of its consumers: constant gates enter the netlist, and the
    stem tie detaches the gate's private fanin cone."""
    fanouts = netlist.fanouts()
    stem = max(g.index for g in netlist.gates
               if len(set(fanouts[g.index])) > 1)
    stem_child = netlist.copy()
    stem_child.tie_stem_to_constant(stem, 0)
    sink = fanouts[stem][0]
    branch_child = netlist.copy()
    branch_child.tie_branch_to_constant(
        sink, netlist.gates[sink].fanin.index(stem), 1)
    return stem_child, branch_child


@pytest.mark.parametrize("nbits", KERNEL_NBITS)
@pytest.mark.parametrize("seed", range(3))
def test_counts_match_the_oracle_on_tied_children(nbits, seed):
    netlist = generators.random_dag(6, 60, 4, seed=seed)
    detached = 0
    for child in tied_children(netlist):
        assert {GateType.CONST0, GateType.CONST1} \
            & {g.gtype for g in child.gates}
        detached += len(child.gates) - len(child.live_set()
                                           | set(child.inputs))
        state = random_spec_state(child, nbits, seed=seed * 5 + nbits)
        for max_vectors in (1, 24, 65):
            assert np.array_equal(
                path_trace_counts(state, max_vectors, seed),
                dfs_path_trace_counts(state, max_vectors, seed))
    assert detached


def reference_marked_lines(counts):
    """Count descending, then index ascending."""
    return sorted((i for i in range(len(counts)) if counts[i]),
                  key=lambda i: (-int(counts[i]), i))


@pytest.mark.parametrize("seed", range(5))
def test_marked_lines_matches_the_sorted_reference(seed):
    rng = np.random.default_rng(seed)
    for size in (1, 7, 200):
        counts = rng.integers(0, 4, size=size).astype(np.int64)
        got = marked_lines(counts)
        assert got == reference_marked_lines(counts)
        assert all(type(i) is int for i in got)
    assert marked_lines(np.zeros(9, dtype=np.int64)) == []


def test_counts_with_the_fallback_popcount(monkeypatch):
    """Interpreters without ``int.bit_count`` count binary digits; the
    kernel gives the same counts either way."""
    from repro.diagnose import pathtrace
    state = random_spec_state(generators.random_dag(6, 40, 4, seed=9),
                              130, seed=2)
    fast = path_trace_counts(state, 100, 0)
    monkeypatch.setattr(pathtrace, "_popcount", pathtrace._bin_popcount)
    assert np.array_equal(path_trace_counts(state, 100, 0), fast)
    assert np.array_equal(fast, dfs_path_trace_counts(state, 100, 0))
