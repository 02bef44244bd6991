"""Gate semantics: scalar truth tables, and every evaluator derived from
the one ``(core, invert)`` table checked against the hand-written
scalar oracle."""

import itertools

import numpy as np
import pytest

from repro.circuit import Netlist
from repro.circuit.gatetypes import (GateType, INVERTED_COUNTERPART,
                                     LOGIC_TYPES, MULTI_INPUT_TYPES,
                                     REPLACEMENT_CLASSES, SOURCE_TYPES,
                                     UNARY_TYPES, arity_ok,
                                     controlling_value, eval_row,
                                     eval_scalar, eval_ternary,
                                     eval_words, has_controlling_value)
from repro.sim import PatternSet, propagate, simulate
from repro.sim.logicsim import lookup

BINARY_TRUTH = {
    GateType.AND: [0, 0, 0, 1],
    GateType.NAND: [1, 1, 1, 0],
    GateType.OR: [0, 1, 1, 1],
    GateType.NOR: [1, 0, 0, 0],
    GateType.XOR: [0, 1, 1, 0],
    GateType.XNOR: [1, 0, 0, 1],
}


@pytest.mark.parametrize("gtype,truth", sorted(BINARY_TRUTH.items(),
                                               key=lambda kv: kv[0].name))
def test_binary_truth_tables(gtype, truth):
    for a, b in itertools.product((0, 1), repeat=2):
        assert eval_scalar(gtype, [a, b]) == truth[2 * a + b]
        # all these gates are commutative
        assert eval_scalar(gtype, [b, a]) == truth[2 * a + b]


def test_unary_truth_tables():
    assert eval_scalar(GateType.NOT, [0]) == 1
    assert eval_scalar(GateType.NOT, [1]) == 0
    assert eval_scalar(GateType.BUF, [0]) == 0
    assert eval_scalar(GateType.BUF, [1]) == 1


def test_constants():
    assert eval_scalar(GateType.CONST0, []) == 0
    assert eval_scalar(GateType.CONST1, []) == 1
    assert eval_ternary(GateType.CONST0, []) == 0
    assert eval_ternary(GateType.CONST1, []) == 1
    assert eval_row(GateType.CONST0, [], 0xFF) == 0
    assert eval_row(GateType.CONST1, [], 0xFF) == 0xFF


#: Every combinational gate type at every arity it takes up to 4.
ORACLE_CASES = [(gtype, n) for gtype in sorted(LOGIC_TYPES,
                                               key=lambda g: g.name)
                for n in ((1,) if gtype in UNARY_TYPES else (1, 2, 3, 4))]
ORACLE_IDS = [f"{gtype}-{n}" for gtype, n in ORACLE_CASES]


def _one_gate(gtype, n):
    nl = Netlist(f"{gtype.name}{n}")
    ins = [nl.add_input(f"i{pin}") for pin in range(n)]
    gate = nl.add_gate("g", gtype, ins)
    nl.set_outputs([gate])
    return nl, gate


@pytest.mark.parametrize("gtype, n_inputs", ORACLE_CASES, ids=ORACLE_IDS)
def test_words_match_scalar(gtype, n_inputs):
    """Every bit-parallel evaluator derived from the gate table agrees
    with the scalar oracle on every input combination, bit position by
    bit position: packed words (``eval_words``), big-int rows
    (``eval_row``) and the event kernel of ``propagate``.

    Vector *i* of the exhaustive set drives pin *p* with bit *p* of
    *i*.  ``propagate`` starts from the complemented stimulus and
    forces every input to the exhaustive rows, so the gate is
    re-evaluated by the kernel itself rather than read back from the
    baseline.
    """
    patterns = PatternSet.exhaustive(n_inputs)
    nbits = 1 << n_inputs
    mask = (1 << nbits) - 1
    words = list(patterns.words)
    nl, gate = _one_gate(gtype, n_inputs)
    baseline = simulate(nl, PatternSet(~patterns.words, nbits))
    forced = propagate(nl, baseline, dict(zip(nl.inputs, words)))
    results = {
        "eval_words": int(eval_words(gtype, words)[0]) & mask,
        "eval_row": eval_row(gtype, [int(w[0]) & mask for w in words],
                             mask),
        "propagate": int(lookup(forced, baseline, gate)[0]) & mask,
    }
    want = sum(eval_scalar(gtype, [(i >> p) & 1 for p in range(n_inputs)])
               << i for i in range(nbits))
    assert results == dict.fromkeys(results, want)


@pytest.mark.parametrize("gtype, n", ORACLE_CASES, ids=ORACLE_IDS)
def test_ternary_is_the_exact_kleene_extension(gtype, n):
    """``eval_ternary`` returns v exactly when every 0/1 completion of
    its X inputs gives v under ``eval_scalar``, and X otherwise."""
    for inputs in itertools.product((0, 1, None), repeat=n):
        free = [p for p, v in enumerate(inputs) if v is None]
        outcomes = set()
        for fill in itertools.product((0, 1), repeat=len(free)):
            full = list(inputs)
            for p, v in zip(free, fill):
                full[p] = v
            outcomes.add(eval_scalar(gtype, full))
        want = outcomes.pop() if len(outcomes) == 1 else None
        assert eval_ternary(gtype, list(inputs)) == want, (gtype, inputs)


def test_words_not_flips_all_bits():
    x = np.array([0x00FF00FF00FF00FF], dtype=np.uint64)
    assert int(eval_words(GateType.NOT, [x])[0]) == 0xFF00FF00FF00FF00


def test_controlling_values():
    assert controlling_value(GateType.AND) == 0
    assert controlling_value(GateType.NAND) == 0
    assert controlling_value(GateType.OR) == 1
    assert controlling_value(GateType.NOR) == 1
    for gtype in (GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF):
        assert controlling_value(gtype) is None
    assert has_controlling_value(GateType.AND)
    assert not has_controlling_value(GateType.XOR)


def test_arity_rules():
    for gtype in SOURCE_TYPES:
        assert arity_ok(gtype, 0)
        assert not arity_ok(gtype, 1)
    for gtype in UNARY_TYPES:
        assert arity_ok(gtype, 1)
        assert not arity_ok(gtype, 2)
    for gtype in MULTI_INPUT_TYPES:
        assert arity_ok(gtype, 2)
        assert arity_ok(gtype, 5)
        assert not arity_ok(gtype, 0)


def test_inverted_counterparts_are_involutions():
    for gtype, inv in INVERTED_COUNTERPART.items():
        assert INVERTED_COUNTERPART[inv] is gtype
        # semantic check on two inputs (or one for BUF/NOT)
        n = 1 if gtype in UNARY_TYPES else 2
        for combo in itertools.product((0, 1), repeat=n):
            assert eval_scalar(gtype, combo) == 1 - eval_scalar(inv, combo)


def test_replacement_classes_exclude_self():
    for gtype, repls in REPLACEMENT_CLASSES.items():
        assert gtype not in repls
        assert len(set(repls)) == len(repls)


def test_eval_scalar_rejects_input_type_without_values():
    with pytest.raises(IndexError):
        eval_scalar(GateType.BUF, [])


def test_logic_types_partition():
    assert GateType.DFF not in LOGIC_TYPES
    assert GateType.INPUT not in LOGIC_TYPES
    assert GateType.AND in LOGIC_TYPES
    assert GateType.NOT in LOGIC_TYPES
