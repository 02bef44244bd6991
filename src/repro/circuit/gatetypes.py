"""Gate types and their Boolean semantics.

The paper (Section 2) investigates netlists built from NOT, BUFFER, AND,
NAND, OR and NOR gates, and notes the algorithm also handles XOR/XNOR.  We
support all of those, plus constants, primary inputs and a D flip-flop type
used by the sequential/full-scan substrate.

Two notions from the paper live here:

* *controlling value* — a line feeding an AND/NAND (OR/NOR) gate has
  controlling value when it carries 0 (1); a line driving NOT/BUF always
  has controlling value (Section 2).
* gate evaluation — every logic gate is an AND, OR or XOR core with an
  optional output inversion (:data:`GATE_CORE`), and the ternary,
  bit-parallel (64 test vectors packed per ``uint64`` word) and big-int
  row evaluators all read that one table, as do the arity rule
  (:func:`demoted`, :func:`promoted`), the simulation kernel and the
  correction scorer.  :func:`eval_scalar` is written out by hand and
  reads nothing: it is the independent oracle the tests hold every
  derived evaluator to.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Sequence

import numpy as np


class GateType(enum.Enum):
    """Every node type a :class:`~repro.circuit.netlist.Netlist` may hold."""

    INPUT = "INPUT"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    NOT = "NOT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    DFF = "DFF"

    # Identity hashing at C speed: ``Enum.__hash__`` is Python code that
    # hashes the member name, and the evaluators and path trace look
    # gate types up in sets and dicts per gate.  Name hashes are
    # randomized per process anyway, so no order depends on either.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GateType.{self.name}"


#: Gate types that take no fanin.
SOURCE_TYPES = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})

#: Gate types with exactly one fanin.
UNARY_TYPES = frozenset({GateType.BUF, GateType.NOT, GateType.DFF})

#: Gate types accepting two or more fanins.
MULTI_INPUT_TYPES = frozenset(
    {GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
     GateType.XOR, GateType.XNOR}
)

#: Combinational logic gates (everything but sources and state).
LOGIC_TYPES = frozenset(UNARY_TYPES - {GateType.DFF}) | MULTI_INPUT_TYPES

#: The one statement of combinational gate semantics: ``(core, invert)``
#: per logic gate, the core being AND, OR or XOR over the fanins.  BUF
#: and NOT are one-input ANDs.
GATE_CORE = {
    GateType.BUF: (GateType.AND, False),
    GateType.NOT: (GateType.AND, True),
    GateType.AND: (GateType.AND, False),
    GateType.NAND: (GateType.AND, True),
    GateType.OR: (GateType.OR, False),
    GateType.NOR: (GateType.OR, True),
    GateType.XOR: (GateType.XOR, False),
    GateType.XNOR: (GateType.XOR, True),
}

#: Gate types whose output inverts the core function (NAND/NOR/XNOR/NOT).
INVERTING_TYPES = frozenset(g for g, (_core, inv) in GATE_CORE.items()
                            if inv)

#: Bitwise numpy ufunc per core.
CORE_UFUNC = {GateType.AND: np.bitwise_and, GateType.OR: np.bitwise_or,
              GateType.XOR: np.bitwise_xor}

#: Bitwise big-int operator per core.
_CORE_INT_OP = {GateType.AND: operator.and_, GateType.OR: operator.or_,
                GateType.XOR: operator.xor}

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Map each multi-input gate to its output-inverted counterpart.
INVERTED_COUNTERPART = {
    GateType.AND: GateType.NAND,
    GateType.NAND: GateType.AND,
    GateType.OR: GateType.NOR,
    GateType.NOR: GateType.OR,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.BUF: GateType.NOT,
    GateType.NOT: GateType.BUF,
}

#: Gate-type replacements considered by the design-error model, i.e. all
#: same-arity substitutions an engineer could plausibly make.
REPLACEMENT_CLASSES = {
    GateType.AND: (GateType.NAND, GateType.OR, GateType.NOR,
                   GateType.XOR, GateType.XNOR),
    GateType.NAND: (GateType.AND, GateType.OR, GateType.NOR,
                    GateType.XOR, GateType.XNOR),
    GateType.OR: (GateType.AND, GateType.NAND, GateType.NOR,
                  GateType.XOR, GateType.XNOR),
    GateType.NOR: (GateType.AND, GateType.NAND, GateType.OR,
                   GateType.XOR, GateType.XNOR),
    GateType.XOR: (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                   GateType.XNOR),
    GateType.XNOR: (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                    GateType.XOR),
    GateType.BUF: (GateType.NOT,),
    GateType.NOT: (GateType.BUF,),
}


def controlling_value(gtype: GateType) -> int | None:
    """Return the controlling input value for ``gtype``.

    Per the paper's Section 2: 0 for AND/NAND, 1 for OR/NOR; NOT/BUF inputs
    always control, which we report as 0-and-1 by returning ``None`` here
    and letting callers special-case unary gates.  XOR/XNOR have no
    controlling value (also ``None``).
    """
    if gtype in (GateType.AND, GateType.NAND):
        return 0
    if gtype in (GateType.OR, GateType.NOR):
        return 1
    return None


def has_controlling_value(gtype: GateType) -> bool:
    """True when ``gtype`` has a controlling input value (AND/NAND/OR/NOR)."""
    return controlling_value(gtype) is not None


def eval_scalar(gtype: GateType, inputs: Sequence[int]) -> int:
    """Evaluate one gate on scalar 0/1 inputs; reference semantics.

    This is the slow, obviously-correct oracle the test suite checks
    every derived evaluator against.  It is written out gate by gate on
    purpose and does not read :data:`GATE_CORE`, so a slip in the table
    cannot hide in both.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype in (GateType.BUF, GateType.DFF, GateType.INPUT):
        return int(inputs[0])
    if gtype is GateType.NOT:
        return 1 - int(inputs[0])
    if gtype is GateType.AND:
        return int(all(inputs))
    if gtype is GateType.NAND:
        return 1 - int(all(inputs))
    if gtype is GateType.OR:
        return int(any(inputs))
    if gtype is GateType.NOR:
        return 1 - int(any(inputs))
    if gtype is GateType.XOR:
        acc = 0
        for value in inputs:
            acc ^= int(value)
        return acc
    if gtype is GateType.XNOR:
        acc = 1
        for value in inputs:
            acc ^= int(value)
        return acc
    raise ValueError(f"cannot evaluate gate type {gtype}")


def demoted(gtype: GateType) -> GateType:
    """The type a multi-input gate takes when it drops to one fanin:
    BUF for AND/OR/XOR, NOT for NAND/NOR/XNOR.  Other types keep theirs."""
    if gtype not in MULTI_INPUT_TYPES:
        return gtype
    return GateType.NOT if gtype in INVERTING_TYPES else GateType.BUF


def promoted(gtype: GateType) -> GateType:
    """The type a BUF (NOT) takes when it gains a fanin: AND (NAND).
    Other types keep theirs."""
    if gtype not in (GateType.BUF, GateType.NOT):
        return gtype
    return GateType.NAND if gtype in INVERTING_TYPES else GateType.AND


def eval_ternary(gtype: GateType,
                 inputs: Sequence["int | None"]) -> "int | None":
    """Kleene three-valued gate evaluation (``None`` is X/unknown).

    Monotone in the information order (X below 0 and 1): once partial
    inputs decide the output, any refinement of the remaining inputs
    keeps it — the property the ternary dataflow and the sequential
    reset fixpoint rely on for termination.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype is GateType.INPUT or gtype is GateType.DFF:
        return inputs[0]
    core, invert = GATE_CORE[gtype]
    if core is GateType.XOR:
        if None in inputs:
            return None
        value = sum(inputs) & 1
    else:
        ctrl = 0 if core is GateType.AND else 1
        if ctrl in inputs:
            value = ctrl
        elif None in inputs:
            return None
        else:
            value = 1 - ctrl
    return value ^ invert


def eval_words(gtype: GateType, inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Bit-parallel gate evaluation over packed ``uint64`` words.

    Each element of ``inputs`` is a 1-D array of words where bit *i* of the
    packed stream is the value of that fanin under test vector *i*.  The
    result follows the same packing.  NOT-like gates flip every bit of the
    word including any tail padding; counting utilities mask the tail
    (see :mod:`repro.sim.packing`).
    """
    if gtype is GateType.CONST0 or gtype is GateType.CONST1:
        raise ValueError(f"{gtype.name} takes no inputs; materialize "
                         f"from shape")
    acc = inputs[0].copy()
    if gtype is GateType.INPUT or gtype is GateType.DFF:
        return acc
    core, invert = GATE_CORE[gtype]
    ufunc = CORE_UFUNC[core]
    for word in inputs[1:]:
        ufunc(acc, word, out=acc)
    if invert:
        acc ^= _ONES
    return acc


def eval_row(gtype: GateType, rows: Sequence[int], mask: int) -> int:
    """Evaluate one gate over packed big-int rows (bit *i* = vector *i*);
    ``mask`` holds a one for every vector."""
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    if gtype is GateType.INPUT or gtype is GateType.DFF:
        return rows[0]
    core, invert = GATE_CORE[gtype]
    acc = functools.reduce(_CORE_INT_OP[core], rows)
    return acc ^ mask if invert else acc


def arity_ok(gtype: GateType, n_fanin: int) -> bool:
    """Check that ``n_fanin`` is a legal fanin count for ``gtype``."""
    if gtype in SOURCE_TYPES:
        return n_fanin == 0
    if gtype in UNARY_TYPES:
        return n_fanin == 1
    if gtype in MULTI_INPUT_TYPES:
        return n_fanin >= 1
    return False
