"""Reference ODC-blocked set: the per-signal dominator loop.

A signal is blocked when it is observable and one of its
:meth:`~repro.analyze.dataflow.NetlistFacts.odc_conditions` has a side
input that provably carries the dominator's controlling value.  The
library computes the same set from the constants outward
(:meth:`~repro.analyze.dataflow.NetlistFacts.blocked_signals`); the
tests check it against this oracle.
"""


def blocked_signals_oracle(facts, deep: bool = False) -> frozenset:
    """Blocked signals of ``facts.netlist``, one signal at a time."""
    consts = facts.known_constants(deep=deep)
    blocked = set()
    for gate in facts.netlist.gates:
        i = gate.index
        if not facts.observable(i):
            continue
        for cond in facts.odc_conditions(i):
            if consts.get(cond.side_input) == cond.ctrl:
                blocked.add(i)
                break
    return frozenset(blocked)
