"""Reference propagate: the full topological scan.

Walks the whole ``topo_order()`` and re-evaluates every fanout-cone
gate whether or not its fanin changed, with numpy rows throughout.  The
library's event kernel (:func:`repro.sim.logicsim.propagate`) schedules
only gates whose fanin changed and carries rows as big-ints; the
property tests check it against this oracle change for change.
"""

import numpy as np

from repro.circuit.gatetypes import GateType, eval_words

_PASSIVE = (GateType.INPUT, GateType.DFF, GateType.CONST0,
            GateType.CONST1)


def propagate_scan(netlist, values, stem_overrides=None,
                   pin_overrides=None) -> dict:
    """Same contract and returned dict as one-row ``propagate``."""
    stem_overrides = dict(stem_overrides or {})
    pin_overrides = dict(pin_overrides or {})
    if not stem_overrides and not pin_overrides:
        return {}
    cone = set()
    for sig in stem_overrides:
        cone |= netlist.fanout_cone(sig)
    for (sink, _pin) in pin_overrides:
        cone |= netlist.fanout_cone(sink)
        cone.add(sink)
    changed: dict = dict(stem_overrides)
    gates = netlist.gates
    for idx in netlist.topo_order():
        if idx not in cone:
            continue
        gate = gates[idx]
        if idx in stem_overrides:
            continue  # forced value, do not recompute
        if gate.gtype in _PASSIVE:
            continue
        ins = []
        for pin, src in enumerate(gate.fanin):
            override = pin_overrides.get((idx, pin))
            if override is not None:
                ins.append(override)
            elif src in changed:
                ins.append(changed[src])
            else:
                ins.append(values[src])
        new = eval_words(gate.gtype, ins)
        if not np.array_equal(new, values[idx]):
            changed[idx] = new
        elif idx in changed:
            del changed[idx]
    return changed
