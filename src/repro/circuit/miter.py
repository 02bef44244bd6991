"""Miter construction: the equivalence-checking substrate.

A *miter* of two same-interface netlists shares their primary inputs,
XORs corresponding outputs and ORs the XORs into one output that is 1
exactly when the circuits disagree.  Two uses here:

* deterministic *distinguishing vector* generation — a PODEM test for
  ``miter_output stuck-at-0`` is precisely an input assignment on which
  the two circuits differ (:mod:`repro.tgen.distinguish`);
* lightweight equivalence checking of diagnosis repairs beyond the
  simulated vector set.
"""

from __future__ import annotations

from ..errors import NetlistError
from .gatetypes import GateType
from .netlist import Netlist


def build_miter(a: Netlist, b: Netlist,
                name: str | None = None) -> Netlist:
    """Return the miter of ``a`` and ``b`` (single output: "differs").

    The circuits must be combinational with matching PI and PO counts;
    PIs are matched positionally (by order, not by name), as are POs.
    """
    if not a.is_combinational or not b.is_combinational:
        raise NetlistError("miter needs combinational netlists")
    if a.num_inputs != b.num_inputs:
        raise NetlistError(
            f"input count mismatch: {a.num_inputs} vs {b.num_inputs}")
    if a.num_outputs != b.num_outputs:
        raise NetlistError(
            f"output count mismatch: {a.num_outputs} vs {b.num_outputs}")
    miter = Netlist(name or f"miter_{a.name}_{b.name}")
    pis = [miter.add_input(f"pi{i}") for i in range(a.num_inputs)]

    def instantiate(src: Netlist, prefix: str) -> dict:
        mapping: dict = {}
        src_pis = src.inputs
        for pos, pi in enumerate(src_pis):
            mapping[pi] = pis[pos]
        for idx in src.scratch_topo_order():
            gate = src.gates[idx]
            if gate.gtype is GateType.INPUT:
                continue
            if gate.gtype is GateType.DFF:
                raise NetlistError("miter needs combinational netlists")
            mapping[idx] = miter.add_gate(
                miter.fresh_name(f"{prefix}_{gate.name}"), gate.gtype,
                [mapping[s] for s in gate.fanin])
        return mapping

    map_a = instantiate(a, "a")
    map_b = instantiate(b, "b")
    xors = []
    for pos in range(a.num_outputs):
        xors.append(miter.add_gate(
            f"diff{pos}", GateType.XOR,
            [map_a[a.outputs[pos]], map_b[b.outputs[pos]]]))
    if len(xors) == 1:
        out = miter.add_gate("differs", GateType.BUF, [xors[0]])
    else:
        out = miter.add_gate("differs", GateType.OR, xors)
    miter.set_outputs([out])
    return miter
