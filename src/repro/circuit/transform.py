"""Netlist transformations.

Two families live here:

* **Area optimization** — the paper optimizes the benchmark circuits for
  area before the stuck-at experiments ("to simulate a realistic
  diagnosis environment", §4.1).  :func:`optimize_area` chains constant
  propagation, buffer/double-inverter collapsing, structural hashing
  (duplicate-gate sharing) and dead-gate sweeping until fixpoint.

* **XOR expansion** — :func:`expand_xor` rewrites XOR/XNOR gates into the
  4-NAND structure.  The paper singles out "multiple faults introduced
  into a NAND-based XOR structure" as the hard case for heuristic 3
  (§3.2), so the harness can produce those structures on demand.

All transforms preserve the circuit function on the primary outputs; the
test suite checks this by exhaustive/bit-parallel simulation.
"""

from __future__ import annotations

from .gatetypes import (GateType, INVERTED_COUNTERPART, LOGIC_TYPES,
                        MULTI_INPUT_TYPES, demoted, eval_ternary)
from .netlist import Netlist


def expand_xor(netlist: Netlist, name: str | None = None) -> Netlist:
    """Rewrite every (live) XOR/XNOR into 2-input NAND trees.

    Multi-input XORs are first split into a chain of 2-input XORs; each
    2-input XOR becomes the classic 4-NAND structure
    ``y = NAND(NAND(a, t), NAND(b, t))`` with ``t = NAND(a, b)``; XNOR adds
    an output inverter (folded as AND-of-NANDs).
    """
    out = netlist.copy(name or f"{netlist.name}_nand")
    for idx in list(out.live_set()):
        gate = out.gates[idx]
        if gate.gtype not in (GateType.XOR, GateType.XNOR):
            continue
        invert = gate.gtype is GateType.XNOR
        fanin = list(gate.fanin)
        acc = fanin[0]
        for k, nxt in enumerate(fanin[1:]):
            t = out.add_gate(out.fresh_name(f"{gate.name}_x{k}t"),
                             GateType.NAND, [acc, nxt])
            u = out.add_gate(out.fresh_name(f"{gate.name}_x{k}u"),
                             GateType.NAND, [acc, t])
            v = out.add_gate(out.fresh_name(f"{gate.name}_x{k}v"),
                             GateType.NAND, [nxt, t])
            acc = out.add_gate(out.fresh_name(f"{gate.name}_x{k}y"),
                               GateType.NAND, [u, v])
        # Re-purpose the original gate so consumers stay wired to `idx`.
        if invert:
            gate.gtype = GateType.NOT
            gate.fanin = [acc]
        else:
            gate.gtype = GateType.BUF
            gate.fanin = [acc]
    out._dirty()
    return out


def _propagate_constants(nl: Netlist) -> bool:
    """One pass of constant folding; returns True if anything changed."""
    changed = False
    const_val: dict[int, int] = {}
    for idx in nl.scratch_topo_order():
        gate = nl.gates[idx]
        if gate.gtype is GateType.CONST0:
            const_val[idx] = 0
            continue
        if gate.gtype is GateType.CONST1:
            const_val[idx] = 1
            continue
        if gate.gtype not in LOGIC_TYPES:
            continue
        in_consts = [const_val.get(src) for src in gate.fanin]
        value = eval_ternary(gate.gtype, in_consts)
        if value is not None:
            gate.gtype = GateType.CONST1 if value else GateType.CONST0
            gate.fanin = []
            const_val[idx] = value
            changed = True
            continue
        # Drop non-controlling constant fanins (identity elements); XOR
        # with const folds to (possibly inverted) remainder.
        if any(c is not None for c in in_consts):
            keep = [src for src, c in zip(gate.fanin, in_consts)
                    if c is None]
            if gate.gtype in (GateType.XOR, GateType.XNOR):
                flips = sum(c for c in in_consts if c is not None)
                if flips % 2:
                    gate.gtype = INVERTED_COUNTERPART[gate.gtype]
            if len(keep) == 1:
                gate.gtype = demoted(gate.gtype)
            gate.fanin = keep
            changed = True
    if changed:
        nl._dirty()
    return changed


def _collapse_buffers(nl: Netlist) -> bool:
    """Bypass BUFs; merge NOT-of-NOT chains.  Returns True on change."""
    changed = False
    # Resolve each signal to its "canonical" (source, inverted) pair.
    for gate in nl.gates:
        new_fanin = []
        for src in gate.fanin:
            steps = 0
            cur = src
            while steps < 64:
                srcg = nl.gates[cur]
                if srcg.gtype is GateType.BUF:
                    cur = srcg.fanin[0]
                elif srcg.gtype is GateType.NOT:
                    nxt = nl.gates[srcg.fanin[0]]
                    if nxt.gtype is GateType.NOT:
                        cur = nxt.fanin[0]
                    elif nxt.gtype is GateType.BUF:
                        # NOT(BUF(x)) -> keep NOT, skip BUF
                        break
                    else:
                        break
                else:
                    break
                steps += 1
            if cur != src:
                changed = True
            new_fanin.append(cur)
        gate.fanin = new_fanin
    new_outputs = []
    for out in nl.outputs:
        cur = out
        while nl.gates[cur].gtype is GateType.BUF:
            cur = nl.gates[cur].fanin[0]
            changed = True
        new_outputs.append(cur)
    nl.outputs = new_outputs
    if changed:
        nl._dirty()
    return changed


def _share_duplicates(nl: Netlist) -> bool:
    """Structural hashing: merge gates with identical (type, fanin)."""
    changed = False
    seen: dict[tuple, int] = {}
    remap: dict[int, int] = {}
    for idx in nl.scratch_topo_order():
        gate = nl.gates[idx]
        fanin = tuple(remap.get(s, s) for s in gate.fanin)
        if fanin != tuple(gate.fanin):
            gate.fanin = list(fanin)
            changed = True
        if gate.gtype in (GateType.INPUT, GateType.DFF):
            continue
        commutative = gate.gtype in MULTI_INPUT_TYPES
        key_fanin = tuple(sorted(fanin)) if commutative else fanin
        key = (gate.gtype, key_fanin)
        if key in seen and seen[key] != idx:
            remap[idx] = seen[key]
            changed = True
        else:
            seen[key] = idx
    if remap:
        for gate in nl.gates:
            gate.fanin = [remap.get(s, s) for s in gate.fanin]
        nl.outputs = [remap.get(o, o) for o in nl.outputs]
    if changed:
        nl._dirty()
    return changed


def optimize_area(netlist: Netlist, name: str | None = None,
                  max_passes: int = 20) -> Netlist:
    """Area optimization to fixpoint; returns a compacted copy.

    Chains constant propagation, buffer/inverter-pair collapsing and
    structural hashing, then sweeps detached gates.  Function on the
    primary outputs is preserved (tested by simulation equivalence).
    """
    nl = netlist.copy(name or f"{netlist.name}_opt")
    for _ in range(max_passes):
        changed = _propagate_constants(nl)
        changed |= _collapse_buffers(nl)
        changed |= _share_duplicates(nl)
        if not changed:
            break
    return nl.compacted(name or f"{netlist.name}_opt")
