"""Structural (gate-level) Verilog reader/writer.

Covers the subset every gate-level netlist exchange needs: one module,
``input``/``output``/``wire`` declarations, primitive gate instances
(``and``, ``nand``, ``or``, ``nor``, ``xor``, ``xnor``, ``not``,
``buf``), constant ties (``assign w = 1'b0;``) and simple continuous
assignments (``assign y = w;``).  Vectors are not supported — gate-level
netlists are bit-blasted by construction.

This exists so diagnosed/repaired designs can round-trip with standard
EDA tools that speak Verilog rather than ISCAS ``.bench``.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

from ..errors import ParseError
from .gatetypes import GateType
from .netlist import Netlist

_PRIMITIVES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
}

_NAME_OF = {v: k for k, v in _PRIMITIVES.items()}

_MODULE_RE = re.compile(r"module\s+(?P<name>\w+)\s*\((?P<ports>[^)]*)\)\s*;")
_DECL_RE = re.compile(r"(?P<kind>input|output|wire)\s+(?P<names>[^;]+);")
_GATE_RE = re.compile(
    r"(?P<prim>and|nand|nor|or|xnor|xor|not|buf)\s+"
    r"(?P<inst>\w+)?\s*\((?P<args>[^)]*)\)\s*;")
_ASSIGN_RE = re.compile(
    r"assign\s+(?P<lhs>\w+)\s*=\s*(?P<rhs>1'b[01]|\w+)\s*;")


def loads(text: str, name: str | None = None,
          lint: str | None = None) -> Netlist:
    """Parse structural Verilog text into a :class:`Netlist`.

    After parsing, the netlist is linted per ``lint`` (an
    :mod:`repro.analyze` load policy: ``off``/``errors``/``warn``/
    ``strict``; default ``None`` uses the process-wide policy, normally
    ``errors``).  A policy violation raises :class:`ParseError`.
    """
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    module = _MODULE_RE.search(text)
    if not module:
        raise ParseError("no module declaration found")
    inputs: list[str] = []
    outputs: list[str] = []
    for decl in _DECL_RE.finditer(text):
        names = [n.strip() for n in decl.group("names").split(",")
                 if n.strip()]
        if decl.group("kind") == "input":
            inputs.extend(names)
        elif decl.group("kind") == "output":
            outputs.extend(names)
    gates: dict[str, tuple[GateType, list[str]]] = {}
    for match in _GATE_RE.finditer(text):
        args = [a.strip() for a in match.group("args").split(",")]
        if len(args) < 2:
            raise ParseError(
                f"primitive {match.group(0).strip()!r} needs an output "
                f"and at least one input")
        out_name, fanin = args[0], args[1:]
        if out_name in gates:
            raise ParseError(f"signal {out_name!r} driven twice")
        gates[out_name] = (_PRIMITIVES[match.group("prim")], fanin)
    for match in _ASSIGN_RE.finditer(text):
        lhs, rhs = match.group("lhs"), match.group("rhs")
        if lhs in gates:
            raise ParseError(f"signal {lhs!r} driven twice")
        if rhs == "1'b0":
            gates[lhs] = (GateType.CONST0, [])
        elif rhs == "1'b1":
            gates[lhs] = (GateType.CONST1, [])
        else:
            gates[lhs] = (GateType.BUF, [rhs])

    netlist = Netlist(name or module.group("name"))
    resolved: dict[str, int] = {}
    for pi in inputs:
        resolved[pi] = netlist.add_input(pi)

    def resolve(signal: str, stack: tuple = ()) -> int:
        if signal in resolved:
            return resolved[signal]
        if signal in stack:
            raise ParseError(f"combinational cycle through {signal!r}")
        if signal not in gates:
            raise ParseError(f"signal {signal!r} used but never driven")
        gtype, fanin = gates[signal]
        idx = netlist.add_gate(
            signal, gtype, [resolve(s, stack + (signal,))
                            for s in fanin])
        resolved[signal] = idx
        return idx

    for signal in gates:
        resolve(signal)
    missing = [po for po in outputs if po not in resolved]
    if missing:
        raise ParseError(f"output {missing[0]!r} never driven")
    netlist.set_outputs(resolved[po] for po in outputs)
    # Imported lazily: repro.analyze itself imports circuit modules.
    from ..analyze import lint_on_load
    lint_on_load(netlist, policy=lint, source=name)
    return netlist


def load(path, name: str | None = None, lint: str | None = None) -> Netlist:
    path = Path(path)
    return loads(path.read_text(), name or path.stem, lint=lint)


def dumps(netlist: Netlist) -> str:
    """Serialize a (combinational) netlist to structural Verilog."""
    if not netlist.is_combinational:
        raise ParseError(
            "verilog_io writes combinational netlists only; full-scan "
            "or unroll sequential designs first")
    out = io.StringIO()
    # Netlist names (bench-style "10", "n12->x") may be illegal Verilog
    # identifiers; sanitize deterministically with collision suffixes.
    rename: dict[int, str] = {}
    used: set[str] = set()
    for gate in netlist.gates:
        candidate = _ident(gate.name)
        while candidate in used:
            candidate += "_"
        rename[gate.index] = candidate
        used.add(candidate)

    pis = [rename[i] for i in netlist.inputs]
    pos = [rename[o] for o in netlist.outputs]
    ports = pis + [p for p in dict.fromkeys(pos) if p not in pis]
    out.write(f"module {_ident(netlist.name)} ({', '.join(ports)});\n")
    if pis:
        out.write(f"  input {', '.join(pis)};\n")
    if pos:
        out.write(f"  output {', '.join(dict.fromkeys(pos))};\n")
    live = netlist.live_set()
    wires = [rename[g.index] for g in netlist.gates
             if g.index in live and g.gtype is not GateType.INPUT
             and rename[g.index] not in pos]
    for chunk_start in range(0, len(wires), 8):
        chunk = wires[chunk_start:chunk_start + 8]
        out.write(f"  wire {', '.join(chunk)};\n")
    counter = 0
    for idx in netlist.scratch_topo_order():
        if idx not in live:
            continue
        gate = netlist.gates[idx]
        if gate.gtype is GateType.INPUT:
            continue
        if gate.gtype is GateType.CONST0:
            out.write(f"  assign {rename[idx]} = 1'b0;\n")
            continue
        if gate.gtype is GateType.CONST1:
            out.write(f"  assign {rename[idx]} = 1'b1;\n")
            continue
        prim = _NAME_OF[gate.gtype]
        args = ", ".join([rename[idx]]
                         + [rename[s] for s in gate.fanin])
        out.write(f"  {prim} u{counter} ({args});\n")
        counter += 1
    out.write("endmodule\n")
    return out.getvalue()


def dump(netlist: Netlist, path) -> None:
    Path(path).write_text(dumps(netlist))


def _ident(name: str) -> str:
    """Make a legal Verilog identifier out of a circuit name."""
    cleaned = re.sub(r"\W", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "m_" + cleaned
    return cleaned
