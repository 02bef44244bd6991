"""ISCAS ``.bench`` format reader/writer.

The format used by the ISCAS'85/'89 benchmark distributions::

    # comment
    INPUT(G1)
    OUTPUT(G22)
    G22 = NAND(G1, G7)
    G7  = DFF(G22)

Gate keywords are case-insensitive.  ``DFF`` gates create sequential
netlists; :mod:`repro.circuit.sequential` turns those into full-scan
combinational equivalents the way the paper treats the ISCAS'89 circuits.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import TextIO

from ..errors import ParseError
from .gatetypes import GateType
from .netlist import Netlist

_LINE_RE = re.compile(
    r"^\s*(?P<lhs>[\w.\[\]$/]+)\s*=\s*(?P<op>\w+)\s*\((?P<args>[^)]*)\)\s*$")
_IO_RE = re.compile(r"^\s*(?P<kind>INPUT|OUTPUT)\s*\((?P<name>[\w.\[\]$/]+)\)\s*$",
                    re.IGNORECASE)

_OPS = {
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "DFF": GateType.DFF,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}

_OP_NAMES = {
    GateType.BUF: "BUFF",
    GateType.NOT: "NOT",
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.DFF: "DFF",
    GateType.CONST0: "CONST0",
    GateType.CONST1: "CONST1",
}


def loads(text: str, name: str = "bench",
          lint: str | None = None) -> Netlist:
    """Parse ``.bench`` source text into a :class:`Netlist`.

    After parsing, the netlist is linted per ``lint`` (an
    :mod:`repro.analyze` load policy: ``off``/``errors``/``warn``/
    ``strict``; default ``None`` uses the process-wide policy, normally
    ``errors``).  A policy violation raises :class:`ParseError`.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    defs: dict[str, tuple[GateType, list[str], int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            if io_match.group("kind").upper() == "INPUT":
                inputs.append(io_match.group("name"))
            else:
                outputs.append(io_match.group("name"))
            continue
        gate_match = _LINE_RE.match(line)
        if not gate_match:
            raise ParseError(f"cannot parse {line!r}", line_no)
        lhs = gate_match.group("lhs")
        op = gate_match.group("op").upper()
        if op not in _OPS:
            raise ParseError(f"unknown gate keyword {op!r}", line_no)
        args = [a.strip() for a in gate_match.group("args").split(",")
                if a.strip()]
        if lhs in defs:
            raise ParseError(f"signal {lhs!r} defined twice", line_no)
        defs[lhs] = (_OPS[op], args, line_no)

    netlist = Netlist(name)
    for pi in inputs:
        netlist.add_input(pi)

    resolved: dict[str, int] = {pi: netlist.index_of(pi) for pi in inputs}
    # Two-phase: create DFFs first (their fanin may be defined after and may
    # form sequential loops), then resolve combinational gates recursively.
    for lhs, (gtype, _args, _line_no) in defs.items():
        if gtype is GateType.DFF:
            # Temporary self-loop placeholder; patched after resolution.
            idx = netlist.add_gate(lhs, GateType.INPUT)
            resolved[lhs] = idx

    def resolve(sig: str, stack: tuple[str, ...]) -> int:
        if sig in resolved:
            return resolved[sig]
        if sig not in defs:
            raise ParseError(f"signal {sig!r} used but never defined")
        if sig in stack:
            raise ParseError(f"combinational cycle through {sig!r}")
        gtype, args, line_no = defs[sig]
        try:
            fanin = [resolve(a, stack + (sig,)) for a in args]
            idx = netlist.add_gate(sig, gtype, fanin)
        except ParseError:
            raise
        except Exception as exc:  # arity errors -> ParseError with location
            raise ParseError(str(exc), line_no) from exc
        resolved[sig] = idx
        return idx

    for lhs in defs:
        resolve(lhs, ())
    # Patch DFF placeholders: real type + fanin.
    for lhs, (gtype, args, line_no) in defs.items():
        if gtype is GateType.DFF:
            if len(args) != 1:
                raise ParseError(f"DFF {lhs!r} needs exactly 1 input",
                                 line_no)
            idx = resolved[lhs]
            netlist.gates[idx].gtype = GateType.DFF
            netlist.gates[idx].fanin = [resolved[args[0]]]
    netlist._dirty()

    missing = [po for po in outputs if po not in resolved]
    if missing:
        raise ParseError(f"output {missing[0]!r} never defined")
    netlist.set_outputs(resolved[po] for po in outputs)
    # Imported lazily: repro.analyze itself imports circuit modules.
    from ..analyze import lint_on_load
    lint_on_load(netlist, policy=lint, source=name)
    return netlist


def load(path, name: str | None = None, lint: str | None = None) -> Netlist:
    """Read a ``.bench`` file from ``path`` (linting per ``lint``)."""
    path = Path(path)
    return loads(path.read_text(), name or path.stem, lint=lint)


def dumps(netlist: Netlist) -> str:
    """Serialize a netlist to ``.bench`` text (live gates only)."""
    out = io.StringIO()
    _dump(netlist, out)
    return out.getvalue()


def dump(netlist: Netlist, path) -> None:
    """Write a netlist to a ``.bench`` file."""
    with open(path, "w") as handle:
        _dump(netlist, handle)


def _dump(netlist: Netlist, handle: TextIO) -> None:
    handle.write(f"# {netlist.name}\n")
    handle.write(f"# {netlist.num_inputs} inputs, "
                 f"{netlist.num_outputs} outputs\n")
    for pi in netlist.inputs:
        handle.write(f"INPUT({netlist.gates[pi].name})\n")
    for po in netlist.outputs:
        handle.write(f"OUTPUT({netlist.gates[po].name})\n")
    live = netlist.live_set()
    for idx in netlist.scratch_topo_order():
        if idx not in live:
            continue
        gate = netlist.gates[idx]
        if gate.gtype is GateType.INPUT:
            continue
        args = ", ".join(netlist.gates[src].name for src in gate.fanin)
        handle.write(f"{gate.name} = {_OP_NAMES[gate.gtype]}({args})\n")
