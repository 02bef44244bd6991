"""Time-frame expansion of sequential circuits.

The paper treats sequential designs via full scan, and notes (§4) that
non-scan "sequential circuits [are handled] through time-frame
expansion": replicate the combinational logic once per clock cycle and
wire each flip-flop's frame-*t* output to its data input evaluated in
frame *t−1*.  The result is a purely combinational model whose inputs
are the per-frame primary inputs and whose outputs are the per-frame
primary outputs, suitable for the unmodified diagnosis machinery (with
the twist that one physical fault occupies one line *per frame* — see
:mod:`repro.diagnose.timeframe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetlistError
from .gatetypes import GateType
from .netlist import Netlist
from .sequential import normalize_initial_state


@dataclass
class UnrollMap:
    """Bookkeeping from :func:`unroll`.

    Attributes:
        frames: number of replicated time frames.
        instance: ``instance[t][g]`` = unrolled gate index of original
            gate ``g`` in frame ``t``.
        pi_rows: position in the unrolled model's *input list* of
            (frame, original PI position) — row order of the pattern
            sets the unrolled model consumes.
        init_rows: position in the unrolled model's input list of each
            original DFF whose reset value is X (exposed as a free
            ``@init`` input); empty when the whole reset is constant.
        po_positions: ``po_positions[t][p]`` = position in the unrolled
            output list of original PO ``p`` at frame ``t``.
    """

    frames: int
    instance: list = field(default_factory=list)
    pi_rows: dict = field(default_factory=dict)
    init_rows: dict = field(default_factory=dict)
    po_positions: list = field(default_factory=list)


def unroll(netlist: Netlist, frames: int, initial_state=0,
           name: str | None = None) -> tuple[Netlist, UnrollMap]:
    """Expand ``netlist`` over ``frames`` clock cycles.

    ``initial_state`` takes every form
    :func:`~repro.circuit.sequential.normalize_initial_state` accepts:
    an int broadcast (the usual all-0/all-1 reset), ``None`` (every
    flip-flop unknown), or a per-DFF mapping/sequence mixing constants
    with X.  Frame-0 flip-flop outputs become the corresponding reset
    constant, or an extra ``@init`` primary input for X entries (their
    input-list positions are recorded in :attr:`UnrollMap.init_rows`).
    """
    if frames < 1:
        raise NetlistError("need at least one time frame")
    init = normalize_initial_state(netlist, initial_state)
    out = Netlist(name or f"{netlist.name}_x{frames}")
    umap = UnrollMap(frames)
    const_cache: dict = {}

    def constant(value: int) -> int:
        if value not in const_cache:
            gtype = GateType.CONST1 if value else GateType.CONST0
            const_cache[value] = out.add_gate(f"reset{value}", gtype)
        return const_cache[value]

    num_inputs = 0
    prev_frame: dict = {}
    order = netlist.scratch_topo_order()
    outputs: list = []
    for t in range(frames):
        mapping: dict = {}
        for pos, pi in enumerate(netlist.inputs):
            new = out.add_input(f"{netlist.gates[pi].name}@{t}")
            mapping[pi] = new
            umap.pi_rows[(t, pos)] = num_inputs
            num_inputs += 1
        for idx in order:
            gate = netlist.gates[idx]
            if gate.gtype is GateType.INPUT:
                continue
            if gate.gtype is GateType.DFF:
                # Q gets an explicit BUF instance per frame so that the
                # D-input branch remains an overridable pin (needed by
                # the time-frame diagnoser) and every frame has a
                # distinct signal for the state bit.
                if t == 0:
                    if init[idx] is None:
                        src = out.add_input(f"{gate.name}@init")
                        umap.init_rows[idx] = num_inputs
                        num_inputs += 1
                    else:
                        src = constant(init[idx])
                else:
                    # Q at frame t = D evaluated in frame t-1.
                    src = prev_frame[gate.fanin[0]]
                mapping[idx] = out.add_gate(f"{gate.name}@{t}",
                                            GateType.BUF, [src])
                continue
            mapping[idx] = out.add_gate(
                f"{gate.name}@{t}", gate.gtype,
                [mapping[s] for s in gate.fanin])
        frame_pos = []
        for po in netlist.outputs:
            frame_pos.append(len(outputs))
            outputs.append(mapping[po])
        umap.po_positions.append(frame_pos)
        umap.instance.append(mapping)
        prev_frame = mapping
    out.set_outputs(outputs)
    return out, umap


def pack_sequences(netlist: Netlist, umap: UnrollMap,
                   sequences, initial_bits=0) -> "PatternSet":
    """Pack input *sequences* for an unrolled model.

    ``sequences`` is an iterable of sequences; each sequence is
    ``frames`` vectors of ``num_inputs`` bits (the stimulus applied
    cycle by cycle).  Returns a :class:`PatternSet` whose rows line up
    with the unrolled model's primary inputs — including the free
    ``@init`` state inputs of an X reset, which take ``initial_bits``
    (an int broadcast, or a mapping keyed by DFF gate index or name;
    unmentioned flip-flops default to 0).
    """
    import numpy as np

    from ..sim.packing import PatternSet, pack_bits

    seqs = list(sequences)
    num_pis = netlist.num_inputs
    nbits = len(seqs)
    rows = np.zeros((umap.frames * num_pis + len(umap.init_rows), nbits),
                    dtype=np.uint8)
    if umap.init_rows:
        if isinstance(initial_bits, int):
            init_bits = {dff: initial_bits for dff in umap.init_rows}
        else:
            by_name = {netlist.gates[dff].name: dff
                       for dff in umap.init_rows}
            init_bits = {dff: 0 for dff in umap.init_rows}
            for key, value in dict(initial_bits).items():
                dff = by_name.get(key, key)
                if dff not in init_bits:
                    raise NetlistError(
                        f"initial bit names flip-flop {key!r} with no "
                        f"free @init input")
                init_bits[dff] = int(value)
        for dff, row in umap.init_rows.items():
            bit = init_bits[dff]
            if bit not in (0, 1):
                raise NetlistError(
                    f"initial bit for flip-flop #{dff} must be 0 or 1, "
                    f"got {bit!r}")
            rows[row, :] = bit
    for v, seq in enumerate(seqs):
        if len(seq) != umap.frames:
            raise NetlistError(
                f"sequence {v} has {len(seq)} cycles, expected "
                f"{umap.frames}")
        for t, cycle in enumerate(seq):
            for pos in range(num_pis):
                rows[umap.pi_rows[(t, pos)], v] = cycle[pos]
    return PatternSet(pack_bits(rows), nbits)
