"""Sequential-analysis suite: reset fixpoint, scorr and the seq pre-screen.

* ``fixpoint`` — wall time and sweep count of the reset-state ternary
  fixpoint (:func:`repro.analyze.seq.reset_fixpoint`), which must stop
  within #DFFs + 1 sweeps.  The planted ``stuck`` workloads carry
  registers that provably never leave their reset value, and the
  fixpoint must recover all of them; random sequential circuits
  measure convergence on irredundant state.
* ``scorr`` — k-induction register/signal correspondence
  (:class:`repro.analyze.seq.SeqProver`): candidate counts, base/step
  query accounting and the proven/refuted/unknown split.  The planted
  ``twinreg`` workloads duplicate every state bit through a hash-blind
  re-encoding of its next-state function, so each redundancy costs a
  real induction proof.  Every candidate lands in exactly one verdict.
* ``prescreen`` — the sequential diagnosis pre-screen
  (``DiagnosisConfig(seq_prescreen=True)`` on
  :class:`repro.diagnose.timeframe.TimeFrameDiagnoser`) on and off, on
  a planted workload with provably masked logic.  The screen must not
  change the solution list (``identical``) and must drop something.
"""

from harness import SCALE, best_of
from repro.analyze.seq import SeqProver, reset_fixpoint
from repro.circuit import GateType, Netlist, generators
from repro.diagnose import DiagnosisConfig
from repro.diagnose.timeframe import TimeFrameDiagnoser, random_sequences

REQUIRED = {
    "fixpoint": ("circuit", "gates", "dffs", "iterations",
                 "stuck_registers", "seq_constants", "wall_s"),
    "scorr": ("circuit", "gates", "dffs", "k", "nvectors",
              "constant_candidates", "pair_candidates", "base_queries",
              "step_queries", "proven", "refuted", "unknown",
              "step_restarts", "conflicts", "proven_classes", "wall_s"),
    "prescreen": ("circuit", "gates", "frames", "solutions", "identical",
                  "dropped", "nodes_off", "nodes_on", "wall_off_s",
                  "wall_s"),
}


def planted_stuck(count: int = 4) -> Netlist:
    """``count`` registers that provably never leave reset.

    Each register feeds back through ``AND(r, x)`` — from reset 0 the
    AND can never produce 1, so the whole state is sequentially stuck
    at 0 while staying combinationally unconstrained (the full-scan
    view sees free state bits).  An XOR tail keeps everything live.
    """
    nl = Netlist(f"stuck{count}")
    xs = [nl.add_input(f"x{k}") for k in range(count)]
    taps = []
    for k in range(count):
        r = nl.add_gate(f"r{k}", GateType.DFF, [xs[k]])
        d = nl.add_gate(f"d{k}", GateType.AND, [r, xs[k]])
        nl.gates[r].fanin = [d]
        taps.append(nl.add_gate(f"t{k}", GateType.XOR, [r, xs[k]]))
    out = taps[0]
    for k, tap in enumerate(taps[1:], start=1):
        out = nl.add_gate(f"acc{k}", GateType.XOR, [out, tap])
    nl.set_outputs([out])
    nl._dirty()
    return nl


def planted_twin_registers(pairs: int = 2) -> Netlist:
    """``pairs`` state bits, each duplicated through a hash-blind twin.

    Register ``p`` updates from ``XOR(a, q_prev)``; its twin updates
    from the AND/OR decomposition of the same function, so structural
    normalization cannot merge them and every redundant register costs
    an induction proof.  Both start at 0, hence track forever.
    """
    nl = Netlist(f"twinreg{pairs}")
    a = nl.add_input("a")
    b = nl.add_input("b")
    outs = []
    for k in range(pairs):
        p = nl.add_gate(f"p{k}", GateType.DFF, [a])
        q = nl.add_gate(f"q{k}", GateType.DFF, [a])
        dp = nl.add_gate(f"dp{k}", GateType.XOR, [a, p])
        na = nl.add_gate(f"na{k}", GateType.NOT, [a])
        nq = nl.add_gate(f"nq{k}", GateType.NOT, [q])
        t1 = nl.add_gate(f"t1_{k}", GateType.AND, [a, nq])
        t2 = nl.add_gate(f"t2_{k}", GateType.AND, [na, q])
        dq = nl.add_gate(f"dq{k}", GateType.OR, [t1, t2])
        nl.gates[p].fanin = [dp]
        nl.gates[q].fanin = [dq]
        outs.append(nl.add_gate(f"o{k}", GateType.AND, [p, b]))
        outs.append(nl.add_gate(f"u{k}", GateType.OR, [q, b]))
    nl.set_outputs(outs)
    nl._dirty()
    return nl


def planted_masked(cones: int = 2) -> Netlist:
    """Observable core plus ``cones`` provably masked suspect cones.

    Each cone is ``AND(x_k, y_k)`` gated by a register that is
    sequentially stuck at 0, so nothing in the cone can ever reach the
    output from reset — the seq pre-screen must drop it all without
    changing the diagnosis answer (the planted fault sits on the
    observable ``hbuf`` path).
    """
    nl = Netlist(f"masked{cones}")
    h = nl.add_input("h")
    e = nl.add_input("e")
    terms = [nl.add_gate("hbuf", GateType.BUF, [h])]
    for k in range(cones):
        x = nl.add_input(f"x{k}")
        y = nl.add_input(f"y{k}")
        r = nl.add_gate(f"r{k}", GateType.DFF, [x])
        d = nl.add_gate(f"d{k}", GateType.AND, [r, x])
        nl.gates[r].fanin = [d]
        g = nl.add_gate(f"g{k}", GateType.AND, [x, y])
        terms.append(nl.add_gate(f"m{k}", GateType.AND, [g, r]))
    live = nl.add_gate("live", GateType.DFF, [e])
    terms.append(live)
    out = terms[0]
    for k, term in enumerate(terms[1:], start=1):
        out = nl.add_gate(f"or{k}", GateType.OR, [out, term])
    nl.set_outputs([out])
    nl._dirty()
    return nl


def build_circuit(name: str) -> Netlist:
    if name.startswith("stuck"):
        return planted_stuck(count=int(name[len("stuck"):]))
    if name.startswith("twinreg"):
        return planted_twin_registers(pairs=int(name[len("twinreg"):]))
    if name.startswith("rseq"):
        dffs = int(name[len("rseq"):])
        return generators.random_sequential(
            dffs, int(max(20, 10 * dffs * SCALE)), 4, 3, seed=7)
    return generators.by_name(name)


def fixpoint_record(circuit: Netlist) -> dict:
    wall, fx = best_of(lambda: reset_fixpoint(circuit, 0))
    return {"kind": "fixpoint", "circuit": circuit.name,
            "gates": len(circuit.gates), "dffs": len(circuit.dffs()),
            "iterations": fx.iterations,
            "stuck_registers": len(fx.stuck_registers),
            "seq_constants": len(fx.constants), "wall_s": wall}


def scorr_record(circuit: Netlist, nvectors: int, k: int = 2) -> dict:
    prover = SeqProver(circuit, k=k, nvectors=nvectors, seed=0)
    wall, result = best_of(prover.sweep)
    stats = result.stats
    return {"kind": "scorr", "circuit": circuit.name,
            "gates": len(circuit.gates), "dffs": len(circuit.dffs()),
            "k": k, "nvectors": nvectors,
            "constant_candidates": stats.constant_candidates,
            "pair_candidates": stats.pair_candidates,
            "base_queries": stats.base_queries,
            "step_queries": stats.step_queries,
            "proven": stats.proven, "refuted": stats.refuted,
            "unknown": stats.unknown,
            "step_restarts": stats.step_restarts,
            "conflicts": stats.conflicts,
            "proven_classes": len(result.classes),
            "wall_s": wall}


def prescreen_record(cones: int, frames: int = 6,
                     sequences: int = 24) -> dict:
    """Diagnosis with the seq pre-screen on and off; answers must match."""
    spec = planted_masked(cones)
    device = planted_masked(cones)
    hb = device.index_of("hbuf")
    device.gates[hb].gtype = GateType.CONST1
    device.gates[hb].fanin = []
    device._dirty()
    seqs = random_sequences(spec, sequences, frames, seed=1)

    def solve(config):
        wall, result = best_of(lambda: TimeFrameDiagnoser(
            spec, device, seqs, frames=frames, max_faults=2,
            config=config).run())
        key = sorted(frozenset(r.signature for r in s.records)
                     for s in result.solutions)
        return result, key, wall

    off, key_off, wall_off = solve(None)
    on, key_on, wall_on = solve(DiagnosisConfig(seq_prescreen=True))
    return {"kind": "prescreen", "circuit": spec.name,
            "gates": len(spec.gates), "frames": frames,
            "solutions": len(on.solutions),
            "identical": key_off == key_on,
            "dropped": on.stats.prescreen_dropped,
            "nodes_off": off.stats.nodes, "nodes_on": on.stats.nodes,
            "wall_off_s": wall_off, "wall_s": wall_on}


def run(smoke: bool) -> list:
    if smoke:
        fixpoints, scorrs, cones = ("s27", "stuck4"), ("s27", "twinreg2"), (2,)
    else:
        fixpoints = ("s27", "stuck4", "stuck16", "rseq6")
        scorrs = ("s27", "twinreg2", "twinreg6", "rseq6")
        cones = (2, 6)
    records = [fixpoint_record(build_circuit(name)) for name in fixpoints]
    records += [scorr_record(build_circuit(name), 32 if smoke else 64)
                for name in scorrs]
    records += [prescreen_record(n) for n in cones]
    return records


def check(records) -> list:
    errors = []
    for rec in records:
        where = f"{rec['kind']}/{rec['circuit']}"
        if rec["kind"] == "fixpoint":
            if rec["iterations"] > rec["dffs"] + 1:
                errors.append(f"{where}: fixpoint ran past the "
                              "#DFFs + 1 termination bound")
            if rec["circuit"].startswith("stuck") \
                    and rec["stuck_registers"] != rec["dffs"]:
                errors.append(f"{where}: planted stuck registers not "
                              "all recovered")
        elif rec["kind"] == "scorr" and (
                rec["proven"] + rec["refuted"] + rec["unknown"]
                != rec["constant_candidates"] + rec["pair_candidates"]):
            errors.append(f"{where}: proven + refuted + unknown != "
                          "candidates (a verdict was dropped)")
        elif rec["kind"] == "prescreen":
            if rec["identical"] is not True:
                errors.append(f"{where}: pre-screen changed the solution "
                              "list (soundness violation)")
            if rec["dropped"] <= 0:
                errors.append(f"{where}: pre-screen dropped nothing on "
                              "the planted masked workload")
    return errors
