"""Simulation-kernel suite: the heuristic-1 suspect sweep and full simulate.

* ``micro`` — the suspect-scoring sweep (complement a line's ``Verr``
  bits, push the difference through its fanout cone with the event
  kernel :func:`~repro.sim.logicsim.propagate`) on a cross-section of
  suite circuits at a fixed vector count.
* ``scaling`` — full-circuit :func:`~repro.sim.logicsim.simulate`
  (kernel ``full``) and the event-kernel sweep across a ladder of
  vector counts, to show how throughput scales with pattern volume.

An *event* is one changed gate row reported by a ``propagate`` call
(for ``full`` records: one gate row computed), so ``events_per_s``
counts semantic work, not kernel steps.
"""

from harness import best_of
from repro.circuit import generators
from repro.circuit.gatetypes import SOURCE_TYPES
from repro.faults.inject import inject_stuck_at_faults
from repro.sim.compare import failing_vector_mask
from repro.sim.logicsim import output_rows, propagate, simulate
from repro.sim.packing import PatternSet, popcount

KERNELS = ("event", "full")
_KEYS = ("circuit", "nvectors", "kernel", "wall_s", "events_per_s")
REQUIRED = {"micro": _KEYS, "scaling": _KEYS}


def prepare(circuit, nvectors: int, seed: int = 0):
    """Baseline values and failing-vector mask of a faulty twin.

    Injects two stuck-at faults, retrying seeds until at least one
    vector fails (undetectable injections are rare but possible).
    """
    patterns = PatternSet.random(circuit.num_inputs, nvectors, seed=seed)
    values = simulate(circuit, patterns)
    good_out = output_rows(circuit, values)
    for attempt in range(10):
        workload = inject_stuck_at_faults(circuit, 2, seed=seed + attempt)
        device_out = output_rows(workload.impl,
                                 simulate(workload.impl, patterns))
        err_mask = failing_vector_mask(good_out, device_out,
                                       patterns.nbits)
        if popcount(err_mask):
            # Warm the netlist caches (fanout tables, levels) outside
            # the timed region.
            circuit.event_fanouts()
            circuit.levels()
            return values, err_mask, patterns
    raise RuntimeError(
        f"could not provoke a failing vector on {circuit.name!r}")


def suspect_signals(circuit, cap: int) -> list:
    """Deterministic suspect pool: live non-source signals, index order."""
    live = circuit.live_set()
    pool = [g.index for g in circuit.gates
            if g.index in live and g.gtype not in SOURCE_TYPES]
    return pool[:cap]


def sweep(circuit, values, err_mask, suspects) -> int:
    """One heuristic-1 sweep; returns the event count.

    The sweep holds one baseline cache, as a ``DiagnosisState`` does.
    """
    base_ints: dict = {}
    events = 0
    for sig in suspects:
        events += len(propagate(circuit, values,
                                {sig: values[sig] ^ err_mask},
                                base_ints=base_ints))
    return events


def sweep_record(kind, circuit, nvectors, cap, repeats) -> dict:
    values, err_mask, _ = prepare(circuit, nvectors)
    suspects = suspect_signals(circuit, cap)
    wall, events = best_of(
        lambda: sweep(circuit, values, err_mask, suspects), repeats)
    return {"kind": kind, "circuit": circuit.name, "nvectors": nvectors,
            "kernel": "event", "wall_s": wall,
            "events_per_s": events / wall, "gates": len(circuit.gates),
            "suspects": len(suspects), "events": events}


def simulate_record(circuit, nvectors, repeats) -> dict:
    patterns = PatternSet.random(circuit.num_inputs, nvectors, seed=0)
    wall, _ = best_of(lambda: simulate(circuit, patterns), repeats)
    gates = len(circuit.gates)
    return {"kind": "scaling", "circuit": circuit.name,
            "nvectors": nvectors, "kernel": "full", "wall_s": wall,
            "events_per_s": gates / wall, "gates": gates, "events": gates}


def run(smoke: bool) -> list:
    if smoke:
        circuits, nvectors, cap = ("c17", "r432"), 128, 24
        ladder, ladder_cap, scale, repeats = (64, 128), 16, 0.3, 1
    else:
        circuits, nvectors, cap = ("c17", "r432", "r880", "r1355"), 1024, 128
        ladder, ladder_cap, scale, repeats = (64, 256, 1024, 4096), 64, 1.0, 3
    records = [sweep_record("micro", generators.by_name(name, scale=scale),
                            nvectors, cap, repeats)
               for name in circuits]
    for n in ladder:
        circuit = generators.by_name("r880", scale=scale)
        records.append(simulate_record(circuit, n, repeats))
        records.append(sweep_record("scaling", circuit, n, ladder_cap,
                                    repeats))
    return records


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check(records) -> list:
    errors = []
    for rec in records:
        where = f"{rec['kind']}/{rec['circuit']}/{rec['nvectors']}"
        if rec["kernel"] not in KERNELS:
            errors.append(f"{where}: unknown kernel {rec['kernel']!r}")
        n = rec["nvectors"]
        if not (isinstance(n, int) and not isinstance(n, bool) and n > 0):
            errors.append(f"{where}: nvectors must be a positive integer")
        if not (_number(rec["wall_s"]) and rec["wall_s"] > 0):
            errors.append(f"{where}: wall_s must be positive")
        if not (_number(rec["events_per_s"]) and rec["events_per_s"] >= 0):
            errors.append(f"{where}: events_per_s must be >= 0")
    return errors
