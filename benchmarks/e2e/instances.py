"""Seeded diagnosis instances for the end-to-end benchmark.

A workload is a fixed number of instances over a cycle of *cells* —
(circuit, injected fault or error count) pairs.  Instance ``t`` of a run
with seed ``S`` takes cell ``t mod len(cells)`` and the instance seed
``S * SEED_STRIDE + t``, which seeds the injection, the 512 random
vectors and the diagnosis config.  The instance list depends on the
seed alone, never on how fast the host is.
The stride keeps the instance streams of two seeds disjoint (with
``S + t`` the runs for seeds 4 and 5 would share all but one instance).

The instances reuse the paper's two protocols from
:mod:`repro.bench.workloads`: Table 1 exact stuck-at diagnosis in the
fault-modeling direction (the good netlist is corrected to match the
faulty device) and Table 2 DEDC in the correction direction (the
erroneous netlist is corrected to match the specification).  The
program under test receives only the generated netlists and vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.workloads import (PreparedCircuit, design_error_instance,
                                   prepare_design_error, prepare_stuck_at,
                                   stuck_at_instance)
from repro.circuit import generators
from repro.circuit.netlist import Netlist
from repro.diagnose import DiagnosisConfig, Mode
from repro.diagnose.bitlists import reference_outputs
from repro.sim.compare import equivalent
from repro.sim.packing import PatternSet

VECTORS = 512
SEED_STRIDE = 100_003
#: Redraws allowed before a stuck-at cell is declared unusable.
MAX_REDRAWS = 50

CIRCUITS = {
    "rca8": lambda: generators.ripple_carry_adder(8),
    "ecc8": lambda: generators.hamming_corrector(8),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: protocol, pool width and instances."""

    name: str
    exact: bool        # Table 1 exact stuck-at, else Table 2 DEDC
    jobs: int
    cells: tuple       # ((circuit key, injected count), ...), cycled
    instances: int     # per run: one round takes about 25-30 s


# Cells are chosen for a narrow per-instance time distribution: the
# median and 75th percentile then fall inside one mode, and no single
# instance dominates a round (see README.md).  exact-jobs2 runs
# exact-sa's instances, so exact-sa is its in-process control.
WORKLOADS = {w.name: w for w in (
    Workload("exact-sa", True, 1, (("rca8", 2), ("ecc8", 2)), 80),
    Workload("dedc-de", False, 1, (("rca8", 2),), 150),
    Workload("exact-jobs2", True, 2, (("rca8", 2), ("ecc8", 2)), 80),
)}


@dataclass
class Instance:
    """One generated diagnosis problem, ready to hand to the engine."""

    index: int
    label: str
    spec: Netlist
    impl: Netlist
    patterns: PatternSet
    config: DiagnosisConfig
    truth: list
    reference: np.ndarray   # spec responses on every vector of V
    redraws: int


class InstanceStream:
    """Builds instance ``t`` of a workload on demand.

    Prepared circuits are cached; every instance gets its own netlists.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._prepared: dict = {}

    def _prepare(self, key: str) -> PreparedCircuit:
        if key not in self._prepared:
            prepare = (prepare_stuck_at if self.workload.exact
                       else prepare_design_error)
            self._prepared[key] = prepare(CIRCUITS[key]())
        return self._prepared[key]

    def instance(self, t: int) -> Instance:
        workload = self.workload
        key, count = workload.cells[t % len(workload.cells)]
        seed = self.seed * SEED_STRIDE + t
        prepared = self._prepare(key)
        if workload.exact:
            workload_, patterns, redraws = _observable_stuck_at(
                prepared, count, seed)
            spec, impl = workload_.impl, prepared.netlist
            config = DiagnosisConfig(mode=Mode.STUCK_AT, exact=True,
                                     max_errors=2, jobs=workload.jobs,
                                     seed=seed)
        else:
            # observable_design_error_workload already redraws until
            # the erroneous netlist fails a vector.
            workload_, patterns = design_error_instance(
                prepared, count, 0, VECTORS, seed)
            redraws = 0
            spec, impl = prepared.netlist, workload_.impl
            config = DiagnosisConfig(mode=Mode.DESIGN_ERROR, exact=False,
                                     max_errors=count + 1,
                                     jobs=workload.jobs, seed=seed)
        return Instance(t, f"{key}/{count}@{seed}", spec, impl, patterns,
                        config, workload_.truth,
                        reference_outputs(spec, patterns), redraws)


def _observable_stuck_at(prepared: PreparedCircuit, count: int,
                         seed: int) -> tuple:
    """Draw stuck-at faults until V exposes them.

    ``stuck_at_instance`` can draw faults no vector excites; the root
    state is then already rectified and the run reports nothing.  Each
    redraw moves to the next trial of the same seed.
    """
    for redraw in range(MAX_REDRAWS):
        workload, patterns = stuck_at_instance(prepared, count, redraw,
                                               VECTORS, seed)
        if not equivalent(reference_outputs(prepared.netlist, patterns),
                          reference_outputs(workload.impl, patterns),
                          patterns.nbits):
            return workload, patterns, redraw
    raise RuntimeError(f"{prepared.name}: no observable {count}-fault "
                       f"draw in {MAX_REDRAWS} trials of seed {seed}")
