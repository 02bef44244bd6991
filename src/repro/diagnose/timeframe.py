"""Sequential (non-scan) stuck-at diagnosis via time-frame expansion.

The paper's §4 extension: a physical fault in a sequential circuit is
*one* defect that is present in **every** clock cycle, so in the
time-frame-expanded model it occupies the same line in every frame.
Joint corrections — tie the line's instance in all frames to the same
constant — are therefore the unit of search here, reusing the packed
bit-list screening of the combinational engine:

* excitation screen: Theorem 1 applied to the union (over frames) of
  complemented ``Verr`` bits;
* ordering: actual post-correction failing count via one multi-stem
  cone propagation;
* iterative deepening on the number of faults, exactly like the exact
  combinational protocol.

The unroll/simulate/partition setup runs through the shared
``ingest``/``bitlists`` stages of :mod:`repro.diagnose.pipeline` and
the search is a :class:`TimeFrameStrategy`, so per-stage records land
in ``EngineStats.stages`` exactly like the combinational modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.lines import LineTable
from ..circuit.netlist import Netlist
from ..errors import DiagnosisError
from ..circuit.unroll import unroll
from ..sim.logicsim import propagate, simulate
from ..sim.packing import const_row, popcount
from . import clock
from .bitlists import error_partition, reference_outputs
from .config import DiagnosisConfig
from .pipeline import DiagnosisSession, SearchStrategy, TraceWriter
from .report import (CorrectionRecord, EngineStats, Solution,
                     mark_truncated)
from .screening import theorem1_bound


@dataclass
class TimeFrameResult:
    """Outcome of a sequential diagnosis run."""

    solutions: list
    stats: EngineStats
    frames: int
    num_sequences: int

    @property
    def found(self) -> bool:
        return bool(self.solutions)

    def distinct_sites(self) -> set:
        sites: set = set()
        for sol in self.solutions:
            sites |= set(sol.sites)
        return sites


@dataclass
class _JointState:
    """Unrolled-model snapshot under a set of joint corrections."""

    values: np.ndarray
    err_mask: np.ndarray
    num_err: int
    forced: dict = field(default_factory=dict)  # line_index -> value


class TimeFrameStrategy(SearchStrategy):
    """Joint stuck-at search over the unrolled model (§4).

    Iterative deepening on joint-fault cardinality; every target level
    is one ``search`` stage record.  Path trace has no sequential
    analogue here — candidate lines are excitation-screened directly —
    and the reset-masking pre-screen is computed once at ingest, so
    those stages appear in the setup records, not per target.
    """

    name = "time-frame"

    def search(self, session: DiagnosisSession, diag) -> dict:
        stats = session.stats
        solutions: dict = {}
        budget = [diag.max_nodes]

        def dfs(state: _JointState, applied: tuple,
                target: int) -> None:
            remaining = target - len(applied)
            bound = theorem1_bound(state.num_err, remaining)
            candidates = []
            for line in diag.table:
                if line.index in state.forced:
                    continue
                if line.index in diag._masked_lines:
                    stats.prescreen_dropped += 1
                    continue
                for value in (0, 1):
                    delta = diag._joint_delta(state, line.index, value)
                    excited = popcount(delta & state.err_mask)
                    if excited >= max(1, bound):
                        candidates.append((excited, line.index, value))
            candidates.sort(key=lambda c: -c[0])
            for _excited, line_index, value in candidates:
                if budget[0] <= 0:
                    mark_truncated(stats, "node-budget")
                    return
                if session.expired():
                    mark_truncated(stats, "time-budget")
                    return
                budget[0] -= 1
                child = diag._apply_joint(state, line_index, value)
                stats.nodes += 1
                site = diag.table.describe(line_index)
                record = CorrectionRecord(f"sa{value}@{site}",
                                          f"sa{value}", site)
                child_applied = applied + (record,)
                if child.num_err == 0:
                    key = frozenset(r.signature for r in child_applied)
                    solutions.setdefault(key, Solution(child_applied))
                elif len(child_applied) < target:
                    dfs(child, child_applied, target)

        for target in range(1, diag.max_faults + 1):
            nodes_before = stats.nodes
            with session.stage("search", target=target,
                               items_in=len(diag.table)) as rec:
                dfs(diag._root, (), target)
                rec.items_out = len(solutions)
                rec.info = {"nodes": stats.nodes - nodes_before,
                            "budget_left": budget[0],
                            "truncated": stats.truncated}
            if solutions:
                break
        return solutions


class TimeFrameDiagnoser:
    """Diagnose stuck-at faults in a non-scan sequential circuit.

    Args:
        spec: the good sequential netlist (with DFFs).
        device_out_provider: the faulty design — any netlist with the
            same interface (typically the physically faulty copy); it is
            unrolled and simulated to obtain the observed responses.
        sequences: iterable of input sequences (``frames`` cycles each,
            one bit-vector per cycle).
        frames: time frames to expand.
        max_faults: largest joint-fault cardinality attempted.
        config: optional :class:`~repro.diagnose.config.DiagnosisConfig`;
            only ``seq_prescreen`` is consulted here.  When set, lines
            whose driver :func:`repro.analyze.seq.seq_masked_signals`
            proves masked from reset are never tried as suspects (each
            is a proven whole-run no-op on every primary output); every
            skip is counted in ``stats.prescreen_dropped``.
        trace: optional :class:`~repro.diagnose.pipeline.TraceWriter`
            mirroring the stage records as JSONL events.
    """

    def __init__(self, spec: Netlist, device: Netlist, sequences,
                 frames: int = 8, max_faults: int = 2,
                 max_nodes: int = 2000,
                 time_budget: float | None = 60.0,
                 initial_state=0, config=None,
                 trace: TraceWriter | None = None):
        if spec.is_combinational:
            raise DiagnosisError(
                "time-frame diagnosis is for sequential circuits; use "
                "IncrementalDiagnoser for combinational ones")
        from ..circuit.unroll import pack_sequences

        if config is not None:
            config.validate(sequential=True)
        self.spec = spec
        self.frames = frames
        self.max_faults = max_faults
        self.max_nodes = max_nodes
        self.time_budget = time_budget
        self.session = DiagnosisSession(config or DiagnosisConfig(),
                                        trace=trace)
        with self.session.stage("ingest") as rec:
            self.table = LineTable(spec)
            self.model, self.umap = unroll(spec, frames,
                                           initial_state=initial_state)
            device_model, _ = unroll(device, frames,
                                     initial_state=initial_state)
            self.patterns = pack_sequences(spec, self.umap, sequences)
            self.device_out = reference_outputs(device_model,
                                                self.patterns)
            self._line_instances = self._map_lines()
            rec.items_in = self.patterns.nbits
            rec.items_out = len(self.device_out)
            rec.info = {"frames": frames,
                        "sequences": self.patterns.nbits,
                        "unrolled_gates": len(self.model.gates)}
        with self.session.stage("bitlists",
                                items_in=self.patterns.nbits) as rec:
            self._root = self._state_from_values(
                simulate(self.model, self.patterns), {})
            rec.items_out = self._root.num_err
            rec.info = {"num_err": self._root.num_err}
        with self.session.stage("prescreen",
                                items_in=len(self.table)) as rec:
            self._masked_lines: frozenset = frozenset()
            enabled = config is not None and config.seq_prescreen
            if enabled:
                from ..analyze.seq import seq_masked_signals

                masked = seq_masked_signals(spec, initial_state)
                # A branch fault's effect cone is contained in its
                # stem's, so one masked driver disposes of the stem and
                # every branch line it feeds.
                self._masked_lines = frozenset(
                    line.index for line in self.table
                    if line.driver in masked)
            rec.items_out = len(self.table) - len(self._masked_lines)
            rec.info = {"enabled": enabled,
                        "masked_lines": len(self._masked_lines)}
        self.session.freeze_setup()

    # ------------------------------------------------------------------
    def _map_lines(self) -> dict:
        """line index -> the sites its joint fault forces, over frames.

        A stem fault forces the signal's instance in every frame.  A
        branch fault forces one pin of the sink's instance per frame;
        when the sink is a flip-flop, its unrolled instance is the
        explicit per-frame BUF whose pin 0 is the D input — frame 0's
        BUF reads the reset constant, so the D branch only acts from
        frame 1 on (faithful to the hardware: the reset value does not
        travel through the faulty wire).
        """
        from ..circuit.gatetypes import GateType

        mapping: dict = {}
        for line in self.table:
            sites = []
            sink_is_dff = (line.sink is not None and
                           self.spec.gates[line.sink].gtype
                           is GateType.DFF)
            for t in range(self.frames):
                inst = self.umap.instance[t]
                driver = inst.get(line.driver)
                if driver is None:
                    continue
                if line.is_stem:
                    sites.append(driver)
                    continue
                sink = inst.get(line.sink)
                if sink is None:
                    continue
                if sink_is_dff:
                    if t >= 1:
                        sites.append((sink, 0))
                else:
                    sites.append((sink, line.pin))
            mapping[line.index] = sites
        return mapping

    def _state_from_values(self, values: np.ndarray,
                           forced: dict) -> _JointState:
        out = values[self.model.outputs]
        _diff, err, num_err = error_partition(out, self.device_out,
                                              self.patterns.nbits)
        return _JointState(values, err, num_err, dict(forced))

    def _joint_delta(self, state: _JointState, line_index: int,
                     value: int) -> np.ndarray:
        """Union over frames of the bits a joint stuck-at would flip."""
        delta = np.zeros_like(state.err_mask)
        forced = const_row(value, len(delta))
        gates = self.model.gates
        for site in self._line_instances[line_index]:
            src = (gates[site[0]].fanin[site[1]] if isinstance(site, tuple)
                   else site)
            delta |= state.values[src] ^ forced
        return delta

    def _apply_joint(self, state: _JointState, line_index: int,
                     value: int) -> _JointState:
        """New state with the joint stuck-at imposed (value overrides,
        no structural mutation — frames share nothing downstream that a
        value override cannot express)."""
        nwords = state.values.shape[1]
        forced_row = const_row(value, nwords)
        overrides = {site: forced_row
                     for site in self._line_instances[line_index]}
        # previously forced lines must stay forced during re-propagation
        for (prev_line, prev_value) in state.forced.items():
            prev_row = const_row(prev_value, nwords)
            for site in self._line_instances[prev_line]:
                overrides.setdefault(site, prev_row)
        changed = propagate(self.model, state.values, overrides)
        values = np.array(state.values, copy=True)
        for idx, row in changed.items():
            values[idx] = row
        forced = dict(state.forced)
        forced[(line_index)] = value
        return self._state_from_values(values, forced)

    # ------------------------------------------------------------------
    def run(self) -> TimeFrameResult:
        session = self.session
        t0 = clock.now()
        stats = session.begin_run(
            time_budget=self.time_budget, mode="time-frame",
            frames=self.frames, vectors=self.patterns.nbits,
            initial_failing=self._root.num_err)
        solutions: dict = {}
        if self._root.num_err != 0:
            solutions = TimeFrameStrategy().search(session, self)
        with session.stage("verify", items_in=len(solutions)) as rec:
            rec.items_out = len(solutions)
            rec.info = {"method": "constructive"}
        with session.stage("report", items_in=len(solutions)) as rec:
            result = TimeFrameResult(list(solutions.values()), stats,
                                     self.frames, self.patterns.nbits)
            rec.items_out = len(result.solutions)
        stats.total_time = clock.now() - t0
        session.end_run(found=result.found,
                        solutions=len(result.solutions),
                        nodes=stats.nodes, truncated=stats.truncated,
                        total_s=stats.total_time)
        return result


def random_sequences(netlist: Netlist, count: int, frames: int,
                     seed: int = 0) -> list:
    """Random per-cycle stimulus for :class:`TimeFrameDiagnoser`."""
    import random

    rng = random.Random(seed)
    num_pis = netlist.num_inputs
    return [[[rng.randint(0, 1) for _ in range(num_pis)]
             for _ in range(frames)]
            for _ in range(count)]
