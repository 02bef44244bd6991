"""Bridging fault model (the paper's §4.1 extension hook).

"In the future, we plan to apply this approach to other types of
physical faults.  The advantage of the algorithm lies in the fact that
it can be adapted to other faults by adopting a suitable fault model in
the correction stage."  This module does exactly that for two-net
*bridging faults* — the defect class of the paper's reference [12]
(Venkataraman & Fuchs' deductive bridging-fault diagnosis):

* ``AND``-bridge: both shorted nets read ``a AND b`` (wired-AND),
* ``OR``-bridge: both read ``a OR b`` (wired-OR).

:func:`inject_bridging_fault` creates workloads;
:func:`scored_bridge_partners` plugs the model into the correction
stage via the bit-parallel pair scorer; :class:`BridgingDiagnoser` is a
small exact-search front end mirroring the stuck-at protocol, checking
each candidate by forced-site propagation over all of V.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field

import numpy as np

from ..circuit.gatetypes import GateType
from ..circuit.netlist import Netlist
from ..errors import InjectionError
from ..sim.packing import PatternSet, row_popcounts
from .inject import InjectionRecord, Workload


class BridgeKind(enum.Enum):
    AND = "and"   # wired-AND: dominant 0
    OR = "or"     # wired-OR: dominant 1


@dataclass(frozen=True)
class BridgingFault:
    """A two-net short, in stable (name-based) coordinates."""

    net_a: str
    net_b: str
    kind: BridgeKind

    def __str__(self) -> str:
        return f"bridge_{self.kind.value}({self.net_a},{self.net_b})"


def apply_bridge(netlist: Netlist, sig_a: int, sig_b: int,
                 kind: BridgeKind) -> int:
    """Mutate ``netlist``: short signals ``sig_a``/``sig_b``.

    A new gate computes the wired function of the two original drivers;
    every consumer of either net (and PO slots) reads it.  Returns the
    new gate's index.
    """
    if sig_a == sig_b:
        raise InjectionError("cannot bridge a net with itself")
    if sig_b in netlist.fanout_cone(sig_a) or \
            sig_a in netlist.fanout_cone(sig_b):
        raise InjectionError(
            "bridged nets must not be in each other's fanout cone "
            "(feedback bridging faults are out of scope)")
    gtype = GateType.AND if kind is BridgeKind.AND else GateType.OR
    name = netlist.fresh_name(
        f"br_{netlist.gates[sig_a].name}_{netlist.gates[sig_b].name}")
    bridge = netlist.add_gate(name, gtype, [sig_a, sig_b])
    for gate in netlist.gates:
        if gate.index == bridge:
            continue
        gate.fanin = [bridge if src in (sig_a, sig_b) else src
                      for src in gate.fanin]
    netlist.outputs = [bridge if out in (sig_a, sig_b) else out
                       for out in netlist.outputs]
    netlist._dirty()
    return bridge


def inject_bridging_fault(netlist: Netlist, seed: int = 0,
                          max_attempts: int = 200) -> Workload:
    """Workload with one random (non-feedback) bridging fault."""
    rng = random.Random(seed)
    live = sorted(netlist.live_set() | set(netlist.inputs))
    for _ in range(max_attempts):
        sig_a, sig_b = rng.sample(live, 2)
        kind = rng.choice(list(BridgeKind))
        impl = netlist.copy(f"{netlist.name}_bridge_{seed}")
        try:
            apply_bridge(impl, sig_a, sig_b, kind)
        except InjectionError:
            continue
        record = InjectionRecord(
            f"bridge_{kind.value}",
            netlist.gates[sig_a].name,
            f"<->{netlist.gates[sig_b].name}")
        return Workload(netlist, impl, [record])
    raise InjectionError("no legal bridging site found")


# ----------------------------------------------------------------------
# the correction stage: scoring candidate bridges bit-parallel
# ----------------------------------------------------------------------
def scored_bridge_partners(netlist: Netlist, values: np.ndarray,
                           anchor: int, err_mask: np.ndarray,
                           corr_mask: np.ndarray, kind: BridgeKind,
                           limit: int = 8) -> list[int]:
    """Best partner signals to bridge with ``anchor``.

    Same idea as the wire-correction scorer: for every candidate
    partner, how many failing bits would the bridged value flip on the
    *anchor* net, minus passing bits corrupted.
    """
    anchor_vals = values[anchor]
    if kind is BridgeKind.AND:
        new = values & anchor_vals
    else:
        new = values | anchor_vals
    delta = new ^ anchor_vals
    err_flips = row_popcounts(delta & err_mask)
    corr_flips = row_popcounts(delta & corr_mask)
    # Rank by failing-bit coverage first and excitation on passing
    # vectors second: unlike wire corrections, a genuine bridge is
    # routinely excited on passing vectors without corrupting them, so
    # the corr count must only break ties, never dominate.
    max_corr = int(corr_flips.max()) + 1
    score = err_flips.astype(np.int64) * max_corr - corr_flips
    legal = np.ones(len(netlist.gates), dtype=bool)
    legal[anchor] = False
    for sig in netlist.fanout_cone(anchor):
        legal[sig] = False
    live = netlist.live_set() | set(netlist.inputs)
    for gate in netlist.gates:
        if gate.index not in live:
            legal[gate.index] = False
        elif anchor in netlist.fanout_cone(gate.index):
            legal[gate.index] = False
    legal &= err_flips > 0
    if not legal.any():
        return []
    sentinel = score.min() - 1
    score = np.where(legal, score, sentinel)
    order = np.argsort(score, kind="stable")[::-1]
    return [int(g) for g in order[:limit] if legal[g]]


@dataclass
class BridgingResult:
    faults: list = field(default_factory=list)   # verified BridgingFaults
    candidates_scored: int = 0
    total_time: float = 0.0

    @property
    def found(self) -> bool:
        return bool(self.faults)


class BridgingDiagnoser:
    """Find single bridging faults explaining a faulty device.

    Fault-modeling direction, like the stuck-at protocol: a candidate
    bridge forced on the *good* netlist's two nets is kept when
    forced-site propagation over all of V reproduces the device's
    responses.  Anchors come from path trace (the guarantee holds: a
    bridge changes at least one of the two nets, whose lines path trace
    marks), partners from the pair scorer.
    """

    def __init__(self, device: Netlist, good: Netlist,
                 patterns: PatternSet, partner_limit: int = 10,
                 time_budget: float | None = 30.0):
        self.device = device
        self.good = good
        self.patterns = patterns
        self.partner_limit = partner_limit
        self.time_budget = time_budget
        from ..diagnose.bitlists import DiagnosisState, reference_outputs

        self.device_out = reference_outputs(device, patterns)
        # The good netlist against the device: the input of path trace,
        # the pair scorer and every candidate's forced-site check.
        self.state = DiagnosisState(good, patterns, self.device_out)

    def _anchors(self) -> list[int]:
        from ..diagnose.pathtrace import marked_lines, path_trace_counts

        counts = path_trace_counts(self.state)
        table = self.state.table
        drivers = []
        seen = set()
        for line in marked_lines(counts):
            driver = table[line].driver
            if driver not in seen:
                seen.add(driver)
                drivers.append(driver)
        return drivers

    def run(self) -> BridgingResult:
        result = BridgingResult()
        t0 = time.perf_counter()
        deadline = t0 + self.time_budget if self.time_budget else None
        state = self.state
        if state.num_err == 0:
            result.total_time = time.perf_counter() - t0
            return result
        seen_pairs: set = set()
        for anchor in self._anchors():
            if deadline and time.perf_counter() > deadline:
                break
            for kind in BridgeKind:
                partners = scored_bridge_partners(
                    self.good, state.values, anchor, state.err_mask,
                    state.corr_mask, kind, self.partner_limit)
                for partner in partners:
                    key = (kind, frozenset((anchor, partner)))
                    if key in seen_pairs:
                        continue
                    seen_pairs.add(key)
                    result.candidates_scored += 1
                    # Both nets read the wired value; neither lies in
                    # the other's fanout cone (the scorer's guarantee).
                    va, vb = state.values[anchor], state.values[partner]
                    wired = va & vb if kind is BridgeKind.AND else va | vb
                    if state.rectified_by({anchor: wired, partner: wired}):
                        result.faults.append(BridgingFault(
                            self.good.gates[anchor].name,
                            self.good.gates[partner].name, kind))
        result.total_time = time.perf_counter() - t0
        return result
