"""Result objects returned by the diagnosis engine."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CorrectionRecord:
    """One applied correction, in stable (name-based) coordinates.

    ``signature`` survives netlist mutation and tree reordering, so a
    correction *set* is the frozenset of its members' signatures.
    """

    signature: str          # e.g. "sa1@n12" or "gate_replace[NOR]@g7"
    kind: str               # CorrectionKind value
    site: str               # line description ("n12" / "n12->g7.1")
    rank_position: int = 0  # position in its node's ranked list (0 = top)
    round_found: int = 0    # decision-tree round that applied it

    @property
    def driver_name(self) -> str:
        """Name of the gate driving the corrected line."""
        return self.site.split("->", 1)[0]

    @property
    def polarity(self) -> int | None:
        """Stuck value for sa corrections, else None."""
        if self.kind == "sa0":
            return 0
        if self.kind == "sa1":
            return 1
        return None


@dataclass(frozen=True)
class Solution:
    """A valid correction set: rectifies the design on every vector.

    ``netlist`` is the corrected implementation itself (the netlist with
    every correction already applied) — in DEDC mode this is the repaired
    design, in stuck-at mode the fault-modeled good netlist that matches
    the faulty device.

    ``aliases`` lists the descriptions of other correction sets whose
    repaired netlists were SAT-proven equivalent to this one and were
    collapsed into it by the dedup pass
    (:func:`repro.diagnose.dedup.dedup_solutions`); empty unless
    ``DiagnosisConfig.prove_dedup`` was on.
    """

    records: tuple
    netlist: object = None  # repro.circuit.Netlist (kept loose for eq)
    aliases: tuple = ()     # describe() strings of merged equivalents

    @property
    def key(self) -> frozenset:
        return frozenset(r.signature for r in self.records)

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def sites(self) -> frozenset:
        return frozenset(r.site for r in self.records)

    def describe(self) -> str:
        return " + ".join(sorted(r.signature for r in self.records))


def solution_sort_key(solution: Solution) -> tuple:
    """Canonical solution order: cardinality, then signature tuple.

    Discovery order depends on dict/tree traversal details — serial,
    sharded-parallel and resumed runs all discover the same solutions
    in different orders.  Sorting by (size, sorted signature tuple)
    makes every exact-mode result print identically however it was
    computed.
    """
    return (solution.size,
            tuple(sorted(r.signature for r in solution.records)))


def sort_solutions(solutions) -> list:
    """Solutions in canonical (cardinality, signature-tuple) order."""
    return sorted(solutions, key=solution_sort_key)


@dataclass
class EngineStats:
    """Timing and search-effort counters of one engine run."""

    nodes: int = 0
    rounds: int = 0
    diag_time: float = 0.0    # path trace + heuristic 1 (per-node diagnosis)
    corr_time: float = 0.0    # correction enumeration/screening/ranking
    apply_time: float = 0.0   # structural application + child state
    total_time: float = 0.0
    levels_tried: list = field(default_factory=list)  # "N=2 h=0.3/0.7/0.95"
    truncated: bool = False   # some reachable work was dropped
    #: why the run was truncated, deduplicated, in discovery order —
    #: "node-budget", "time-budget", or a per-shard failure like
    #: "N=2 sa1@n12: worker failed: ...".  Empty iff not truncated.
    truncation_causes: list = field(default_factory=list)
    #: per-shard accounting appended by the scheduler merge, in plan
    #: order: {"shard", "nodes", "truncated", "wall_s", "error"}.
    #: Deterministic except "wall_s" (a measurement).
    shards: list = field(default_factory=list)
    prescreen_dropped: int = 0  # suspects removed by the static pre-screen
    facts_reused: int = 0     # child facts bundles warmed from the parent's
    facts_recomputed: int = 0  # child bundles that had to start from scratch
    delta_edits: int = 0      # primitive edits the warmed children carried
    dedup_checked: int = 0    # candidate pairs equivalence-checked
    dedup_merged: int = 0     # proven-equivalent candidates collapsed
    dedup_unknown: int = 0    # checks that exhausted the conflict budget
    dedup_time: float = 0.0   # wall time of the dedup pass
    #: per-stage instrumentation appended by the pipeline session, in
    #: execution order: {"stage", "target", "in", "out", "info",
    #: "wall_s"} — see :mod:`repro.diagnose.pipeline`.  Deterministic
    #: except "wall_s" (a measurement).
    stages: list = field(default_factory=list)

    def merge(self, other: "EngineStats") -> None:
        self.nodes += other.nodes
        self.rounds = max(self.rounds, other.rounds)
        self.diag_time += other.diag_time
        self.corr_time += other.corr_time
        self.apply_time += other.apply_time
        self.total_time += other.total_time
        self.levels_tried.extend(other.levels_tried)
        self.truncated = self.truncated or other.truncated
        for cause in other.truncation_causes:
            if cause not in self.truncation_causes:
                self.truncation_causes.append(cause)
        self.shards.extend(other.shards)
        self.prescreen_dropped += other.prescreen_dropped
        self.facts_reused += other.facts_reused
        self.facts_recomputed += other.facts_recomputed
        self.delta_edits += other.delta_edits
        self.dedup_checked += other.dedup_checked
        self.dedup_merged += other.dedup_merged
        self.dedup_unknown += other.dedup_unknown
        self.dedup_time += other.dedup_time
        self.stages.extend(other.stages)


def mark_truncated(stats: EngineStats, cause: str) -> None:
    """Flag dropped work, recording why (idempotent per cause)."""
    stats.truncated = True
    if cause not in stats.truncation_causes:
        stats.truncation_causes.append(cause)


@dataclass
class DiagnosisResult:
    """Everything a caller gets back from one diagnosis run."""

    solutions: list            # list[Solution] — canonical (cardinality,
    #                            signature-tuple) order in exact mode,
    #                            discovery order in DEDC mode
    stats: EngineStats
    num_vectors: int = 0
    initial_failing: int = 0

    @property
    def found(self) -> bool:
        return bool(self.solutions)

    @property
    def min_size(self) -> int:
        return min((s.size for s in self.solutions), default=0)

    def distinct_sites(self) -> set:
        """Distinct lines a test engineer would probe (Table 1 '# sites')."""
        sites: set = set()
        for sol in self.solutions:
            sites |= set(sol.sites)
        return sites

    def summary(self) -> str:
        lines = [f"{len(self.solutions)} correction set(s); "
                 f"{len(self.distinct_sites())} distinct site(s); "
                 f"{self.stats.nodes} tree node(s) in "
                 f"{self.stats.total_time:.2f}s"]
        if self.stats.dedup_merged:
            lines[0] += (f" ({self.stats.dedup_merged} proven-equivalent"
                         f" candidate(s) collapsed)")
        for sol in self.solutions[:20]:
            line = f"  - {sol.describe()}"
            if sol.aliases:
                line += " (== " + ", ".join(sol.aliases) + ")"
            lines.append(line)
        if len(self.solutions) > 20:
            lines.append(f"  ... +{len(self.solutions) - 20} more")
        return "\n".join(lines)


def matches_truth(solution: Solution, truth) -> bool:
    """Tolerant ground-truth containment check.

    Each injected fault/error must be covered by a correction in the
    solution at the same driver gate (branch vs stem granularity is
    forgiven — tying a stem constant when only one branch remains is the
    same repair) with matching polarity for stuck-at records.
    """
    for rec in truth:
        want_driver = rec.site.split("->", 1)[0]
        want_pol = int(rec.kind[-1]) if rec.kind in ("sa0", "sa1") else None
        covered = False
        for cr in solution.records:
            if cr.driver_name != want_driver:
                continue
            if want_pol is not None and cr.polarity != want_pol:
                continue
            covered = True
            break
        if not covered:
            return False
    return True
