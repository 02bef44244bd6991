"""Configuration of the incremental diagnosis engine.

The paper drives its three heuristics with a triple ``h1/h2/h3`` that is
progressively relaxed when the search returns empty-handed (§3.3):

* runs initiate with ``1/1/1`` (single-error case),
* a typical relaxed run is ``0.3/0.7/0.95`` then ``0.3/0.5/0.85``,
* the floor is ``0.1/0.3/0.5``, after which a node is declared a failure
  leaf,
* ``h1`` is reduced before ``h2``/``h3`` as error cardinality grows,
  "since these two parameters are error independent".

:func:`default_schedule` reproduces that relaxation ladder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Mode(enum.Enum):
    """What correction vocabulary the engine may use."""

    STUCK_AT = "stuck-at"          # fault diagnosis: sa0/sa1 models
    DESIGN_ERROR = "design-error"  # DEDC: the Abadir error model


@dataclass(frozen=True)
class HLevel:
    """One rung of the relaxation ladder.

    Attributes:
        h1: minimum fraction of erroneous primary outputs a candidate
            *line* must be able to rectify (heuristic 1 threshold).
        h2: minimum fraction of ``Verr`` bits a candidate *correction*
            must complement (heuristic 2 / Theorem 1 screen).
        h3: minimum fraction of correct primary outputs that must stay
            correct after the correction (heuristic 3 threshold).
    """

    h1: float
    h2: float
    h3: float

    def __str__(self) -> str:
        return f"{self.h1:g}/{self.h2:g}/{self.h3:g}"


#: The paper's floor: below this a node is a failure leaf (§3.3).
FLOOR = HLevel(0.1, 0.3, 0.5)


def default_schedule(num_errors: int) -> list[HLevel]:
    """Relaxation ladder for a search targeting ``num_errors`` errors.

    Mirrors §3.3: strict levels first; as the target cardinality grows,
    ``h1`` is relaxed ahead of ``h2``/``h3``; everything bottoms out at
    the ``0.1/0.3/0.5`` floor.
    """
    if num_errors <= 1:
        ladder = [HLevel(1.0, 1.0, 1.0),
                  HLevel(0.6, 0.9, 0.98),
                  HLevel(0.3, 0.7, 0.95)]
    elif num_errors == 2:
        ladder = [HLevel(0.45, 0.9, 0.97),
                  HLevel(0.3, 0.7, 0.95),
                  HLevel(0.3, 0.5, 0.85)]
    else:
        ladder = [HLevel(0.3, 0.7, 0.95),
                  HLevel(0.3, 0.5, 0.85),
                  HLevel(0.2, 0.4, 0.7)]
    ladder.append(FLOOR)
    return ladder


@dataclass
class DiagnosisConfig:
    """Knobs of :class:`~repro.diagnose.engine.IncrementalDiagnoser`.

    Attributes:
        mode: correction vocabulary (stuck-at vs design-error).
        max_errors: largest correction-set cardinality attempted.
        exact: exhaustively traverse the tree and return *all* minimal
            correction tuples (the paper's Table 1 protocol) instead of
            stopping at the first valid set (Table 2 protocol).
        candidate_fraction: fraction of path-trace-marked lines promoted
            to the second diagnosis step ("top 5-20%", §3.1); exact mode
            keeps every marked line.
        pathtrace_samples: failing vectors sampled per path-trace pass.
        wire_source_limit: candidate new-source signals tried per gate
            for add/replace-wire corrections.
        corrections_per_node: pending-list length per tree node (the
            corrections kept after ranking).
        max_nodes: hard cap on decision-tree nodes per search level.
            In the exact protocol the search is sharded into one
            subtree per screened root correction (see
            :mod:`repro.parallel`) and the cap applies *per shard*
            unless ``worker_budget`` overrides it.
        jobs: processes for the sharded search, counting the caller:
            ``N`` forks ``N - 1`` workers, and ``1`` (default) runs the
            same shard plan in-process.  Any ``N`` returns the
            identical solution list and deterministic counters (the
            scheduler's determinism contract, valid when
            ``time_budget`` is None).
        worker_budget: per-shard node budget; None means each shard
            inherits ``max_nodes``.  Deliberately independent of
            ``jobs`` so shard truncation is reproducible at any pool
            width.
        max_rounds: hard cap on rounds (paper observes <=6 typical, 9 for
            c1355/c880-like circuits, allowing up to 256 nodes).
        static_prescreen: drop suspects that are statically
            unobservable or ODC-blocked (dominator side input provably
            at its controlling value) before Heuristic 1 runs — see
            :func:`repro.diagnose.screening.prescreen_suspects`.  Each
            dropped suspect is a proven per-vector no-op at every
            primary output; the screen is re-derived per tree node from
            the (cached) dataflow facts of that node's netlist.  While
            it is on, each child node that will pre-screen warms its
            facts from its parent's via the netlist edit journal
            (:func:`repro.diagnose.tree.warm_child_facts`); every
            repair is exact, so the verdicts equal a scratch
            recomputation's and only ``EngineStats.facts_reused`` /
            ``facts_recomputed`` / ``delta_edits`` record the reuse.
        seq_prescreen: sequential variant of the pre-screen, used by
            :class:`~repro.diagnose.timeframe.TimeFrameDiagnoser`
            only: drop suspects whose driver is provably masked *from
            reset* — unobservable in the full-scan model (no
            combinational path to any primary output or flip-flop data
            input) or ODC-blocked with the side-input constant supplied
            by the reset-state fixpoint — see
            :func:`repro.analyze.seq.seq_masked_signals`, which carries
            the frame-induction soundness argument.  Each dropped
            suspect is a proven whole-run no-op at every primary output
            from reset.  Off by default; like ``static_prescreen`` the
            proof covers single suspects, and exotic tuples whose
            members pairwise unmask each other are in principle
            affected (the documented per-node caveat of
            :func:`repro.diagnose.screening.prescreen_suspects`).
        theorem1_safety: multiply the Theorem 1 bound in exact mode
            (<1 loosens the screen; 1.0 is the proven bound).
        schedule: optional explicit relaxation ladder override.
        prove_dedup: after the search, SAT-equivalence-check pairs of
            surviving correction candidates (repaired netlist vs
            repaired netlist through a full miter) and collapse
            proven-equivalent ones into one reported candidate with
            aliases — see :func:`repro.diagnose.dedup.dedup_solutions`.
            Off by default: the paper's Table 1 counts every minimal
            correction tuple separately.
        prove_budget: per-equivalence-check conflict budget of the
            dedup pass; budget-exhausted checks never merge.
        check_invariants: debug mode — assert each state's value
            matrix against a full simulation, the Section 2
            ``Verr``/``Vcorr`` partition, the Theorem 1 preconditions
            and live-line referencing at every tree node (see
            :class:`repro.analyze.InvariantChecker`).  Off by default;
            when off the engine pays one ``if`` per node.
        seed: randomness (path-trace vector sampling, wire sources).
            Each tree node samples with a seed derived from this value
            and its applied-correction signatures
            (:func:`repro.diagnose.pathtrace.derive_seed`), so runs
            are reproducible while nodes stay decorrelated.
    """

    mode: Mode = Mode.STUCK_AT
    max_errors: int = 4
    exact: bool = True
    candidate_fraction: float = 0.15
    pathtrace_samples: int = 24
    wire_source_limit: int = 8
    corrections_per_node: int = 24
    max_nodes: int = 4000
    jobs: int = 1
    worker_budget: int | None = None
    max_rounds: int = 9
    static_prescreen: bool = True
    seq_prescreen: bool = False
    theorem1_safety: float = 1.0
    prove_dedup: bool = False
    prove_budget: int = 2000
    schedule: list = field(default_factory=list)
    traversal: str = "rounds"   # "rounds" (paper) | "dfs" | "bfs"
    time_budget: float | None = None  # wall-clock seconds for one run()
    check_invariants: bool = False
    seed: int = 0

    def ladder(self, num_errors: int) -> list[HLevel]:
        return list(self.schedule) or default_schedule(num_errors)

    def validate(self, *,
                 sequential: bool | None = None) -> "DiagnosisConfig":
        """Reject contradictory or mode-inapplicable knob combinations.

        Called from every pipeline entry point (engine, time-frame and
        SAT diagnosers, CLI) so a bad flag combination fails up front
        with an actionable :class:`~repro.errors.DiagnosisError`
        instead of being silently ignored mid-search.  String ``mode``
        values are coerced to :class:`Mode` in place.

        Args:
            sequential: ``False`` for the combinational engine (rejects
                ``seq_prescreen``, which only the time-frame diagnoser
                reads), ``True`` for the sequential one, ``None`` skips
                the engine-specific check.

        Note ``worker_budget`` is deliberately *not* tied to ``jobs``:
        the per-shard budget applies identically at any pool width
        (including the in-process ``jobs=1`` plan), which is what makes
        shard truncation reproducible — see the attribute docs.

        Returns self, so entry points can chain on a fresh config.
        """
        from ..errors import DiagnosisError

        if isinstance(self.mode, str):
            try:
                self.mode = Mode(self.mode)
            except ValueError:
                valid = ", ".join(repr(m.value) for m in Mode)
                raise DiagnosisError(
                    f"unknown diagnosis mode {self.mode!r}; valid "
                    f"modes are {valid}") from None
        if not isinstance(self.mode, Mode):
            raise DiagnosisError(
                f"mode must be a Mode or a mode string, got "
                f"{self.mode!r}")
        if self.exact and self.mode is not Mode.STUCK_AT:
            raise DiagnosisError(
                "exact=True is the exhaustive stuck-at protocol "
                "(Table 1); design-error mode stops at the first valid "
                "correction set — set exact=False for "
                "mode=Mode.DESIGN_ERROR")
        if self.traversal not in ("rounds", "dfs", "bfs"):
            raise DiagnosisError(
                f"unknown traversal {self.traversal!r}; choose "
                "'rounds' (paper), 'dfs' or 'bfs'")
        for name, floor in (("max_errors", 1), ("pathtrace_samples", 1),
                            ("wire_source_limit", 1),
                            ("corrections_per_node", 1),
                            ("max_nodes", 1), ("jobs", 1),
                            ("max_rounds", 1), ("prove_budget", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < floor:
                raise DiagnosisError(
                    f"{name} must be an int >= {floor} (got {value!r})")
        if self.worker_budget is not None and (
                not isinstance(self.worker_budget, int)
                or self.worker_budget < 0):
            raise DiagnosisError(
                f"worker_budget must be an int >= 0 or None (got "
                f"{self.worker_budget!r}); None means each shard "
                "inherits max_nodes")
        if not 0.0 < self.candidate_fraction <= 1.0:
            raise DiagnosisError(
                f"candidate_fraction must be in (0, 1] (got "
                f"{self.candidate_fraction!r}) — the paper promotes "
                "the top 5-20% of path-trace-marked lines")
        if self.theorem1_safety <= 0.0:
            raise DiagnosisError(
                f"theorem1_safety must be > 0 (got "
                f"{self.theorem1_safety!r}); 1.0 is the proven bound, "
                "smaller values loosen the screen")
        if self.time_budget is not None and self.time_budget <= 0:
            raise DiagnosisError(
                f"time_budget must be > 0 seconds or None (got "
                f"{self.time_budget!r})")
        for level in self.schedule:
            if not isinstance(level, HLevel):
                raise DiagnosisError(
                    f"schedule entries must be HLevel (got {level!r})")
            for hname in ("h1", "h2", "h3"):
                value = getattr(level, hname)
                if not 0.0 <= value <= 1.0:
                    raise DiagnosisError(
                        f"schedule level {level}: {hname} must be in "
                        f"[0, 1] (got {value!r}); 0 disables that "
                        "heuristic (ablation studies rely on this)")
        if sequential is False and self.seq_prescreen:
            raise DiagnosisError(
                "seq_prescreen=True only applies to the sequential "
                "TimeFrameDiagnoser (reset-masked suspects); the "
                "combinational engine's pre-screen is static_prescreen")
        return self
