"""The decision tree and its round-based BFS/DFS traversal (§3.3, Fig. 2).

"Every node in this tree indicates a set of potential corrections ...; an
edge represents the application of a single (highly-ranked) correction to
enter the next execution level; the level of a node indicates the number
of corrections performed on the implementation so far. ...  Instead of
visiting nodes in the tree in a strictly BFS or DFS manner, the algorithm
visits them in rounds.  During each round, a single (highly-ranked)
correction is selected from every node currently present.  The correction
is applied to obtain a new node in the next level of the tree.  The
number of nodes in the tree at most doubles with each round."

:class:`DecisionTree` implements exactly that traversal;
:func:`round_visit_order` reproduces Fig. 2's round numbering for a
perfect binary tree (tested against the figure).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analyze.invariants import InvariantChecker
from ..faults.models import apply_correction
from . import clock
from .bitlists import DiagnosisState
from .candidates import is_correctable_line, node_vocabulary
from .config import DiagnosisConfig, HLevel
from .pathtrace import derive_seed, path_trace_counts, top_fraction
from .potential import rank_lines
from .ranking import rank_corrections
from .report import (CorrectionRecord, EngineStats, Solution,
                     mark_truncated)
from .screening import (ScreenedCorrection, prescreen_suspects,
                        screen_corrections)


def warm_child_facts(parent, child, stats: EngineStats) -> None:
    """Warm ``child``'s constants and observability — the two facts
    sections the pre-screen reads — from ``parent``'s bundle.

    Runs for every child that will pre-screen (``static_prescreen`` on
    and spare depth below the target); the warm is exact, so the
    child's pre-screen verdicts equal a scratch recomputation's.
    ``child`` must be a fresh ``parent.copy()``, so its change record
    holds exactly the applied correction and its version counts that
    correction's primitive edits.  When the parent never materialized
    a bundle, or the correction fell back to a full invalidation, the
    child's first pre-screen recomputes from scratch instead; either
    way exactly one counter moves.
    """
    from ..analyze.dataflow import NetlistFacts, warm_facts
    base = getattr(parent, "_facts", None)
    if (not isinstance(base, NetlistFacts)
            or base.version != parent.version or child.touched is None):
        stats.facts_recomputed += 1
        return
    child._facts = warm_facts(child, base)
    stats.facts_reused += 1
    stats.delta_edits += child.version


@dataclass
class Node:
    """One decision-tree node: a partially corrected implementation."""

    state: DiagnosisState
    depth: int = 0
    applied: tuple = ()                 # CorrectionRecords so far
    pending: list | None = None         # ranked ScreenedCorrections
    next_rank: int = 0                  # position of next pending pop

    @property
    def expanded(self) -> bool:
        return self.pending is not None

    @property
    def open(self) -> bool:
        return self.pending is None or self.next_rank < len(self.pending)


class DecisionTree:
    """Round-based traversal for one (target cardinality, h-level) pair."""

    def __init__(self, root_state: DiagnosisState, target_errors: int,
                 h: HLevel, config: DiagnosisConfig,
                 stats: EngineStats | None = None,
                 candidate_fraction: float | None = None,
                 deadline: float | None = None):
        self.target = target_errors
        self.h = h
        self.config = config
        self.candidate_fraction = (candidate_fraction
                                   if candidate_fraction is not None
                                   else config.candidate_fraction)
        self.stats = stats if stats is not None else EngineStats()
        self.deadline = deadline
        self.root = Node(root_state)
        self.open_nodes: list[Node] = [self.root]
        self.solutions: list[Solution] = []
        self._seen_sets: set = set()
        self.invariants = (InvariantChecker()
                           if config.check_invariants else None)

    # ------------------------------------------------------------------
    # per-node candidate computation (the "diagnosis" + "correction"
    # phases of a single algorithm execution; their times are Table 2's
    # "diag." and "corr." columns)
    # ------------------------------------------------------------------
    def expand(self, node: Node) -> None:
        """Fill a node's ranked pending-correction list.

        One pass per node: path trace and the pre-screen pick the
        suspects, heuristic 1 ranks them in multi-site sweeps, the
        vocabulary of every qualifying line goes into one word stack
        (lines in potential order), and one :func:`screen_corrections`
        call applies heuristics 2 and 3 to all of it before the stable
        ranking sort.
        """
        state = node.state
        config = self.config
        t0 = clock.now()
        # Per-node seed: reusing config.seed verbatim would correlate
        # the sampled path-trace across the whole search (see
        # pathtrace.derive_seed).
        seed = derive_seed(config.seed,
                           tuple(r.signature for r in node.applied))
        counts = path_trace_counts(state, config.pathtrace_samples,
                                   seed)
        candidate_lines = [line for line
                           in top_fraction(counts, self.candidate_fraction)
                           if is_correctable_line(state, line)]
        if config.static_prescreen:
            candidate_lines, dropped = prescreen_suspects(
                state, candidate_lines, deep=node.depth == 0)
            self.stats.prescreen_dropped += dropped
        potentials = rank_lines(state, candidate_lines, self.h.h1)
        if self.invariants:
            self.invariants.check_lines_live(state, candidate_lines)
            self.invariants.check_potentials(state, potentials)
        t1 = clock.now()
        self.stats.diag_time += t1 - t0
        required = max(1, int(self.h.h2 * state.num_err))
        fields, words = node_vocabulary(
            state, [pot.line for pot in potentials], config)
        screened = screen_corrections(state, fields, words, required,
                                      self.h.h3)
        if self.invariants:
            self.invariants.check_screen(state, screened)
        ranked = rank_corrections(state, screened)
        node.pending = [sc for _rank, sc in
                        ranked[: config.corrections_per_node]]
        node.next_rank = 0
        self.stats.corr_time += clock.now() - t1

    # ------------------------------------------------------------------
    def apply(self, node: Node, sc: ScreenedCorrection,
              round_no: int, rank_position: int) -> Node | None:
        """Create the child node reached by applying one correction, or
        None for a leaf its screen says fails V (counted, never built)."""
        t0 = clock.now()
        state = node.state
        signature = sc.correction.describe(state.netlist, state.table)
        site = state.table.describe(sc.correction.line)
        record = CorrectionRecord(signature, sc.correction.kind.value,
                                  site, rank_position, round_no)
        applied = node.applied + (record,)
        self.stats.nodes += 1
        leaf = node.depth + 1 == self.target
        if leaf and not sc.fixes_all:
            self._seen_sets.add(frozenset(r.signature for r in applied))
            return None
        child_netlist = state.netlist.copy()
        apply_correction(child_netlist, state.table, sc.correction)
        if self.config.static_prescreen and not leaf:
            # Only children that may expand (and hence pre-screen) are
            # worth warming; frontier nodes never read their facts.
            warm_child_facts(state.netlist, child_netlist, self.stats)
            if self.invariants:
                self.invariants.check_facts(child_netlist)
        child_state = state.child(child_netlist, sc.correction,
                                  sc.new_words)
        if self.invariants:
            self.invariants.check_state(child_state)
        self.stats.apply_time += clock.now() - t0
        return Node(child_state, node.depth + 1, applied)

    # ------------------------------------------------------------------
    def run(self, traversal: str = "rounds") -> list[Solution]:
        """Traverse until the first solution, exhaustion, or caps.

        ``traversal`` selects the global flow: ``"rounds"`` is the
        paper's BFS/DFS trade-off; ``"dfs"`` and ``"bfs"`` are the two
        stand-alone strategies §3.3 argues against (kept for the
        ablation benches).
        """
        if traversal == "dfs":
            return self._run_dfs()
        if traversal == "bfs":
            return self._run_bfs()
        return self._run_rounds()

    def _out_of_budget(self) -> bool:
        if self.stats.nodes >= self.config.max_nodes:
            mark_truncated(self.stats, "node-budget")
            return True
        if self.deadline is not None and clock.now() > self.deadline:
            mark_truncated(self.stats, "time-budget")
            return True
        return False

    def _register_child(self, child: Node) -> bool:
        """Common child bookkeeping; True when the search should stop."""
        key = frozenset(r.signature for r in child.applied)
        if key in self._seen_sets:
            return False
        self._seen_sets.add(key)
        if child.state.rectified:
            self.solutions.append(Solution(child.applied,
                                           child.state.netlist))
            return True
        if child.depth < self.target:
            self.open_nodes.append(child)
        return False

    def _run_dfs(self) -> list[Solution]:
        """Greedy depth-first: always deepen the newest open node."""
        while self.open_nodes:
            if self._out_of_budget():
                break
            node = self.open_nodes[-1]
            if not node.expanded:
                self.expand(node)
            if not node.open:
                self.open_nodes.pop()
                continue
            rank_position = node.next_rank
            sc = node.pending[rank_position]
            node.next_rank += 1
            child = self.apply(node, sc, 0, rank_position)
            if child is not None and self._register_child(child):
                return self.solutions
        return self.solutions

    def _run_bfs(self) -> list[Solution]:
        """Naive breadth-first: exhaust every node level by level."""
        frontier = [self.root]
        for level in range(self.target):
            next_frontier: list[Node] = []
            for node in frontier:
                if not node.expanded:
                    self.expand(node)
                for rank_position, sc in enumerate(node.pending):
                    if self._out_of_budget():
                        return self.solutions
                    child = self.apply(node, sc, level + 1, rank_position)
                    self.open_nodes = next_frontier  # children collect here
                    if child is not None and self._register_child(child):
                        return self.solutions
            frontier = next_frontier
            if not frontier:
                break
        return self.solutions

    def _run_rounds(self) -> list[Solution]:
        """Round-based traversal until a solution, exhaustion, or caps."""
        config = self.config
        for round_no in range(1, config.max_rounds + 1):
            self.stats.rounds = max(self.stats.rounds, round_no)
            if not self.open_nodes:
                break
            current = list(self.open_nodes)
            for node in current:
                if self._out_of_budget():
                    return self.solutions
                if not node.expanded:
                    self.expand(node)
                if not node.open:
                    self._close(node)
                    continue
                rank_position = node.next_rank
                sc = node.pending[rank_position]
                node.next_rank += 1
                if not node.open:
                    self._close(node)
                child = self.apply(node, sc, round_no, rank_position)
                if child is not None and self._register_child(child):
                    return self.solutions
        return self.solutions

    def _close(self, node: Node) -> None:
        if node in self.open_nodes:
            self.open_nodes.remove(node)


def round_visit_order(levels: int) -> dict:
    """Round number in which each node of a perfect binary decision tree
    is *created* by the paper's traversal (Fig. 2).

    Nodes are keyed by their path from the root: a tuple of 0/1 edge
    choices, the root being ``()`` (created in round 0).  Each round,
    every existing node with spare depth spawns its next child: the root
    spawns child (0,) in round 1, (1,) in round 2, and so on — matching
    the round numbers printed on Fig. 2's nodes.
    """
    created = {(): 0}
    children_spawned = {(): 0}
    round_no = 0
    while True:
        round_no += 1
        spawned_any = False
        for path in sorted(created, key=lambda p: (len(p), p)):
            if len(path) >= levels:
                continue
            nth = children_spawned.get(path, 0)
            if nth >= 2:  # binary: each node has two selectable corrections
                continue
            child = path + (nth,)
            if created.get(child) is None:
                created[child] = round_no
                children_spawned[path] = nth + 1
                spawned_any = True
        if not spawned_any:
            break
    return created
