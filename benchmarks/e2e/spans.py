"""Outside-in span tracer for the benchmark's traced round.

The tracer wraps the public functions at each layer boundary of the
diagnosis stack — from the benchmark's side, without touching the
program.  Names a consumer imported by value (``from .pathtrace import
path_trace_counts``) are patched in every consumer module; methods are
patched on their class.  :meth:`Tracer.installed` restores every
original on exit, so untraced rounds run with no wrapper in place.

A span is ``(name, start, end, parent, instance)``.  Self time is a
span's duration minus the time its child spans cover (calls nest within
one thread, so that is the sum of the children's durations).  Totals
are aggregated as spans close; the first :data:`SPAN_CAP` spans are
also kept verbatim for :meth:`Tracer.dump`, because a DEDC round closes
millions of them.

Spans opened inside pool workers (``jobs > 1``) stay in the worker:
only the parent-side spans are visible.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from repro import parallel
from repro.circuit.lines import LineTable
from repro.circuit.netlist import Netlist
from repro.diagnose import bitlists, engine, screening, tree
from repro.diagnose.bitlists import DiagnosisState
from repro.diagnose.tree import DecisionTree

SPAN_CAP = 100_000


def _count_prescreen(counts, args, result):
    kept, dropped = result
    counts["screening.prescreen.in"] += len(kept) + dropped
    counts["screening.prescreen.dropped"] += dropped


def _count_verr(counts, args, result):
    counts["screening.verr.passed"] += result is not None


def _count_corrections(counts, args, result):
    counts["screening.corrections.in"] += len(args[1])
    counts["screening.corrections.passed"] += len(result)


def _count_child(counts, args, result):
    counts["engine.child.solutions"] += result.rectified


#: (span name, [(owner, attribute), ...], count hook or None).  Owners
#: are every module that looks the name up, or the defining class.
LAYERS = (
    ("engine.candidates", [(engine, "exact_candidates")], None),
    ("engine.child", [(engine, "fast_stuck_at_child")], _count_child),
    ("circuit.linetable", [(LineTable, "__init__")], None),
    ("circuit.copy", [(Netlist, "copy")], None),
    ("faults.apply_correction",
     [(engine, "apply_correction"), (tree, "apply_correction")], None),
    ("tree.expand", [(DecisionTree, "expand")], None),
    ("tree.child", [(DecisionTree, "apply")], None),
    ("screening.corrections", [(tree, "screen_corrections")],
     _count_corrections),
    ("potential.rank_lines", [(tree, "rank_lines")], None),
    ("ranking", [(tree, "rank_corrections")], None),
    ("bitlists.outcome", [(DiagnosisState, "outcome_of_override")], None),
    ("sim.propagate", [(bitlists, "propagate")], None),
    ("pathtrace",
     [(engine, "path_trace_counts"), (tree, "path_trace_counts")], None),
    ("screening.prescreen",
     [(engine, "prescreen_suspects"), (tree, "prescreen_suspects")],
     _count_prescreen),
    ("screening.verr",
     [(engine, "screen_verr"), (screening, "screen_verr")], _count_verr),
    ("analyze.warm",
     [(engine, "warm_child_facts"), (tree, "warm_child_facts")], None),
    ("bitlists.state", [(DiagnosisState, "__init__")], None),
    ("sim.simulate", [(bitlists, "simulate")], None),
    ("parallel.run_shards", [(parallel, "run_shards")], None),
    ("parallel.shard", [(engine, "execute_shard")], None),
)

SPAN_NAMES = tuple(name for name, _owners, _hook in LAYERS)


class Tracer:
    """Records spans of wrapped calls; aggregates them as they close."""

    def __init__(self):
        self.instance: int | None = None
        self.spans: list = []       # first SPAN_CAP closed spans
        self.closed = 0
        #: span name -> [calls, inclusive seconds, self seconds]
        self.totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counts: Counter = Counter()
        self._stack: list = []      # open spans: [id, child seconds]
        self._next_id = 0

    def _wrap(self, name: str, fn, hook):
        tracer = self
        totals = self.totals[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if tracer.closed < SPAN_CAP:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.instance))
                tracer.closed += 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, instance: int):
        """Wrap every layer for the body; restore the originals after."""
        self.instance = instance
        originals = []
        try:
            for name, owners, hook in LAYERS:
                for owner, attr in owners:
                    original = vars(owner)[attr]
                    originals.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self.instance = None

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, instance in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "instance": instance}) + "\n")
