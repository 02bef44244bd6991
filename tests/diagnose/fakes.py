"""Test fakes for the diagnosis layer."""

from contextlib import contextmanager

from repro.diagnose import engine, tree


def _no_warm(parent, child, stats) -> None:
    return None


@contextmanager
def scratch_facts():
    """Turn facts warming off for the body.

    Replaces ``warm_child_facts`` with a no-op in both modules that call
    it, so every child node recomputes its dataflow facts from scratch
    at its first pre-screen, and restores the originals on exit.  Pool
    workers forked inside the body inherit the no-op.
    """
    originals = (engine.warm_child_facts, tree.warm_child_facts)
    engine.warm_child_facts = tree.warm_child_facts = _no_warm
    try:
        yield
    finally:
        engine.warm_child_facts, tree.warm_child_facts = originals
