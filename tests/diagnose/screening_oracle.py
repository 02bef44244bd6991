"""Reference correction screen: one correction at a time.

Heuristic 2 by :func:`repro.diagnose.screening.screen_verr`, then one
single-row propagate and outcome summary per survivor, then heuristic
3.  The library screens a whole node's corrections in one call
(:func:`repro.diagnose.screening.screen_corrections`), its survivors
sharing slot-packed sweeps across lines; the tests check it against
this oracle field for field.
:func:`predicted_stack` builds that screen's words argument for a
hand-made correction list, one gate evaluation per correction.
"""

import numpy as np

from repro.diagnose.screening import (ScreenedCorrection, predicted_words,
                                      screen_verr)


def predicted_stack(state, corrections) -> np.ndarray:
    """``(k, nwords)`` predicted line words, row *i* for correction *i*
    (every correction must be buildable)."""
    return np.stack([predicted_words(state, corr)
                     for corr in corrections])


def evaluate_correction(state, corr, required_bits: int, h3: float):
    """Screen one correction; None when it is screened out.

    ``h3 <= 0`` disables the heuristic-3 screen.
    """
    new_words = predicted_words(state, corr)
    if new_words is None:
        return None
    complemented = screen_verr(state, corr, required_bits, new_words)
    if complemented is None:
        return None
    outcome, = state.outcome_of_override(corr.line, new_words)
    h3_score = outcome.h3_score(state)
    if h3 > 0 and h3_score < h3:
        return None
    return ScreenedCorrection(corr, new_words, complemented, outcome,
                              outcome.h1_score(state), h3_score)


def oracle_screen(state, corrections, required_bits: int,
                  h3: float) -> list:
    """Per-correction reference for ``screen_corrections``."""
    survivors = []
    for corr in corrections:
        sc = evaluate_correction(state, corr, required_bits, h3)
        if sc is not None:
            survivors.append(sc)
    return survivors
