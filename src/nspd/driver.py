"""The one iteration loop every solver runs, with its record cadence.

A recorder is called as ``recorder(k, x, y, t, **products)`` after step k
on the recorded cadence, where ``products`` are the operator products the
solver state already holds (``Kx``, ``Kty``, or ``w`` and ``resid``, see
:mod:`nspd.metrics`).  Whatever the recorder returns is compared with the
optional ``tol``: a value at or below it ends the run.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["record_cadence", "run"]


def record_cadence(max_iters, trace_every):
    """Predicate on k telling which iterations are recorded.

    An integer ``trace_every`` records every multiple of it, the first ten
    iterations and the last; ``"log"`` records ~400 log-spaced k, the first
    ten and the last.
    """
    if trace_every == "log":
        ks = np.unique(np.round(np.logspace(0, np.log10(max_iters), 400)).astype(int))
        logs = set(int(k) for k in ks) | set(range(1, min(11, max_iters + 1)))
        logs.add(max_iters)
        return logs.__contains__
    return lambda k: k % trace_every == 0 or k <= 10 or k == max_iters


def run(advance, state, max_iters, trace_every, recorder, output, tol=None):
    """Advance ``state`` up to ``max_iters`` times and return it.

    ``advance(state)`` performs one step and returns the state, whose ``k``
    counts the steps taken.  When ``recorder`` is given, ``output(state)``
    returns the ``(x, y, products)`` it is called with at each recorded k,
    ``t`` being the seconds since the loop started; a recorded value at or
    below ``tol`` stops the run.
    """
    if recorder is None:
        for _ in range(max_iters):
            state = advance(state)
        return state
    recorded = record_cadence(max_iters, trace_every)
    t0 = time.perf_counter()
    for _ in range(max_iters):
        state = advance(state)
        k = state.k
        if recorded(k):
            x, y, products = output(state)
            value = recorder(k, x, y, time.perf_counter() - t0, **products)
            if tol is not None and value is not None and value <= tol:
                break
    return state
