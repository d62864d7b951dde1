"""The one iteration loop every solver runs, with its record cadence.

A recorder is called as ``recorder(k, x, y, t, **products)`` after step k
on the recorded cadence, where ``products`` are the operator products the
solver state already holds (``Kx``, ``Kty``, or ``w`` and ``resid``, see
:mod:`nspd.metrics`).  Every run takes its whole ``max_iters`` budget.
"""

from __future__ import annotations

import numbers
import time

import numpy as np

from .errors import check_option

__all__ = ["check_trace_every", "record_cadence", "run"]


def check_trace_every(trace_every):
    """Raise ConfigurationError unless ``trace_every`` is ``"log"`` or a
    positive integer."""
    if trace_every != "log":
        check_option("trace_every", trace_every,
                     "be 'log' or a positive integer", kind=numbers.Integral)


def record_cadence(max_iters, trace_every):
    """Predicate on k telling which iterations are recorded.

    A positive integer ``trace_every`` records every multiple of it, the
    first ten iterations and the last; ``"log"`` records ~400 log-spaced k,
    the first ten and the last.  Anything else is a ConfigurationError.  A
    run of no steps records nothing.
    """
    check_trace_every(trace_every)
    if max_iters < 1:
        return lambda k: False
    if trace_every == "log":
        ks = np.unique(np.round(np.logspace(0, np.log10(max_iters), 400)).astype(int))
        logs = set(int(k) for k in ks) | set(range(1, min(11, max_iters + 1)))
        logs.add(max_iters)
        return logs.__contains__
    return lambda k: k % trace_every == 0 or k <= 10 or k == max_iters


def run(advance, state, max_iters, trace_every, recorder, output):
    """Advance ``state`` ``max_iters`` times and return it.

    ``advance(state)`` performs one step and returns the state, whose ``k``
    counts the steps taken.  When ``recorder`` is given, ``output(state)``
    returns the ``(x, y, products)`` it is called with at each recorded k,
    ``t`` being the seconds since the loop started.  A ``max_iters`` that
    is not a non-negative integer, or a bad ``trace_every``, is a
    ConfigurationError, recorded or not.
    """
    check_option("max_iters", max_iters, "be a non-negative integer",
                 lambda k: k >= 0, numbers.Integral)
    check_trace_every(trace_every)
    recorded = ((lambda k: False) if recorder is None
                else record_cadence(max_iters, trace_every))
    t0 = time.perf_counter()
    for _ in range(max_iters):
        state = advance(state)
        k = state.k
        if recorded(k):
            x, y, products = output(state)
            recorder(k, x, y, time.perf_counter() - t0, **products)
    return state
