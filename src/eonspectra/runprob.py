"""Probability of finding a contiguous run of free slots.

``run_probability(S, F, rho)`` is the chance that F independent
Bernoulli(rho) slots contain at least S consecutive free ones, computed by
conditioning on the position of the first busy slot:

    P(S, F) = sum_{j=1..S} P(S, F - j) * rho^(j-1) * (1 - rho) + rho^S

with P(S, F) = 0 for F < S.  The sum leaves out the terms with F - j < S:
each is P = 0 times a weight, exactly +0.0, and every partial sum is at
least +0.0, so adding one would change no bit.  ``rho`` may be a float or
an ndarray, and both take one path: the argument becomes an array (0-d
for a float) and the recurrence runs elementwise on it, so an array call
returns exactly the floats of the scalar calls, and a float in gives a
float (``np.float64``) out.  The lightpath engine makes one array call per
slot count each time it evaluates a plan; the scalar call serves the
closed forms.

The range check costs one min and one max reduction when every value lies
in (0, 1], which is every call the engine makes; only an argument with a
zero, a value outside [0, 1] or a NaN takes the elementwise check, which
rejects what lies beyond a 1e-12 tolerance and clamps the rest (turning
-0.0 into +0.0).  The tests check the recurrence against exhaustive
enumeration of all 2^F slot masks, and bit for bit against the recurrence
with every term and the elementwise check on every call; both live with
their other oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

_RHO_TOL = 1e-12


def _check_args(min_run: int, slots: int, free_prob):
    """Validate the arguments; returns ``free_prob`` as float64 values in
    [0, 1], with no negative zero."""
    if min_run < 1:
        raise ValueError(f"run length must be >= 1, got {min_run}")
    if slots < 0:
        raise ValueError(f"slot count must be >= 0, got {slots}")
    rho = np.asarray(free_prob, dtype=float)
    # NaN fails both comparisons and an empty array passes (the initial
    # values); the ufuncs' own reductions skip ndarray.min's Python wrapper
    if (
        np.minimum.reduce(rho, axis=None, initial=1.0) > 0.0
        and np.maximum.reduce(rho, axis=None, initial=0.0) <= 1.0
    ):
        # [()] turns a float's 0-d array into a np.float64, as the clamp
        # does, so that the recurrence runs on numpy's fast scalar math
        return rho[()]
    bad = ~((rho >= -_RHO_TOL) & (rho <= 1.0 + _RHO_TOL))  # NaN too
    if bad.any():
        raise ValueError(f"free-slot probability {rho[bad][0]} outside [0, 1]")
    # np.clip's values without its Python-level wrapper, which costs more
    # than the clamp itself on the plan's small arrays
    return np.minimum(np.maximum(rho, 0.0), 1.0)


def run_probability(min_run: int, slots: int, free_prob):
    """Probability of at least ``min_run`` consecutive free slots among
    ``slots`` slots, each free independently with ``free_prob`` (a float,
    or an ndarray evaluated elementwise)."""
    rho = _check_args(min_run, slots, free_prob)
    if slots < min_run:
        return rho * 0.0  # +0.0 each, and a np.float64 for a float in
    # rho^(j-1) * (1 - rho) for j = 1..min_run, plus the all-free tail rho^S;
    # products rather than ** so that scalars and arrays round alike
    weights = [1.0 - rho]
    tail = rho
    for _ in range(min_run - 1):
        weights.append(weights[-1] * rho)
        tail = tail * rho
    values = []  # P(min_run, f) for f = min_run, ..., slots
    for f in range(min_run, slots + 1):
        # every term is nonnegative, so plain accumulation stays well below
        # the 1e-12 oracle tolerance (checked exhaustively in the tests)
        acc = tail
        for j in range(1, min(min_run, f - min_run) + 1):
            acc = acc + values[f - min_run - j] * weights[j - 1]
        values.append(acc)
    return np.minimum(values[-1], 1.0)
