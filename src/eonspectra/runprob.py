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
float (``np.float64``) out.

``S`` may also be an integer array shaped like ``rho``, nondecreasing, and
element i is then P(S[i], F, rho[i]); slot counts above F read +0.0.  The
lightpath engine evaluates all the run probabilities of one plan this way,
in one call.  The same recurrence serves both forms, one row P(., f) per
slot f, keeping only the last max(S) rows: the term j at slot f belongs to
the elements with j <= S[i] <= f - j, which, the run lengths being sorted,
are one slice, so it is added to that slice alone.  Each element thus gets
exactly the float operations of its own scalar call, in the same order;
an int ``S`` is the case where every slice covers the whole argument.
The powers rho^(j-1) * (1 - rho) and rho^S are products taken factor by
factor, as in the scalar call, rather than ``**``, so that scalars and
arrays round alike.

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

from collections import deque

import numpy as np

_RHO_TOL = 1e-12


def _check_args(min_run: int | np.ndarray, slots: int, free_prob):
    """Validate the arguments; returns ``free_prob`` as float64 values in
    [0, 1], with no negative zero."""
    runs = isinstance(min_run, np.ndarray)
    if not runs:
        if not isinstance(min_run, (int, np.integer)):
            raise TypeError(f"run length must be an integer, got {min_run!r}")
        if min_run < 1:
            raise ValueError(f"run length must be >= 1, got {min_run}")
    if slots < 0:
        raise ValueError(f"slot count must be >= 0, got {slots}")
    rho = np.asarray(free_prob, dtype=float)
    if runs:
        if min_run.dtype.kind not in "iu" or min_run.ndim != 1 or min_run.shape != rho.shape:
            raise ValueError(
                f"run lengths must be a 1-d integer array shaped like the free-slot "
                f"probabilities {rho.shape}, got {min_run.dtype} {min_run.shape}"
            )
        # a comparison, not np.diff, which wraps around on unsigned integers
        if min_run.size and (min_run[0] < 1 or (min_run[1:] < min_run[:-1]).any()):
            raise ValueError("run lengths must be >= 1 and nondecreasing")
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


def run_probability(min_run: int | np.ndarray, slots: int, free_prob):
    """Probability of at least ``min_run`` consecutive free slots among
    ``slots`` slots, each free independently with ``free_prob`` (a float,
    or an ndarray evaluated elementwise).  ``min_run`` is an int, or a
    nondecreasing integer array shaped like ``free_prob`` that gives each
    element its own run length."""
    rho = _check_args(min_run, slots, free_prob)
    if isinstance(min_run, np.ndarray):
        count = len(min_run)
        if not count or slots < min_run[0]:
            return rho * 0.0  # +0.0 each
        shortest, longest = int(min_run[0]), int(min_run[-1])
        # ends[k]: how many elements need a run of at most k slots, so the
        # elements with j <= S <= k are the slice ends[j - 1]:ends[k]
        ends = min_run.searchsorted(np.arange(slots + 1), "right").tolist()
    else:
        if slots < min_run:
            return rho * 0.0  # +0.0, and a np.float64 for a float in
        # one run length for every element: each bound is 0 or 1, so every
        # slice covers the whole argument
        count, shortest, longest = 1, int(min_run), int(min_run)
        ends = [0] * shortest + [1] * (slots + 1 - shortest)
    # rho^(j-1) * (1 - rho) for every j a term uses, and each element's rho^S
    weights = [1.0 - rho]
    for _ in range(min(longest, slots - shortest) - 1):
        weights.append(weights[-1] * rho)
    tail = rho
    for k in range(2, min(longest, slots) + 1):
        lo = ends[k - 1]  # the elements with S >= k take one more factor
        tail = tail * rho if lo == 0 else np.concatenate((tail[:lo], tail[lo:] * rho[lo:]))
    rows = deque(maxlen=longest)  # P(., f - longest), ..., P(., f - 1)
    for f in range(shortest, slots + 1):
        # every term is nonnegative, so plain accumulation stays well below
        # the 1e-12 oracle tolerance (checked exhaustively in the tests)
        acc = tail
        for j in range(1, min(longest, f - shortest) + 1):
            lo, hi = ends[j - 1], ends[f - j]
            if hi - lo == count:
                acc = acc + rows[-j] * weights[j - 1]
            elif lo < hi:
                if acc is tail:
                    acc = tail.copy()
                part = acc[lo:hi]
                part += rows[-j][lo:hi] * weights[j - 1][lo:hi]
        rows.append(acc)
    result = np.minimum(acc, 1.0)
    if ends[slots] < count:
        result[ends[slots] :] = 0.0  # the elements whose run cannot fit
    return result
