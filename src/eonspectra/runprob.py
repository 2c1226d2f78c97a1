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

What the recurrence derives from S and F alone, its terms with their
slices, the bounds of the rho^S products and the elements no run fits,
is compiled once into a ``RunLengths`` table, which checks S and F as it
is built.  ``S`` is an int, which reads a table cached per (S, F), or a
table, used as it is; both take one path.  A table may also hold an
integer array of run lengths shaped like ``rho``, nondecreasing, and
element i is then P(S[i], F, rho[i]); slot counts above F read +0.0.
Every caller compiles its run lengths once: the cache for an int, the
lightpath engine once per plan, so that each of its fixed-point
iterations does only the arithmetic on ``rho``, and a test by calling
``RunLengths(sizes, F)``.  Any other ``S``, an array among them, is
refused with a ``TypeError`` before it reaches the cache.

The recurrence keeps one row P(., f) per slot f, and only the last max(S)
rows: the term j at slot f belongs to the elements with j <= S[i] <= f - j,
which, the run lengths being sorted, are one slice, so it is added to
that slice alone.  Each element thus gets exactly the float operations of
its own scalar call, in the same order; an int ``S`` is the case where
every slice covers the whole argument.  The powers rho^(j-1) * (1 - rho)
and rho^S are products taken factor by factor, as in the scalar call,
rather than ``**``, so that scalars and arrays round alike.

``rho`` is checked on every call.  The range check costs one min and one
max reduction when every value lies in (0, 1], which is every call the
engine makes; only an argument with a zero, a value outside [0, 1] or a
NaN takes the elementwise check, which rejects what lies beyond a 1e-12
tolerance and clamps the rest (turning -0.0 into +0.0).  The tests check
the recurrence against exhaustive enumeration of all 2^F slot masks, and
bit for bit against the recurrence with every term and the elementwise
check on every call; both live with their other oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

_RHO_TOL = 1e-12


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class RunLengths:
    """Run lengths compiled for ``slots`` slots (see the module docstring).

    ``sizes`` is an int, one run length for every element of any
    free-slot probabilities, or a nondecreasing 1-d integer array of run
    lengths >= 1, one per element of probabilities shaped ``shape``.
    ``terms`` holds per slot f from the shortest run length on the
    recurrence's terms (j, slice), the slice None for the whole argument,
    and ``cut`` the index past which no run fits, or None."""

    def __init__(self, sizes: int | np.ndarray, slots: int):
        if not _is_integer(slots):
            raise TypeError(f"slot count must be an integer, got {slots!r}")
        if slots < 0:
            raise ValueError(f"slot count must be >= 0, got {slots}")
        if isinstance(sizes, np.ndarray):
            if sizes.dtype.kind not in "iu" or sizes.ndim != 1:
                raise ValueError(
                    f"run lengths must be a 1-d integer array, got {sizes.dtype} {sizes.shape}"
                )
            # a comparison, not np.diff, which wraps around on unsigned integers
            if sizes.size and (sizes[0] < 1 or (sizes[1:] < sizes[:-1]).any()):
                raise ValueError("run lengths must be >= 1 and nondecreasing")
            count, self.shape = len(sizes), sizes.shape
            shortest, longest = (int(sizes[0]), int(sizes[-1])) if count else (slots + 1, 0)
            # ends[k]: how many elements need a run of at most k slots, so the
            # elements with j <= S <= k are the slice ends[j - 1]:ends[k]
            ends = sizes.searchsorted(np.arange(slots + 1), "right").tolist()
        else:
            if not _is_integer(sizes):
                raise TypeError(f"run length must be an integer, got {sizes!r}")
            if sizes < 1:
                raise ValueError(f"run length must be >= 1, got {sizes}")
            # one run length for every element: each bound is 0 or 1, so every
            # slice covers the whole argument
            count, self.shape, shortest, longest = 1, None, int(sizes), int(sizes)
            ends = [0] * min(shortest, slots + 1) + [1] * (slots + 1 - shortest)
        self.sizes, self.slots, self.longest = sizes, int(slots), longest
        self.powers = min(longest, slots - shortest) - 1  # the weights past 1 - rho
        self.tail_bounds = ends[1 : min(longest, slots)]  # rho^S's factor k from ends[k - 1]
        whole = [(j, None) for j in range(longest + 1)]  # one per j, for every slot f
        self.terms = []
        for f in range(shortest, slots + 1):
            terms = []
            for j in range(1, min(longest, f - shortest) + 1):
                lo, hi = ends[j - 1], ends[f - j]
                if hi - lo == count:
                    terms.append(whole[j])
                elif lo < hi:
                    terms.append((j, slice(lo, hi)))
            self.terms.append(terms)
        self.cut = ends[slots] if self.terms and ends[slots] < count else None


_cached = lru_cache(maxsize=64, typed=True)(RunLengths)


def _check_rho(free_prob):
    """``free_prob`` as float64 values in [0, 1], with no negative zero."""
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


def run_probability(min_run: int | RunLengths, slots: int, free_prob):
    """Probability of at least ``min_run`` consecutive free slots among
    ``slots`` slots, each free independently with ``free_prob`` (a float,
    or an ndarray evaluated elementwise).  ``min_run`` is an int, or a
    ``RunLengths`` table compiled for ``slots`` slots, which may give each
    element of ``free_prob`` its own run length."""
    runs = _cached(min_run, slots) if _is_integer(min_run) else min_run
    if not isinstance(runs, RunLengths):
        raise TypeError(f"run length must be an integer or a RunLengths(sizes, slots), got {min_run!r}")
    rho = _check_rho(free_prob)
    if runs.slots != slots:
        raise ValueError(f"run lengths compiled for {runs.slots} slots, not {slots}")
    if runs.shape is not None and runs.shape != rho.shape:
        raise ValueError(f"run lengths must be shaped like free_prob {rho.shape}, got {runs.shape}")
    if not runs.terms:
        return rho * 0.0  # +0.0 each, and a np.float64 for a float in
    # rho^(j-1) * (1 - rho) for every j a term uses, and each element's rho^S
    weights = [1.0 - rho]
    for _ in range(runs.powers):
        weights.append(weights[-1] * rho)
    tail = rho
    for lo in runs.tail_bounds:  # the elements from lo on take one more factor
        tail = tail * rho if lo == 0 else np.concatenate((tail[:lo], tail[lo:] * rho[lo:]))
    rows = deque(maxlen=runs.longest)  # P(., f - longest), ..., P(., f - 1)
    for terms in runs.terms:
        # every term is nonnegative, so plain accumulation stays well below
        # the 1e-12 oracle tolerance (checked exhaustively in the tests)
        acc = tail
        for j, part in terms:
            if part is None:
                acc = acc + rows[-j] * weights[j - 1]
            else:
                if acc is tail:
                    acc = tail.copy()
                into = acc[part]
                into += rows[-j][part] * weights[j - 1][part]
        rows.append(acc)
    result = np.minimum(acc, 1.0)
    if runs.cut is not None:
        result[runs.cut :] = 0.0  # the elements whose run cannot fit
    return result
