"""Probability of finding a contiguous run of free slots.

``run_probability(S, F, rho)`` is the chance that F independent
Bernoulli(rho) slots contain at least S consecutive free ones, computed by
conditioning on the position of the first busy slot:

    P(S, F) = sum_{j=1..S} P(S, F - j) * rho^(j-1) * (1 - rho) + rho^S

with P(S, F) = 0 for F < S.  ``rho`` may be a float or an ndarray: the
recurrence runs elementwise with the same float operations in the same
order, so an array call returns exactly the floats of the scalar calls.
The lightpath engine makes one array call per slot count each time it
evaluates a plan; the scalar call serves the closed forms.
``run_probability_bruteforce`` recomputes the same quantity by exhaustive
enumeration of all 2^F slot masks and exists purely as an independent
check.
"""

from __future__ import annotations

import math

import numpy as np

_RHO_TOL = 1e-12
_BRUTEFORCE_MAX_SLOTS = 20

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

# per slot count F: array of shape (F+1, F+1) counting masks by
# (longest free run, number of free slots)
_mask_counts: dict[int, np.ndarray] = {}


def _check_args(min_run: int, slots: int, free_prob):
    """Validate the arguments; returns ``free_prob`` clamped into [0, 1]."""
    if min_run < 1:
        raise ValueError(f"run length must be >= 1, got {min_run}")
    if slots < 0:
        raise ValueError(f"slot count must be >= 0, got {slots}")
    if isinstance(free_prob, np.ndarray):
        bad = ~((free_prob >= -_RHO_TOL) & (free_prob <= 1.0 + _RHO_TOL))  # NaN too
        if bad.any():
            raise ValueError(f"free-slot probability {free_prob[bad][0]} outside [0, 1]")
        # np.clip's values without its Python-level wrapper, which costs more
        # than the clamp itself on the plan's small arrays
        return np.minimum(np.maximum(free_prob, 0.0), 1.0)
    if not -_RHO_TOL <= free_prob <= 1.0 + _RHO_TOL:
        raise ValueError(f"free-slot probability {free_prob} outside [0, 1]")
    return min(max(free_prob, 0.0), 1.0)


def run_probability(min_run: int, slots: int, free_prob):
    """Probability of at least ``min_run`` consecutive free slots among
    ``slots`` slots, each free independently with ``free_prob`` (a float,
    or an ndarray evaluated elementwise)."""
    rho = _check_args(min_run, slots, free_prob)
    if slots < min_run:
        return np.zeros_like(rho) if isinstance(rho, np.ndarray) else 0.0
    # rho^(j-1) * (1 - rho) for j = 1..min_run, plus the all-free tail rho^S;
    # products rather than ** so that scalars and arrays round alike
    weights = [1.0 - rho]
    tail = rho
    for _ in range(min_run - 1):
        weights.append(weights[-1] * rho)
        tail = tail * rho
    values = [0.0] * min_run  # P(., f) for f < min_run
    for f in range(min_run, slots + 1):
        # every term is nonnegative, so plain accumulation stays well below
        # the 1e-12 oracle tolerance (checked exhaustively in the tests)
        acc = tail
        for j in range(1, min_run + 1):
            acc = acc + values[f - j] * weights[j - 1]
        values.append(acc)
    if isinstance(rho, np.ndarray):
        return np.minimum(values[slots], 1.0)
    return min(values[slots], 1.0)


def _counts_for(slots: int) -> np.ndarray:
    counts = _mask_counts.get(slots)
    if counts is not None:
        return counts
    masks = np.arange(1 << slots, dtype=np.uint32)
    free = np.zeros(masks.shape, dtype=np.int64)
    for _ in range(4):  # popcount via byte lookup
        free += _POPCOUNT8[masks & 0xFF]
        masks >>= 8
    masks = np.arange(1 << slots, dtype=np.uint32)
    longest = np.zeros(masks.shape, dtype=np.int64)
    work = masks.copy()
    length = 0
    while work.any():
        length += 1
        longest[work != 0] = length
        work &= work >> 1
    counts = np.zeros((slots + 1, slots + 1), dtype=np.int64)
    np.add.at(counts, (longest, free), 1)
    _mask_counts[slots] = counts
    return counts


def run_probability_bruteforce(min_run: int, slots: int, free_prob: float) -> float:
    """Exact run probability by enumerating every slot mask.

    Limited to ``slots`` <= 20; masks are tallied by (longest run, free-slot
    count), then weighted by rho^free * (1-rho)^busy.
    """
    rho = _check_args(min_run, slots, free_prob)
    if slots > _BRUTEFORCE_MAX_SLOTS:
        raise ValueError(f"bruteforce enumeration limited to {_BRUTEFORCE_MAX_SLOTS} slots")
    if slots < min_run:
        return 0.0
    counts = _counts_for(slots)
    qualifying = counts[min_run:, :].sum(axis=0)  # by free-slot count
    terms = []
    for free in range(slots + 1):
        if qualifying[free]:
            terms.append(float(qualifying[free]) * rho**free * (1.0 - rho) ** (slots - free))
    return math.fsum(terms)
