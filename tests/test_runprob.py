import math

import numpy as np
import pytest

from eonspectra.runprob import run_probability

from oracles import (
    run_probability_bruteforce,
    run_probability_direct,
    run_probability_recurrence,
)


def test_single_slot():
    assert run_probability(1, 1, 0.7) == pytest.approx(0.7, abs=1e-15)


def test_below_base_case_is_zero():
    assert run_probability(3, 2, 0.9) == 0.0
    assert run_probability(5, 0, 0.5) == 0.0
    # a float in gives a np.float64 out on this path too, not a 0-d array
    assert type(run_probability(3, 2, 0.9)) is np.float64


def test_hand_enumerated_values():
    # masks 110, 011, 111 of the 8 three-slot masks hold a 2-run
    assert run_probability(2, 3, 0.5) == pytest.approx(0.375, abs=1e-15)
    # 16 four-slot masks minus the 8 with no adjacent free pair
    assert run_probability(2, 4, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_certain_and_impossible():
    for s, f in [(1, 1), (2, 5), (4, 4)]:
        assert run_probability(s, f, 1.0) == 1.0
        assert run_probability(s, f, 0.0) == 0.0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_probability(0, 3, 0.5)
    with pytest.raises(ValueError):
        run_probability(1, 3, 1.5)
    with pytest.raises(ValueError):
        run_probability(1, -1, 0.5)
    # within tolerance of the boundary: clamped, not rejected
    assert run_probability(1, 1, 1.0 + 5e-13) == 1.0


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        run_probability_bruteforce(1, 21, 0.5)


def test_bruteforce_matches_plain_enumeration():
    for slots in range(0, 10):
        for min_run in range(1, slots + 1):
            for rho in (0.0, 0.3, 0.5, 0.9, 1.0):
                expected = run_probability_direct(min_run, slots, rho)
                got = run_probability_bruteforce(min_run, slots, rho)
                assert got == pytest.approx(expected, abs=1e-13)


def test_recursion_matches_bruteforce():
    rhos = [round(0.1 * k, 1) for k in range(11)]
    for slots in range(1, 15):
        for min_run in range(1, slots + 1):
            for rho in rhos:
                a = run_probability(min_run, slots, rho)
                b = run_probability_bruteforce(min_run, slots, rho)
                assert abs(a - b) <= 1e-12, (min_run, slots, rho)


def test_monotonicity_properties():
    rng = np.random.default_rng(7)
    for _ in range(300):
        slots = int(rng.integers(1, 17))
        min_run = int(rng.integers(1, slots + 1))
        rho = float(rng.random())
        base = run_probability(min_run, slots, rho)
        assert 0.0 <= base <= 1.0
        # nondecreasing in slot count
        assert run_probability(min_run, slots + 1, rho) >= base - 1e-15
        # nondecreasing in the free probability
        assert run_probability(min_run, slots, min(rho + 0.05, 1.0)) >= base - 1e-15
        # nonincreasing in the run length
        assert run_probability(min_run + 1, slots, rho) <= base + 1e-15


def test_submultiplicative_in_rho():
    # a single window under thinned slots is at most the product of the
    # per-layer windows: the formula-level fact that conversion helps
    rng = np.random.default_rng(11)
    for _ in range(200):
        slots = int(rng.integers(1, 14))
        min_run = int(rng.integers(1, slots + 1))
        a, b = rng.random(2)
        lhs = run_probability(min_run, slots, float(a * b))
        rhs = run_probability(min_run, slots, float(a)) * run_probability(
            min_run, slots, float(b)
        )
        assert lhs <= rhs + 1e-12


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_array_call_equals_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    rhos = np.concatenate(([0.0, 1.0, 1e-300, 1.0 - 1e-16, 5e-13 + 1.0, -5e-13], rng.random(40)))
    for min_run in range(1, 6):
        for slots in range(1, 25):
            got = run_probability(min_run, slots, rhos)
            assert isinstance(got, np.ndarray) and got.shape == rhos.shape
            expected = [run_probability(min_run, slots, float(rho)) for rho in rhos]
            assert _bits(got) == _bits(expected), (min_run, slots)
    assert _bits(run_probability(3, 2, rhos)) == _bits(np.zeros_like(rhos))


def test_array_call_rejects_what_the_scalar_call_rejects():
    for bad in (math.nan, 1.5, -0.1, math.inf):
        with pytest.raises(ValueError):
            run_probability(2, 8, bad)
        with pytest.raises(ValueError):
            run_probability(2, 8, np.array([0.5, bad, 0.2]))
    with pytest.raises(ValueError):
        run_probability(0, 3, np.array([0.5]))


def test_kernel_equals_the_full_recurrence_bit_for_bit():
    # the kernel skips the elementwise check where every value lies in
    # (0, 1] and the terms P(S, f') = 0; neither may change a bit, the sign
    # of zero included
    rng = np.random.default_rng(19)
    edges = np.array([0.0, -0.0, 1.0, -1e-13, 1.0 + 1e-13, 5e-324, 1.0 - 2**-53])
    for case in range(2400):
        min_run = int(rng.integers(1, 7))
        slots = int(rng.integers(0, 25))
        if case % 4 == 0:  # 0-d: a Python float, a numpy scalar or a 0-d array
            value = float(rng.choice(edges) if rng.random() < 0.5 else rng.random())
            rhos = [value, np.float64(value), np.asarray(value)][case % 3]
        else:
            rhos = rng.random(int(rng.integers(0, 51)))
            if rhos.size and case % 2:
                picks = rng.integers(0, rhos.size, int(rng.integers(1, rhos.size + 1)))
                rhos[picks] = rng.choice(edges, picks.size)
        got = run_probability(min_run, slots, rhos)
        expected = run_probability_recurrence(min_run, slots, rhos)
        assert type(got) is type(expected), (min_run, slots, rhos)
        assert _bits(got) == _bits(expected), (min_run, slots, rhos)


@pytest.mark.parametrize("bad", [math.nan, 1.5])
def test_rejections_match_the_full_recurrence(bad):
    for rhos in (bad, np.array([0.5, bad, 0.0])):
        with pytest.raises(ValueError) as kernel:
            run_probability(3, 8, rhos)
        with pytest.raises(ValueError) as oracle:
            run_probability_recurrence(3, 8, rhos)
        assert str(kernel.value) == str(oracle.value)


def test_run_length_array_equals_per_slot_count_calls_bit_for_bit():
    # one call with a run length per element gives each element the floats
    # of its own slot count's call, and of the full recurrence; slot counts
    # above ``slots`` read +0.0, and exact 0.0 and 1.0 take the clamp path
    rng = np.random.default_rng(23)
    for case in range(600):
        slots = case % 21
        count = int(rng.integers(0, 40))
        sizes = np.sort(rng.integers(1, slots + 3, count)).astype([np.int64, np.int32][case % 2])
        rhos = rng.random(count)
        if count and case % 3:
            picks = rng.integers(0, count, int(rng.integers(1, count + 1)))
            rhos[picks] = rng.choice([0.0, 1.0], picks.size)
        got = run_probability(sizes, slots, rhos)
        assert isinstance(got, np.ndarray) and got.shape == rhos.shape
        grouped = np.empty(count)
        for s in np.unique(sizes).tolist():
            grouped[sizes == s] = run_probability(s, slots, rhos[sizes == s])
        assert _bits(got) == _bits(grouped), (slots, sizes, rhos)
        expected = [run_probability_recurrence(s, slots, r) for s, r in zip(sizes.tolist(), rhos)]
        assert _bits(got) == _bits(expected), (slots, sizes, rhos)


@pytest.mark.parametrize(
    "sizes",
    [
        np.array([1, 3, 2]),  # decreasing
        np.array([0, 1, 2]),  # a run length below 1
        np.array([-2, 1, 2]),
        np.array([1.0, 2.0, 3.0]),  # not integers
        np.array([True, True, True]),
        np.array([1, 2]),  # shaped unlike the probabilities
        np.array([[1, 2, 3]]),
        np.array(2),
    ],
)
def test_run_length_array_rejects_bad_arrays(sizes):
    with pytest.raises(ValueError, match="run lengths must be"):
        run_probability(sizes, 8, np.array([0.5, 0.6, 0.7]))


@pytest.mark.parametrize("min_run", [2.0, 2.5, np.float64(3.0), "2"])
def test_scalar_run_length_must_be_an_integer(min_run):
    # a run length counts slots: a float is refused, not rounded
    with pytest.raises(TypeError, match="run length must be an integer"):
        run_probability(min_run, 8, 0.5)
