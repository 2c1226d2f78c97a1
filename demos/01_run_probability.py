"""Contiguous-run probabilities: the engine behind every blocking formula.

A request for S slots fits into a fiber of F slots only if S consecutive
slots are free.  With each slot free independently with probability rho,
this is the classic "at least S consecutive heads in F coin flips"
quantity.  The recursion is exact; summing the probability of every one
of the 2^F slot masks that holds a run of S free slots is the independent
cross-check.
"""

from eonspectra import run_probability


def enumerate_masks(s, f, rho):
    """Sum over the f-slot masks (bit set = free) that hold s free in a row."""
    run = (1 << s) - 1
    return sum(
        rho ** mask.bit_count() * (1 - rho) ** (f - mask.bit_count())
        for mask in range(1 << f)
        if any(mask >> i & run == run for i in range(f - s + 1))
    )


print("recursion vs exhaustive enumeration")
print(f"{'S':>3} {'F':>3} {'rho':>5} {'recursion':>12} {'enumeration':>12}")
for s, f, rho in [(1, 1, 0.7), (2, 3, 0.5), (2, 4, 0.5), (3, 10, 0.8), (4, 16, 0.9)]:
    a = run_probability(s, f, rho)
    b = enumerate_masks(s, f, rho)
    assert abs(a - b) <= 1e-12, (s, f, rho)
    print(f"{s:>3} {f:>3} {rho:>5.2f} {a:>12.8f} {b:>12.8f}")

print()
print("more slots help, longer requests hurt (rho = 0.8)")
print(f"{'F':>3} " + " ".join(f"S={s:<9}" for s in (1, 2, 3, 4)))
for f in range(4, 17, 2):
    row = " ".join(f"{run_probability(s, f, 0.8):<11.6f}" for s in (1, 2, 3, 4))
    print(f"{f:>3} {row}")

print()
print("why conversion helps, in one inequality:")
print("a slot free on a 2-hop path has probability a*b, and")
print("P(window | a*b) <= P(window | a) * P(window | b)")
for a, b in [(0.9, 0.9), (0.8, 0.6), (0.95, 0.7)]:
    lhs = run_probability(3, 12, a * b)
    rhs = run_probability(3, 12, a) * run_probability(3, 12, b)
    print(f"  a={a} b={b}: whole-path {lhs:.6f} <= split {rhs:.6f}")
