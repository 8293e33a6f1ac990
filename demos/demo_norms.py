"""Walkthrough: exact iterate norms, the limit norm, and the norm algebra.

Run:  python3 demos/demo_norms.py
"""

from fractions import Fraction as F

from tsirnorm import (
    AdmissibilityRule,
    Ell1,
    FiniteVector,
    Iterate,
    Join,
    Sup,
    brute_force_norm,
    iterate_norm,
    l1_norm,
    norm_eval,
    parse_vector,
    stabilization_level,
    tsirelson_norm,
)

FJ = AdmissibilityRule.FIGIEL_JOHNSON
PL = AdmissibilityRule.PAPER_LITERAL

# The iterate recursion starts from the sup norm and closes under taking
# admissible families: at most min(E_1) successive pieces, each scored at
# the previous level and summed at half weight.
x = parse_vector("3:1,4:1,5:1")
print("x =", "3:1,4:1,5:1")
print("  sup:", iterate_norm(x, 0))
print("  first iterate:", iterate_norm(x, 1), " (three singletons from index 3)")
print("  limit:", tsirelson_norm(x))

# Iterates increase towards the limit and never pass the l1 mass.
y = parse_vector("2:1,3:1/2,5:1,6:1,7:1/3,11:1")
ladder = [iterate_norm(y, k) for k in range(5)]
print("\ny =", "2:1,3:1/2,5:1,6:1,7:1/3,11:1")
print("  ladder k=0..4:", ladder)
print("  l1 mass:", l1_norm(y))
k, limit = stabilization_level(y)
print(f"  stabilizes at K={k} with value {limit}")

# The exhaustive oracle enumerates every admissible family; on small
# supports it must agree exactly with the engine.
assert brute_force_norm(y, 2, FJ) == iterate_norm(y, 2, FJ)
print("  oracle agrees at level 2:", iterate_norm(y, 2, FJ))

# The literal reading of the recursion ties the family size to the step
# index; it lags until enough sets become admissible.
print("\nliteral-rule iterates of x:", [iterate_norm(x, k, PL) for k in range(5)])

# The norm algebra: l1, sup, joins (pointwise maxima).
z = parse_vector("1:1,2:1")
print("\njoin(l1, sup) at t_1+t_2:", norm_eval(Join(Ell1(), Sup()), z))

# Block-compressed vectors keep huge supports cheap at levels 0 and 1.
wide = FiniteVector([(10**6, 2 * 10**6 - 1, F(1, 10**6))])
print("\nflat block on [1e6, 2e6):")
print("  sup:", iterate_norm(wide, 0), " first iterate:", iterate_norm(wide, 1))
