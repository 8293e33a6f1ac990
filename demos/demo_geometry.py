"""Walkthrough: norm distances, phi transforms, and the stability diagnostic.

Run:  python3 demos/demo_geometry.py
"""

from fractions import Fraction as F

from tsirnorm import Ell1, FiniteVector, Iterate, Sup
from tsirnorm.geometry import (
    PhiVariant,
    distance_lower,
    order_property_matrix,
    phi_of,
    stability_gap,
    stability_sign_exact,
)

# D(M, N) compares two norms over the l1-sphere.  Pools certify it from
# below; flat vectors already separate l1 from sup by the factor m.
pool = [FiniteVector.from_blocks([(1, m, F(1, m))]) for m in range(1, 6)]
est = distance_lower(Ell1(), Sup(), pool)
print("D(l1, sup) >=", est.value, "witness:", est.witness.runs)

# Identical norms sit at distance 1; the transforms pin the endpoints to
# exact rationals.
print("similarity at D=1:", PhiVariant.SIMILARITY.transform(F(1)))
print("logistic   at D=1:", PhiVariant.LOGISTIC.transform(F(1)))
print("logistic   at D=inf:", PhiVariant.LOGISTIC.transform(None))

pe = phi_of(Iterate(2), Iterate(2), PhiVariant.SIMILARITY, [FiniteVector.basis(1)])
print("phi(M, M) under similarity:", pe.value)

# The order-property matrix: one-sided estimates between iterate levels.
# Above the denominator the ladder certifies <= 1 exactly; below it,
# witnesses and search certify growth.
matrix = order_property_matrix(4)
print("\ndistance grid (rows: numerator level, cols: denominator level):")
for num in range(5):
    print("  " + "  ".join(f"{str(matrix.d_value(num, den)):>8}" for den in range(5)))
print("entry (2,1):", matrix.d_value(2, 1), "from", matrix.entry(2, 1).source)
print("entry (3,2):", matrix.d_value(3, 2), "from", matrix.entry(3, 2).source)

# Stability: a double-sequence phi matrix whose triangle aggregates refuse
# to meet.  The float gap is reported, but its sign is decided by exact
# rational comparisons through the transform's monotonicity.
grid = matrix.phi_matrix_for_stability(PhiVariant.LOGISTIC)
rep = stability_gap(grid)
sign = stability_sign_exact(matrix.d_matrix_for_stability(), PhiVariant.LOGISTIC)
print(f"\nstability gap: {rep.gap:.4f} (sup {rep.sup_lower:.4f} at {rep.sup_witness}, "
      f"inf {rep.inf_upper:.4f} at {rep.inf_witness}), exact sign {sign:+d}")
