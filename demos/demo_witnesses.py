"""Walkthrough: growth witnesses and certified iterate-ratio bounds.

Run:  python3 demos/demo_witnesses.py          (fast constructions, ~1 s)
      python3 demos/demo_witnesses.py --full   (adds the level-2 witness:
                                                2.9-3.5 s in all, 2-vCPU Xeon)
"""

import sys
from fractions import Fraction as F

from tsirnorm import Iterate
from tsirnorm.witnesses import (
    SearchBudget,
    base_witness,
    dichotomy_probe,
    inductive_witness,
    ratio_certificate,
    ratio_search,
    schedule,
)

# A schedule spaces blocks so that mass in later blocks is invisible to
# counts anchored at earlier ones: (2m_i - 1)/m_{i+1} < 1/m_i.
print("schedules:", schedule(2).m, schedule(3).m, schedule(4).m)

# The base witness stacks blocks [m_i, 2m_i-1] at height 1/m_i.  Each part
# carries first-iterate value exactly 1/2, the sum stays at most 1, and one
# admissible family already pushes the second iterate to n/4.
for n in (2, 3, 4):
    w = base_witness(n)
    print(f"\nbase witness n={n}: verified={w.verified}")
    for line in w.certificate:
        print(f"  {line.name} {line.relation} {line.right}: value {line.left} [{line.status}]")

# Dividing by the first-iterate value turns the witness into a ratio
# certificate: the (2 vs 1) iterate ratio is at least n/4 (here n/2, since
# the witness's first iterate is exactly 1/2).
for n in (2, 4):
    rc = ratio_certificate(1, n)
    print(f"\nratio certificate k=1, n={n}: (2 vs 1) ratio >= {rc.lower_bound}")

# Search-based ratios: candidate pools of witnesses, cascades, and random
# vectors, evaluated exactly; the bound is always a true lower bound.
found = ratio_search(Iterate(3), Iterate(2),
                     SearchBudget(max_support=200, max_candidates=48))
print(f"\nsearch (3 vs 2): >= {found.lower_bound} (~{float(found.lower_bound):.4f}) "
      f"on support {found.x.support_size}")

# The dichotomy probe: certified growth along increasing level pairs; misses
# are honest budget reports, never equivalence claims.
for entry in dichotomy_probe([F(1, 2)]):
    print(f"\nprobe target {entry.target} at levels {entry.level_pair}: "
          f"{'achieved' if entry.achieved else entry.note}")

if "--full" in sys.argv:
    # The level-2 witness rescales two inner witnesses onto separated
    # windows; all lines are re-verified exactly by the engine (~1500-point
    # second-iterate evaluations).
    w = inductive_witness(2, 2)
    print(f"\nlevel-2 witness (n=2): verified={w.verified}, "
          f"support={w.sum.support_size}")
    for line in w.certificate:
        print(f"  {line.name} {line.relation} {line.right}: value {line.left} [{line.status}]")
