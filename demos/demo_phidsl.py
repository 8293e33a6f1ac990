"""Walkthrough: the phi-polynomial DSL.

Run:  python3 demos/demo_phidsl.py
"""

from fractions import Fraction as F

from tsirnorm import Ell1, FiniteVector, Iterate, Sup
from tsirnorm.geometry import PhiVariant
from tsirnorm.phidsl import (
    EvalContext,
    approx_realizer,
    eval_phi,
    mpv,
    parse_phi,
    phi_to_json,
    print_phi,
)

# Expressions combine similarity atoms with min (&), max (|), truncated
# addition (+), rational scaling, and the constant 1.
for text in ("1", "1/2*phi(M)", "(phi(M)+phi(L))", "((1/2*1 + 3/4*1) & phi(M))"):
    expr = parse_phi(text)
    print(f"{text!r:34} -> {print_phi(expr):30} mpv = {mpv(expr)}")

expr = parse_phi("(1/2*phi(M) | (phi(M) & phi(L)))")
print("\nAST:", phi_to_json(expr))

# Evaluation against a target norm: atoms score the similarity between
# their registered norm and the target; exact endpoints stay rational.
ctx = EvalContext({"M": Iterate(1), "L": Ell1()}, PhiVariant.SIMILARITY,
                  pool=[FiniteVector.basis(1), FiniteVector.from_blocks([(1, 3, F(1, 3))])])
print("\nvalue at target M:", eval_phi(expr, Iterate(1), ctx))
print("value at target sup:", eval_phi(expr, Sup(), ctx))

# Realizers walk the expression and combine registered norms with joins so
# the achieved value approaches the maximum possible one; when every atom
# names the same norm the maximum is hit exactly.
result = approx_realizer(parse_phi("((phi(M)+phi(M)) & 1)"), ctx)
print("\nrealizer:", result.to_report())
