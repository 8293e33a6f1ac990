import random
from fractions import Fraction as F

import pytest

from tsirnorm import Ell1, FiniteVector, Iterate, Join, Sup
from tsirnorm.geometry import PhiVariant
from tsirnorm.phidsl import (
    And,
    Atom,
    Const1,
    EvalContext,
    Oplus,
    Or,
    PhiEvalError,
    PhiParseError,
    Scal,
    approx_realizer,
    eval_phi,
    mpv,
    parse_phi,
)


def random_expr(rng: random.Random, depth: int, atoms=("M1", "M2", "M3")):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Const1(), Atom(rng.choice(atoms))])
    kind = rng.randrange(4)
    if kind == 0:
        coeff = F(rng.randint(0, 8), 8)
        return Scal(coeff, random_expr(rng, depth - 1, atoms))
    node = (And, Or, Oplus)[kind - 1]
    return node(random_expr(rng, depth - 1, atoms), random_expr(rng, depth - 1, atoms))


def mpv_oracle(expr):
    # Deliberately separate implementation: direct case ladder, no helpers.
    if isinstance(expr, Const1):
        return F(1)
    if isinstance(expr, Atom):
        return F(1)
    if isinstance(expr, Scal):
        return expr.coeff * mpv_oracle(expr.child)
    a, b = mpv_oracle(expr.left), mpv_oracle(expr.right)
    if isinstance(expr, And):
        return a if a < b else b
    if isinstance(expr, Or):
        return a if a > b else b
    total = a + b
    return total if total < 1 else F(1)


def json_oracle(expr):
    # Deliberately separate implementation: direct case ladder, no helpers.
    if isinstance(expr, Const1):
        return {"tag": "const1"}
    if isinstance(expr, Atom):
        return {"tag": "atom", "name": expr.name}
    if isinstance(expr, Scal):
        return {"tag": "scal", "coeff": str(expr.coeff), "child": json_oracle(expr.child)}
    tags = {And: "and", Or: "or", Oplus: "oplus"}
    return {
        "tag": tags[type(expr)],
        "left": json_oracle(expr.left),
        "right": json_oracle(expr.right),
    }


def exact_ctx(rng: random.Random):
    """Context whose atoms take deterministic exact rational values."""
    table = {}

    def evaluator(name, target):
        key = (name, target)
        if key not in table:
            table[key] = F(rng.randint(0, 16), 16)
        return table[key]

    registry = {"M1": Iterate(1), "M2": Ell1(), "M3": Sup()}
    return EvalContext(registry, PhiVariant.SIMILARITY, atom_evaluator=evaluator)


class TestParsing:
    @pytest.mark.parametrize("text,expected", [
        ("1", Const1()),
        ("1/2*phi(M1)", Scal(F(1, 2), Atom("M1"))),
        ("(phi(M1)+phi(M2))", Oplus(Atom("M1"), Atom("M2"))),
        ("(phi(A)&1)", And(Atom("A"), Const1())),
        ("( 1 | 1/4*1 )", Or(Const1(), Scal(F(1, 4), Const1()))),
    ])
    def test_examples(self, text, expected):
        assert parse_phi(text) == expected

    @pytest.mark.parametrize("bad", [
        "", "2*1", "3/2*phi(M)", "phi()", "(1&)", "(1&1", "1 1", "5", "phi(M))",
        "(1", "(phi(M)", "(1 & 1",
    ])
    def test_errors_carry_position(self, bad):
        with pytest.raises(PhiParseError) as err:
            parse_phi(bad)
        assert 0 <= err.value.position <= len(bad)

    @pytest.mark.parametrize("bad,message,position", [
        ("(1", "expected one of '&', '|', '+'", 2),
        ("(phi(M)", "expected one of '&', '|', '+'", 7),
        ("(1 & 1", "expected ')'", 6),
    ])
    def test_unclosed_input_names_what_is_missing(self, bad, message, position):
        with pytest.raises(PhiParseError) as err:
            parse_phi(bad)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            expr = random_expr(rng, 5)
            assert parse_phi(str(expr)) == expr

    def test_json_tags(self):
        obj = parse_phi("(1/2*phi(M)|(1&(1+1)))").to_json()
        assert obj["tag"] == "or"
        assert obj["left"]["tag"] == "scal"
        assert obj["left"]["child"]["tag"] == "atom"

    def test_json_matches_independent_oracle(self):
        rng = random.Random(19)
        for _ in range(300):
            expr = random_expr(rng, 5)
            assert expr.to_json() == json_oracle(expr)

    def test_operators_are_distinct_nodes(self):
        a, b = Atom("M"), Const1()
        assert And(a, b) != Or(a, b) != Oplus(a, b) != And(a, b)
        assert And(a, b) == And(Atom("M"), Const1())
        assert repr(Or(a, b)) == "Or(left=Atom(name='M'), right=Const1())"


class TestMpv:
    @pytest.mark.parametrize("text,value", [
        ("1", F(1)),
        ("(1/2*1 + 3/4*1)", F(1)),
        ("(1/2*phi(M) & 1)", F(1, 2)),
        ("(1/4*1 | 1/8*1)", F(1, 4)),
        ("0/2*1", F(0)),
    ])
    def test_examples(self, text, value):
        assert mpv(parse_phi(text)) == value

    def test_matches_independent_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            expr = random_expr(rng, 5)
            assert mpv(expr) == mpv_oracle(expr)


class TestEval:
    def test_const_one(self):
        ctx = EvalContext({"M": Iterate(1)})
        assert eval_phi(parse_phi("1"), Ell1(), ctx) == 1

    def test_same_norm_conjunction(self):
        ctx = EvalContext({"M": Iterate(1)}, PhiVariant.SIMILARITY)
        value = eval_phi(parse_phi("(phi(M)&phi(M))"), Iterate(1), ctx)
        assert value == 1 and isinstance(value, F)

    def test_eval_at_most_mpv_exact(self):
        rng = random.Random(13)
        ctx = exact_ctx(rng)
        for _ in range(300):
            expr = random_expr(rng, 5)
            for target in (Ell1(), Sup(), Iterate(2)):
                value = eval_phi(expr, target, ctx)
                assert isinstance(value, F)
                assert 0 <= value <= mpv(expr)

    def test_each_atom_valued_once_in_first_use_order(self):
        calls = []

        def evaluator(name, target):
            calls.append(name)
            return F(1, 2) if name == "M" else F(1, 4)

        ctx = EvalContext({"M": Iterate(2), "L": Ell1()}, atom_evaluator=evaluator)
        assert eval_phi(parse_phi("(phi(M)&(phi(M)|phi(L)))"), Iterate(2), ctx) == F(1, 2)
        assert calls == ["M", "L"]

    def test_atom_at_the_floor_is_exact_and_inside_is_float(self):
        # On 1..4:1, |x|_sup / |x|_l1 = 1/4, raised to the floor D = 1, and
        # |x|_l1 / |x|_sup = 4, strictly inside the scale.
        ctx = EvalContext({"S": Sup(), "L": Ell1()}, PhiVariant.LOGISTIC,
                          [FiniteVector([(1, 4, F(1))])])
        floor = eval_phi(parse_phi("phi(S)"), Ell1(), ctx)
        inside = eval_phi(parse_phi("phi(L)"), Sup(), ctx)
        assert floor == 0 and isinstance(floor, F)
        assert inside == PhiVariant.LOGISTIC.transform(F(4)) and isinstance(inside, float)
        assert 0 < inside < 1

    def test_unresolved_atom(self):
        ctx = EvalContext({"M": Iterate(1)})
        with pytest.raises(PhiEvalError):
            eval_phi(parse_phi("phi(OTHER)"), Ell1(), ctx)


class TestRealizer:
    def test_atom_realizes_itself(self):
        ctx = EvalContext({"M": Iterate(1), "L": Ell1()})
        result = approx_realizer(parse_phi("phi(M)"), ctx)
        assert result.norm == Iterate(1)
        assert result.achieved == 1 == result.target_mpv

    def test_const_realized_by_any_registered(self):
        ctx = EvalContext({"M": Iterate(1)})
        result = approx_realizer(parse_phi("1"), ctx)
        assert result.achieved == 1

    def test_same_atom_combinations_hit_mpv(self):
        rng = random.Random(17)
        ctx = EvalContext({"M": Iterate(1), "L": Ell1()})
        for _ in range(60):
            expr = random_expr(rng, 4, atoms=("M",))
            target = mpv(expr)
            if target == 0:
                continue
            result = approx_realizer(expr, ctx)
            assert result.achieved == target

    def test_join_built_for_mixed_oplus(self):
        ctx = EvalContext({"A": Ell1(), "B": Sup()})
        result = approx_realizer(parse_phi("(phi(A)+phi(B))"), ctx)
        assert result.norm == Join(Ell1(), Sup())

    def test_zero_mpv_rejected(self):
        ctx = EvalContext({"M": Iterate(1)})
        with pytest.raises(ValueError, match="zero"):
            approx_realizer(parse_phi("0/1*1"), ctx)


def _mentions_atom(expr):
    if isinstance(expr, Atom):
        return True
    if isinstance(expr, Scal):
        return _mentions_atom(expr.child)
    if isinstance(expr, (And, Or, Oplus)):
        return _mentions_atom(expr.left) or _mentions_atom(expr.right)
    return False
