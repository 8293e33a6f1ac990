"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All equality and
inequality checks are exact rational comparisons; the only floats appear in
the stability diagnostic, whose sign is re-derived from exact rationals.
"""

import random
import time
from fractions import Fraction as F

import pytest

from tsirnorm import (
    AdmissibilityRule,
    Ell1,
    FiniteVector,
    Iterate,
    Join,
    Sup,
    TsirelsonLimit,
    brute_force_norm,
    iterate_norm,
    l1_norm,
    stabilization_level,
    tsirelson_norm,
)
from tsirnorm.cli import main as cli_main
from tsirnorm.geometry import (
    PhiVariant,
    distance_lower,
    order_property_matrix,
    stability_gap,
    stability_sign_exact,
)
from tsirnorm.phidsl import EvalContext, approx_realizer, eval_phi, mpv, parse_phi
from tsirnorm.witnesses import SearchBudget, inductive_witness, ratio_search

from test_phidsl import exact_ctx, mpv_oracle, random_expr

FJ = AdmissibilityRule.FIGIEL_JOHNSON
PL = AdmissibilityRule.PAPER_LITERAL


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def random_small_vector(rng, max_support, max_index, max_pq=8):
    size = rng.randint(1, max_support)
    indices = rng.sample(range(1, max_index + 1), size)
    return FiniteVector.from_entries({
        i: F(rng.randint(1, max_pq) * rng.choice([-1, 1]), rng.randint(1, max_pq))
        for i in indices
    })


def test_criterion_1_witness_reproduction(capsys):
    started = time.perf_counter()
    ok = True
    details = []
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        exit_code = cli_main(["witness", "--k", "1", "--n", str(n), "--json"])
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - t0
        ok &= exit_code == 0
        import json
        rep = json.loads(out)
        lines = {line["name"]: line for line in rep["certificate"]}
        for i in range(1, n + 1):
            ok &= lines[f"|x_{i}|_1"]["left"] == "1/2"
            ok &= lines[f"|x_{i}|_1"]["status"] == "exact"
        ok &= F(lines["|x|_1"]["left"]) <= 1 and lines["|x|_1"]["status"] == "exact"
        growth = lines["|x|_2"]
        ok &= F(growth["left"]) >= F(n, 4)
        ok &= growth["status"] == "certified-lower-bound"
        if n == 4:
            ok &= elapsed <= 60
        details.append(f"n={n} exit={exit_code} |x|_2>={growth['left']} [{elapsed:.2f}s]")
    with capsys.disabled():
        report(1, "witness reproduction", ok,
               "; ".join(details) + f" total {time.perf_counter() - started:.1f}s")


def test_criterion_2_inductive_step(capsys):
    started = time.perf_counter()
    witness = inductive_witness(2, 2)
    elapsed = time.perf_counter() - started
    lines = {line.name: line for line in witness.certificate}
    ok = witness.verified
    ok &= lines["|z_1|_2"].left == F(1, 2) and lines["|z_1|_2"].status == "exact"
    ok &= lines["|z_2|_2"].left == F(1, 2) and lines["|z_2|_2"].status == "exact"
    ok &= lines["|z|_2"].left <= 1 and lines["|z|_2"].status == "exact"
    ok &= lines["|z|_3"].left >= F(1, 2)
    ok &= lines["|z|_3"].status == "certified-lower-bound"
    ok &= elapsed <= 600
    with capsys.disabled():
        report(2, "inductive step (2,2)", ok,
               f"|z|_2={lines['|z|_2'].left} (~{float(lines['|z|_2'].left):.4f}), "
               f"|z|_3>={lines['|z|_3'].left}, support={witness.sum.support_size} "
               f"[{elapsed:.1f}s]")


def test_criterion_3_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = random.Random(3)
    checked = 0
    ok = True
    for _ in range(200):
        x = random_small_vector(rng, max_support=6, max_index=12)
        for rule in (FJ, PL):
            for k in (0, 1, 2, 3):
                if iterate_norm(x, k, rule) != brute_force_norm(x, k, rule):
                    ok = False
            if tsirelson_norm(x, rule) != brute_force_norm(x, None, rule):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - started
    ok &= elapsed <= 60
    with capsys.disabled():
        report(3, "oracle equivalence", ok,
               f"{checked} vector/rule pairs, k<=3 plus limit [{elapsed:.1f}s]")


def test_criterion_4_monotone_ladder(capsys):
    started = time.perf_counter()
    rng = random.Random(4)
    ok = True
    max_k = 0
    for _ in range(1000):
        x = random_small_vector(rng, max_support=12, max_index=24)
        values = [iterate_norm(x, k, FJ) for k in range(4)]
        if not all(a <= b for a, b in zip(values, values[1:])):
            ok = False
        if values[-1] > l1_norm(x):
            ok = False
        k, limit = stabilization_level(x, FJ)
        if k > 12 or iterate_norm(x, k, FJ) != limit:
            ok = False
        max_k = max(max_k, k)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(4, "monotone ladder", ok,
               f"1000 vectors, max observed stabilization K={max_k} [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def acceptance_matrix():
    budget = SearchBudget(max_support=200, max_candidates=48)
    return order_property_matrix(4, budget=budget)


def test_criterion_5_order_property_matrix(capsys, acceptance_matrix):
    started = time.perf_counter()
    matrix = acceptance_matrix
    ok = True
    for num in range(5):
        for den in range(num + 1, 5):
            entry = matrix.entry(num, den)
            ok &= entry.verdict == "<=1" and entry.estimate.value <= 1
    ok &= matrix.d_value(2, 1) >= 1
    t0 = time.perf_counter()
    found = ratio_search(Iterate(3), Iterate(2),
                         SearchBudget(max_support=200, max_candidates=48))
    search_elapsed = time.perf_counter() - t0
    ok &= found.lower_bound >= F(9, 8)
    ok &= found.x.support_size <= 200
    ok &= search_elapsed <= 300
    ok &= matrix.d_value(3, 2) >= F(9, 8)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(5, "order-property matrix", ok,
               f"(2,1)>={matrix.d_value(2, 1)}, (3,2)>={found.lower_bound} "
               f"(~{float(found.lower_bound):.4f}) on support "
               f"{found.x.support_size} [{elapsed:.1f}s]")


def test_criterion_6_stability_gap(capsys, acceptance_matrix):
    matrix = acceptance_matrix
    grid = matrix.phi_matrix_for_stability(PhiVariant.LOGISTIC)
    rep = stability_gap(grid)
    sign = stability_sign_exact(matrix.d_matrix_for_stability(), PhiVariant.LOGISTIC)
    # Exact reasoning: above the stability diagonal sits a certified ratio
    # > 1, below it only ratios exactly 1; the transform is strictly
    # increasing, so the gap is positive.
    ok = sign == 1 and rep.gap > 0
    ds = matrix.d_matrix_for_stability()
    upper = [ds[i][j] for i in range(5) for j in range(5) if i < j]
    lower = [ds[i][j] for i in range(5) for j in range(5) if j < i]
    ok &= max(upper) > 1 and all(d <= 1 for d in lower)
    with capsys.disabled():
        report(6, "stability gap", ok,
               f"gap={rep.gap:.4f}, exact sign {sign:+d}")


def test_criterion_7_dsl_suite(capsys):
    started = time.perf_counter()
    rng = random.Random(7)
    ctx = exact_ctx(rng)
    realize_ctx = EvalContext({"M": Iterate(1), "L": Ell1()})
    targets = (Ell1(), Sup(), Iterate(1))
    ok = True
    realized = 0
    for _ in range(500):
        expr = random_expr(rng, 5)
        if parse_phi(str(expr)) != expr:
            ok = False
        value = mpv(expr)
        if value != mpv_oracle(expr):
            ok = False
        evaluated = eval_phi(expr, targets[rng.randrange(3)], ctx)
        if not (isinstance(evaluated, F) and 0 <= evaluated <= value):
            ok = False
        same_atom = random_expr(rng, 4, atoms=("M",))
        target = mpv(same_atom)
        if target > 0:
            result = approx_realizer(same_atom, realize_ctx)
            realized += 1
            if result.achieved != target:
                ok = False
    elapsed = time.perf_counter() - started
    ok &= elapsed <= 30
    with capsys.disabled():
        report(7, "DSL suite", ok,
               f"500 ASTs, {realized} realizers at exact mpv [{elapsed:.1f}s]")


def test_criterion_8_join_estimator(capsys):
    started = time.perf_counter()
    rng = random.Random(8)
    registered = [Ell1(), Sup(), Iterate(0), Iterate(1), Iterate(2),
                  TsirelsonLimit(), Join(Ell1(), Iterate(1))]
    ok = True
    for _ in range(100):
        m, n, n2 = (rng.choice(registered) for _ in range(3))
        pool = [random_small_vector(rng, max_support=5, max_index=10)
                for _ in range(50)]
        joined = distance_lower(m, Join(n, n2), pool).value
        single = max(distance_lower(m, n, pool).value,
                     distance_lower(m, n2, pool).value)
        if joined > single:
            ok = False
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(8, "join estimator inequality", ok,
               f"100 triples x 50 shared candidates, exact [{elapsed:.1f}s]")
