"""The benchmark's workloads: inputs, one timed pass, and the exact gate.

Each workload is a closed loop: one client on one thread issues the next call
when the previous one returns.  ``setup`` builds a plan from the seed; a plan's
``run_pass(i)`` runs pass ``i`` and returns what it measured and what failed.

* ``witness_l2`` runs ``tsirnorm witness --k 2 --n 2 --json`` through
  ``cli.main``: the level-2 integer DPs at their largest shape.
* ``matrix_l3`` runs ``tsirnorm matrix --levels 4 --json`` through
  ``cli.main``: the level-3 DPs in many smaller shapes, plus the
  witness/geometry glue.
* ``generic_sweep`` runs a seeded stream of independent evaluations drawn
  from ``generic_pool.json``, whose exact values were recorded with
  ``make_pool.py``: mostly the generic engine, plus the oracle, small DPs and
  distance-based phi atoms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tsirnorm import cli, norms, oracle, phidsl
from tsirnorm.rules import AdmissibilityRule
from tsirnorm.vectors import parse_vector

POOL_PATH = Path(__file__).with_name("generic_pool.json")

RULES = {"fj": AdmissibilityRule.FIGIEL_JOHNSON, "pl": AdmissibilityRule.PAPER_LITERAL}

# Evaluations run on each pooled vector, as (rule, level); level None is the
# limit norm.  Every "small" evaluation is also run through the oracle.
EVALS = {
    "small": [("fj", 1), ("fj", 2), ("fj", 3), ("fj", None),
              ("pl", 1), ("pl", 2), ("pl", 3), ("pl", None)],
    "mid": [("fj", 2), ("fj", 3), ("fj", 4), ("fj", None), ("pl", 3), ("pl", None)],
    "large": [("fj", 2), ("fj", 3)],
}

# One pass of generic_sweep draws one pooled input for each slot, so every
# pass has the same mix of kinds and support sizes: 6 small (1-6 points,
# indices <= 12), 11 mid (8-24 points, all under the 28-point cutoff of the
# generic engine), 2 large (29-48 points, the small int64 DPs) and 1 phi
# expression.  Fixing the sizes keeps pass cost steady across seeds, and
# short passes give the run's median many samples.
SLOTS = ([("small", s) for s in range(1, 7)]
         + [("mid", s) for s in (8, 10, 11, 13, 14, 16, 17, 19, 20, 22, 24)]
         + [("large", 30), ("large", 46)]
         + [("phi", 0)])

PHI_REGISTRY = {"A": "iterate:2", "T": "tsirelson", "L": "l1"}

WITNESS_ARGV = ["witness", "--k", "2", "--n", "2", "--json"]
WITNESS_LINES = {
    "|z_1|_2": ("=", "1/2", "1/2"),
    "|z_2|_2": ("=", "1/2", "1/2"),
    "|z|_2": ("<=", "1", "83926/113155"),
}
WITNESS_DP_TRANSITIONS = 1_562_494_928

MATRIX_ARGV = ["matrix", "--levels", "4", "--json"]
# d(num, den) for num = 0..4 (rows) and den = 0..4 (columns).
MATRIX_D = [
    ["1", "1", "1", "1", "1"],
    ["3/2", "1", "1", "1", "1"],
    ["2", "2", "1", "1", "1"],
    ["2", "2", "265/224", "1", "1"],
    ["2", "2", "265/224", "1", "1"],
]

# Float phi values are compared to this relative precision; exact ones exactly.
FLOAT_RTOL = 1e-12


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    values: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def check_witness(rc: int, report: dict | None, expected_lines=None,
                  expected_dp: int = WITNESS_DP_TRANSITIONS) -> list[str]:
    """Problems with a ``witness --k 2 --n 2 --json`` run; empty when exact."""
    expected_lines = WITNESS_LINES if expected_lines is None else expected_lines
    if rc != 0 or report is None:
        return [f"witness exited {rc}"]
    problems = []
    lines = {line["name"]: line for line in report.get("certificate", [])}
    for name, (relation, right, left) in expected_lines.items():
        line = lines.get(name)
        if line is None or (line["relation"], line["right"], line["left"]) != (relation, right, left):
            problems.append(f"witness line {name}: {line}")
    top = lines.get("|z|_3")
    if (top is None or top["relation"] != ">=" or Fraction(top["right"]) != Fraction(1, 2)
            or Fraction(top["left"]) < Fraction(1, 2) or not top["ok"]):
        problems.append(f"witness line |z|_3: {top}")
    if not report.get("verified"):
        problems.append("witness not verified")
    dp = report.get("engine_stats", {}).get("dp_transitions")
    if dp != expected_dp:
        problems.append(f"witness dp_transitions {dp} != {expected_dp}")
    return problems


def check_matrix(rc: int, report: dict | None, expected=None) -> list[str]:
    """Problems with a ``matrix --levels 4 --json`` run; empty when exact."""
    expected = MATRIX_D if expected is None else expected
    if rc != 0 or report is None:
        return [f"matrix exited {rc}"]
    d = {(e["numerator_level"], e["denominator_level"]): e["estimate"]["value"]
         for e in report.get("entries", [])}
    problems = []
    for num, row in enumerate(expected):
        for den, want in enumerate(row):
            got = d.get((num, den))
            if got is None or Fraction(got) != Fraction(want):
                problems.append(f"matrix d({num},{den}) = {got}, expected {want}")
    if len(d) != len(expected) * len(expected):
        problems.append(f"matrix has {len(d)} entries")
    return problems


def run_cli(argv: list[str]) -> tuple[int, dict | None, float]:
    """Run the CLI in-process; returns exit code, parsed report, wall seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = cli.main(list(argv))
        wall = time.perf_counter() - start
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return rc, report, wall


class CliPlan:
    """One pass is one CLI call, checked against its exact reference."""

    def __init__(self, argv: list[str], check):
        self.argv = argv
        self.check = check

    def run_pass(self, index: int) -> PassResult:
        rc, report, wall = run_cli(self.argv)
        result = PassResult(wall, [wall * 1e3], attempted=1)
        problems = self.check(rc, report)
        if problems:
            result.fail("; ".join(problems))
            result.latencies_ms = [float("inf")]
        if report is not None:
            exact = {k: v for k, v in report.items() if k != "seconds"}
            result.values.append(json.dumps(exact, sort_keys=True))
        return result


# ---------------------------------------------------------------------------
# generic_sweep
# ---------------------------------------------------------------------------

def eval_key(rule: str, level: int | None) -> str:
    return f"{rule}:{'limit' if level is None else level}"


def evaluate(x, rule: str, level: int | None):
    """One library evaluation through the public dispatcher."""
    if level is None:
        return norms.tsirelson_norm(x, RULES[rule])
    return norms.iterate_norm(x, level, RULES[rule])


def phi_context(pool_texts: list[str]):
    registry = {k: norms.parse_normspec(v) for k, v in PHI_REGISTRY.items()}
    return phidsl.EvalContext(registry, phidsl.PhiVariant.SIMILARITY,
                              [parse_vector(v) for v in pool_texts])


def value_text(value) -> str:
    return str(value) if isinstance(value, Fraction) else repr(float(value))


def values_match(got, want: dict) -> bool:
    """Exact values must be equal; float estimates equal to FLOAT_RTOL."""
    if isinstance(got, Fraction) != want["exact"]:
        return False
    if want["exact"]:
        return got == Fraction(want["value"])
    want_f = float(want["value"])
    return abs(float(got) - want_f) <= FLOAT_RTOL * max(1.0, abs(want_f))


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path) as fh:
        pool = json.load(fh)
    for kind, size in SLOTS:
        if not pool["slots"].get(f"{kind}:{size}"):
            raise ValueError(f"pool has no inputs for slot {kind}:{size}")
    return pool


class _Item:
    """One pooled input, parsed, with its recorded exact values."""

    __slots__ = ("kind", "vector", "values", "expr", "target", "ctx", "label")

    def __init__(self, kind: str, raw: dict, label: str):
        self.kind = kind
        self.label = label
        if kind == "phi":
            self.expr = phidsl.parse_phi(raw["expr"])
            self.target = norms.parse_normspec(raw["target"])
            self.ctx = phi_context(raw["pool"])
            self.values = {"phi": raw["value"]}
            self.vector = None
        else:
            self.vector = parse_vector(raw["vector"])
            self.values = raw["values"]


class SweepPlan:
    """Seeded stream of generic_sweep passes over the recorded pool.

    The seed shuffles each slot's inputs once; pass ``i`` takes the ``i``-th
    input of every slot (cyclically) in a seeded order.  So consecutive
    passes go through every pooled input before repeating one, and a run of
    as many passes as a slot has inputs does the same work whatever the seed.
    """

    def __init__(self, seed: int, pool: dict):
        self.seed = seed
        rng = random.Random(f"generic_sweep:{seed}")
        self.items = {}
        for kind, size in SLOTS:
            slot = f"{kind}:{size}"
            items = [_Item(kind, raw, f"{slot}#{i}") for i, raw in enumerate(pool["slots"][slot])]
            rng.shuffle(items)
            self.items[slot] = items

    def pass_inputs(self, index: int) -> list[_Item]:
        chosen = [items[index % len(items)] for items in self.items.values()]
        random.Random(f"generic_sweep:{self.seed}:{index}").shuffle(chosen)
        return chosen

    def run_pass(self, index: int) -> PassResult:
        items = self.pass_inputs(index)
        result = PassResult(0.0)
        start = time.perf_counter()
        for item in items:
            if item.kind == "phi":
                self._run_phi(item, result)
            else:
                self._run_vector(item, result)
        result.wall_s = time.perf_counter() - start
        return result

    @staticmethod
    def _timed(result: PassResult, label: str, fn, *args):
        """Run one evaluation; a refusal (BudgetExceededError) or error is counted
        as a failure and returns None."""
        result.attempted += 1
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # a refusal or a crash fails this evaluation only
            result.fail(f"{label}: {type(exc).__name__}: {exc}")
            result.latencies_ms.append(float("inf"))
            return None
        result.latencies_ms.append((time.perf_counter() - start) * 1e3)
        return value

    def _run_phi(self, item: _Item, result: PassResult) -> None:
        value = self._timed(result, item.label, phidsl.eval_phi, item.expr, item.target, item.ctx)
        if value is None:
            return
        result.values.append(value_text(value))
        if not values_match(value, item.values["phi"]):
            result.fail(f"{item.label}: phi {value_text(value)} != {item.values['phi']['value']}")
            result.latencies_ms[-1] = float("inf")

    def _run_vector(self, item: _Item, result: PassResult) -> None:
        fj_ladder = []
        for rule, level in EVALS[item.kind]:
            key = eval_key(rule, level)
            label = f"{item.label} {key}"
            value = self._timed(result, label, evaluate, item.vector, rule, level)
            if value is None:
                continue
            result.values.append(str(value))
            if value != Fraction(item.values[key]):
                result.fail(f"{label}: {value} != {item.values[key]}")
                result.latencies_ms[-1] = float("inf")
                continue
            if rule == "fj":
                fj_ladder.append((key, value))
            if item.kind == "small":
                ref = self._timed(result, f"{label} oracle", oracle.brute_force_norm,
                                  item.vector, level, RULES[rule])
                if ref is not None and ref != value:
                    result.fail(f"{label}: oracle {ref} != {value}")
                    result.latencies_ms[-1] = float("inf")
        for (k1, v1), (k2, v2) in zip(fj_ladder, fj_ladder[1:]):
            if v2 < v1:
                result.fail(f"{item.label}: fj ladder decreases, {k1}={v1} > {k2}={v2}")


def digest(values: list[str]) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(v.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def setup(name: str, seed: int):
    """Build the plan for a workload.  Only generic_sweep reads the seed."""
    if name == "witness_l2":
        return CliPlan(WITNESS_ARGV, check_witness)
    if name == "matrix_l3":
        return CliPlan(MATRIX_ARGV, check_matrix)
    if name == "generic_sweep":
        return SweepPlan(seed, load_pool())
    raise ValueError(f"unknown workload {name!r}")
