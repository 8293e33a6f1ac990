"""Record the generic_sweep input pool and its exact values.

    PYTHONPATH=src python3 perfbench/make_pool.py

Draws ``PER_SLOT`` inputs for every slot of ``workloads.SLOTS`` from
``POOL_SEED``, evaluates them with the library as it stands, cross-checks
every small-support value against the exhaustive oracle and the monotone FJ
ladder, and writes ``generic_pool.json``.  Rerun it only when the inputs are meant to change; the
recorded values are the reference the benchmark's exact gate compares to.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from tsirnorm import norms, oracle, phidsl
from tsirnorm.vectors import FiniteVector, format_vector

import workloads

PER_SLOT = 24
POOL_SEED = 20181206
INDEX_RANGE = {"small": 12, "mid": 32, "large": 96}
PHI_TARGETS = ("iterate:1", "iterate:3", "sup", "l1", "tsirelson")


def random_vector(rng: random.Random, size: int, max_index: int) -> FiniteVector:
    indices = rng.sample(range(1, max_index + 1), size)
    return FiniteVector.from_entries({
        i: Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        for i in indices
    })


def random_phi(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        atom = f"phi({rng.choice(sorted(workloads.PHI_REGISTRY))})"
        return f"1/{rng.randint(2, 4)} * {atom}" if rng.random() < 0.3 else atom
    op = rng.choice("&|+")
    return f"({random_phi(rng, depth - 1)} {op} {random_phi(rng, depth - 1)})"


def vector_entry(kind: str, x: FiniteVector) -> dict:
    values = {}
    ladder = []
    for rule, level in workloads.EVALS[kind]:
        value = workloads.evaluate(x, rule, level)
        if kind == "small" and oracle.brute_force_norm(x, level, workloads.RULES[rule]) != value:
            raise AssertionError(f"oracle disagrees on {format_vector(x)} {rule}:{level}")
        if rule == "fj":
            if ladder and value < ladder[-1]:
                raise AssertionError(f"fj ladder decreases on {format_vector(x)}")
            ladder.append(value)
        values[workloads.eval_key(rule, level)] = str(value)
    return {"vector": format_vector(x), "values": values}


def phi_entry(rng: random.Random) -> dict:
    pool = [format_vector(random_vector(rng, rng.randint(2, 5), 10)) for _ in range(3)]
    expr = random_phi(rng, 2)
    target = rng.choice(PHI_TARGETS)
    ctx = workloads.phi_context(pool)
    value = phidsl.eval_phi(phidsl.parse_phi(expr), norms.parse_normspec(target), ctx)
    return {"expr": expr, "target": target, "pool": pool,
            "value": {"value": workloads.value_text(value),
                      "exact": isinstance(value, Fraction)}}


def main() -> int:
    rng = random.Random(POOL_SEED)
    slots = {}
    for kind, size in workloads.SLOTS:
        key = f"{kind}:{size}"
        if kind == "phi":
            slots[key] = [phi_entry(rng) for _ in range(PER_SLOT)]
        else:
            slots[key] = [vector_entry(kind, random_vector(rng, size, INDEX_RANGE[kind]))
                          for _ in range(PER_SLOT)]
        print(f"{key}: {len(slots[key])} inputs", file=sys.stderr)
    pool = {"pool_seed": POOL_SEED, "per_slot": PER_SLOT, "slots": slots}
    with open(workloads.POOL_PATH, "w") as fh:
        json.dump(pool, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
