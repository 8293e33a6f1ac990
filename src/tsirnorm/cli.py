"""Command-line interface.

Machine output is a single JSON report on stdout (``--json``); the default
output is the principal value(s) only.  Exit codes: 0 success, 1 certificate
failure, 2 input error, 3 exact evaluation refused (the message names the
reason, budget or size-limit; under ``--json`` a ``refused`` object carries
it on stdout too).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .geometry import (
    PhiVariant,
    order_property_matrix,
    stability_gap,
    stability_sign_exact,
)
from .norms import norm_eval, parse_normspec
from .oracle import brute_force_norm
from .phidsl import (
    EvalContext,
    PhiEvalError,
    PhiParseError,
    approx_realizer,
    eval_phi,
    mpv,
    parse_phi,
    phi_to_json,
    print_phi,
)
from .rules import AdmissibilityRule
from .session import BudgetExceededError, EvalSession
from .vectors import VectorParseError, format_vector, parse_vector
from .witnesses import (
    SearchBudget,
    dichotomy_probe,
    inductive_witness,
    ratio_certificate,
    ratio_search,
)

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3


def _base_report(args, started: float, session: EvalSession | None = None) -> dict:
    report = {
        "command": args.command,
        "seconds": round(time.perf_counter() - started, 6),
    }
    if session is not None:
        report["engine_stats"] = dict(session.stats)
    return report


def _emit(args, report: dict, plain: str) -> None:
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(plain + "\n")


def _session(args) -> EvalSession:
    return EvalSession(args.budget)


def _search_budget(args) -> SearchBudget:
    kwargs = {}
    if args.budget is not None:
        kwargs["work_units"] = args.budget
    if getattr(args, "max_support", None) is not None:
        kwargs["max_support"] = args.max_support
    if getattr(args, "max_candidates", None) is not None:
        kwargs["max_candidates"] = args.max_candidates
    return SearchBudget(**kwargs)


def cmd_norm(args) -> int:
    started = time.perf_counter()
    session = _session(args)
    x = parse_vector(args.vector)
    spec = parse_normspec(args.spec, args.rule)
    value = norm_eval(spec, x, session)
    report = _base_report(args, started, session)
    report.update({
        "spec": args.spec,
        "vector": format_vector(x),
        "value": {"value": str(value), "tag": "exact"},
    })
    _emit(args, report, str(value))
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    x = parse_vector(args.vector)
    k = None if args.level == "limit" else int(args.level)
    value = brute_force_norm(x, k, args.rule)
    report = _base_report(args, started)
    report.update({
        "level": args.level,
        "vector": format_vector(x),
        "value": {"value": str(value), "tag": "exact"},
    })
    _emit(args, report, str(value))
    return EXIT_OK


def cmd_witness(args) -> int:
    started = time.perf_counter()
    session = _session(args)
    witness = inductive_witness(args.k, args.n, start=args.start, session=session)
    report = _base_report(args, started, session)
    report.update(witness.to_report())
    lines = "\n".join(
        f"{line.name} {line.relation} {line.right}: value {line.left}"
        f" [{line.status}] {'ok' if line.ok else 'FAIL'}"
        for line in witness.certificate
    )
    _emit(args, report, lines)
    return EXIT_OK if witness.verified else EXIT_CERTIFICATE


def cmd_ratio(args) -> int:
    started = time.perf_counter()
    session = _session(args)
    if args.num or args.den:
        if not (args.num and args.den):
            raise ValueError("--num and --den must be given together")
        num = parse_normspec(args.num, args.rule)
        den = parse_normspec(args.den, args.rule)
        result = ratio_search(num, den, _search_budget(args), seed=args.seed,
                              session=session)
    else:
        if args.k is None or args.n is None:
            raise ValueError("give either --k/--n or --num/--den")
        result = ratio_certificate(args.k, args.n, session)
    report = _base_report(args, started, session)
    report.update(result.to_report())
    _emit(args, report, str(result.lower_bound))
    return EXIT_OK


def cmd_matrix(args) -> int:
    started = time.perf_counter()
    session = _session(args)
    matrix = order_property_matrix(args.levels, budget=_search_budget(args),
                                   rule=args.rule, session=session)
    variant = PhiVariant.parse(args.variant)
    report = _base_report(args, started, session)
    report.update(matrix.to_report())
    report["phi_matrix"] = matrix.phi_matrix_for_stability(variant)
    report["phi_variant"] = variant.value
    size = matrix.max_level + 1
    plain = "\n".join(
        " ".join(str(matrix.d_value(num, den)) for den in range(size))
        for num in range(size)
    )
    _emit(args, report, plain)
    return EXIT_OK


def cmd_stability(args) -> int:
    started = time.perf_counter()
    variant = PhiVariant.parse(args.variant)
    if args.matrix:
        with open(args.matrix) as fh:
            matrix = json.load(fh)
        if not isinstance(matrix, list):
            raise ValueError("matrix file must hold a JSON array of rows")
        result = stability_gap([[float(v) for v in row] for row in matrix])
        report = _base_report(args, started)
        report.update(result.to_report())
        _emit(args, report, str(result.gap))
        return EXIT_OK
    session = _session(args)
    grid = order_property_matrix(args.levels, budget=_search_budget(args),
                                 rule=args.rule, session=session)
    result = stability_gap(grid.phi_matrix_for_stability(variant))
    sign = stability_sign_exact(grid.d_matrix_for_stability(), variant)
    report = _base_report(args, started, session)
    report.update(result.to_report())
    report["exact_sign"] = sign
    _emit(args, report, f"{result.gap} (exact sign {sign:+d})")
    return EXIT_OK


def _phi_context(args) -> EvalContext:
    registry = {}
    for item in args.norm or []:
        if "=" not in item:
            raise ValueError(f"--norm needs id=SPEC, got {item!r}")
        name, spec_text = item.split("=", 1)
        registry[name.strip()] = parse_normspec(spec_text, args.rule)
    if not registry:
        registry = {"M": parse_normspec("tsirelson", args.rule)}
    pool = [parse_vector(v) for v in args.pool or []]
    if not pool:
        pool = [parse_vector("1:1")]
    return EvalContext(registry, PhiVariant.parse(args.variant), pool)


def cmd_phi(args) -> int:
    started = time.perf_counter()
    expr = parse_phi(args.expr)
    if args.phi_command == "parse":
        report = _base_report(args, started)
        report["ast"] = phi_to_json(expr)
        report["canonical"] = print_phi(expr)
        _emit(args, report, print_phi(expr))
        return EXIT_OK
    if args.phi_command == "mpv":
        value = mpv(expr)
        report = _base_report(args, started)
        report["mpv"] = str(value)
        _emit(args, report, str(value))
        return EXIT_OK
    ctx = _phi_context(args)
    if args.phi_command == "eval":
        target = parse_normspec(args.target, args.rule)
        value = eval_phi(expr, target, ctx)
        tag = "exact" if isinstance(value, Fraction) else "float-estimate"
        report = _base_report(args, started)
        report["value"] = {"value": str(value), "tag": tag}
        _emit(args, report, str(value))
        return EXIT_OK
    if args.phi_command == "realize":
        result = approx_realizer(expr, ctx)
        report = _base_report(args, started)
        report.update(result.to_report())
        _emit(args, report, report["norm"])
        return EXIT_OK
    raise ValueError(f"unknown phi subcommand {args.phi_command!r}")


def cmd_probe(args) -> int:
    started = time.perf_counter()
    targets = [Fraction(t) for t in args.targets]
    entries = dichotomy_probe(targets, _search_budget(args))
    report = _base_report(args, started)
    report["entries"] = [e.to_report() for e in entries]
    plain = "\n".join(
        f"target {e.target} levels {e.level_pair}: "
        f"{'achieved' if e.achieved else e.note}"
        for e in entries
    )
    _emit(args, report, plain)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsirnorm",
        description="Exact Tsirelson-type norm computations, witnesses, and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    def common(sub):
        sub.add_argument("--rule", type=AdmissibilityRule.parse,
                         default=AdmissibilityRule.FIGIEL_JOHNSON,
                         help="admissibility rule: fj (default) or paper")
        sub.add_argument("--budget", type=int, default=None,
                         help="work-unit budget for exact evaluation")
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for randomised candidate pools")
        sub.add_argument("--json", action="store_true",
                         help="emit the full JSON report on stdout")

    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("norm", help="evaluate a norm on a vector literal")
    p.add_argument("vector", help="e.g. '3:1,4:1,5:1' or '7..13:1/7'")
    p.add_argument("--spec", required=True,
                   help="l1 | sup | iterate:K | tsirelson | join(SPEC,SPEC)")
    common(p)
    p.set_defaults(func=cmd_norm)

    p = subs.add_parser("oracle", help="exhaustive-enumeration oracle (small supports)")
    p.add_argument("vector")
    p.add_argument("--level", required=True, help="iterate level or 'limit'")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("witness", help="build and certify a growth witness")
    p.add_argument("--k", type=int, required=True, help="certificate level")
    p.add_argument("--n", type=int, required=True, help="number of parts")
    p.add_argument("--start", type=int, default=1, help="first admissible index")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = subs.add_parser("ratio", help="certified iterate-ratio lower bounds")
    p.add_argument("--k", type=int, default=None, help="witness level (with --n)")
    p.add_argument("--n", type=int, default=None, help="witness parts (with --k)")
    p.add_argument("--num", default=None, help="numerator norm spec (search mode)")
    p.add_argument("--den", default=None, help="denominator norm spec (search mode)")
    p.add_argument("--max-support", type=int, default=None)
    p.add_argument("--max-candidates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_ratio)

    p = subs.add_parser("matrix", help="order-property distance matrix")
    p.add_argument("--levels", type=int, required=True, help="top iterate level L")
    p.add_argument("--variant", default="logistic")
    p.add_argument("--max-support", type=int, default=None)
    p.add_argument("--max-candidates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("stability", help="stability gap of a phi matrix")
    p.add_argument("--matrix", default=None, help="JSON file with a float matrix")
    p.add_argument("--levels", type=int, default=4,
                   help="build the iterate matrix up to this level instead")
    p.add_argument("--variant", default="logistic")
    p.add_argument("--max-support", type=int, default=None)
    p.add_argument("--max-candidates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_stability)

    p = subs.add_parser("phi", help="phi-polynomial DSL")
    p.add_argument("phi_command", choices=["parse", "eval", "mpv", "realize"])
    p.add_argument("expr")
    p.add_argument("--norm", action="append", metavar="ID=SPEC",
                   help="register a norm (repeatable)")
    p.add_argument("--target", default="l1", help="target norm spec for eval")
    p.add_argument("--variant", default="similarity")
    p.add_argument("--pool", action="append", metavar="VECTOR",
                   help="distance-estimation candidate (repeatable)")
    common(p)
    p.set_defaults(func=cmd_phi)

    p = subs.add_parser("probe", help="order-property dichotomy probe")
    p.add_argument("targets", nargs="+", help="increasing rational targets")
    p.add_argument("--max-support", type=int, default=None)
    p.add_argument("--max-candidates", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused ({exc.reason}): {exc}", file=sys.stderr)
        lower = None if exc.lower_bound is None else str(exc.lower_bound)
        if lower is not None:
            print(f"best certified lower bound: {lower}", file=sys.stderr)
        if args.json:
            _emit(args, {"command": args.command, "refused": {
                "reason": exc.reason, "message": str(exc), "lower_bound": lower}}, "")
        return EXIT_REFUSED
    except (VectorParseError, PhiParseError, PhiEvalError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
