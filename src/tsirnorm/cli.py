"""Command-line interface.

Each subcommand accepts only the options it reads.  A command runs in one
evaluation session, and ``--budget`` caps that session's work: every
evaluation charges it, each candidate of a search included, and once it is
spent the remaining candidates fall back to certified bounds.  Machine
output is a single JSON report on stdout (``--json``) holding ``command``,
``seconds`` and ``engine_stats`` (the session's work counters) next to the
command's own fields; the default output is the principal value(s) only.
Exit codes: 0 success, 1 certificate failure, 2 input error (argparse
rejects an option the subcommand does not take with 2 as well), 3 exact
evaluation refused (the message names the reason, budget or size-limit;
under ``--json`` the same report carries a ``refused`` object instead of
the command's fields).
"""

from __future__ import annotations

import argparse
import json
import math
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
from .phidsl import EvalContext, approx_realizer, eval_phi, mpv, parse_phi
from .rules import AdmissibilityRule
from .session import BudgetExceededError, EvalSession
from .vectors import format_vector, parse_vector
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


# Every command takes (args, session) and returns (report fields, plain-text
# output, verified); ``main`` adds command, seconds and engine_stats, to a
# refusal's fields as well.

def _search_budget(args) -> SearchBudget:
    return SearchBudget(args.max_support, args.max_candidates)


def _exact(x, value) -> dict:
    return {"vector": format_vector(x), "value": {"value": str(value), "tag": "exact"}}


def cmd_norm(args, session):
    x = parse_vector(args.vector)
    value = norm_eval(parse_normspec(args.spec, args.rule), x, session)
    return {"spec": args.spec, **_exact(x, value)}, str(value), True


def cmd_oracle(args, session):
    x = parse_vector(args.vector)
    k = None if args.level == "limit" else int(args.level)
    value = brute_force_norm(x, k, args.rule)
    return {"level": args.level, **_exact(x, value)}, str(value), True


def cmd_witness(args, session):
    witness = inductive_witness(args.k, args.n, start=args.start, session=session)
    lines = "\n".join(
        f"{line.name} {line.relation} {line.right}: value {line.left}"
        f" [{line.status}] {'ok' if line.ok else 'FAIL'}"
        for line in witness.certificate
    )
    return witness.to_report(), lines, witness.verified


def cmd_ratio_certificate(args, session):
    result = ratio_certificate(args.k, args.n, session)
    return result.to_report(), str(result.lower_bound), True


def cmd_ratio_search(args, session):
    result = ratio_search(parse_normspec(args.num, args.rule), parse_normspec(args.den, args.rule),
                          _search_budget(args), seed=args.seed, session=session)
    return result.to_report(), str(result.lower_bound), True


def cmd_matrix(args, session):
    matrix = order_property_matrix(args.levels, budget=_search_budget(args), rule=args.rule,
                                   session=session)
    phi = matrix.phi_matrix_for_stability(args.variant)
    gap = stability_gap(phi)
    sign = stability_sign_exact(matrix.d_matrix_for_stability(), args.variant)
    size = matrix.max_level + 1
    rows = [" ".join(str(matrix.d_value(num, den)) for den in range(size)) for num in range(size)]
    return ({**matrix.to_report(), "phi_matrix": phi, "phi_variant": args.variant.value,
             "stability": {**gap.to_report(), "exact_sign": sign}},
            "\n".join([*rows, f"gap {gap.gap} (exact sign {sign:+d})"]), True)


def cmd_stability(args, session):
    try:
        with open(args.matrix) as fh:
            matrix = json.load(fh)
    except (OSError, RecursionError) as exc:  # json's decoder recurses once per nested array
        raise ValueError(f"cannot read matrix file: {exc}") from exc
    if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
        raise ValueError("matrix file must hold a JSON array of rows")
    if not all(type(v) in (int, float) and math.isfinite(v) for row in matrix for v in row):
        raise ValueError("matrix entries must be finite numbers")
    result = stability_gap([[float(v) for v in row] for row in matrix])
    return result.to_report(), str(result.gap), True


def _phi_context(args) -> EvalContext:
    registry = {}
    for item in args.norm:
        if "=" not in item:
            raise ValueError(f"--norm needs id=SPEC, got {item!r}")
        name, spec_text = item.split("=", 1)
        name = name.strip()
        if name in registry:
            raise ValueError(f"--norm {name} given twice")
        registry[name] = parse_normspec(spec_text, args.rule)
    pool = [parse_vector(v) for v in args.pool or ["1:1"]]
    return EvalContext(registry or {"M": parse_normspec("tsirelson", args.rule)},
                       args.variant, pool)


def cmd_phi_parse(args, session):
    expr = parse_phi(args.expr)
    return {"ast": expr.to_json(), "canonical": str(expr)}, str(expr), True


def cmd_phi_mpv(args, session):
    value = mpv(parse_phi(args.expr))
    return {"mpv": str(value)}, str(value), True


def cmd_phi_eval(args, session):
    expr, ctx = parse_phi(args.expr), _phi_context(args)
    value = eval_phi(expr, parse_normspec(args.target, args.rule), ctx, session)
    tag = "exact" if isinstance(value, Fraction) else "float-estimate"
    return {"value": {"value": str(value), "tag": tag}}, str(value), True


def cmd_phi_realize(args, session):
    expr, ctx = parse_phi(args.expr), _phi_context(args)
    fields = approx_realizer(expr, ctx, session).to_report()
    return fields, fields["norm"], True


def cmd_probe(args, session):
    targets = [Fraction(t) for t in args.targets]
    entries = dichotomy_probe(targets, _search_budget(args), session=session)
    plain = "\n".join(
        f"target {e.target} levels {e.level_pair}: "
        f"{'achieved' if e.achieved else e.note}"
        for e in entries
    )
    return {"entries": [e.to_report() for e in entries]}, plain, True


def non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def _option_type(parse):
    """``parse`` as an argparse type that reports the library's own message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _rule(p):
    p.add_argument("--rule", type=_option_type(AdmissibilityRule.parse),
                   default=AdmissibilityRule.FIGIEL_JOHNSON,
                   help="admissibility rule: fj (default) or paper")


def _budget(p):
    p.add_argument("--budget", type=_option_type(non_negative_int), default=None,
                   help="work-unit budget for exact evaluation (default: the library's); "
                   "a partition DP is charged its full recurrence, forced rows included, "
                   "which can exceed the steps it runs")


def _seed(p):
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomised candidate pool")


def _search(p):
    p.add_argument("--max-support", type=_option_type(non_negative_int),
                   default=SearchBudget.max_support,
                   help="skip search candidates with more support points")
    p.add_argument("--max-candidates", type=_option_type(non_negative_int),
                   default=SearchBudget.max_candidates, help="number of search candidates drawn")


def _witness(p):
    p.add_argument("--k", type=int, required=True, help="witness level")
    p.add_argument("--n", type=int, required=True, help="number of parts")


def _expr(p):
    p.add_argument("expr", help="e.g. '(1/2*phi(M) | 1)'")


def _phi_options(p):
    p.add_argument("--norm", action="append", default=[], metavar="ID=SPEC",
                   help="register a norm (repeatable; default M=tsirelson)")
    p.add_argument("--variant", type=_option_type(PhiVariant.parse), default=PhiVariant.SIMILARITY)
    p.add_argument("--pool", action="append", default=[], metavar="VECTOR",
                   help="distance-estimation candidate (repeatable; default 1:1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsirnorm",
        description="Exact Tsirelson-type norm computations, witnesses, and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options, within=subs):
        p = within.add_parser(name, help=help)
        for option in options:
            option(p)
        p.add_argument("--json", action="store_true",
                       help="emit the full JSON report on stdout")
        p.set_defaults(func=func, budget=None, parser=p)
        return p

    def modes(name, help, *names):
        # The metavar names the modes when one is missing.
        return subs.add_parser(name, help=help).add_subparsers(
            dest=f"{name}_command", required=True, metavar="{%s}" % ",".join(names))

    p = command("norm", cmd_norm, "evaluate a norm on a vector literal", _rule, _budget)
    p.add_argument("vector", help="e.g. '3:1,4:1,5:1' or '7..13:1/7'")
    p.add_argument("--spec", required=True,
                   help="l1 | sup | iterate:K | tsirelson | join(SPEC,SPEC)")

    p = command("oracle", cmd_oracle, "exhaustive-enumeration oracle (small supports)",
                _rule)
    p.add_argument("vector")
    p.add_argument("--level", required=True, help="iterate level or 'limit'")

    p = command("witness", cmd_witness, "build and certify a growth witness",
                _witness, _budget)
    p.add_argument("--start", type=int, default=1, help="first admissible index")

    ratio = modes("ratio", "certified iterate-ratio lower bounds", "certificate", "search")
    command("certificate", cmd_ratio_certificate, "(k+1 vs k) bound of an n-part witness",
            _witness, _budget, within=ratio)
    p = command("search", cmd_ratio_search, "bound from a seeded candidate search",
                _rule, _budget, _seed, _search, within=ratio)
    p.add_argument("--num", required=True, help="numerator norm spec")
    p.add_argument("--den", required=True, help="denominator norm spec")

    p = command("matrix", cmd_matrix, "order-property distance matrix and its stability gap",
                _rule, _budget, _search)
    p.add_argument("--levels", type=int, required=True, help="top iterate level L")
    p.add_argument("--variant", type=_option_type(PhiVariant.parse), default=PhiVariant.LOGISTIC)

    p = command("stability", cmd_stability, "stability gap of a float matrix")
    p.add_argument("matrix", metavar="FILE", help="JSON array of rows of finite numbers")

    phi = modes("phi", "phi-polynomial DSL", "parse", "mpv", "eval", "realize")
    command("parse", cmd_phi_parse, "canonical form and JSON tree", _expr, within=phi)
    command("mpv", cmd_phi_mpv, "maximum possible value", _expr, within=phi)
    p = command("eval", cmd_phi_eval, "value against a target norm",
                _expr, _rule, _phi_options, within=phi)
    p.add_argument("--target", default="l1", help="target norm spec")
    command("realize", cmd_phi_realize, "join of registered norms aiming at the mpv",
            _expr, _rule, _phi_options, within=phi)

    p = command("probe", cmd_probe, "order-property dichotomy probe", _budget, _search)
    p.add_argument("targets", nargs="+", help="increasing rational targets")
    return parser


def _emit(args, report: dict, plain: str | None) -> None:
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif plain is not None:
        sys.stdout.write(plain + "\n")


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # Reported with the subcommand's own usage, which lists what it takes.
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    started = time.perf_counter()
    session = EvalSession(args.budget)
    try:
        fields, plain, verified = args.func(args, session)
        code = EXIT_OK if verified else EXIT_CERTIFICATE
    except BudgetExceededError as exc:
        print(f"refused ({exc.reason}): {exc}", file=sys.stderr)
        lower = None if exc.lower_bound is None else str(exc.lower_bound)
        if lower is not None:
            print(f"best certified lower bound: {lower}", file=sys.stderr)
        refused = {"reason": exc.reason, "message": str(exc), "lower_bound": lower}
        fields, plain, code = {"refused": refused}, None, EXIT_REFUSED
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    _emit(args, {"command": args.command,
                 "seconds": round(time.perf_counter() - started, 6),
                 "engine_stats": dict(session.stats), **fields}, plain)
    return code


if __name__ == "__main__":
    sys.exit(main())
