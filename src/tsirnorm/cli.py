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


def cmd_ratio(args, session):
    if args.num or args.den:
        if args.k is not None or args.n is not None:
            raise ValueError("give either --k/--n or --num/--den")
        if not (args.num and args.den):
            raise ValueError("--num and --den must be given together")
        result = ratio_search(parse_normspec(args.num, args.rule),
                              parse_normspec(args.den, args.rule),
                              _search_budget(args), seed=args.seed,
                              session=session)
    else:
        if args.k is None or args.n is None:
            raise ValueError("give either --k/--n or --num/--den")
        result = ratio_certificate(args.k, args.n, session)
    return result.to_report(), str(result.lower_bound), True


def _matrix(args, session):
    return order_property_matrix(args.levels, budget=_search_budget(args),
                                 rule=args.rule, session=session)


def cmd_matrix(args, session):
    matrix = _matrix(args, session)
    variant = PhiVariant.parse(args.variant)
    size = matrix.max_level + 1
    plain = "\n".join(
        " ".join(str(matrix.d_value(num, den)) for den in range(size))
        for num in range(size)
    )
    return {**matrix.to_report(),
            "phi_matrix": matrix.phi_matrix_for_stability(variant),
            "phi_variant": variant.value}, plain, True


def cmd_stability(args, session):
    variant = PhiVariant.parse(args.variant)
    if args.matrix:
        with open(args.matrix) as fh:
            matrix = json.load(fh)
        if not isinstance(matrix, list):
            raise ValueError("matrix file must hold a JSON array of rows")
        result = stability_gap([[float(v) for v in row] for row in matrix])
        return result.to_report(), str(result.gap), True
    grid = _matrix(args, session)
    result = stability_gap(grid.phi_matrix_for_stability(variant))
    sign = stability_sign_exact(grid.d_matrix_for_stability(), variant)
    return ({**result.to_report(), "exact_sign": sign},
            f"{result.gap} (exact sign {sign:+d})", True)


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
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _rule(p):
    p.add_argument("--rule", type=AdmissibilityRule.parse,
                   default=AdmissibilityRule.FIGIEL_JOHNSON,
                   help="admissibility rule: fj (default) or paper")


def _budget(p):
    p.add_argument("--budget", type=non_negative_int, default=None,
                   help="work-unit budget for exact evaluation")


def _seed(p):
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomised candidate pool")


def _search(p):
    p.add_argument("--max-support", type=non_negative_int, default=SearchBudget.max_support,
                   help="skip search candidates with more support points")
    p.add_argument("--max-candidates", type=non_negative_int, default=SearchBudget.max_candidates,
                   help="number of search candidates drawn")


def _expr(p):
    p.add_argument("expr", help="e.g. '(1/2*phi(M) | 1)'")


def _phi_options(p):
    p.add_argument("--norm", action="append", metavar="ID=SPEC",
                   help="register a norm (repeatable)")
    p.add_argument("--variant", default="similarity")
    p.add_argument("--pool", action="append", metavar="VECTOR",
                   help="distance-estimation candidate (repeatable)")


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

    p = command("norm", cmd_norm, "evaluate a norm on a vector literal", _rule, _budget)
    p.add_argument("vector", help="e.g. '3:1,4:1,5:1' or '7..13:1/7'")
    p.add_argument("--spec", required=True,
                   help="l1 | sup | iterate:K | tsirelson | join(SPEC,SPEC)")

    p = command("oracle", cmd_oracle, "exhaustive-enumeration oracle (small supports)",
                _rule)
    p.add_argument("vector")
    p.add_argument("--level", required=True, help="iterate level or 'limit'")

    p = command("witness", cmd_witness, "build and certify a growth witness", _budget)
    p.add_argument("--k", type=int, required=True, help="certificate level")
    p.add_argument("--n", type=int, required=True, help="number of parts")
    p.add_argument("--start", type=int, default=1, help="first admissible index")

    p = command("ratio", cmd_ratio, "certified iterate-ratio lower bounds",
                _rule, _budget, _seed, _search)
    p.add_argument("--k", type=int, default=None, help="witness level (with --n)")
    p.add_argument("--n", type=int, default=None, help="witness parts (with --k)")
    p.add_argument("--num", default=None, help="numerator norm spec (search mode)")
    p.add_argument("--den", default=None, help="denominator norm spec (search mode)")

    p = command("matrix", cmd_matrix, "order-property distance matrix",
                _rule, _budget, _search)
    p.add_argument("--levels", type=int, required=True, help="top iterate level L")
    p.add_argument("--variant", default="logistic")

    p = command("stability", cmd_stability, "stability gap of a phi matrix",
                _rule, _budget, _search)
    p.add_argument("--matrix", default=None, help="JSON file with a float matrix")
    p.add_argument("--levels", type=int, default=4,
                   help="build the iterate matrix up to this level instead")
    p.add_argument("--variant", default="logistic")

    phi = subs.add_parser("phi", help="phi-polynomial DSL").add_subparsers(
        dest="phi_command", required=True)
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
