import json
from fractions import Fraction

import pytest

from tsirnorm import cli
from tsirnorm.cli import main
from tsirnorm.norms import MAX_NESTING
from tsirnorm.witnesses import schedule

# 100 points i+2 : 1/p_i (p_i the i-th prime): the numerators over the
# common denominator pass int64, so the tables hold Python ints.
PRIMES = [p for p in range(2, 600) if all(p % d for d in range(2, p))][:100]
PRIME_VECTOR = ",".join(f"{i + 2}:1/{p}" for i, p in enumerate(PRIMES))
# Three million points: past every exact path and the materialisation limit.
WIDE_BLOCK = "1000000..3999999:1/1000000"
# 2601 points over the denominator 65521 * 65519: int64 tables, one point
# past the table memory limit (2600 int64 points).
INT64_PAST_TABLE_LIMIT = "2..1301:1/65521,1302..2602:1/65519"
# The message of each size-limit refusal: the support's table at the
# narrowest width its values take.
SIZE_LIMIT_MESSAGES = {
    "1000000..1999999:1/1000000":
        "a table of 1000000 points at 4 bytes an entry passes the 54080000-byte limit",
    INT64_PAST_TABLE_LIMIT:
        "a table of 2601 points at 8 bytes an entry passes the 54080000-byte limit",
}
COUNTERS = {"ranges_evaluated", "dp_transitions", "tables_built", "families_enumerated"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prog(argv):
    """The command of argv as its usage names it: each phi and ratio mode is a command."""
    return " ".join(argv[:2] if argv[0] in ("phi", "ratio") else argv[:1])


def assert_unread_option_rejected(capsys, argv, unread):
    """argparse refuses ``unread`` after ``argv`` with the command's own usage."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, *unread])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tsirnorm {prog(argv)} [-h]")
    assert f"tsirnorm {prog(argv)}: error: unrecognized arguments: {' '.join(unread)}" in err


class TestNorm:
    def test_iterate_example(self, capsys):
        code, out, _ = run(capsys, "norm", "--spec", "iterate:1", "3:1,4:1,5:1")
        assert code == 0 and out.strip() == "3/2"

    def test_l1_example(self, capsys):
        code, out, _ = run(capsys, "norm", "--spec", "l1", "1:1/2,3:-2")
        assert code == 0 and out.strip() == "5/2"

    def test_zero_index_is_input_error(self, capsys):
        code, _, err = run(capsys, "norm", "--spec", "tsirelson", "0:1")
        assert code == 2 and "1-based" in err

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
    def test_joins_nested_past_the_limit_are_an_input_error(self, capsys, depth):
        spec = "join(" * depth + "l1" + ",sup)" * depth
        code, out, err = run(capsys, "norm", "--spec", spec, "2:1,3:1")
        if depth <= MAX_NESTING:
            assert (code, out, err) == (0, "2\n", "")
        else:
            assert (code, out, err) == (
                2, "", f"input error: norm spec nests joins deeper than {MAX_NESTING}\n")

    def test_json_report_tags_values(self, capsys):
        code, out, _ = run(capsys, "norm", "--spec", "tsirelson", "2:1,3:1", "--json")
        report = json.loads(out)
        assert code == 0
        assert report["value"] == {"value": "1", "tag": "exact"}
        assert "engine_stats" in report

    def test_rule_flag(self, capsys):
        code, out, _ = run(capsys, "norm", "--spec", "iterate:1", "--rule", "paper",
                           "3:1,4:1,5:1")
        assert code == 0 and out.strip() == "1"

    def test_budget_exhaustion_exit_code(self, capsys):
        code, _, err = run(capsys, "norm", "--spec", "iterate:2",
                           "1000000..1999999:1/1000000")
        assert code == 3 and "lower bound" in err
        assert "size-limit" in err

    def test_wide_numerators_past_96_points_run(self, capsys):
        for spec in ("iterate:2", "iterate:3"):
            code, out, _ = run(capsys, "norm", "--spec", spec, "--json", PRIME_VECTOR)
            report = json.loads(out)
            assert code == 0 and report["value"]["value"] == "1/2"
            assert report["engine_stats"]["tables_built"] == 100 * 101 // 2

    def test_stage_past_the_budget_is_refused_before_it_runs(self, capsys):
        # Level 3 on 2000 points: the level-1 table and the level-2 rung,
        # which always run together, ask 2,001,000 + 583,833,250,000 units,
        # far past the default budget; neither is built.
        code, out, err = run(capsys, "norm", "--spec", "iterate:3", "--json", "2..2001:1/10")
        report = json.loads(out)
        assert code == 3 and report["refused"]["reason"] == "budget"
        assert set(report["engine_stats"].values()) == {0}
        assert "583835251000 asked for, 0 already used" in err

    @pytest.mark.parametrize("vector", ["900:1,901:1", "2000:1,2001:1",
                                        "1000000000:1,1000000001:1"])
    def test_literal_rule_limit_far_from_the_origin(self, capsys, vector):
        # The literal rule's limit is its iterate at level s + 1, wherever the
        # support lies, so a small budget suffices.
        code, out, _ = run(capsys, "norm", "--spec", "tsirelson", "--rule", "paper",
                           "--budget", "1000", vector)
        assert code == 0 and out.strip() == "1"

    def test_work_budget_refusal_names_budget(self, capsys):
        code, _, err = run(capsys, "norm", "--spec", "tsirelson", "--budget", "5",
                           "2:1,3:1,4:1,5:1")
        assert code == 3 and "refused (budget)" in err

    @pytest.mark.parametrize("argv, reason", [
        (("--spec", "iterate:2", "1000000..1999999:1/1000000"), "size-limit"),
        (("--spec", "iterate:2", INT64_PAST_TABLE_LIMIT), "size-limit"),
        (("--spec", "tsirelson", "--budget", "5", "2:1,3:1,4:1,5:1"), "budget"),
        (("--spec", "iterate:3", "--budget", "2000", "2..60:1/3"), "budget"),
    ])
    def test_json_refusal_report(self, capsys, argv, reason):
        code, out, err = run(capsys, "norm", *argv)
        code_json, out_json, err_json = run(capsys, "norm", *argv, "--json")
        assert code == code_json == 3 and out == "" and err_json == err
        report = json.loads(out_json)
        # The same report as a success, with ``refused`` for the command's fields.
        assert list(report) == ["command", "seconds", "engine_stats", "refused"]
        assert report["command"] == "norm" and report["seconds"] >= 0
        stats = report["engine_stats"]
        assert set(stats) == COUNTERS
        assert stats["tables_built"] == 0  # a level-1 table is paid with the rung after it
        if "--budget" in argv:
            assert sum(stats.values()) <= int(argv[argv.index("--budget") + 1])
        refused = report["refused"]
        assert refused["reason"] == reason and refused["message"] in err
        if reason == "size-limit":
            assert refused["message"] == SIZE_LIMIT_MESSAGES[argv[-1]]
        assert (refused["lower_bound"] is None) == ("lower bound" not in err)
        if refused["lower_bound"] is not None:
            assert f"best certified lower bound: {refused['lower_bound']}" in err

    @pytest.mark.parametrize("argv, reason, lower", [
        (("--spec", "iterate:2", WIDE_BLOCK), "size-limit", "1"),
        (("--spec", "iterate:3", WIDE_BLOCK), "size-limit", "1"),
        (("--spec", "tsirelson", WIDE_BLOCK), "size-limit", "1"),
        (("--spec", "tsirelson", "--budget", "5", "2:1,3:1,4:1,5:1"), "budget", "3/2"),
        # The literal rule's bound is the sup alone.
        (("--spec", "iterate:4", "--rule", "paper", "--budget", "5", "30..89:1"), "budget", "1"),
    ], ids=["level2-wide", "level3-wide", "limit-wide", "limit-budget", "paper-budget"])
    def test_refusal_reports_certified_bound(self, capsys, argv, reason, lower):
        code, out, _ = run(capsys, "norm", *argv, "--json")
        refused = json.loads(out)["refused"]
        assert code == 3 and (refused["reason"], refused["lower_bound"]) == (reason, lower)


class TestWitness:
    def test_n2_exits_zero(self, capsys):
        code, out, _ = run(capsys, "witness", "--k", "1", "--n", "2", "--json")
        report = json.loads(out)
        assert code == 0 and report["verified"]
        names = [line["name"] for line in report["certificate"]]
        assert names == ["|x_1|_1", "|x_2|_1", "|x|_1", "|x|_2"]

    def test_refusal_names_the_unverified_line(self, capsys):
        code, out, err = run(capsys, "witness", "--k", "2", "--n", "2",
                             "--budget", "1000000", "--json")
        refused = json.loads(out)["refused"]
        assert code == 3 and refused["reason"] == "budget"
        assert refused["message"].startswith("|y_2|_2 not exactly verifiable: work budget")
        assert refused["lower_bound"] == "1/2" and refused["message"] in err

    def test_n1_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--k", "1", "--n", "1")
        assert code == 2 and ">= 2" in err

    def test_twelve_parts_print_their_schedule(self, capsys):
        code, out, _ = run(capsys, "witness", "--k", "1", "--n", "12", "--json")
        report = json.loads(out)
        assert code == 0 and report["verified"]
        assert report["schedule"] == list(schedule(12).m)
        assert len(str(report["schedule"][-1])) == 2809

    @pytest.mark.parametrize("command", [["witness"], ["ratio", "certificate"]],
                             ids=lambda command: command[0])
    def test_start_past_printable_digits_is_refused(self, capsys, command):
        # The 13th start of a 13-part schedule has 5763 digits, past the 4300
        # that Python converts to text.
        code, out, err = run(capsys, *command, "--k", "1", "--n", "13")
        assert (code, out) == (3, "")
        assert err == ("refused (size-limit): schedule of 13 parts refused: "
                       "start 13 passes 4300 digits\n")


class TestRatio:
    def test_certificate_mode(self, capsys):
        code, out, _ = run(capsys, "ratio", "certificate", "--k", "1", "--n", "4")
        assert code == 0 and out.strip() == "2"

    def test_both_modes_are_an_input_error(self, capsys):
        assert_unread_option_rejected(capsys, ("ratio", "certificate", "--k", "1", "--n", "4"),
                                      ("--num", "iterate:2", "--den", "iterate:1"))

    def test_search_mode(self, capsys):
        code, out, _ = run(capsys, "ratio", "search", "--num", "l1", "--den", "sup",
                           "--max-candidates", "10", "--max-support", "30")
        assert code == 0
        num, _, den = out.strip().partition("/")
        assert int(num) >= 5 * int(den or 1)

    @pytest.mark.parametrize("option", [
        ("--rule", "paper"), ("--rule", "fj"), ("--seed", "5"), ("--seed", "0"),
        ("--max-support", "3"), ("--max-candidates", "0"),
    ], ids=lambda option: " ".join(option))
    def test_certificate_mode_refuses_the_search_options(self, capsys, option):
        # The certificate reads only --budget; a search option is an input
        # error, even at its default value.
        assert_unread_option_rejected(capsys, ("ratio", "certificate", "--k", "1", "--n", "4"),
                                      option)


class TestMatrixStability:
    def test_matrix_upper_triangle(self, capsys):
        code, out, _ = run(capsys, "matrix", "--levels", "3", "--json",
                           "--max-candidates", "8")
        report = json.loads(out)
        assert code == 0
        for entry in report["entries"]:
            if entry["numerator_level"] < entry["denominator_level"]:
                assert entry["verdict"] == "<=1"

    def test_stability_constant_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[0.25, 0.25], [0.25, 0.25]]")
        code, out, _ = run(capsys, "stability", str(path))
        assert code == 0 and float(out.strip()) == 0.0

    def test_matrix_file_gap(self, capsys, tmp_path):
        # The gap of a float matrix has no phi variant: stability refuses
        # --variant (below) and prints the gap of the file alone.
        path = tmp_path / "m.json"
        path.write_text("[[0.1, 0.7, 0.3], [0.4, 0.2, 0.9], [0.5, 0.05, 0.6]]")
        assert run(capsys, "stability", str(path)) == (0, "0.85\n", "")

    def test_matrix_reports_the_stability_gap(self, capsys):
        code, out, _ = run(capsys, "matrix", "--levels", "3")
        assert code == 0 and out.splitlines()[-1] == "gap 0.4093838908503587 (exact sign +1)"
        code, out, _ = run(capsys, "matrix", "--levels", "3", "--json")
        assert code == 0 and json.loads(out)["stability"] == {
            "sup_lower": 0.4093838908503587, "inf_upper": 0.0, "gap": 0.4093838908503587,
            "rows": 4, "cols": 4, "sup_witness": [0, 2], "inf_witness": [1, 0], "exact_sign": 1}

    @pytest.mark.parametrize("option", [
        ("--levels", "9"), ("--levels", "4"), ("--rule", "paper"), ("--budget", "1"),
        ("--max-support", "3"), ("--max-candidates", "3"), ("--variant", "logistic"),
    ], ids=lambda option: " ".join(option))
    def test_matrix_file_mode_refuses_the_grid_options(self, capsys, tmp_path, option):
        path = tmp_path / "m.json"
        path.write_text("[[0.25, 0.25], [0.25, 0.25]]")
        assert_unread_option_rejected(capsys, ("stability", str(path)), option)

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read matrix file: "),
        ("[1, 2]", "matrix file must hold a JSON array of rows\n"),
        ("[[1, NaN], [3, 4]]", "matrix entries must be finite numbers\n"),
        ("[[1, true], [3, 4]]", "matrix entries must be finite numbers\n"),
        ("[" * 100_000 + "]" * 100_000, "cannot read matrix file: maximum recursion depth"),
    ], ids=["missing file", "rows not arrays", "nan entry", "boolean entry", "deep nesting"])
    def test_matrix_file_input_errors(self, capsys, tmp_path, content, message):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(capsys, "stability", str(path))
        assert (code, out) == (2, "") and err.startswith(f"input error: {message}")

    def test_matrix_parses_the_variant_before_any_work(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the matrix was built")

        monkeypatch.setattr(cli, "order_property_matrix", fail)
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--levels", "4", "--variant", "bogus"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert ("tsirnorm matrix: error: argument --variant: unknown phi variant 'bogus' "
                "(use 'logistic' or 'similarity')" in err)


class TestPhi:
    def test_mpv_example(self, capsys):
        code, out, _ = run(capsys, "phi", "mpv", "(1/2*1 + 3/4*1)")
        assert code == 0 and out.strip() == "1"

    def test_parse_roundtrip(self, capsys):
        code, out, _ = run(capsys, "phi", "parse", "( 1 & phi(M) )")
        assert code == 0 and out.strip() == "(1&phi(M))"

    def test_eval_same_norm(self, capsys):
        code, out, _ = run(capsys, "phi", "eval", "phi(M)",
                           "--norm", "M=iterate:1", "--target", "iterate:1")
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize("norm, target, value, tag", [
        ("M=sup", "l1", "0", "exact"),  # D = 1/4, raised to the floor 1
        ("M=l1", "sup", "0.5809402158035948", "float-estimate"),  # D = 4
    ])
    def test_eval_floor_and_interior(self, capsys, norm, target, value, tag):
        code, out, _ = run(capsys, "phi", "eval", "phi(M)", "--norm", norm, "--target", target,
                           "--variant", "logistic", "--pool", "1..4:1", "--json")
        assert code == 0 and json.loads(out)["value"] == {"value": value, "tag": tag}

    def test_eval_defaults_to_the_limit_norm(self, capsys):
        # Without --norm the registry holds M=tsirelson, which is 1 on the pool's t_1.
        code, out, _ = run(capsys, "phi", "eval", "phi(M)", "--target", "l1")
        assert code == 0 and out.strip() == "1"

    def test_norm_without_a_spec_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "phi", "eval", "phi(M)", "--norm", "M")
        assert code == 2 and "--norm needs id=SPEC" in err

    def test_repeated_norm_id_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "phi", "eval", "phi(M)", "--norm", "M=sup",
                             "--norm", "M=l1", "--target", "l1")
        assert (code, out, err) == (2, "", "input error: --norm M given twice\n")

    @pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
    def test_nesting_past_the_limit_is_an_input_error(self, capsys, depth):
        expr = "(" * depth + "1" + "&1)" * depth
        code, out, err = run(capsys, "phi", "parse", expr, "--json")
        if depth <= MAX_NESTING:
            assert code == 0 and json.loads(out)["canonical"] == expr
        else:
            assert (code, out) == (2, "")
            assert err.startswith(f"input error: expression nested deeper than {MAX_NESTING}")

    def test_eval_at_a_distance_past_the_largest_float(self, capsys):
        pool = "1..1" + "0" * 310 + ":1"  # l1/sup is 10**310 on one flat block
        code, out, _ = run(capsys, "phi", "eval", "phi(M)", "--norm", "M=l1", "--target", "sup",
                           "--variant", "logistic", "--pool", pool)
        assert code == 0 and 0 < float(out) < 1

    def test_realize(self, capsys):
        code, out, _ = run(capsys, "phi", "realize", "(phi(M)&phi(M))",
                           "--norm", "M=sup")
        assert code == 0 and out.strip() == "sup"

    def test_syntax_error_exit(self, capsys):
        code, _, err = run(capsys, "phi", "mpv", "(1&")
        assert code == 2 and "position" in err


class TestOracle:
    def test_limit(self, capsys):
        code, out, _ = run(capsys, "oracle", "--level", "limit", "3:1,4:1,5:1")
        assert code == 0 and out.strip() == "3/2"

    @pytest.mark.parametrize("vector", ["900:1,901:1", "2000:1,2001:1"])
    def test_literal_limit_far_out(self, capsys, vector):
        # The literal-rule limit climbs to level s + 2 at most, whatever the indices.
        code, out, _ = run(capsys, "oracle", "--rule", "paper", "--level", "limit", vector)
        assert code == 0 and out.strip() == "1"

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "oracle", "--level", "1", "1..12:1")
        assert code == 2 and "oracle" in err

    def test_negative_level_is_input_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--level", "-1", "2:1")
        assert code == 2 and err == "input error: iterate level must be >= 0\n"


class TestProbe:
    def test_half_target(self, capsys):
        code, out, _ = run(capsys, "probe", "1/2", "--max-candidates", "6")
        assert code == 0 and "achieved" in out

    def test_search_work_is_reported(self, capsys):
        # The second target needs a (3 vs 2) search; its work reaches the report.
        code, out, _ = run(capsys, "probe", "1/2", "1", "--max-candidates", "6", "--json")
        report = json.loads(out)
        assert code == 0 and [e["achieved"] for e in report["entries"]] == [True, True]
        assert report["engine_stats"]["dp_transitions"] > 0

    def test_witness_target(self, capsys):
        code, out, _ = run(capsys, "probe", "3")
        assert (code, out) == (0, "target 3 levels (1, 2): achieved\n")

    def test_witness_past_printable_digits_falls_back_to_the_search(self, capsys):
        # Target 5 asks for a 20-part base witness, whose schedule is refused.
        code, out, _ = run(capsys, "probe", "5")
        assert (code, out) == (0, "target 5 levels (1, 2): not-achieved-within-budget\n")


COUNTERS = {"ranges_evaluated", "dp_transitions", "tables_built", "families_enumerated"}


class TestRunner:
    @pytest.mark.parametrize("argv", [
        ("norm", "--spec", "iterate:1", "3:1,4:1,5:1"),
        ("oracle", "--level", "limit", "3:1,4:1,5:1"),
        ("witness", "--k", "1", "--n", "2"),
        ("ratio", "certificate", "--k", "1", "--n", "4"),
        ("ratio", "search", "--num", "l1", "--den", "sup", "--max-candidates", "4"),
        ("matrix", "--levels", "2"),
        ("stability", "MATRIX_FILE"),
        ("phi", "parse", "(1&phi(M))"),
        ("phi", "mpv", "(1/2*1 + 3/4*1)"),
        ("phi", "eval", "phi(M)", "--norm", "M=iterate:1", "--target", "iterate:2"),
        ("phi", "realize", "(phi(M)&phi(M))", "--norm", "M=sup"),
        ("probe", "1/2", "--max-candidates", "6"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_json_report_carries_engine_stats(self, capsys, tmp_path, argv):
        path = tmp_path / "m.json"
        path.write_text("[[0.25, 0.5], [0.25, 0.25]]")
        argv = [str(path) if a == "MATRIX_FILE" else a for a in argv]
        code, out, _ = run(capsys, *argv, "--json")
        report = json.loads(out)
        assert code == 0 and report["command"] == argv[0]
        assert isinstance(report["seconds"], float)
        assert set(report["engine_stats"]) == COUNTERS

    @pytest.mark.parametrize("argv", [
        ("witness", "--k", "1", "--n", "2", "--rule", "paper"),
        ("probe", "1/2", "--rule", "paper"),
        ("oracle", "--level", "1", "3:1", "--budget", "5"),
        ("phi", "eval", "phi(M)", "--budget", "5"),
        ("phi", "mpv", "1", "--variant", "bogus"),
        ("phi", "parse", "1", "--target", "l1"),
        ("norm", "--spec", "l1", "3:1", "--seed", "3"),
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_option_the_command_does_not_read_is_rejected(self, capsys, argv):
        assert_unread_option_rejected(capsys, argv[:-2], argv[-2:])

    @pytest.mark.parametrize("argv", [
        ("norm", "--spec", "l1", "1:1", "--budget", "-5"),
        ("ratio", "search", "--num", "iterate:3", "--den", "iterate:2", "--max-candidates", "-1"),
        ("ratio", "search", "--num", "l1", "--den", "sup", "--max-support", "-1"),
        ("probe", "1/2", "--budget", "many"),
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_count_options_take_non_negative_ints(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tsirnorm {prog(argv)} [-h]")
        assert (f"tsirnorm {prog(argv)}: error: argument {argv[-2]}: expected a non-negative "
                f"integer, got '{argv[-1]}'" in err)

    @pytest.mark.parametrize("argv, message", [
        (("norm", "--spec", "l1", "1:1", "--rule", "bogus"),
         "argument --rule: unknown admissibility rule 'bogus' (use 'fj' or 'paper')"),
        (("phi", "eval", "1", "--variant", "bogus"),
         "argument --variant: unknown phi variant 'bogus' (use 'logistic' or 'similarity')"),
        (("ratio",), "the following arguments are required: {certificate,search}"),
        (("phi",), "the following arguments are required: {parse,mpv,eval,realize}"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
    def test_bad_input_reports_what_is_allowed(self, capsys, argv, message):
        # The library's own message reaches the user, and a missing mode is
        # named by the modes there are.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"tsirnorm {prog(argv)}: error: {message}\n")

    def test_search_candidates_share_the_command_budget(self, capsys):
        # Every candidate charges the command's one budget; the ones after it
        # is spent fall back to certified bounds, and the search still ends.
        argv = ("ratio", "search", "--num", "iterate:3", "--den", "iterate:2", "--json")
        code, out, _ = run(capsys, *argv)
        full = json.loads(out)
        assert code == 0 and sum(full["engine_stats"].values()) > 30_000_000
        code, out, _ = run(capsys, *argv, "--budget", "30000000")
        capped = json.loads(out)
        assert code == 0 and sum(capped["engine_stats"].values()) <= 30_000_000
        assert capped["lower_bound"] == full["lower_bound"] == "265/224"

    def test_matrix_search_past_its_budget_keeps_a_certified_bound(self, capsys):
        code, out, _ = run(capsys, "matrix", "--levels", "3", "--budget", "1000000", "--json")
        report = json.loads(out)
        assert code == 0 and sum(report["engine_stats"].values()) <= 1_000_000
        d = {(e["numerator_level"], e["denominator_level"]): Fraction(e["estimate"]["value"])
             for e in report["entries"]}
        assert 1 < d[(3, 2)] <= Fraction(265, 224)
