"""Self-tests for the benchmark: tracer counts, span arithmetic, exact gates.

    python3 -m pytest -q perfbench/tests

The witness_l2 and matrix_l3 fixtures each run one full traced pass
(about 20 s and 10 s on a 2-core Xeon).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

import tracer as tracer_mod
import workloads
from tsirnorm import Iterate, Join, Sup, cli, fastpaths, geometry, norms, phidsl, witnesses
from tsirnorm.vectors import parse_vector


def traced_pass(plan, index=0):
    tracer = tracer_mod.Tracer()
    with tracer:
        result = tracer.run_root(plan.run_pass, index)
    return tracer, result


def traced_cli(argv):
    tracer = tracer_mod.Tracer()
    with tracer:
        rc, report, _ = tracer.run_root(workloads.run_cli, argv)
    return tracer, rc, report


def assert_self_times_add_up(tracer):
    assert all(s.self_s >= 0 for s in tracer.stats.values())
    total = sum(s.self_s for s in tracer.stats.values())
    assert total == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-9)


@pytest.fixture(scope="module")
def witness_run():
    return traced_cli(workloads.WITNESS_ARGV)


@pytest.fixture(scope="module")
def matrix_run():
    return traced_cli(workloads.MATRIX_ARGV)


def test_witness_level2_shapes(witness_run):
    tracer, rc, report = witness_run
    assert workloads.check_witness(rc, report) == []
    assert sorted(tracer.dp_shapes["fastpaths.level2_top_points"]) == [1459, 1459, 1468]
    assert tracer.stats["fastpaths.level2_top_points"].calls == 3
    assert tracer.dp_shapes["fastpaths.level3_top_points"] == []
    assert tracer.stats["fastpaths.level3_top_points"].calls == 0
    # The small first window goes through the generic engine; together the
    # two layers account for every transition the CLI reports.
    l2 = tracer.stats["fastpaths.level2_top_points"].counters["dp_transitions"]
    engine = tracer.stats["engine.SmallEvaluator"].counters["dp_transitions"]
    assert l2 + engine == workloads.WITNESS_DP_TRANSITIONS
    assert l2 > 0.99 * workloads.WITNESS_DP_TRANSITIONS
    assert tracer.stats["cli.main"].calls == 1
    assert_self_times_add_up(tracer)


def test_matrix_level3_shapes(matrix_run):
    tracer, rc, report = matrix_run
    assert workloads.check_matrix(rc, report) == []
    assert tracer.dp_shapes["fastpaths.level3_top_points"] == [
        30, 30, 30, 62, 126, 126, 189, 62, 126, 126]
    # ratio_search evaluates each candidate in a session of its own; the
    # spans still see its counters.
    assert tracer.stats["witnesses.ratio_search"].calls == 1
    assert tracer.stats["fastpaths.level3_top_points"].counters["dp_transitions"] > 0
    share, _ = tracer_mod.layer_metrics(tracer, 1)["fastpaths.distinct_input_share"]
    assert share == pytest.approx(18 / 20)
    assert_self_times_add_up(tracer)


def test_distinct_share_is_per_pass():
    # A pass with a repeated level-3 input (the second only rescaled), as
    # matrix_l3 makes; running it again must not count as repeated work.
    pos = [1, 2, 3]
    weights = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]

    def run_pass():
        fastpaths.level3_top_points(pos, weights)
        fastpaths.level3_top_points(pos, [2 * w for w in weights])
        fastpaths.level3_top_points(pos[:2], weights[:2])

    shares = []
    for passes in (1, 2):
        tracer = tracer_mod.Tracer()
        with tracer:
            for _ in range(passes):
                tracer.run_root(run_pass)
        shares.append(tracer_mod.layer_metrics(tracer, passes)
                      ["fastpaths.distinct_input_share"][0])
    assert shares == [pytest.approx(2 / 3)] * 2


def test_generic_pass_traced_and_exact():
    plan = workloads.setup("generic_sweep", 3)
    tracer, result = traced_pass(plan)
    assert result.failed == 0, result.problems
    assert result.attempted == len(result.latencies_ms)
    for name in ("engine.SmallEvaluator", "oracle.brute_force_norm", "norms.dispatch",
                 "fastpaths.level2_top_points", "fastpaths.level3_top_points",
                 "phidsl.eval_phi"):
        assert tracer.stats[name].calls > 0, name
    assert_self_times_add_up(tracer)
    metrics = tracer_mod.layer_metrics(tracer, 1)
    assert metrics["session.work_units"][0] > 0


def test_same_seed_same_inputs():
    pool = workloads.load_pool()
    a, b, c = (workloads.SweepPlan(seed, pool) for seed in (5, 5, 6))
    labels = [[item.label for item in plan.pass_inputs(2)] for plan in (a, b, c)]
    assert labels[0] == labels[1]
    assert labels[0] != labels[2]


# -- the gates fail on a deliberately altered reference ----------------------

def test_witness_gate_rejects_altered_reference(witness_run):
    _, rc, report = witness_run
    altered = dict(workloads.WITNESS_LINES)
    altered["|z|_2"] = ("<=", "1", "83927/113155")
    problems = workloads.check_witness(rc, report, altered)
    assert len(problems) == 1 and problems[0].startswith("witness line |z|_2")
    assert workloads.check_witness(rc, report, expected_dp=workloads.WITNESS_DP_TRANSITIONS + 1)
    assert workloads.check_witness(3, None)


def test_matrix_gate_rejects_altered_reference(matrix_run):
    _, rc, report = matrix_run
    altered = copy.deepcopy(workloads.MATRIX_D)
    altered[3][2] = "266/224"
    problems = workloads.check_matrix(rc, report, altered)
    assert problems == ["matrix d(3,2) = 265/224, expected 266/224"]


def test_sweep_gate_rejects_altered_reference():
    pool = workloads.load_pool()
    plan = workloads.SweepPlan(7, pool)
    item = next(i for i in plan.pass_inputs(0) if i.kind == "mid")
    item.values = dict(item.values)
    item.values["fj:2"] = str(Fraction(item.values["fj:2"]) + 1)
    result = plan.run_pass(0)
    assert result.failed >= 1
    assert any("fj:2" in p for p in result.problems)


# -- tracer mechanics ---------------------------------------------------------

def test_every_module_binding_is_patched_and_restored():
    originals = (norms.iterate_norm, witnesses.iterate_norm, geometry.norm_eval,
                 phidsl.distance_lower, cli.inductive_witness)
    tracer = tracer_mod.Tracer()
    with tracer:
        assert witnesses.iterate_norm is not originals[1]
        assert witnesses.iterate_norm is norms.iterate_norm
        assert geometry.norm_eval is norms.norm_eval
        assert phidsl.distance_lower is geometry.distance_lower
        assert cli.inductive_witness.__wrapped__ is originals[4]
    assert (norms.iterate_norm, witnesses.iterate_norm, geometry.norm_eval,
            phidsl.distance_lower, cli.inductive_witness) == originals


def test_reentry_into_a_layer_is_one_span():
    x = parse_vector("2:1,3:1/2,5:1/3")
    spec = Join(Sup(), Join(Iterate(2), Iterate(1)))
    tracer = tracer_mod.Tracer()
    with tracer:
        value = tracer.run_root(norms.norm_eval, spec, x)
    assert value == norms.norm_eval(spec, x)
    assert tracer.stats["norms.dispatch"].calls == 1
    assert tracer.stats["engine.SmallEvaluator"].calls == 1
    assert tracer.stats["fastpaths.level1_runs"].calls == 1
    assert_self_times_add_up(tracer)


def test_escaping_exception_counts_as_error():
    tracer = tracer_mod.Tracer()
    with tracer:
        with pytest.raises(ValueError):
            tracer.run_root(norms.iterate_norm, parse_vector("1:1"), -1)
    assert tracer.stats["norms.dispatch"].errors == 1
    assert tracer.stats[tracer_mod.ROOT].errors == 1
    assert_self_times_add_up(tracer)


# -- the command-line contract -------------------------------------------------

REPO = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]


def run_bench(cwd, *args):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_the_declared_metrics(trace):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    done = run_bench(REPO, "--workload", "generic_sweep", "--seed", "4",
                     "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    detail = json.loads(done.stdout.splitlines()[-2])["detail"]
    assert set(detail["environment"]) == {"python", "numpy", "nproc", "cpu_model",
                                          "commit", "seed", "trace"}


def test_refuses_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "witness_l2", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
