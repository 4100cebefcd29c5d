"""The benchmark's own tests, run on tiny workloads so they take seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(workload, traced) -> RunResult at tiny scale and one unit."""
    root = tmp_path_factory.mktemp("perfbench")
    return {(w, traced): tiny_run(w, traced, root / f"{w}-{traced}")
            for w in workloads.WORKLOADS for traced in (False, True)}


def tiny_run(workload, traced, workroot, pins=None):
    return workloads.run(workload, 3, 0, traced, workroot, scale="tiny", pins=pins)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("traced, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_appears_with_its_unit(tiny_runs, traced, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in workloads.WORKLOADS:
        result = tiny_runs[(w, traced)]
        assert result.correct, (w, result.extras)
        assert {k: unit for k, (_, unit) in result.metrics.items()} == expected, w
        if not traced:
            assert all(value > 0 for value, _ in result.metrics.values()), w


def test_untraced_round_times_set_ups_reference_warm_up_and_episodes(tiny_runs):
    for w in workloads.WORKLOADS:
        extras = tiny_runs[(w, False)].extras
        assert extras["setups"] >= 1 and extras["references"] >= 1, w
        wall_ref = tiny_runs[(w, False)].metrics["wall_ref"][0]
        assert wall_ref == pytest.approx(extras["wall_s"] / extras["reference_s"]), w
    episodes = tiny_runs[("eval_paired", False)].extras
    assert episodes["episode_ms_samples"] == 2 * 3 * episodes["units"]
    train = tiny_runs[("train_default", False)].extras
    assert {"warmup_run_s", "phase_s_p50", "train_100k_projected_s"} <= set(train)
    assert "episode_ms_p50" not in train


def test_traced_and_untraced_runs_produce_the_same_digests(tiny_runs):
    for w in workloads.WORKLOADS:
        untraced, traced = tiny_runs[(w, False)], tiny_runs[(w, True)]
        assert untraced.digests and untraced.digests == traced.digests, w
        # the traced run also checked its traced unit against an untraced one
        assert traced.failed == 0 and not traced.extras["digest_mismatches"], w


def test_traced_run_reports_layers_and_overhead(tiny_runs):
    m = tiny_runs[("train_default", True)].metrics
    assert m["wire.step.calls"][0] == 10 * m["env.step.calls"][0]
    assert m["dqn.updates"][0] > 0 and m["dqn.learner.self_s"][0] > 0
    assert m["trace.spans"][0] > 0
    assert tiny_runs[("eval_paired", True)].metrics["dqn.updates"][0] == 0
    sweep = tiny_runs[("sweep_lookback", True)].metrics
    assert sweep["bench.sweep.cells_ok"][0] == sweep["bench.sweep.cells_cached"][0] > 0


def test_tampered_pinned_digest_is_a_failure(tiny_runs, tmp_path):
    good = tiny_runs[("eval_paired", False)].digests
    ok = tiny_run("eval_paired", False, tmp_path / "ok", pins=good)
    assert ok.correct and ok.attempted > 0

    key = sorted(good)[0]
    tampered = dict(good, **{key: "0" * 64})
    bad = tiny_run("eval_paired", False, tmp_path / "bad", pins=tampered)
    assert not bad.correct
    assert bad.failed == 1 and bad.extras["digest_mismatches"] == [key]


def test_pins_apply_to_the_default_seed_at_full_scale_only():
    assert workloads.pins_for("train_default", workloads.DEFAULT_SEED, "full")
    assert workloads.pins_for("train_default", workloads.DEFAULT_SEED + 1, "full") is None
    assert workloads.pins_for("train_default", workloads.DEFAULT_SEED, "tiny") is None


def test_self_time_on_a_synthetic_span_tree():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("b", 2.0, 3.0, 1),
             Span("a", 5.0, 9.0, 0),
             Span("b", 6.0, 6.5, 3)]
    t = self_times(spans)
    assert t["root"].calls == 1 and t["root"].self_s == pytest.approx(10 - 3 - 4)
    assert t["a"].calls == 2 and t["a"].total_s == pytest.approx(7)
    assert t["a"].self_s == pytest.approx((3 - 1) + (4 - 0.5))
    assert t["b"].self_s == pytest.approx(1.5)


def test_tracer_records_parents_and_restores_functions():
    import wirebeam.wire as wire
    original = wire.solve_equilibrium
    params = workloads.config.default_config().wire
    tracer = Tracer()
    tracer.install([("wirebeam.wire", "solve_equilibrium", "eq"),
                    ("wirebeam.wire", "no_such_function", "missing")])
    try:
        assert wire.solve_equilibrium is not original
        root = tracer.begin("outer")
        wire.sag_depth(params)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert wire.solve_equilibrium is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("eq", 0)]


def test_tail_percentile_needs_ten_samples_beyond():
    assert workloads.tail_percentile(list(range(19))) == (None, None)
    assert workloads.tail_percentile(list(range(20)))[0] == 50
    assert workloads.tail_percentile(list(range(100)))[0] == 90


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "eval_paired",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
