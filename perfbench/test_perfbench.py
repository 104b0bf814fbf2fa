"""Self-tests of the benchmark at tiny sizes.

Run from the checkout root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import worker
from spans import Hook, Tracer, summarize
from workloads import WORKLOADS, Stage, Workload, gen_grid

ROOT = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="tiny",
    why="every stage kind at n=60",
    stages=(
        gen_grid("gen_train", 60, "{seed}", "train.csv"),
        gen_grid("gen_test", 20, "{test_seed}", "test.csv"),
        Stage("fit", "timed",
              ("fit", "--data", "train.csv", "--lambda", "0.01",
               "--out-model", "model.kcef"), "model", ("model.kcef",)),
        Stage("eval", "timed",
              ("eval", "--model", "model.kcef", "--test", "test.csv",
               "--is-samples", "300", "--out", "eval.json"),
              "eval", ("eval.json", "eval.rows.csv"), {"rows": 20}),
        Stage("score", "timed",
              ("score", "--model", "model.kcef", "--data", "train.csv",
               "--out", "score.json"), "score_train", ("score.json",)),
        Stage("sample", "timed",
              ("sample", "--model", "model.kcef", "--n", "4", "--burn-in", "3",
               "--thin", "1", "--leapfrog-steps", "5", "--seed", "{seed}",
               "--out", "samples.csv"),
              "sample", ("samples.csv",), {"rows": 4, "cols": 3}),
        Stage("fit_cv", "timed",
              ("fit", "--data", "train.csv", "--cv", "--folds", "2",
               "--lambda-grid", "0.01,0.1", "--scale-grid", "1",
               "--out-model", "cv.kcef"),
              "cv", ("cv.kcef", "cv.cv.csv"), {"rows": 6}),
        Stage("score_test", "post",
              ("score", "--model", "cv.kcef", "--data", "test.csv",
               "--out", "heldout.json"), "score_test", ("heldout.json",)),
    ),
)


# --- span arithmetic -------------------------------------------------------


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a", 3.0, 6.0, 0],   # overlaps the first child: union is [1, 6]
        ["b", 1.5, 2.0, 1],   # grandchild: not subtracted from root
        ["root", 8.0, 9.0, 0],  # re-entrant: counts in calls, not again in s
    ]
    out = summarize(spans)
    assert out["root"]["calls"] == 2
    assert out["root"]["s"] == pytest.approx(10.0)
    assert out["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0 + 1.0)
    assert out["a"]["s"] == pytest.approx(6.0)
    assert out["a"]["self_s"] == pytest.approx(6.0 - 0.5)
    assert out["b"] == {"calls": 1, "s": pytest.approx(0.5), "self_s": pytest.approx(0.5)}


def test_self_times_add_up_to_top_level_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    out = summarize(tracer.spans)
    assert sum(v["self_s"] for v in out.values()) == pytest.approx(out["outer"]["s"])
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]


# --- hooks -----------------------------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layer")

    def blocks(model, X_rows, Y_set):
        for i in range(3):
            yield i

    def leapfrog(y, p, grad_potential, step_size, n_steps):
        for _ in range(n_steps + 1):
            grad_potential(y)
        return y, p

    module.work = lambda x: x + 1
    module.blocks = blocks
    module.leapfrog = leapfrog
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_hooks_record_and_uninstall_restores(fake_module):
    originals = dict(vars(fake_module))
    tracer = Tracer()
    tracer.install([
        Hook("fake_layer", "work", "layer.work", counter="layer.extra"),
        Hook("fake_layer", "blocks", "layer.blocks", kind="cross_T"),
        Hook("fake_layer", "leapfrog", "layer.leapfrog", kind="leapfrog"),
    ])
    assert fake_module.work(1) == 2
    model = types.SimpleNamespace(n=10)
    assert list(fake_module.blocks(model, [[0.0]] * 4, [[0.0]] * 5)) == [0, 1, 2]
    fake_module.leapfrog(0.0, 0.0, lambda y: y, step_size=0.1, n_steps=4)
    tracer.uninstall()
    assert all(vars(fake_module)[k] is v for k, v in originals.items())

    out = summarize(tracer.spans)
    assert out["layer.work"]["calls"] == 1
    assert tracer.counters["layer.extra"] == 1
    assert tracer.counters["layer.blocks.blocks"] == 3
    assert tracer.counters["score_fit.cross_T.pair_terms"] == 10 * 4 * 5
    assert out["layer.leapfrog"]["calls"] == 1
    assert out["sampling.grad_eval"]["calls"] == 5
    assert tracer.missing == []


def test_missing_hook_is_named_not_silent(fake_module):
    tracer = Tracer()
    tracer.install([Hook("fake_layer", "renamed_away", "layer.gone"),
                    Hook("fake_layer", "work", "layer.leapfrog", kind="leapfrog")])
    tracer.uninstall()
    assert tracer.missing == ["fake_layer.renamed_away",
                              "fake_layer.work(grad_potential)"]


def test_every_default_hook_exists_at_this_commit():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


# --- output checks ---------------------------------------------------------


def test_checks_catch_wrong_shapes_and_positive_scores(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "train.csv").write_text("x0,x1,x2\n0.1,0.2,0.3\n0.4,nan,0.6\n")
    grid = gen_grid("gen_train", 2, "0", "train.csv")
    assert worker.check_stage(grid)[0] == ["train.csv has non-finite values"]
    short = Stage("gen_train", "setup", grid.argv, "grid", (), {"rows": 3, "cols": 3})
    assert "shape" in worker.check_stage(short)[0][0]
    (tmp_path / "score.json").write_text(json.dumps(
        {"per_node": [{"node": 0, "score": -1.0}, {"node": 1, "score": 0.5}],
         "total": -0.5}))
    score = Stage("score", "timed", ("score", "--out", "score.json"),
                  "score_train", ())
    assert "> 0" in worker.check_stage(score)[0][0]


def test_grid_density_and_ks():
    import numpy as np

    rows = np.array([[0.25, 0.25]])  # sin(pi/2) * sin(pi/2) = 1
    assert worker._grid_log_density(rows) == pytest.approx(np.log(2.0))
    assert worker._ks_uniform(np.linspace(0.05, 0.95, 10)) == pytest.approx(0.05)


def test_count_failures_flags_irreproducible_outputs():
    def round_(digest):
        return {"stages": [{"name": "fit", "problems": [], "hashes": {"m": digest}}]}

    rounds = [round_("a"), round_("a"), round_("b")]
    assert run.count_failures(rounds) == (3, 1)
    assert "differ" in rounds[2]["stages"][0]["problems"][0]


# --- whole runs at tiny size -----------------------------------------------


def test_tiny_traced_run_end_to_end():
    result = run.run_workload(ROOT, TINY, seed=3, seconds=0, trace=True)
    assert (result["attempted"], result["failed"]) == (16, 0)
    metrics, lines = run.report(result)
    assert set(metrics) == set(run.PER_LAYER)
    value = {k: v["value"] for k, v in metrics.items()}
    # fit: 3 nodes; CV: 3 nodes x 2 lambdas x 1 scale x 2 folds + 3 refits
    assert value["score_fit.fit_factor.calls"] == 3 + 12 + 3
    assert value["evaluation.cv.fold_fits"] == 12
    assert value["score_fit.cross_T_blocks.blocks"] == 3
    assert value["sampling.leapfrog.calls"] == 3 * (3 + 1)
    assert value["sampling.grad_eval.calls"] == 3 * (3 + 1) * 6
    assert value["trace.missing_hooks"] == 0
    assert value["score_fit.gram_mib"] == pytest.approx(60**2 * 8 / 2**20)
    assert value["evaluation.normalizer.s"] > 0
    assert value["quality.heldout_score"] != 0
    assert any("self-time share" in line for line in lines)
    assert not (ROOT / ".perfbench_work").exists()


def test_tiny_untraced_run_reports_end_to_end_metrics():
    result = run.run_workload(ROOT, TINY, seed=3, seconds=0, trace=False)
    metrics, _ = run.report(result)
    assert set(metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert len(result["rounds"]) == 2 and result["failed"] == 0


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cv-500", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
