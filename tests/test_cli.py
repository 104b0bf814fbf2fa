import argparse
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kexpfam._openblas as openblas
import kexpfam.cli as cli
import kexpfam.evaluation as evaluation
import kexpfam.sampling as sampling
import kexpfam.score_fit as score_fit
from kexpfam.cli import main
from kexpfam.data_io import load_csv, load_model, save_csv, standardize
from kexpfam.errors import DataError
from kexpfam.evaluation import CvConfig
from kexpfam.factorization import fit_joint, make_dag
from kexpfam.sampling import GridSamplerConfig, HmcConfig, ancestral_sample


def run(args, cwd=None):
    return main([str(a) for a in args])


def gen_grid(tmp_path, name="data.csv", n=300, dim=2, seed=0):
    out = tmp_path / name
    code = run(["gen-grid", "--dim", dim, "--n", n, "--seed", seed,
                "--out", out])
    assert code == 0
    return out


class TestGenGrid:
    def test_writes_csv_config_and_provenance(self, tmp_path):
        out = gen_grid(tmp_path)
        values, names = load_csv(out)
        assert values.shape == (300, 2)
        assert names == ["x0", "x1"]
        config = json.loads((tmp_path / "data.config.json").read_text())
        assert config["dim"] == 2 and config["seed"] == 0
        prov = json.loads((tmp_path / "data.csv.provenance.json").read_text())
        assert prov["subcommand"] == "gen-grid"
        assert "--dim" in prov["argv"]

    def test_provenance_records_blas_thread_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        gen_grid(tmp_path)
        prov = json.loads((tmp_path / "data.csv.provenance.json").read_text())
        assert prov["environment"] == {"MKL_NUM_THREADS": None,
                                       "OMP_NUM_THREADS": "4",
                                       "OPENBLAS_NUM_THREADS": "1"}

    def test_main_pins_openblas_to_one_thread_and_import_does_not(self, tmp_path):
        """In a fresh process with no thread variable set, importing the CLI
        leaves OpenBLAS at its default; main sets it to one thread and the
        provenance records the count."""
        code = (
            "import json, sys\n"
            "import kexpfam.cli as cli\n"
            "before = cli.openblas_threads()\n"
            "code = cli.main(['gen-grid', '--dim', '2', '--n', '50', '--out', sys.argv[1]])\n"
            "print(json.dumps([code, before, cli.openblas_threads()]))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "data.csv"
        done = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                              capture_output=True, text=True, check=True)
        status, before, after = json.loads(done.stdout.splitlines()[-1])
        assert status == 0
        assert set(after) == {"numpy", "scipy"}
        for package, count in after.items():
            if isinstance(count, str):  # not a wheel's OpenBLAS: no pin, a note
                assert count.startswith("not pinned") and before[package] == count
                continue
            assert count == 1
            if score_fit._worker_count() > 1:
                assert before[package] > 1
        prov = json.loads((tmp_path / "data.csv.provenance.json").read_text())
        assert prov["openblas_threads"] == after

    def test_missing_openblas_symbol_skips_the_pin(self, tmp_path, monkeypatch):
        monkeypatch.setattr(openblas, "LIBS",
                            (("numpy", "libscipy_openblas64_-*", "no_such_{}_threads"),))
        gen_grid(tmp_path)
        prov = json.loads((tmp_path / "data.csv.provenance.json").read_text())
        assert prov["openblas_threads"] == {
            "numpy": "not pinned: no_such_set_threads not found"}

    @pytest.mark.skipif(not openblas._lib_paths(*openblas.LIBS[1][:2]),
                        reason="scipy ships no libscipy_openblas: the solve "
                               "runs through scipy.linalg")
    def test_no_command_imports_scipy_linalg(self, tmp_path):
        """With the wheel's OpenBLAS, the solve calls it directly, so no
        command, fits included, loads scipy.linalg."""
        code = (
            "import sys\n"
            "import kexpfam.cli as cli\n"
            "d = sys.argv[1] + '/'\n"
            "fit = ['fit', '--data', d + 'train.csv', '--dag', 'markov']\n"
            "runs = [['gen-grid', '--dim', '2', '--n', '200', '--out', d + 'train.csv'],\n"
            "        ['gen-grid', '--dim', '2', '--n', '200', '--seed', '1',\n"
            "         '--out', d + 'test.csv'],\n"
            "        fit + ['--lambda', '0.01', '--out-model', d + 'm.kcef'],\n"
            "        fit + ['--cv', '--folds', '2', '--lambda-grid', '0.01,0.1',\n"
            "               '--scale-grid', '1', '--out-model', d + 'cv.kcef'],\n"
            "        ['eval', '--model', d + 'm.kcef', '--test', d + 'test.csv',\n"
            "         '--is-samples', '500', '--out', d + 'eval.json'],\n"
            "        ['score', '--model', d + 'm.kcef', '--data', d + 'test.csv',\n"
            "         '--out', d + 'score.json'],\n"
            "        ['sample', '--model', d + 'm.kcef', '--n', '20', '--out', d + 's.csv']]\n"
            "print([cli.main(argv) for argv in runs], 'scipy.linalg' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] False"

    def test_identical_flags_identical_bytes(self, tmp_path):
        a = gen_grid(tmp_path, "a.csv", seed=5)
        b = gen_grid(tmp_path, "b.csv", seed=5)
        assert a.read_bytes() == b.read_bytes()
        ca = json.loads((tmp_path / "a.config.json").read_text())
        cb = json.loads((tmp_path / "b.config.json").read_text())
        assert ca == cb

    def test_one_dimensional_is_uniform(self, tmp_path):
        out = tmp_path / "flat.csv"
        assert run(["gen-grid", "--dim", 1, "--n", 2000, "--seed", 3,
                    "--out", out]) == 0
        values, _ = load_csv(out)
        assert values.shape == (2000, 1)
        hist, _ = np.histogram(values[:, 0], bins=10, range=(0, 1))
        assert hist.min() > 120  # roughly uniform

    def test_json_weights(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["gen-grid", "--dim", 2, "--n", 50, "--seed", 1,
                    "--weights", "[[1,1],[2,0.5]]", "--out", out])
        assert code == 0
        config = json.loads((tmp_path / "w.config.json").read_text())
        assert config["weights_a"] == [1.0, 2.0]

    def test_bad_weights_is_data_error(self, tmp_path):
        code = run(["gen-grid", "--dim", 2, "--n", 10, "--weights", "nope",
                    "--out", tmp_path / "x.csv"])
        assert code == 2


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    train = gen_grid(tmp_path, "train.csv", n=300, seed=0)
    test = gen_grid(tmp_path, "test.csv", n=200, seed=1)
    model = tmp_path / "model.kcef"
    assert run(["fit", "--data", train, "--dag", "markov",
                "--lambda", 0.003, "--out-model", model]) == 0
    return tmp_path, train, test, model


class TestFitEvalPipeline:

    def test_fit_writes_model_and_provenance(self, workspace):
        tmp_path, _, _, model = workspace
        loaded = load_model(model)
        assert loaded.dim == 2
        prov = json.loads((tmp_path / "model.kcef.provenance.json").read_text())
        assert prov["subcommand"] == "fit"

    def test_eval_writes_summary_and_rows(self, workspace):
        tmp_path, train, test, model = workspace
        out = tmp_path / "eval.json"
        assert run(["eval", "--model", model, "--test", test,
                    "--is-samples", 3000, "--seed", 2, "--out", out]) == 0
        summary = json.loads(out.read_text())
        assert set(summary) >= {"mean_loglik", "stderr", "n_test", "per_node"}
        assert np.isfinite(summary["mean_loglik"])
        assert summary["n_test"] == 200
        rows, names = load_csv(tmp_path / "eval.rows.csv")
        assert names == ["loglik"]
        assert rows.shape == (200, 1)

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "5"), ("--dag", "full"), ("--cv", None), ("--folds", "9"),
        ("--lambda-grid", "0.1,1"), ("--scale-grid", "1"), ("--bandwidth-scale", "3"),
        ("--base-std", "7"), ("--prune-threshold", "0.9"), ("--data", "train.csv"),
        ("--curve", None),
    ])
    def test_eval_without_curve_refuses_a_fit_option(self, workspace, capsys,
                                                     flag, value):
        """eval fits nothing, so it takes no fit option, no training data
        and no --curve (the learning curve is its own command): each is a
        usage error that names the flag and writes nothing.  --seed seeds
        the IS draws and stays valid."""
        tmp_path, _, test, model = workspace
        out = tmp_path / f"eval{flag}.json"
        argv = ["eval", "--model", model, "--test", test, "--is-samples", 300,
                "--seed", 1, "--out", out]
        capsys.readouterr()
        assert run(argv + [flag] + ([value] if value else [])) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()
        assert run(argv) == 0

    def test_eval_reports_each_nodes_largest_is_std_err(self, workspace):
        tmp_path, _, test, model = workspace
        out = tmp_path / "eval_stats.json"
        assert run(["eval", "--model", model, "--test", test,
                    "--is-samples", 3000, "--seed", 2, "--out", out]) == 0
        per_node = json.loads(out.read_text())["per_node"]
        rows, _ = load_csv(test)
        _, _, stats = evaluation.test_loglik(load_model(model), rows, is_samples=3000,
                                             seed=2, return_stats=True)
        assert [e["max_is_std_err"] for e in per_node] == [
            float(np.max(s["is_std_err"])) for s in stats["per_node"]]
        assert all(0.0 < e["max_is_std_err"] < 1.0 for e in per_node)

    def test_train_vs_heldout_sanity(self, workspace):
        tmp_path, train, test, model = workspace
        out_tr = tmp_path / "eval_train.json"
        out_te = tmp_path / "eval_test.json"
        run(["eval", "--model", model, "--test", train, "--is-samples", 3000,
             "--seed", 2, "--out", out_tr])
        run(["eval", "--model", model, "--test", test, "--is-samples", 3000,
             "--seed", 2, "--out", out_te])
        mean_tr = json.loads(out_tr.read_text())["mean_loglik"]
        mean_te = json.loads(out_te.read_text())["mean_loglik"]
        if mean_te > mean_tr + 0.1:
            warnings.warn(
                f"held-out log-likelihood {mean_te:.4f} exceeds training "
                f"{mean_tr:.4f} by more than 0.1 nats"
            )

    def test_sample_subcommand(self, workspace):
        tmp_path, _, _, model = workspace
        out = tmp_path / "samples.csv"
        assert run(["sample", "--model", model, "--n", 40, "--seed", 4,
                    "--burn-in", 20, "--out", out]) == 0
        values, names = load_csv(out)
        assert values.shape == (40, 2)
        assert names == ["x0", "x1"]

    def test_sample_without_hmc_flags_runs_grid_sampler(self, workspace):
        tmp_path, _, _, model = workspace
        out = tmp_path / "grid_samples.csv"
        assert run(["sample", "--model", model, "--n", 30, "--seed", 4,
                    "--out", out]) == 0
        values, _ = load_csv(out)
        expect = ancestral_sample(load_model(model), 30, GridSamplerConfig(seed=4))
        np.testing.assert_array_equal(values, expect)
        diagnostics = json.loads((tmp_path / "grid_samples.diagnostics.json").read_text())
        assert diagnostics["sampler"] == "grid"
        for node, entry in enumerate(diagnostics["per_node"]):
            assert entry["node"] == node
            assert entry["grid_nodes"] % 2 == 1
            assert 0.0 < entry["spacing"]
            assert 0.0 <= entry["max_log_z_gap"] < 1e-3

    def test_sample_hmc_flag_keeps_hmc_route(self, workspace):
        tmp_path, _, _, model = workspace
        out = tmp_path / "hmc_samples.csv"
        assert run(["sample", "--model", model, "--n", 10, "--seed", 4,
                    "--burn-in", 5, "--out", out]) == 0
        values, _ = load_csv(out)
        expect, stats = ancestral_sample(load_model(model), 10,
                                         HmcConfig(seed=4, burn_in=5),
                                         return_stats=True)
        np.testing.assert_array_equal(values, expect)
        diagnostics = json.loads((tmp_path / "hmc_samples.diagnostics.json").read_text())
        assert diagnostics == stats
        assert diagnostics["sampler"] == "hmc"
        assert [e["node"] for e in diagnostics["per_node"]] == [0, 1]
        assert all(0.0 < e["accept_rate"] <= 1.0 for e in diagnostics["per_node"])

    def test_infinite_log_z_gap_writes_strict_json(self, workspace, monkeypatch):
        tmp_path, _, _, model = workspace
        real = sampling._grid_pass

        def gapless(factor, *args, **kwargs):
            draws, log_z, gap, grid = real(factor, *args, **kwargs)
            return draws, log_z, np.full_like(gap, np.inf), grid

        monkeypatch.setattr(sampling, "_grid_pass", gapless)
        assert run(["sample", "--model", model, "--n", 5,
                    "--out", tmp_path / "gapless.csv"]) == 0
        text = (tmp_path / "gapless.diagnostics.json").read_text()

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        diagnostics = json.loads(text, parse_constant=reject)
        assert [e["max_log_z_gap"] for e in diagnostics["per_node"]] == [None, None]

    def test_grid_too_large_for_memory_is_data_error(self, workspace, capsys,
                                                    monkeypatch):
        tmp_path, _, _, model = workspace
        monkeypatch.setattr(score_fit, "_physical_memory_bytes", lambda: 1024)
        capsys.readouterr()
        assert run(["sample", "--model", model, "--n", 5,
                    "--out", tmp_path / "big.csv"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert "--burn-in" in error["message"]
        assert not (tmp_path / "big.csv").exists()
        assert run(["sample", "--model", model, "--n", 5, "--burn-in", 5,
                    "--out", tmp_path / "big.csv"]) == 0

    def test_hmc_that_accepts_nothing_is_numerical_error(self, workspace):
        """At --step-size 1e300 every leapfrog trajectory overflows and every
        proposal is rejected, so each row would be its chain's first
        base-density draw.  In a fresh process the command exits 3 with one
        typed error line that names the step size, writes no sample file,
        and lets no traceback or numpy RuntimeWarning reach stderr."""
        tmp_path, _, _, model = workspace
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "rejected.csv"
        code = "import sys; from kexpfam.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "sample", "--model", str(model), "--n", "5",
             "--burn-in", "2", "--step-size", "1e300", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert done.returncode == 3
        [line] = done.stderr.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "numerical"
        assert "step size 1e+300" in error["message"]
        assert not out.exists()

    def test_is_too_large_for_memory_is_data_error(self, workspace, capsys,
                                                   monkeypatch):
        """IS's pre-flight names its distinct rows and the GiB they need,
        where the allocation itself would end in the generic out-of-memory
        branch."""
        tmp_path, _, test, model = workspace
        monkeypatch.setattr(score_fit, "_physical_memory_bytes", lambda: 1024)
        capsys.readouterr()
        assert run(["eval", "--model", model, "--test", test, "--is-samples", 200,
                    "--out", tmp_path / "big.json"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert "the natural parameter for" in error["message"]
        assert "distinct rows" in error["message"] and "GiB" in error["message"]
        assert not (tmp_path / "big.json").exists()

    def test_score_subcommand(self, workspace):
        tmp_path, _, test, model = workspace
        out = tmp_path / "score.json"
        assert run(["score", "--model", model, "--data", test,
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["per_node"]) == 2
        assert payload["total"] == pytest.approx(
            sum(e["score"] for e in payload["per_node"])
        )

    def test_inputs_never_mutated(self, tmp_path):
        train = gen_grid(tmp_path, "imm.csv", n=80, seed=2)
        before = train.read_bytes()
        assert run(["fit", "--data", train, "--dag", "markov",
                    "--lambda", 0.01, "--out-model", tmp_path / "imm.kcef"]) == 0
        assert train.read_bytes() == before

    def test_fit_with_cv_writes_table(self, tmp_path, capsys):
        train = gen_grid(tmp_path, "cv_train.csv", n=120, seed=3)
        model = tmp_path / "cv_model.kcef"
        capsys.readouterr()
        code = run(["fit", "--data", train, "--dag", "markov", "--cv",
                    "--folds", 3, "--lambda-grid", "0.01,0.1",
                    "--scale-grid", "1,2", "--out-model", model])
        assert code == 0
        table, names = load_csv(tmp_path / "cv_model.cv.csv")
        assert names == ["node", "lambda", "scale", "mean_score"]
        assert table.shape == (8, 4)  # 2 nodes x 4 grid points
        # on a two-point grid every pick lies on the edge: one note per node
        notes = capsys.readouterr().err.splitlines()
        assert len(notes) == 2
        assert all("edge of the CV grid" in line for line in notes)

    def test_fit_cv_too_large_for_memory_is_data_error(self, tmp_path, capsys,
                                                       monkeypatch):
        train = gen_grid(tmp_path, "cv_big.csv", n=60, seed=3)
        monkeypatch.setattr(score_fit, "_physical_memory_bytes", lambda: 1024)
        capsys.readouterr()
        assert run(["fit", "--data", train, "--cv", "--folds", 3,
                    "--lambda-grid", "0.01,0.1", "--scale-grid", "1",
                    "--out-model", tmp_path / "cv_big.kcef"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert "GiB" in error["message"]

    def test_fit_requires_lambda_or_cv(self, tmp_path):
        train = gen_grid(tmp_path, "nolam.csv", n=60, seed=3)
        assert run(["fit", "--data", train,
                    "--out-model", tmp_path / "m.kcef"]) == 1

    @pytest.mark.parametrize("threshold", ["-1", "nan"])
    def test_prune_threshold_outside_unit_interval_is_data_error(
            self, tmp_path, capsys, threshold):
        """-1 would drop every column but the first and nan none; both are
        refused before anything is written."""
        train = gen_grid(tmp_path, "prune.csv", n=60, seed=3)
        capsys.readouterr()
        assert run(["fit", "--data", train, "--lambda", 0.01,
                    "--prune-threshold", threshold,
                    "--out-model", tmp_path / "m.kcef"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert "prune threshold" in error["message"]
        assert not list(tmp_path.glob("m.*"))

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_bandwidth_scale_is_data_error(self, tmp_path, capsys, scale):
        """The scale is refused as such before any node is fitted."""
        train = gen_grid(tmp_path, "scale.csv", n=60, seed=3)
        capsys.readouterr()
        assert run(["fit", "--data", train, "--lambda", 0.01,
                    "--bandwidth-scale", scale,
                    "--out-model", tmp_path / "m.kcef"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert error["message"].startswith("bandwidth scale must be positive and finite")
        assert not list(tmp_path.glob("m.*"))

    def test_custom_dag(self, tmp_path):
        train = gen_grid(tmp_path, "dag3.csv", n=80, dim=3, seed=5)
        model = tmp_path / "dag3.kcef"
        assert run(["fit", "--data", train, "--dag", "custom:[[],[0],[0]]",
                    "--lambda", 0.01, "--out-model", model]) == 0
        assert load_model(model).dag.parents == ((), (0,), (0,))


class TestColumnsByName:
    """eval, score and curve take the model's columns from a CSV by header
    name: extra columns are ignored, and a missing one is a data error."""

    def test_pruned_model_evaluates_its_original_csv(self, tmp_path, capsys):
        train = gen_grid(tmp_path, "train.csv", n=200, dim=3, seed=0)
        test = gen_grid(tmp_path, "test.csv", n=50, dim=3, seed=1)
        model = tmp_path / "pruned.kcef"
        capsys.readouterr()
        assert run(["fit", "--data", train, "--lambda", 0.01, "--prune-threshold", 0,
                    "--out-model", model]) == 0
        assert "pruned correlated columns: x1, x2" in capsys.readouterr().out
        assert load_model(model).column_names == ("x0",)
        assert run(["eval", "--model", model, "--test", test, "--is-samples", 200,
                    "--out", tmp_path / "eval.json"]) == 0
        assert run(["score", "--model", model, "--data", test,
                    "--out", tmp_path / "score.json"]) == 0
        assert run(["curve", "--data", train, "--test", test, "--lambda", 0.01,
                    "--prune-threshold", 0, "--is-samples", 200,
                    "--out", tmp_path / "curve.csv"]) == 0

    def test_extra_and_reordered_columns_change_no_byte(self, workspace):
        tmp_path, _, test, model = workspace
        values, names = load_csv(test)
        shuffled = tmp_path / "shuffled.csv"
        save_csv(shuffled, np.column_stack([values[:, 1], np.ones(len(values)),
                                            values[:, 0]]),
                 [names[1], "extra", names[0]])
        for name, data in (("plain", test), ("shuffled", shuffled)):
            assert run(["eval", "--model", model, "--test", data, "--is-samples", 300,
                        "--out", tmp_path / f"{name}.json"]) == 0
            assert run(["score", "--model", model, "--data", data,
                        "--out", tmp_path / f"{name}_score.json"]) == 0
        assert ((tmp_path / "plain.rows.csv").read_bytes()
                == (tmp_path / "shuffled.rows.csv").read_bytes())
        assert ((tmp_path / "plain_score.json").read_bytes()
                == (tmp_path / "shuffled_score.json").read_bytes())

    @pytest.mark.parametrize("header", ["x0,y", "x0,x1,x1"])
    def test_a_missing_or_repeated_column_is_a_data_error(self, workspace, capsys,
                                                          header):
        tmp_path, _, _, model = workspace
        data = tmp_path / "bad_columns.csv"
        data.write_text(header + "\n" + ",".join(["0.5"] * header.count(",")) + ",0.5\n")
        for command in (["eval", "--model", model, "--test", data],
                        ["score", "--model", model, "--data", data]):
            capsys.readouterr()
            assert run([*command, "--out", tmp_path / "bad.json"]) == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["type"] == "data" and "'x1'" in error["message"]
        assert not (tmp_path / "bad.json").exists()


class TestCurve:
    def test_curve_emits_table(self, tmp_path):
        train = gen_grid(tmp_path, "curve_train.csv", n=600, dim=2, seed=0)
        test = gen_grid(tmp_path, "curve_test.csv", n=150, dim=2, seed=1)
        out = tmp_path / "curve.csv"
        code = run(["curve", "--data", train, "--test", test,
                    "--dag", "markov", "--lambda", 0.003,
                    "--is-samples", 2000, "--seed", 0, "--out", out])
        assert code == 0
        table, names = load_csv(out)
        assert names == ["n_train", "mean_loglik", "stderr"]
        # 600 training rows cover the 200 and 500 sizes
        np.testing.assert_array_equal(table[:, 0], [200, 500])

    def test_curve_single_test_row_has_zero_stderr(self, tmp_path):
        train = gen_grid(tmp_path, "curve_train.csv", n=200, dim=2, seed=0)
        test = tmp_path / "one_row.csv"
        test.write_text("x0,x1\n0.3,0.6\n")
        out = tmp_path / "curve.csv"
        code = run(["curve", "--data", train, "--test", test,
                    "--dag", "markov", "--lambda", 0.01,
                    "--is-samples", 500, "--seed", 0, "--out", out])
        assert code == 0
        table, _ = load_csv(out)
        np.testing.assert_array_equal(table[:, 2], [0.0])

    def test_curve_requires_training_data(self, tmp_path):
        test = gen_grid(tmp_path, "t.csv", n=50, seed=1)
        assert run(["curve", "--test", test, "--lambda", 0.01,
                    "--out", tmp_path / "c.csv"]) == 1

    def test_curve_fits_subsets_of_the_raw_rows(self, tmp_path, monkeypatch):
        """Each refit gets its subset of the CSV's own rows, standardized,
        bit for bit: no round trip through the whole set's standardization."""
        train = gen_grid(tmp_path, "curve_train.csv", n=500, dim=2, seed=0)
        test = gen_grid(tmp_path, "curve_test.csv", n=20, dim=2, seed=1)
        received = []

        def capture(dataset, *args):
            received.append(dataset)
            return fit_joint(dataset, *args)

        monkeypatch.setattr(cli, "fit_joint", capture)
        assert run(["curve", "--data", train, "--test", test, "--lambda", 0.01,
                    "--is-samples", 50, "--seed", 3, "--out", tmp_path / "c.csv"]) == 0
        raw, names = load_csv(train)
        order = np.random.default_rng(3).permutation(len(raw))
        assert [d.n for d in received] == [200, 500]
        for dataset in received:
            expect = standardize(raw[order[:dataset.n]], names)
            for field in ("values", "column_means", "column_stds"):
                assert getattr(dataset, field).tobytes() == \
                    getattr(expect, field).tobytes()

    def test_curve_needs_the_smallest_size_of_rows(self, tmp_path, capsys,
                                                   monkeypatch):
        train = gen_grid(tmp_path, "small.csv", n=120, seed=0)
        test = gen_grid(tmp_path, "t.csv", n=20, seed=1)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran on too few rows")

        monkeypatch.setattr(cli, "fit_joint", no_fit)
        capsys.readouterr()
        assert run(["curve", "--data", train, "--test", test, "--lambda", 0.01,
                    "--out", tmp_path / "c.csv"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "data", "message":
                         "curve needs at least 200 training rows, got 120"}
        assert not (tmp_path / "c.csv").exists()


class TestFitOptions:
    # (mode, flag, value) for each flag that the mode does not read
    UNREAD = (("--lambda", "--folds", "3"), ("--lambda", "--lambda-grid", "0.1"),
              ("--lambda", "--scale-grid", "1"), ("--lambda", "--seed", "5"),
              ("--cv", "--bandwidth-scale", "2"))

    def test_fit_and_eval_share_defaults_from_cv_config(self, tmp_path, monkeypatch):
        """Default fit --cv and curve --cv search exactly CvConfig()'s grids,
        folds and seed, as the library does."""
        train = gen_grid(tmp_path, "d.csv", n=200, seed=0)
        configs = []

        def capture(dataset, dag, config, base):
            configs.append(config)
            raise DataError("stop after the config")

        monkeypatch.setattr(cli, "cross_validate", capture)
        assert run(["fit", "--data", train, "--cv",
                    "--out-model", tmp_path / "m.kcef"]) == 2
        assert run(["curve", "--data", train, "--test", train, "--cv",
                    "--out", tmp_path / "c.csv"]) == 2
        assert configs == [CvConfig(), CvConfig()]

    @pytest.mark.parametrize("command, mode, flag, value", [
        (command, *case) for case in UNREAD for command in ("fit", "curve")
        if (command, case[1]) != ("curve", "--seed")])
    def test_a_flag_the_mode_does_not_read_is_a_usage_error(
            self, workspace, capsys, command, mode, flag, value):
        """--lambda reads no CV flag and --cv no --bandwidth-scale.  (curve's
        --seed also seeds the subsets and the IS draws, so it is read in
        both modes; TestCurve passes it with --lambda.)"""
        tmp_path, train, test, _ = workspace
        out = tmp_path / f"unread{command}{mode}{flag}.out"
        argv = ([command, "--data", train]
                + (["--test", test, "--is-samples", 50, "--out", out]
                   if command == "curve" else ["--out-model", out])
                + ([mode, "0.01"] if mode == "--lambda" else [mode])
                + [flag, value])
        capsys.readouterr()
        assert run(argv) == 1
        assert f"{flag} is not read with {mode}" in capsys.readouterr().err
        assert list(tmp_path.glob(out.stem + "*")) == []

    @pytest.mark.parametrize("mode, flag, value", [
        ("lambda", "--dag", "full"),
        ("lambda", "--lambda", "0.1"),
        ("lambda", "--bandwidth-scale", "2"),
        ("lambda", "--base-std", "3"),
        ("lambda", "--prune-threshold", "0"),
        ("cv", "--dag", "full"),
        ("cv", "--folds", "3"),
        ("cv", "--lambda-grid", "0.01,0.2"),
        ("cv", "--scale-grid", "2"),
        ("cv", "--seed", "4"),
        ("cv", "--base-std", "3"),
        ("cv", "--prune-threshold", "0"),
    ])
    def test_every_fit_flag_changes_a_result(self, tmp_path, mode, flag, value):
        """Each flag that a way of fitting takes moves the archive or the
        .cv.csv away from the outputs of the same argv without it."""
        train = gen_grid(tmp_path, "d.csv", n=80, dim=3, seed=2)
        how = {"lambda": ["--lambda", "0.01"],
               "cv": ["--cv", "--folds", "2", "--lambda-grid", "0.01,0.1",
                      "--scale-grid", "1"]}[mode]

        def outputs(extra, name):
            model = tmp_path / f"{name}.kcef"
            assert run(["fit", "--data", train] + how + extra
                       + ["--out-model", model]) == 0
            table = tmp_path / f"{name}.cv.csv"
            return model.read_bytes(), table.exists() and table.read_bytes()

        # the flag's later occurrence wins over the base argv's
        assert outputs([flag, value], "flagged") != outputs([], "base")

    @pytest.mark.parametrize("flag, value, field, expect", [
        ("--step-size", "0.05", "step_size", 0.05),
        ("--leapfrog-steps", "7", "leapfrog_steps", 7),
        ("--burn-in", "3", "burn_in", 3),
        ("--thin", "2", "thin", 2),
    ])
    def test_each_hmc_flag_alone_selects_hmc(self, flag, value, field, expect):
        parser = cli.build_parser()
        argv = ["sample", "--model", "m.kcef", "--n", "5", "--seed", "9",
                "--out", "s.csv"]
        assert cli._sampler_config(parser.parse_args(argv)) == \
            GridSamplerConfig(seed=9)
        config = cli._sampler_config(parser.parse_args(argv + [flag, value]))
        assert config == dataclasses.replace(HmcConfig(seed=9), **{field: expect})

    @pytest.mark.parametrize("argv", [
        ["sample", "--model", "m.kcef", "--n", "5", "--chains", "4", "--out", "s.csv"],
        ["eval", "--model", "m.kcef", "--test", "t.csv", "--per-row", "x.csv",
         "--out", "e.json"],
        ["fit", "--data", "d.csv", "--cv", "--cv-seed", "1", "--out-model", "m.kcef"],
        ["curve", "--data", "d.csv", "--test", "t.csv", "--cv",
         "--cv-seed", "1", "--out", "c.csv"],
        ["fit", "--data", "d.csv", "--cv", "--lambda", "0.1", "--out-model", "m.kcef"],
        ["eval", "--curve", "--data", "d.csv", "--test", "t.csv", "--lambda", "0.01",
         "--out", "c.csv"],
    ], ids=["sample-chains", "eval-per-row", "fit-cv-seed", "curve-cv-seed",
            "fit-cv-lambda", "eval-curve"])
    def test_removed_flags_are_usage_errors(self, argv):
        """Ancestral HMC runs one chain per row, the per-row CSV is always
        the summary's .rows.csv sidecar, --seed seeds the CV split, --cv
        picks the lambda that --lambda would fix and the learning curve is
        the curve command, so these flags and combinations are gone."""
        assert run(argv) == 1

    def test_fit_seed_seeds_the_cv_split(self, tmp_path):
        train = gen_grid(tmp_path, "cv_seed.csv", n=120, seed=3)
        grids = {"lambda_grid": (0.001, 0.01, 0.1), "bandwidth_scale_grid": (0.5, 1.0, 2.0)}
        values, names = load_csv(train)
        tables = {}
        for seed in (0, 3):
            model = tmp_path / f"cv{seed}.kcef"
            assert run(["fit", "--data", train, "--cv", "--folds", 3,
                        "--lambda-grid", "0.001,0.01,0.1", "--scale-grid", "0.5,1,2",
                        "--seed", seed, "--out-model", model]) == 0
            expect = evaluation.cross_validate(
                standardize(values, names), make_dag("markov", 2),
                CvConfig(folds=3, seed=seed, **grids))
            tables[seed], _ = load_csv(tmp_path / f"cv{seed}.cv.csv")
            assert np.array_equal(tables[seed], [[r.node, c.lam, c.scale, c.mean_score]
                                                 for r in expect.nodes for c in r.table])
            fitted = load_model(model)
            assert [f.lam for f in fitted.factors] == [r.best_lam for r in expect.nodes]
        assert not np.array_equal(tables[0], tables[3])


class TestEveryFlag:
    # flags that name a file to read or write
    PATHS = {"--data", "--test", "--model", "--out", "--out-model"}
    # TestFitOptions.test_every_fit_flag_changes_a_result varies the options
    # that fit and curve share and fit's --seed; --cv and --lambda are the
    # two ways of fitting, of which every fit takes one
    FIT_OPTIONS = {"--dag", "--lambda", "--cv", "--base-std", "--prune-threshold",
                   "--bandwidth-scale", "--folds", "--lambda-grid", "--scale-grid"}
    COVERED = {"fit": FIT_OPTIONS | {"--seed"}, "curve": FIT_OPTIONS}
    # per command, the argv that each flag is added to (paths aside) and
    # each flag's second value, other than the argv's or the flag's default
    TABLE = {
        "gen-grid": (["--dim", "2", "--n", "30"],
                     {"--dim": "3", "--n": "40", "--weights": "2,1",
                      "--support": "0,2", "--seed": "1"}),
        "eval": (["--model", "{model}", "--test", "{test}", "--is-samples", "200"],
                 {"--is-samples": "300", "--seed": "1"}),
        "curve": (["--data", "{train}", "--test", "{test}", "--lambda", "0.01",
                   "--is-samples", "200"],
                  {"--is-samples": "300", "--seed": "1"}),
        "sample": (["--model", "{model}", "--n", "5", "--burn-in", "2"],
                   {"--n": "6", "--step-size": "0.05", "--leapfrog-steps": "7",
                    "--burn-in": "3", "--thin": "2", "--seed": "1"}),
        "diverge": (["--samples", "2000"], {"--samples": "3000", "--seed": "1"}),
    }

    def test_every_flag_changes_an_output(self, workspace):
        """Each flag of each command, beside paths and the fit flags, has a
        second value in TABLE, and that value changes an output file
        (provenance aside); a flag whose choices allow one value can change
        nothing."""
        tmp_path, train, test, model = workspace
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        flags = [(command, action.option_strings[-1], action.choices)
                 for command, parser in commands.items() for action in parser._actions
                 if not isinstance(action, argparse._HelpAction)]
        flags = [(command, flag, choices) for command, flag, choices in flags
                 if flag not in self.PATHS | self.COVERED.get(command, set())]
        missing = [f"{command} {flag}" for command, flag, _ in flags
                   if flag not in self.TABLE.get(command, ((), {}))[1]]
        single = [f"{command} {flag}" for command, flag, choices in flags
                  if choices is not None and len(choices) < 2]
        assert (missing, single) == ([], [])

        def outputs(command, argv, name):
            where = tmp_path / "every_flag" / f"{command}{name}"
            where.mkdir(parents=True)
            argv = [a.format(model=model, test=test, train=train) for a in argv]
            assert run([command, *argv, "--out", where / "out"]) == 0, (command, argv)
            return {p.name: p.read_bytes() for p in where.iterdir()
                    if not p.name.endswith(".provenance.json")}

        unchanged = []
        for command, (base, second) in self.TABLE.items():
            before = outputs(command, base, "")
            for flag, value in second.items():
                # the flag's later occurrence wins over the base argv's
                if outputs(command, base + [flag, value], flag) == before:
                    unchanged.append(f"{command} {flag} {value}")
        assert unchanged == []


class TestDiverge:
    def test_demo_reports_degeneracy(self, tmp_path, capsys):
        out = tmp_path / "div.json"
        assert run(["diverge", "--samples", 20000, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "divergence" in captured
        payload = json.loads(out.read_text())
        assert payload["fisher_divergence"] < 1e-12
        assert payload["tv_distance"] > 0.4

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_sample_is_data_error(self, tmp_path, capsys, samples):
        """No NaN divergence (not strict JSON) and no numpy traceback: a
        typed error, and no file."""
        out = tmp_path / "div.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["diverge", "--samples", samples, "--out", out]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data" and "at least 1 sample" in error["message"]
        assert not out.exists()

    def test_demo_flag_is_usage_error(self, capsys):
        """diverge runs its one demo, so --demo, which could name only that
        one, is gone."""
        assert run(["diverge", "--demo", "appendix-d"]) == 1
        assert "--demo" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error(self):
        assert run([]) == 1
        assert run(["gen-grid", "--bogus-flag", "1"]) == 1

    def test_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n")
        assert run(["fit", "--data", bad, "--lambda", 0.1,
                    "--out-model", tmp_path / "m.kcef"]) == 2

    def test_non_utf8_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe\x00a\x00,\x00b\x00\n")
        capsys.readouterr()
        assert run(["fit", "--data", bad, "--lambda", 0.1,
                    "--out-model", tmp_path / "m.kcef"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert "utf16.csv" in error["message"]

    @pytest.mark.parametrize("callee, argv", [
        ("rejection_sample_grid", ["gen-grid", "--dim", 3, "--n", 100_000_000_000]),
        ("ancestral_sample", ["sample", "--model", "{model}", "--n", 10**12]),
        ("test_loglik", ["eval", "--model", "{model}", "--test", "{test}",
                         "--is-samples", 100_000_000_000]),
    ], ids=["gen-grid", "sample", "eval"])
    def test_allocation_failure_is_data_error(self, workspace, capsys, monkeypatch,
                                              callee, argv):
        """A MemoryError that no pre-flight foresaw is a data error (exit 2).
        The callee raises it at once, so nothing large is allocated."""
        tmp_path, _, test, model = workspace

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, callee, out_of_memory)
        argv = [str(a).format(model=model, test=test) for a in argv]
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "big.out"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "data", "message":
                         "out of memory: Unable to allocate 745. GiB for an array"}
        assert not (tmp_path / "big.out").exists()

    def test_io_error_missing_file(self, tmp_path):
        assert run(["fit", "--data", tmp_path / "absent.csv", "--lambda", 0.1,
                    "--out-model", tmp_path / "m.kcef"]) == 4

    def test_numerical_error(self, tmp_path, monkeypatch):
        train = gen_grid(tmp_path, "n.csv", n=60, seed=3)
        model = tmp_path / "m.kcef"
        assert run(["fit", "--data", train, "--lambda", 0.01,
                    "--out-model", model]) == 0
        from kexpfam.errors import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("simulated blow-up")

        monkeypatch.setattr(cli, "ancestral_sample", explode)
        assert run(["sample", "--model", model, "--n", 5,
                    "--out", tmp_path / "s.csv"]) == 3

    @pytest.mark.parametrize("lam", ["1e-320", "5e-324", "1e308"])
    def test_overflowing_lambda_is_numerical_error(self, tmp_path, capsys, lam):
        """h / lambda (small lambda) or the ridge n * lambda (large lambda)
        overflows; the fit exits 3 with one typed error line, not with
        scipy's ValueError traceback."""
        train = gen_grid(tmp_path, "t.csv", n=60, seed=0)
        capsys.readouterr()
        assert run(["fit", "--data", train, "--dag", "markov", "--lambda", lam,
                    "--out-model", tmp_path / "m.kcef"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "numerical"
        assert "overflows" in error["message"]
        assert not (tmp_path / "m.kcef").exists()

    def test_cv_with_an_overflowing_lambda_scores_infinity(self, tmp_path):
        train = gen_grid(tmp_path, "t.csv", n=60, seed=0)
        assert run(["fit", "--data", train, "--dag", "markov", "--cv",
                    "--folds", 2, "--lambda-grid", "1e-320,1e308,0.01",
                    "--scale-grid", 1, "--out-model", tmp_path / "cv.kcef"]) == 0
        rows = (tmp_path / "cv.cv.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        assert len(cells) == 6  # 2 nodes x 3 lambdas
        assert all((float(lam) != 0.01) == (score == "inf")
                   for _, lam, _, score in cells)

    def test_fit_too_large_for_memory_is_data_error(self, tmp_path, capsys,
                                                    monkeypatch):
        train = gen_grid(tmp_path, "t.csv", n=60, seed=3)
        monkeypatch.setattr(score_fit, "_physical_memory_bytes", lambda: 1024)
        capsys.readouterr()
        assert run(["fit", "--data", train, "--lambda", 0.01,
                    "--out-model", tmp_path / "m.kcef"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "data"
        assert "GiB" in error["message"]
        assert not (tmp_path / "m.kcef").exists()

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("standardization"),
        lambda meta: meta["factors"][0]["beta"].update(offset=10**9),
    ], ids=["missing_key", "offset_out_of_range"])
    def test_schema_invalid_archive_is_data_error(self, tmp_path, capsys, edit):
        train = gen_grid(tmp_path, "s.csv", n=60, seed=3)
        model = tmp_path / "m.kcef"
        assert run(["fit", "--data", train, "--lambda", 0.01,
                    "--out-model", model]) == 0
        # rewrite the metadata and re-seal it, so the checksum still holds
        blob = model.read_bytes()
        (meta_len,) = struct.unpack("<Q", blob[8:16])
        meta = json.loads(blob[16:16 + meta_len])
        edit(meta)
        meta_bytes = json.dumps(meta, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        body = (blob[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes
                + blob[16 + meta_len:-32])
        model.write_bytes(body + hashlib.sha256(body).digest())
        capsys.readouterr()
        assert run(["eval", "--model", model, "--test", train,
                    "--is-samples", 100, "--out", tmp_path / "e.json"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "data"

    @pytest.mark.parametrize("flag, text", [
        ("--dag", "custom:[1,2,3]"),
        ("--dag", 'custom:{"a":1}'),
        ("--dag", "custom:[[],[0.7],[1]]"),
        ("--dag", "custom:[[],[true],[1]]"),
        ("--dag", 'custom:[[],["0"],[1]]'),
        ("--weights", "[1,2]"),
        ("--weights", '[["a","b"],[1,2]]'),
    ])
    def test_malformed_json_is_data_error(self, tmp_path, capsys, flag, text):
        if flag == "--dag":
            train = gen_grid(tmp_path, "t.csv", n=40, dim=3, seed=3)
            argv = ["fit", "--data", train, "--dag", text, "--lambda", 0.01,
                    "--out-model", tmp_path / "m.kcef"]
        else:
            argv = ["gen-grid", "--dim", 2, "--n", 10, "--weights", text,
                    "--out", tmp_path / "x.csv"]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "data"

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize("curve", [False, True], ids=["eval", "curve"])
    def test_nonpositive_is_samples_is_data_error(self, workspace, capsys,
                                                  curve, samples):
        tmp_path, train, test, model = workspace
        argv = (["curve", "--data", train, "--lambda", 0.01] if curve
                else ["eval", "--model", model])
        capsys.readouterr()
        assert run(argv + ["--test", test, "--is-samples", samples,
                           "--out", tmp_path / "bad_is.json"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "data", "message": "is_samples must be >= 1"}

    def test_curve_rejects_nonpositive_is_samples_before_fitting(
            self, workspace, monkeypatch):
        tmp_path, train, test, _ = workspace

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before --is-samples was checked")

        monkeypatch.setattr(cli, "fit_joint", no_fit)
        assert run(["curve", "--data", train, "--lambda", 0.01,
                    "--test", test, "--is-samples", 0,
                    "--out", tmp_path / "curve.csv"]) == 2

    def test_threads_is_a_usage_error(self, workspace):
        # CV runs its folds serially; there is no thread-count option
        tmp_path, train, _, _ = workspace
        assert run(["fit", "--data", train, "--cv", "--threads", 2,
                    "--out-model", tmp_path / "cv.kcef"]) == 1
        assert not (tmp_path / "cv.kcef").exists()

    def test_version_flag(self):
        assert run(["--version"]) == 0


class TestProvenanceReplay:
    def replay(self, prov_path, replacements):
        argv = json.loads(prov_path.read_text())["argv"]
        argv = [replacements.get(tok, tok) for tok in argv]
        assert main(argv) == 0

    def test_gen_grid_replay_reproduces_bytes(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        out_a = a_dir / "data.csv"
        assert run(["gen-grid", "--dim", 2, "--n", 200, "--seed", 9,
                    "--out", out_a]) == 0
        self.replay(a_dir / "data.csv.provenance.json",
                    {str(out_a): str(b_dir / "data.csv")})
        assert (a_dir / "data.csv").read_bytes() == \
            (b_dir / "data.csv").read_bytes()
        assert (a_dir / "data.config.json").read_bytes() == \
            (b_dir / "data.config.json").read_bytes()

    def test_fit_and_eval_replay_reproduce_bytes(self, tmp_path):
        train = gen_grid(tmp_path, "train.csv", n=150, seed=0)
        test = gen_grid(tmp_path, "test.csv", n=80, seed=1)
        model_a = tmp_path / "model_a.kcef"
        assert run(["fit", "--data", train, "--dag", "markov",
                    "--lambda", 0.005, "--out-model", model_a]) == 0
        self.replay(tmp_path / "model_a.kcef.provenance.json",
                    {str(model_a): str(tmp_path / "model_b.kcef")})
        assert model_a.read_bytes() == (tmp_path / "model_b.kcef").read_bytes()

        eval_a = tmp_path / "eval_a.json"
        assert run(["eval", "--model", model_a, "--test", test,
                    "--is-samples", 2000, "--seed", 3, "--out", eval_a]) == 0
        self.replay(tmp_path / "eval_a.json.provenance.json",
                    {str(eval_a): str(tmp_path / "eval_b.json")})
        assert eval_a.read_bytes() == (tmp_path / "eval_b.json").read_bytes()
        assert (tmp_path / "eval_a.rows.csv").read_bytes() == \
            (tmp_path / "eval_b.rows.csv").read_bytes()

    def test_sample_replay_reproduces_bytes(self, tmp_path):
        train = gen_grid(tmp_path, "train.csv", n=100, seed=0)
        model = tmp_path / "model.kcef"
        assert run(["fit", "--data", train, "--dag", "markov",
                    "--lambda", 0.005, "--out-model", model]) == 0
        out_a = tmp_path / "samples_a.csv"
        assert run(["sample", "--model", model, "--n", 20, "--seed", 5,
                    "--burn-in", 10, "--out", out_a]) == 0
        self.replay(tmp_path / "samples_a.csv.provenance.json",
                    {str(out_a): str(tmp_path / "samples_b.csv")})
        assert out_a.read_bytes() == (tmp_path / "samples_b.csv").read_bytes()

    @pytest.mark.parametrize("sampler_flags", [["--burn-in", 10], []],
                             ids=["hmc", "grid"])
    def test_sampler_replay_reproduces_bytes(self, tmp_path, sampler_flags):
        train = gen_grid(tmp_path, "train.csv", n=100, seed=0)
        model = tmp_path / "model.kcef"
        assert run(["fit", "--data", train, "--dag", "markov",
                    "--lambda", 0.005, "--out-model", model]) == 0
        out_a = tmp_path / "samples_a.csv"
        assert run(["sample", "--model", model, "--n", 8, "--seed", 5,
                    *sampler_flags, "--out", out_a]) == 0
        self.replay(tmp_path / "samples_a.csv.provenance.json",
                    {str(out_a): str(tmp_path / "samples_b.csv")})
        assert out_a.read_bytes() == (tmp_path / "samples_b.csv").read_bytes()
        assert (tmp_path / "samples_a.diagnostics.json").read_bytes() == \
            (tmp_path / "samples_b.diagnostics.json").read_bytes()
