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

import kexpfam.cli as cli
import kexpfam.evaluation as evaluation
import kexpfam.sampling as sampling
import kexpfam.score_fit as score_fit
from kexpfam.cli import main
from kexpfam.data_io import load_csv, load_model, standardize
from kexpfam.evaluation import CvConfig
from kexpfam.factorization import make_dag
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
            "before = cli._openblas_threads()\n"
            "code = cli.main(['gen-grid', '--dim', '2', '--n', '50', '--out', sys.argv[1]])\n"
            "print(json.dumps([code, before, cli._openblas_threads()]))\n"
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
        monkeypatch.setattr(cli, "_OPENBLAS_LIBS",
                            (("numpy", "libscipy_openblas64_-*", "no_such_{}_threads"),))
        gen_grid(tmp_path)
        prov = json.loads((tmp_path / "data.csv.provenance.json").read_text())
        assert prov["openblas_threads"] == {
            "numpy": "not pinned: no_such_set_threads not found"}

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
        ("--base-std", "7"), ("--prune-threshold", "0.9"),
    ])
    def test_eval_without_curve_refuses_a_fit_option(self, workspace, capsys,
                                                     flag, value):
        """Plain eval fits nothing, so a fit option would change no byte of
        its outputs: a data error that names the flag, before any work.
        --seed seeds the IS draws and stays valid."""
        tmp_path, _, test, model = workspace
        out = tmp_path / f"eval{flag}.json"
        argv = ["eval", "--model", model, "--test", test, "--is-samples", 300,
                "--seed", 1, "--out", out]
        assert run(argv + [flag] + ([value] if value else [])) == 2
        error = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
        assert error["type"] == "data" and flag in error["message"]
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
                    "--out-model", tmp_path / "m.kcef"]) == 2

    def test_custom_dag(self, tmp_path):
        train = gen_grid(tmp_path, "dag3.csv", n=80, dim=3, seed=5)
        model = tmp_path / "dag3.kcef"
        assert run(["fit", "--data", train, "--dag", "custom:[[],[0],[0]]",
                    "--lambda", 0.01, "--out-model", model]) == 0
        assert load_model(model).dag.parents == ((), (0,), (0,))


class TestCurve:
    def test_curve_emits_table(self, tmp_path):
        train = gen_grid(tmp_path, "curve_train.csv", n=600, dim=2, seed=0)
        test = gen_grid(tmp_path, "curve_test.csv", n=150, dim=2, seed=1)
        out = tmp_path / "curve.csv"
        code = run(["eval", "--curve", "--data", train, "--test", test,
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
        code = run(["eval", "--curve", "--data", train, "--test", test,
                    "--dag", "markov", "--lambda", 0.01,
                    "--is-samples", 500, "--seed", 0, "--out", out])
        assert code == 0
        table, _ = load_csv(out)
        np.testing.assert_array_equal(table[:, 2], [0.0])

    def test_curve_requires_training_data(self, tmp_path):
        test = gen_grid(tmp_path, "t.csv", n=50, seed=1)
        assert run(["eval", "--curve", "--test", test, "--lambda", 0.01,
                    "--out", tmp_path / "c.csv"]) == 2


class TestFitOptions:
    FIT_OPTIONS = ("dag", "lam", "bandwidth_scale", "cv", "folds", "lambda_grid",
                   "scale_grid", "seed", "base_std", "prune_threshold")

    def test_fit_and_eval_share_defaults_from_cv_config(self):
        parser = cli.build_parser()
        fit = parser.parse_args(["fit", "--data", "d.csv", "--out-model", "m.kcef"])
        ev = parser.parse_args(["eval", "--test", "t.csv", "--out", "e.json"])
        defaults = {k: getattr(fit, k) for k in self.FIT_OPTIONS}
        assert defaults == {k: getattr(ev, k) for k in self.FIT_OPTIONS}
        config = CvConfig()
        assert cli._parse_float_list(fit.lambda_grid, "--lambda-grid") == \
            pytest.approx(config.lambda_grid, rel=1e-5)
        assert cli._parse_float_list(fit.scale_grid, "--scale-grid") == \
            config.bandwidth_scale_grid
        assert (fit.folds, fit.seed) == (config.folds, config.seed)

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
        ["eval", "--curve", "--data", "d.csv", "--test", "t.csv", "--cv",
         "--cv-seed", "1", "--out", "c.csv"],
    ], ids=["sample-chains", "eval-per-row", "fit-cv-seed", "curve-cv-seed"])
    def test_removed_flags_are_usage_errors(self, argv):
        """Ancestral HMC runs one chain per row, the per-row CSV is always
        the summary's .rows.csv sidecar and --seed seeds the CV split, so
        these flags are gone."""
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


class TestDiverge:
    def test_demo_reports_degeneracy(self, tmp_path, capsys):
        out = tmp_path / "div.json"
        assert run(["diverge", "--demo", "appendix-d", "--samples", 20000,
                    "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "divergence" in captured
        payload = json.loads(out.read_text())
        assert payload["fisher_divergence"] < 1e-12
        assert payload["tv_distance"] > 0.4

    def test_unknown_demo_is_data_error(self):
        assert run(["diverge", "--demo", "unknown"]) == 2


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
        argv = (["eval", "--curve", "--data", train, "--lambda", 0.01] if curve
                else ["eval", "--model", model])
        capsys.readouterr()
        assert run(argv + ["--test", test, "--is-samples", samples,
                           "--out", tmp_path / "bad_is.json"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "data", "message": "num_samples must be >= 1"}

    def test_curve_rejects_nonpositive_is_samples_before_fitting(
            self, workspace, monkeypatch):
        tmp_path, train, test, _ = workspace

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before --is-samples was checked")

        monkeypatch.setattr(cli, "fit_joint", no_fit)
        assert run(["eval", "--curve", "--data", train, "--lambda", 0.01,
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
