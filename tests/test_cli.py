import hashlib
import json
import struct
import warnings

import numpy as np
import pytest

import kexpfam.cli as cli
import kexpfam.score_fit as score_fit
from kexpfam.cli import main
from kexpfam.data_io import load_csv, load_model


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
