import hashlib
import json
import struct

import numpy as np
import pytest

from kexpfam.data_io import (
    ARCHIVE_MAGIC,
    StandardizedDataset,
    load_csv,
    load_model,
    prune_correlated,
    save_csv,
    save_model,
    standardize,
)
from kexpfam.errors import ArchiveError, DataError
from kexpfam import evaluation
from kexpfam.factorization import NodeHyperparams, fit_joint, make_dag
from kexpfam.sampling import GridDatasetConfig, rejection_sample_grid


class TestCsv:
    def test_two_by_two_roundtrip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b\n1,2\n3.5,-4\n")
        values, names = load_csv(path)
        assert names == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.5, -4.0]])

    def test_exact_value_roundtrip(self, tmp_path, rng):
        values = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-8, 8, size=(20, 3))
        path = tmp_path / "exact.csv"
        save_csv(path, values, ["x", "y", "z"])
        loaded, _ = load_csv(path)
        np.testing.assert_array_equal(loaded, values)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"row 3.*'b'"):
            load_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("a,b\n1,\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    @pytest.mark.parametrize("blob", [b"\xff\xfe\x00a\x00,\x00b\x00\n",
                                      b"a,b\n1,2\n3,\xe9\n"],
                             ids=["header", "data_row"])
    def test_non_utf8_file_is_data_error_naming_it(self, tmp_path, blob):
        path = tmp_path / "latin.csv"
        path.write_bytes(blob)
        with pytest.raises(DataError, match="latin.csv: not a UTF-8 text file"):
            load_csv(path)


class TestStandardize:
    def test_two_point_column(self):
        # sample std of {0, 2} with the n-1 denominator is sqrt(2), so the
        # standardized values are +-1/sqrt(2)
        ds = standardize(np.array([[0.0], [2.0]]))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(ds.values, [[-r], [r]], atol=1e-15)
        assert ds.column_stds[0] == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_invariants(self, rng):
        raw = rng.normal(loc=3.0, scale=5.0, size=(100, 4))
        ds = standardize(raw)
        np.testing.assert_allclose(ds.values.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(ds.values.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_destandardize_identity(self, rng):
        raw = rng.normal(size=(50, 3)) * 7 + 2
        ds = standardize(raw)
        np.testing.assert_allclose(ds.values * ds.column_stds + ds.column_means, raw,
                                   atol=1e-12)

    def test_zero_variance_column_named(self):
        raw = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        with pytest.raises(DataError, match="'x1'"):
            standardize(raw)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            standardize(np.array([[1.0, 2.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            standardize(np.array([[1.0], [np.nan]]))


class TestPruneCorrelated:
    def test_drops_duplicate_column(self, rng):
        x = rng.normal(size=100)
        values = np.column_stack([x, x * 2.0 + 1.0, rng.normal(size=100)])
        out, names, dropped = prune_correlated(values, ["a", "b", "c"])
        assert dropped == ["b"]
        assert names == ["a", "c"]
        assert out.shape == (100, 2)

    def test_keeps_uncorrelated(self, rng):
        values = rng.normal(size=(200, 3))
        out, names, dropped = prune_correlated(values, ["a", "b", "c"])
        assert dropped == []
        assert out.shape == (200, 3)

    @pytest.mark.parametrize("threshold", [-1.0, 1.5, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_is_data_error(self, rng, threshold):
        """|correlation| lies in [0, 1], so no other bound means anything:
        -1 would drop every column but the first, and nan none."""
        with pytest.raises(DataError, match="prune threshold"):
            prune_correlated(rng.normal(size=(50, 3)), ["a", "b", "c"], threshold)


@pytest.fixture(scope="module")
def fitted_model():
    raw = rejection_sample_grid(GridDatasetConfig(dim=2, n=120, seed=3))
    ds = standardize(raw)
    return fit_joint(ds, make_dag("markov", 2), NodeHyperparams(lam=0.02))


class TestModelArchive:
    def test_roundtrip_preserves_arrays_bitwise(self, tmp_path, fitted_model):
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        loaded = load_model(path)
        assert loaded.dag.parents == fitted_model.dag.parents
        assert loaded.column_names == fitted_model.column_names
        np.testing.assert_array_equal(loaded.column_means,
                                      fitted_model.column_means)
        for f1, f2 in zip(fitted_model.factors, loaded.factors):
            np.testing.assert_array_equal(f1.beta, f2.beta)
            np.testing.assert_array_equal(f1.x_train, f2.x_train)
            np.testing.assert_array_equal(f1.y_train, f2.y_train)
            assert f1.lam == f2.lam
            assert f1.xi_coeff == f2.xi_coeff

    def test_roundtrip_reproduces_loglik_bitwise(self, tmp_path, fitted_model):
        test_rows = rejection_sample_grid(GridDatasetConfig(dim=2, n=40, seed=8))
        before_mean, before_rows = evaluation.test_loglik(
            fitted_model, test_rows, is_samples=2000, seed=7)
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        loaded = load_model(path)
        after_mean, after_rows = evaluation.test_loglik(
            loaded, test_rows, is_samples=2000, seed=7)
        assert before_mean == after_mean
        np.testing.assert_array_equal(before_rows, after_rows)

    def test_save_is_deterministic(self, tmp_path, fitted_model):
        p1, p2 = tmp_path / "m1.kcef", tmp_path / "m2.kcef"
        save_model(fitted_model, p1)
        save_model(fitted_model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_archive_with_a_provenance_key_still_loads(self, tmp_path, fitted_model):
        """Earlier archives carried a copy of the fit settings under
        "provenance"; the loader never read it, and such an archive loads to
        the same model."""
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        blob = path.read_bytes()
        (meta_len,) = struct.unpack("<Q", blob[8:16])
        meta = json.loads(blob[16:16 + meta_len])
        assert "provenance" not in meta
        meta["provenance"] = {"dag": "markov", "lambda": 0.02, "seed": 0}
        meta_bytes = json.dumps(meta, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        body = (blob[:8] + struct.pack("<Q", len(meta_bytes)) + meta_bytes
                + blob[16 + meta_len:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        loaded = load_model(path)
        assert loaded.dag.parents == fitted_model.dag.parents
        for f1, f2 in zip(fitted_model.factors, loaded.factors):
            assert f1.beta.tobytes() == f2.beta.tobytes()
            assert f1.x_train.tobytes() == f2.x_train.tobytes()
            assert (f1.lam, f1.xi_coeff) == (f2.lam, f2.xi_coeff)

    def test_version_bump_rejected(self, tmp_path, fitted_model):
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="version"):
            load_model(path)

    def test_truncation_detected(self, tmp_path, fitted_model):
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(ArchiveError, match="checksum|truncated"):
            load_model(path)

    def test_corruption_detected(self, tmp_path, fitted_model):
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArchiveError, match="checksum"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "notamodel.kcef"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ArchiveError, match="magic"):
            load_model(path)

    def test_magic_bytes_prefix(self, tmp_path, fitted_model):
        path = tmp_path / "model.kcef"
        save_model(fitted_model, path)
        assert path.read_bytes()[:4] == ARCHIVE_MAGIC


class TestStandardizedDatasetValidation:
    def test_stat_shapes_checked(self):
        with pytest.raises(DataError):
            StandardizedDataset(values=np.zeros((3, 2)), column_means=np.zeros(3),
                                column_stds=np.ones(2), column_names=("a", "b"))

    def test_positive_stds(self):
        with pytest.raises(DataError):
            StandardizedDataset(values=np.zeros((3, 1)), column_means=np.zeros(1),
                                column_stds=np.zeros(1), column_names=("a",))
