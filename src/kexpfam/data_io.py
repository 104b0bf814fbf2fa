"""Dataset ingestion, standardization, and model persistence.

CSV files are comma-separated UTF-8 with a mandatory header row, '.' decimal
points, and no thousands separators.  The model archive is a single
self-describing container: magic bytes, a format version, a JSON metadata
section, a raw little-endian float64 array section, and a trailing SHA-256
checksum.  Arrays round-trip bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArchiveError, DataError
from .factorization import DagSpec, JointModel, _column_stats
from .kernels import ConstantKernel, GaussianKernelSpec
from .score_fit import BaseDensity, FactorModel

ARCHIVE_MAGIC = b"KCEF"
ARCHIVE_VERSION = 1

_FLOAT_FMT = ".17g"  # decimal formatting that round-trips float64 exactly


@dataclass(frozen=True, eq=False)
class StandardizedDataset:
    """A numeric matrix together with the column statistics that map it back
    to original units (values * std + mean)."""

    values: np.ndarray
    column_means: np.ndarray
    column_stds: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=np.float64)).copy()
        values.flags.writeable = False
        means, stds, names = _column_stats(self.column_means, self.column_stds,
                                           self.column_names, values.shape[1])
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_means", means)
        object.__setattr__(self, "column_stds", stds)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def load_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read a numeric CSV with a header row.

    Any missing, non-numeric, or ragged cell aborts the load with an error
    naming the offending row (1-based file line) and column; a file that is
    not UTF-8 text aborts it with an error naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            names = [c.strip() for c in header]
            if not names or any(not c for c in names):
                raise DataError(f"{path}: header row has empty column names")
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(names):
                    raise DataError(
                        f"{path}: row {line_no} has {len(row)} cells, "
                        f"expected {len(names)}"
                    )
                parsed = []
                for col, cell in zip(names, row):
                    text = cell.strip()
                    try:
                        value = float(text)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {line_no}, column {col!r}: "
                            f"cannot parse {cell!r} as a number"
                        ) from None
                    if not np.isfinite(value):
                        raise DataError(
                            f"{path}: row {line_no}, column {col!r}: "
                            f"non-finite value {cell!r}"
                        )
                    parsed.append(value)
                rows.append(parsed)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), names


def save_csv(path, values: np.ndarray, column_names) -> None:
    """Write a matrix as CSV with full float64 precision."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    names = [str(c) for c in column_names]
    if len(names) != values.shape[1]:
        raise DataError("need one column name per column")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in values:
            writer.writerow([format(v, _FLOAT_FMT) for v in row])


def standardize(raw: np.ndarray, column_names=None) -> StandardizedDataset:
    """Center and rescale every column to mean 0 and (sample) std 1.

    The std uses the n-1 denominator.  A zero-variance column is an error
    (it cannot be rescaled) and is reported by name.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    if raw.shape[0] < 2:
        raise DataError("standardization needs at least two rows")
    if not np.all(np.isfinite(raw)):
        raise DataError("data contains non-finite values")
    names = (tuple(str(c) for c in column_names) if column_names is not None
             else tuple(f"x{i}" for i in range(raw.shape[1])))
    means = raw.mean(axis=0)
    stds = raw.std(axis=0, ddof=1)
    zero = np.nonzero(stds == 0)[0]
    if zero.size:
        raise DataError(f"column {names[zero[0]]!r} has zero variance")
    return StandardizedDataset(
        values=(raw - means) / stds, column_means=means, column_stds=stds,
        column_names=names,
    )


def prune_correlated(values: np.ndarray, column_names,
                     threshold: float = 0.98):
    """Drop one column from every pair with |Pearson correlation| above the
    threshold (the later column goes).  Returns (values, names, dropped).
    A threshold outside [0, 1], or not finite, is a DataError."""
    if not 0.0 <= threshold <= 1.0:
        raise DataError(f"prune threshold must lie in [0, 1], got {threshold}")
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    names = [str(c) for c in column_names]
    corr = np.corrcoef(values, rowvar=False)
    corr = np.atleast_2d(corr)
    keep = []
    dropped = []
    for j in range(values.shape[1]):
        if any(abs(corr[j, k]) > threshold for k in keep):
            dropped.append(names[j])
        else:
            keep.append(j)
    return values[:, keep], [names[j] for j in keep], dropped


# --- model archive ----------------------------------------------------------


class _ArrayPacker:
    def __init__(self):
        self.chunks = []
        self.offset = 0

    def pack(self, arr: np.ndarray) -> dict:
        arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
        ref = {"offset": self.offset, "shape": list(arr.shape)}
        self.chunks.append(arr.tobytes())
        self.offset += arr.size
        return ref

    def payload(self) -> bytes:
        return b"".join(self.chunks)


def _kernel_meta(kernel, packer: _ArrayPacker) -> dict:
    if isinstance(kernel, ConstantKernel):
        return {"type": "constant", "value": kernel.value}
    return {"type": "gaussian", "bandwidths": packer.pack(kernel.bandwidths)}


def save_model(model: JointModel, path) -> None:
    """Write a JointModel archive.

    The file is fully determined by the model: metadata JSON is serialized
    with sorted keys and arrays are stored little-endian, so identical
    models produce identical bytes.
    """
    packer = _ArrayPacker()
    factors = []
    for f in model.factors:
        factors.append({
            "lam": f.lam,
            "xi_coeff": f.xi_coeff,
            "base_std": f.base.std,
            "kernel_x": _kernel_meta(f.kernel_x, packer),
            "kernel_y": _kernel_meta(f.kernel_y, packer),
            "x_train": packer.pack(f.x_train),
            "y_train": packer.pack(f.y_train),
            "beta": packer.pack(f.beta),
        })
    meta = {
        "format_version": ARCHIVE_VERSION,
        "dag": {"node_count": model.dag.node_count,
                "parents": [list(p) for p in model.dag.parents]},
        "columns": list(model.column_names),
        "standardization": {"means": packer.pack(model.column_means),
                            "stds": packer.pack(model.column_stds)},
        "factors": factors,
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = (ARCHIVE_MAGIC + struct.pack("<I", ARCHIVE_VERSION)
            + struct.pack("<Q", len(meta_bytes)) + meta_bytes + packer.payload())
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body + digest)


def _unpack(payload: bytes, ref: dict) -> np.ndarray:
    shape = tuple(int(s) for s in ref["shape"])
    count = int(np.prod(shape)) if shape else 1
    start = int(ref["offset"]) * 8
    if start < 0 or count < 0 or start + count * 8 > len(payload):
        raise ArchiveError(
            f"array at offset {ref['offset']} with shape {list(shape)} "
            f"lies outside the payload"
        )
    arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
    return arr.reshape(shape).astype(np.float64)


def _kernel_from_meta(meta: dict, payload: bytes):
    if meta["type"] == "constant":
        return ConstantKernel(float(meta["value"]))
    if meta["type"] == "gaussian":
        return GaussianKernelSpec(_unpack(payload, meta["bandwidths"]))
    raise ArchiveError(f"unknown kernel type {meta['type']!r}")


def load_model(path) -> JointModel:
    """Read a model archive written by save_model.

    Raises ArchiveError on bad magic, an unsupported format version (no
    silent migration), a checksum mismatch, truncation, or metadata that
    does not describe a valid model (a missing key, a wrong type, an array
    reference outside the payload).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(ARCHIVE_MAGIC) + 4 + 8
    if len(blob) < header + 32:
        raise ArchiveError(f"{path}: archive is truncated")
    if blob[:4] != ARCHIVE_MAGIC:
        raise ArchiveError(f"{path}: not a model archive (bad magic bytes)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != ARCHIVE_VERSION:
        raise ArchiveError(
            f"{path}: format version {version} is not supported "
            f"(this build reads version {ARCHIVE_VERSION})"
        )
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ArchiveError(f"{path}: checksum mismatch (corrupt or truncated file)")
    (meta_len,) = struct.unpack("<Q", blob[8:16])
    meta_start = 16
    if meta_start + meta_len > len(body):
        raise ArchiveError(f"{path}: archive is truncated")
    try:
        meta = json.loads(body[meta_start:meta_start + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError(f"{path}: corrupt metadata section: {exc}") from None
    payload = body[meta_start + meta_len:]
    try:
        return _model_from_meta(meta, payload)
    except KeyError as exc:
        raise ArchiveError(f"{path}: metadata lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"{path}: invalid metadata: {exc}") from None


def _model_from_meta(meta: dict, payload: bytes) -> JointModel:
    dag = DagSpec(node_count=int(meta["dag"]["node_count"]),
                  parents=tuple(tuple(p) for p in meta["dag"]["parents"]))
    factors = []
    for fm in meta["factors"]:
        factors.append(FactorModel(
            x_train=_unpack(payload, fm["x_train"]),
            y_train=_unpack(payload, fm["y_train"]),
            kernel_x=_kernel_from_meta(fm["kernel_x"], payload),
            kernel_y=_kernel_from_meta(fm["kernel_y"], payload),
            lam=float(fm["lam"]),
            beta=_unpack(payload, fm["beta"]),
            base=BaseDensity(std=float(fm["base_std"])),
            xi_coeff=float(fm["xi_coeff"]),
        ))
    return JointModel(
        dag=dag,
        factors=tuple(factors),
        column_means=_unpack(payload, meta["standardization"]["means"]),
        column_stds=_unpack(payload, meta["standardization"]["stds"]),
        column_names=tuple(meta["columns"]),
    )
