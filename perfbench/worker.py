"""One round of a workload, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``, with the round
directory as the working directory and the checkout's ``src`` on
``PYTHONPATH``.  Every stage calls ``kexpfam.cli.main`` with the argv a user
would type, then checks the stage's outputs.  The result JSON holds the
stage timings, check failures, output hashes, quality numbers, the process
peak RSS and, when traced, the raw spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import kexpfam.cli
import numpy as np
import scipy

from spans import Tracer
from workloads import Stage, Workload

# --- output checks ---------------------------------------------------------


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        rows = [line for line in fh if line.strip()]
    values = np.array([[float(v) for v in r.split(",")] for r in rows])
    return values.reshape(len(rows), header.count(",") + 1)


def _grid_log_density(rows) -> float:
    """Exact mean log-density of grid rows: x0 is U(0,1) and each later
    coordinate has density 1 + sin(2 pi x_i) sin(2 pi x_{i-1}) on [0, 1]."""
    s = np.sin(2.0 * np.pi * rows)
    return float(np.mean(np.sum(np.log1p(s[:, 1:] * s[:, :-1]), axis=1)))


def _ks_uniform(column) -> float:
    """Kolmogorov-Smirnov distance between a sample and U(0, 1)."""
    x = np.sort(np.clip(column, 0.0, 1.0))
    n = len(x)
    upper = np.arange(1, n + 1) / n - x
    lower = x - np.arange(n) / n
    return float(max(upper.max(), lower.max()))


def check_stage(stage: Stage) -> tuple[list[str], dict[str, float]]:
    """Return (problems, quality numbers) for a stage that exited 0."""
    problems: list[str] = []
    quality: dict[str, float] = {}
    expect = stage.expect
    argv = list(stage.argv)

    def flag(name):
        return argv[argv.index(name) + 1]

    if stage.check in ("grid", "sample"):
        values = _read_csv(flag("--out"))
        if values.shape != (expect["rows"], expect["cols"]):
            problems.append(f"{flag('--out')} has shape {values.shape}")
        elif not np.all(np.isfinite(values)):
            problems.append(f"{flag('--out')} has non-finite values")
        elif stage.check == "sample":
            quality["sample_ks"] = max(_ks_uniform(values[:, j])
                                       for j in range(values.shape[1]))
    elif stage.check == "model":
        if os.path.getsize(flag("--out-model")) == 0:
            problems.append("model archive is empty")
    elif stage.check == "cv":
        table = _read_csv(flag("--out-model").rsplit(".", 1)[0] + ".cv.csv")
        if table.shape[0] != expect["rows"]:
            problems.append(f"cv table has {table.shape[0]} rows, "
                            f"expected {expect['rows']}")
    elif stage.check == "eval":
        with open(flag("--out"), encoding="utf-8") as fh:
            mean = json.load(fh)["mean_loglik"]
        per_row = _read_csv(flag("--out").rsplit(".", 1)[0] + ".rows.csv")
        if not math.isfinite(mean):
            problems.append(f"mean_loglik is {mean}")
        if per_row.shape[0] != expect["rows"] or not np.all(np.isfinite(per_row)):
            problems.append(f"per-row CSV does not hold {expect['rows']} finite rows")
        if not problems:
            exact = _grid_log_density(_read_csv(flag("--test")))
            quality["loglik_gap_nats"] = exact - mean
    elif stage.check in ("score_train", "score_test"):
        with open(flag("--out"), encoding="utf-8") as fh:
            report = json.load(fh)
        scores = [e["score"] for e in report["per_node"]]
        if not all(math.isfinite(s) for s in scores):
            problems.append(f"non-finite node score in {scores}")
        elif stage.check == "score_train" and any(s > 0 for s in scores):
            problems.append(f"a node's score on its own training rows is > 0: {scores}")
        elif stage.check == "score_test":
            quality["heldout_score"] = float(report["total"])
    else:
        problems.append(f"unknown check {stage.check!r}")
    return problems, quality


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


# --- environment -----------------------------------------------------------


def environment() -> dict:
    """The machine and library versions this round ran on."""
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # differs across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# --- the round -------------------------------------------------------------


def run_round(workload: Workload, seed: int, trace: bool, ready) -> dict:
    """Run every stage of ``workload`` in the current directory.

    ``ready`` is called once set-up is over.  A stage that fails (non-zero
    exit or a failed check) ends the round; later stages are not attempted.
    """
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    stages = []
    quality: dict[str, float] = {}
    set_up = False
    try:
        for template in workload.stages:
            if template.phase != "setup" and not set_up:
                ready()
                set_up = True
            stage = dataclasses.replace(template, argv=tuple(template.command(seed)))
            record = {"name": stage.name, "phase": stage.phase}
            stages.append(record)
            span = tracer.span("cli." + stage.name) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), span:
                    code = kexpfam.cli.main(list(stage.argv))
            except Exception as exc:  # an escaped traceback is a failed call
                traceback.print_exc()
                code = f"{type(exc).__name__}: {exc}"
            record["seconds"] = time.perf_counter() - start
            record["code"] = code
            problems, found = [f"exit code {code}"], {}
            if code == 0:
                try:
                    problems, found = check_stage(stage)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"output check could not read the outputs: {exc!r}"]
            quality.update(found)
            record["problems"] = problems
            record["hashes"] = {path: _sha256(path) for path in stage.outputs}
            if problems:
                break
        if not set_up:
            ready()
    finally:
        if tracer:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "stages": stages,
        "quality": quality,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "process": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                    "minor_faults": usage.ru_minflt},
        "archive_bytes": (os.path.getsize("model.kcef")
                          if os.path.exists("model.kcef") else 0),
        "trace": tracer.dump() if tracer else None,
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    marks = {}

    def ready():
        marks["ready"] = time.monotonic()

    result = run_round(Workload.from_json(spec["workload"]), spec["seed"],
                       spec["trace"], ready)
    result["setup_s"] = marks["ready"] - spec["spawned"]
    result["environment"] = environment()
    result["kexpfam_file"] = kexpfam.__file__
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
