"""Benchmark of the kexpfam command line on the grid dataset.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-eval-2k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Closed loop, one client: each round runs a workload's CLI calls one after
another in a fresh process (``worker.py``), so peak RSS and process-global
state such as the partition cache belong to that round only.  Rounds repeat
until ``--seconds`` have passed, and at least twice, because the second
round must reproduce every primary output of the first byte for byte.

With ``--trace 0`` the end-to-end metrics are the medians over rounds.
With ``--trace 1`` one untraced round is followed by one traced round whose
spans give the per-layer metrics; their difference is the trace overhead.
The last line of standard output is one JSON object; the lines before it
print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import HOOKS, summarize
from workloads import WORKLOADS, Workload

# The BLAS thread count moves fit --cv by ~20 % on a 2-CPU machine (19.8-24.6 s
# with OpenBLAS's default of two, 17.4-17.9 s with one), so every commit is
# measured with the same, single thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
MAX_RUN_S = 170.0  # the whole run must end within 180 s
MIB = float(1 << 20)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

TIMED_STAGES = ("fit", "eval", "score", "fit_cv", "sample")
LAYER_SPANS = sorted({h.span for h in HOOKS} | {"sampling.grad_eval"})
COUNTERS = {
    "evaluation.cv.fold_fits": "count",
    "evaluation.cv.failed_fits": "count",
    "evaluation.cv.edge_selections": "count",
    "evaluation.normalizer.unique_rows": "count",
    "score_fit.cross_T_blocks.blocks": "count",
    "score_fit.cross_T.pair_terms": "count",
}
PER_LAYER = {
    **{f"cli.{s}.s": "s" for s in TIMED_STAGES},
    "cli.self_s": "s",
    **{f"{name}.{field}": unit for name in LAYER_SPANS
       for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "score_fit.solve.s": "s",
    "evaluation.normalizer.s": "s",
    "evaluation.cv.point_s": "s",
    "sampling.metropolis.s": "s",
    **COUNTERS,
    "sampling.grad_eval.pair_terms": "count",
    "score_fit.gram_mib": "MiB",
    "score_fit.fit_factor.peak_traced_mib": "MiB",
    "score_fit.peak_over_gram": "ratio",
    "data_io.archive_mib": "MiB",
    "quality.loglik_gap_nats": "nats",
    "quality.heldout_score": "score",
    "quality.sample_ks": "ratio",
    "process.user_s": "s",
    "process.sys_s": "s",
    "process.minor_faults": "count",
    "trace.overhead_s": "s",
    "trace.missing_hooks": "count",
    "trace.spans": "count",
}


# derived from input sizes, not measured
COMPUTED = {"score_fit.cross_T.pair_terms", "sampling.grad_eval.pair_terms",
            "score_fit.gram_mib", "score_fit.peak_over_gram"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# --- rounds ----------------------------------------------------------------


def run_round(root: Path, workdir: Path, workload: Workload, seed: int,
              trace: bool, timeout: float) -> dict:
    workdir.mkdir(parents=True)
    spec = workdir / "spec.json"
    result = workdir / "result.json"
    pythonpath = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, **BLAS_ENV, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(pythonpath)}
    spawned = time.monotonic()
    spec.write_text(json.dumps({"workload": workload.to_json(), "seed": seed,
                                "trace": trace, "spawned": spawned}))
    with open(workdir / "worker.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(root / "perfbench" / "worker.py"),
                 str(spec), str(result)],
                cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"round exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        tail = (workdir / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    out = json.loads(result.read_text(encoding="utf-8"))
    src = (root / "src").resolve()
    if src not in Path(out["kexpfam_file"]).resolve().parents:
        raise BenchError(f"kexpfam was imported from {out['kexpfam_file']}, not {src}")
    out["round_s"] = out["setup_s"] + sum(
        s["seconds"] for s in out["stages"] if s["phase"] != "setup")
    return out


def count_failures(rounds: list[dict]) -> tuple[int, int]:
    """(attempted, failed) CLI calls; a call whose primary outputs differ
    from the first round's at the same seed counts as failed."""
    first = {s["name"]: s["hashes"] for s in rounds[0]["stages"]}
    attempted = failed = 0
    for r in rounds:
        for s in r["stages"]:
            attempted += 1
            if s["hashes"] != first.get(s["name"]) and not s["problems"]:
                s["problems"].append(f"outputs differ from the first round: {s['hashes']}")
            failed += bool(s["problems"])
    return attempted, failed


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    workdir = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    start = time.monotonic()
    rounds: list[dict] = []
    try:
        while True:
            elapsed = time.monotonic() - start
            longest = max((r["round_s"] for r in rounds), default=0.0)
            if len(rounds) >= 2 and (trace or elapsed >= seconds
                                     or elapsed + 1.5 * longest > MAX_RUN_S):
                break
            traced = trace and len(rounds) == 1
            rounds.append(run_round(root, workdir / f"round-{len(rounds)}",
                                    workload, seed, traced,
                                    timeout=MAX_RUN_S - elapsed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    attempted, failed = count_failures(rounds)
    return {"workload": workload, "seed": seed, "trace": trace, "rounds": rounds,
            "attempted": attempted, "failed": failed}


# --- metrics ---------------------------------------------------------------


def stage_seconds(rounds: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in rounds:
        for s in r["stages"]:
            if s["phase"] == "timed":
                out.setdefault(s["name"], []).append(s["seconds"])
    return out


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    walls = [sum(s["seconds"] for s in r["stages"] if s["phase"] == "timed")
             for r in rounds]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(walls),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }


def per_layer(workload: Workload, untraced: dict, traced: dict) -> dict[str, float]:
    dump = traced["trace"]
    spans = summarize(dump["spans"])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = dict.fromkeys(PER_LAYER, 0.0)
    for stage in TIMED_STAGES:
        out[f"cli.{stage}.s"] = spans.get(f"cli.{stage}", zero)["s"]
    out["cli.self_s"] = sum(v["self_s"] for k, v in spans.items() if k.startswith("cli."))
    for name in LAYER_SPANS:
        for field, value in spans.get(name, zero).items():
            out[f"{name}.{field}"] = value
    for name in COUNTERS:
        out[name] = dump["counters"].get(name, 0)
    out["score_fit.solve.s"] = out["score_fit.fit_factor.self_s"]
    out["sampling.metropolis.s"] = out["sampling.ancestral_sample.self_s"]
    out["evaluation.normalizer.s"] = (out["evaluation.test_loglik.s"]
                                      - out["score_fit.unnorm_logpdf_rows.s"])
    points = dump["counters"].get("evaluation.cv.points", 0)
    if points:
        out["evaluation.cv.point_s"] = out["evaluation.cross_validate.s"] / points
    # computed, not measured: pair terms of one gradient call, n_train x chains
    sample = next((s for s in workload.stages if s.check == "sample"), None)
    if sample is not None:
        out["sampling.grad_eval.pair_terms"] = (workload.stages[0].expect["rows"]
                                                * sample.expect["rows"])
    if dump["fits"]:
        largest = max(dump["fits"], key=lambda f: (f["nd"], f["peak_bytes"]))
        gram = largest["nd"] ** 2 * 8  # computed: (n d)^2 float64 entries
        out["score_fit.gram_mib"] = gram / MIB
        out["score_fit.fit_factor.peak_traced_mib"] = largest["peak_bytes"] / MIB
        out["score_fit.peak_over_gram"] = largest["peak_bytes"] / gram
    out["data_io.archive_mib"] = traced["archive_bytes"] / MIB
    for name, value in traced["quality"].items():
        out[f"quality.{name}"] = value
    for name, value in traced["process"].items():
        out[f"process.{name}"] = value
    out["trace.overhead_s"] = traced["round_s"] - untraced["round_s"]
    out["trace.missing_hooks"] = len(dump["missing"])
    out["trace.spans"] = len(dump["spans"])
    return out


def layer_shares(traced: dict, field: str) -> list[tuple[str, float]]:
    """Each layer span's ``self_s`` or inclusive ``s`` as a share of the
    traced round's time inside spans, largest first."""
    spans = summarize(traced["trace"]["spans"])
    total = sum(v["self_s"] for v in spans.values())
    shares = [(name, v[field] / total) for name, v in spans.items()
              if not name.startswith("cli.")]
    return sorted(shares, key=lambda item: -item[1])


# --- report ----------------------------------------------------------------


def report(result: dict) -> tuple[dict, list[str]]:
    """(metrics with units, printed lines) for one workload's run."""
    workload, rounds = result["workload"], result["rounds"]
    lines = [f"workload {workload.name} seed {result['seed']} rounds {len(rounds)} "
             f"trace {int(result['trace'])} (closed loop, one client)",
             f"  why: {workload.why}",
             *(f"  {s.phase} {s.name}: kexpfam {' '.join(s.argv)}" for s in workload.stages),
             f"  environment: {json.dumps(rounds[0]['environment'], sort_keys=True)}"]
    if result["trace"]:
        values = per_layer(workload, rounds[0], rounds[1])
        units = PER_LAYER
        missing = rounds[1]["trace"]["missing"]
        lines += [f"  missing hook: {name} (its layer reads 0)" for name in missing]
        for field, label in (("self_s", "self-time"), ("s", "inclusive")):
            lines += [f"  {label} share {name:36s} {share:7.1%}"
                      for name, share in layer_shares(rounds[1], field)[:5]]
    else:
        values = end_to_end(rounds)
        units = END_TO_END
    for name, samples in stage_seconds(rounds).items():
        lines.append(f"  stage {name + '_s':30s} {statistics.median(samples):12.4f} s"
                     f"  (rounds: {' '.join(f'{v:.3f}' for v in samples)})")
    for name, value in sorted(rounds[0]["quality"].items()):
        lines.append(f"  quality {name:28s} {value:12.4f}")
    lines.append(f"  failed_ops {result['failed']}/{result['attempted']} = "
                 f"{result['failed'] / result['attempted']:.4f} ratio")
    for r in rounds:
        lines += [f"  FAILED {s['name']}: {p}" for s in r["stages"] for p in s["problems"]]
    lines += [f"  {name:38s} {value:14.6g} {units[name]}"
              + (" (computed)" if name in COMPUTED else "") for name, value in values.items()]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kexpfam" / "cli.py").is_file():
        print("perfbench: run from a kexpfam checkout (src/kexpfam/cli.py not found)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(root, WORKLOADS[name], args.seed,
                                        args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for result in results:
        found, lines = report(result)
        print("\n".join(lines))
        prefix = "" if len(results) == 1 else result["workload"].name + "."
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
