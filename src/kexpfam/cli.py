"""Command-line front end: dataset generation, fitting, evaluation,
learning curves, sampling, scoring, and the score-degeneracy demo.

Every run writes a provenance JSON next to its primary output recording the
tool version, the full argument list, the BLAS thread environment
variables and the thread count of each loaded OpenBLAS, so the run can be
replayed.  ``main`` sets the OpenBLAS of numpy's and of scipy's wheel to
one thread, so that outputs do not depend on the CPU count; importing the
package changes no thread setting.
Output files themselves contain no timestamps or absolute paths; replaying
a provenance file byte-reproduces them.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from ._openblas import openblas_threads
from .errors import DataError, NumericalError
from .evaluation import (
    CvConfig,
    cross_validate,
    disjoint_support_demo,
    test_loglik,
)
from .data_io import (
    load_csv,
    load_model,
    prune_correlated,
    save_csv,
    save_model,
    standardize,
)
from .factorization import NodeHyperparams, make_dag, fit_joint
from .sampling import (
    GridDatasetConfig,
    GridSamplerConfig,
    HmcConfig,
    ancestral_sample,
    rejection_sample_grid,
)
from .score_fit import BaseDensity, empirical_score

CURVE_SIZES = (200, 500, 1000, 2000)
# BLAS thread settings can change the last bits of a GEMM, so every
# provenance records them (null when unset)
_BLAS_THREAD_VARS = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
# the HmcConfig fields but the seed, which ``sample`` takes as --step-size, ...
_HMC_OPTIONS = (("step_size", float), ("leapfrog_steps", int), ("burn_in", int),
               ("thin", int))
# the fit flags that only --lambda or only --cv reads, by NodeHyperparams or
# CvConfig field; each is unset unless given, so those classes hold the defaults
_LAMBDA_FLAGS = {"scale": "--bandwidth-scale"}
_CV_FLAGS = {"folds": "--folds", "lambda_grid": "--lambda-grid",
             "bandwidth_scale_grid": "--scale-grid", "seed": "--seed"}


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_provenance(out_path: str, subcommand: str, argv: list[str]) -> None:
    payload = {
        "tool": "kexpfam",
        "version": __version__,
        "subcommand": subcommand,
        "argv": list(argv),
        "environment": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(str(out_path) + ".provenance.json", payload)


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DataError(f"{flag} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise DataError(f"{flag}: cannot parse {text!r}") from None


def _parse_grid_weights(text: str, dim: int):
    """Either 'wa,wb' broadcast to all dimensions, or a JSON list of
    [wa, wb] pairs, one per dimension."""
    text = text.strip()
    if text.startswith("["):
        try:
            pairs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"--weights: invalid JSON: {exc}") from None
        if (not isinstance(pairs, list) or len(pairs) != dim
                or any(not isinstance(p, list) or len(p) != 2 for p in pairs)):
            raise DataError(f"--weights JSON needs {dim} [wa, wb] pairs")
        if any(isinstance(w, bool) or not isinstance(w, (int, float))
               for p in pairs for w in p):
            raise DataError(f"--weights JSON pairs must hold numbers, got {text!r}")
        arr = np.asarray(pairs, dtype=np.float64)
        return arr[:, 0], arr[:, 1]
    wa, wb = _parse_pair(text, "--weights")
    return np.full(dim, wa), np.full(dim, wb)


def _parse_dag(text: str, dim: int):
    if text in ("full", "markov"):
        return make_dag(text, dim)
    if text.startswith("custom:"):
        try:
            parents = json.loads(text[len("custom:"):])
        except json.JSONDecodeError as exc:
            raise DataError(f"--dag custom: invalid JSON: {exc}") from None
        return make_dag("custom", dim, custom_parents=parents)
    raise DataError(
        f"unknown DAG kind {text!r}; expected full, markov, or custom:<json>"
    )


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _given(args, flags: dict) -> dict:
    """The values of those ``flags`` that the argv gave."""
    return {dest: value for dest, value in vars(args).items() if dest in flags}


def _refuse_unread_fit_flags(parser, args) -> None:
    """A fit flag that the chosen way of fitting does not read is a usage
    error; curve's --seed also seeds the subsets and the IS draws, so it is
    read either way."""
    mode, unread = ("--cv", _LAMBDA_FLAGS) if args.cv else ("--lambda", _CV_FLAGS)
    for dest in _given(args, unread):
        if not (dest == "seed" and args.func is _cmd_curve):
            parser.error(f"{unread[dest]} is not read with {mode}")


def _sampler_config(args) -> GridSamplerConfig | HmcConfig:
    """HMC when any HMC flag is set, the grid sampler otherwise."""
    hmc = {dest: getattr(args, dest) for dest, _ in _HMC_OPTIONS
           if getattr(args, dest) is not None}
    return HmcConfig(seed=args.seed, **hmc) if hmc else GridSamplerConfig(seed=args.seed)


def _sidecar(path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(str(path))
    return stem + suffix


# --- subcommands ------------------------------------------------------------


def _cmd_gen_grid(args, argv) -> int:
    wa, wb = _parse_grid_weights(args.weights, args.dim)
    lo, hi = _parse_pair(args.support, "--support")
    config = GridDatasetConfig(dim=args.dim, n=args.n, weights_a=wa, weights_b=wb,
                               support=(lo, hi), seed=args.seed)
    samples, stats = rejection_sample_grid(config, return_stats=True)
    names = [f"x{i}" for i in range(args.dim)]
    save_csv(args.out, samples, names)
    _write_json(_sidecar(args.out, ".config.json"), {
        "dim": args.dim, "n": args.n,
        "weights_a": list(wa), "weights_b": list(wb),
        "support": [lo, hi], "seed": args.seed,
        "accept_rate": stats["accept_rate"],
    })
    _write_provenance(args.out, "gen-grid", argv)
    print(f"wrote {args.n} x {args.dim} grid samples to {args.out} "
          f"(accept rate {stats['accept_rate']:.3f})")
    return 0


def _load_training(args):
    """The raw rows and the column names of --data, after --prune-threshold."""
    values, names = load_csv(args.data)
    if args.prune_threshold is not None:
        values, names, dropped = prune_correlated(values, names,
                                                  args.prune_threshold)
        if dropped:
            print(f"pruned correlated columns: {', '.join(dropped)}")
    return values, names


def _model_columns(path, names) -> np.ndarray:
    """The rows of the CSV at ``path`` in the columns ``names`` (a model's
    ``column_names``), found by header name; other columns are ignored."""
    values, header = load_csv(path)
    for name in names:
        if header.count(name) != 1:
            raise DataError(f"{path}: the model's column {name!r} "
                            + ("is missing" if name not in header
                               else "appears more than once"))
    return values[:, [header.index(name) for name in names]]


def _fit_from_args(args, dataset):
    dag = _parse_dag(args.dag, dataset.dim)
    base = BaseDensity(std=args.base_std)
    cv_result = None
    if args.cv:
        config = CvConfig(**_given(args, _CV_FLAGS))
        cv_result = cross_validate(dataset, dag, config, base)
        hyper = cv_result.hyperparams()
    else:
        hyper = NodeHyperparams(lam=args.lam, **_given(args, _LAMBDA_FLAGS))
    model = fit_joint(dataset, dag, hyper, base)
    return model, cv_result


def _cmd_fit(args, argv) -> int:
    dataset = standardize(*_load_training(args))
    model, cv_result = _fit_from_args(args, dataset)
    save_model(model, args.out_model)
    if cv_result is not None:
        rows = [[r.node, c.lam, c.scale, c.mean_score]
                for r in cv_result.nodes for c in r.table]
        save_csv(_sidecar(args.out_model, ".cv.csv"), np.array(rows),
                 ["node", "lambda", "scale", "mean_score"])
        chosen = ", ".join(
            f"node {r.node}: lambda={r.best_lam:g} scale={r.best_scale:g}"
            for r in cv_result.nodes
        )
        print(f"cross-validation selected {chosen}")
        for r in cv_result.nodes:
            if r.on_grid_edge:
                print(f"note: node {r.node}: lambda={r.best_lam:g} "
                      f"scale={r.best_scale:g} lies on the edge of the CV grid",
                      file=sys.stderr)
    _write_provenance(args.out_model, "fit", argv)
    print(f"fitted {dataset.dim}-column model on {dataset.n} rows "
          f"-> {args.out_model}")
    return 0


def _model_summary(model) -> list[dict]:
    out = []
    for node, f in enumerate(model.factors):
        kx = f.kernel_x
        out.append({
            "node": node,
            "lambda": f.lam,
            "x_bandwidths": (list(kx.bandwidths) if hasattr(kx, "bandwidths")
                             else None),
            "y_bandwidths": list(f.kernel_y.bandwidths),
            "base_std": f.base.std,
        })
    return out


def _stderr_of_mean(per_row: np.ndarray) -> float:
    """Standard error of the mean; 0.0 for a single row."""
    if len(per_row) < 2:
        return 0.0
    return float(np.std(per_row, ddof=1) / np.sqrt(len(per_row)))


def _cmd_eval(args, argv) -> int:
    model = load_model(args.model)
    rows = _model_columns(args.test, model.column_names)
    mean, per_row, stats = test_loglik(model, rows, is_samples=args.is_samples,
                                       seed=args.seed, return_stats=True)
    stderr = _stderr_of_mean(per_row)
    per_node = _model_summary(model)
    for entry, node_stats in zip(per_node, stats["per_node"]):
        entry["max_is_std_err"] = float(np.max(node_stats["is_std_err"]))
    _write_json(args.out, {
        "mean_loglik": mean,
        "stderr": stderr,
        "n_test": len(per_row),
        "is_samples": args.is_samples,
        "seed": args.seed,
        "per_node": per_node,
    })
    save_csv(_sidecar(args.out, ".rows.csv"), per_row[:, None], ["loglik"])
    _write_provenance(args.out, "eval", argv)
    print(f"mean test log-likelihood {mean:.4f} (stderr {stderr:.4f}, "
          f"n={len(per_row)})")
    return 0


def _cmd_curve(args, argv) -> int:
    if args.is_samples < 1:  # before the first fit
        raise DataError("is_samples must be >= 1")
    values, names = _load_training(args)
    if len(values) < CURVE_SIZES[0]:
        raise DataError(f"curve needs at least {CURVE_SIZES[0]} training rows, "
                        f"got {len(values)}")
    test_rows = _model_columns(args.test, names)
    shuffled = np.random.default_rng(args.seed).permutation(len(values))
    records = []
    for size in CURVE_SIZES:
        if size > len(values):
            break
        model, _ = _fit_from_args(args, standardize(values[shuffled[:size]], names))
        mean, per_row = test_loglik(model, test_rows, is_samples=args.is_samples,
                                    seed=args.seed)
        stderr = _stderr_of_mean(per_row)
        records.append([size, mean, stderr])
        print(f"n={size}: mean test log-likelihood {mean:.4f}")
    save_csv(args.out, np.array(records), ["n_train", "mean_loglik", "stderr"])
    _write_provenance(args.out, "curve", argv)
    return 0


def _cmd_sample(args, argv) -> int:
    model = load_model(args.model)
    samples, stats = ancestral_sample(model, args.n, _sampler_config(args),
                                      return_stats=True)
    save_csv(args.out, samples, model.column_names)
    _write_json(_sidecar(args.out, ".diagnostics.json"), stats)
    _write_provenance(args.out, "sample", argv)
    print(f"wrote {args.n} joint samples to {args.out}")
    return 0


def _cmd_score(args, argv) -> int:
    model = load_model(args.model)
    Z = model.standardize_rows(_model_columns(args.data, model.column_names))
    per_node = []
    for node, factor in enumerate(model.factors):
        parents = list(model.dag.parents[node])
        score = empirical_score(factor, Z[:, parents], Z[:, [node]])
        per_node.append({"node": node, "score": score})
    total = float(sum(e["score"] for e in per_node))
    _write_json(args.out, {"per_node": per_node, "total": total,
                           "n_rows": int(Z.shape[0])})
    _write_provenance(args.out, "score", argv)
    print(f"total empirical score {total:.6f} over {Z.shape[0]} rows")
    return 0


def _cmd_diverge(args, argv) -> int:
    result = disjoint_support_demo(n_samples=args.samples, seed=args.seed)
    print(f"score divergence estimate: {result['fisher_divergence']:.3e}")
    print(f"total variation distance: {result['tv_distance']:.4f}")
    if args.out:
        _write_json(args.out, result)
        _write_provenance(args.out, "diverge", argv)
    return 0


# --- parser -----------------------------------------------------------------


def _add_fit_options(parser: argparse.ArgumentParser):
    """The model-fitting options shared by ``fit`` and ``curve``; a fit
    takes either --lambda or --cv, and a flag that only the other one reads
    is a usage error.  Returns the group of --cv's flags."""
    parser.add_argument("--dag", default="markov",
                        help="full | markov | custom:<json parent lists>")
    how = parser.add_mutually_exclusive_group(required=True)
    how.add_argument("--lambda", dest="lam", type=float)
    how.add_argument("--cv", action="store_true",
                     help="grid-search hyperparameters per node")
    parser.add_argument("--base-std", type=float, default=BaseDensity().std)
    parser.add_argument("--prune-threshold", type=float, default=None,
                        help="drop one of each column pair correlated above this")
    by_lambda = parser.add_argument_group("with --lambda",
                                          argument_default=argparse.SUPPRESS)
    by_lambda.add_argument("--bandwidth-scale", dest="scale", type=float)
    by_cv = parser.add_argument_group("with --cv", argument_default=argparse.SUPPRESS)
    by_cv.add_argument("--folds", type=int)
    by_cv.add_argument("--lambda-grid", type=_float_list)
    by_cv.add_argument("--scale-grid", dest="bandwidth_scale_grid", type=_float_list)
    return by_cv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kexpfam",
        description="Conditional density estimation with kernel exponential "
                    "family models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen-grid", help="generate the synthetic grid dataset")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--weights", default="1,1",
                   help="'wa,wb' for all dims or JSON list of per-dim pairs")
    g.add_argument("--support", default="0,1")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_grid)

    f = sub.add_parser("fit", help="fit a factorized model to a CSV dataset")
    f.add_argument("--data", required=True)
    _add_fit_options(f).add_argument("--seed", type=int, help="seeds the fold split")
    f.add_argument("--out-model", required=True)
    f.set_defaults(func=_cmd_fit)

    e = sub.add_parser("eval", help="test log-likelihood of a fitted model")
    e.add_argument("--model", required=True)
    e.add_argument("--test", required=True)
    e.add_argument("--is-samples", type=int, default=10_000)
    e.add_argument("--seed", type=int, default=0, help="seeds the IS draws")
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_eval)

    r = sub.add_parser("curve", help="test log-likelihood of refits at n in "
                                     "{200,500,1000,2000}, as a table")
    r.add_argument("--data", required=True)
    r.add_argument("--test", required=True)
    r.add_argument("--is-samples", type=int, default=10_000)
    _add_fit_options(r)
    r.add_argument("--seed", type=int, default=0,
                   help="seeds the subsets, the IS draws and, with --cv, the "
                        "fold split")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_curve)

    s = sub.add_parser("sample", help="draw joint samples from a fitted model")
    s.add_argument("--model", required=True)
    s.add_argument("--n", type=int, required=True)
    # exact inverse-CDF draws on a y-grid, or ancestral HMC when any of the
    # HMC flags below is set
    hmc_defaults = HmcConfig()
    for dest, kind in _HMC_OPTIONS:
        s.add_argument("--" + dest.replace("_", "-"), type=kind, default=None,
                       help=f"selects HMC (default {getattr(hmc_defaults, dest)})")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_sample)

    c = sub.add_parser("score", help="empirical score of a model on a dataset")
    c.add_argument("--model", required=True)
    c.add_argument("--data", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_score)

    d = sub.add_parser("diverge", help="the disjoint-support score-divergence demo")
    d.add_argument("--samples", type=int, default=100_000)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_diverge)

    return parser


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}),
          file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "cv" in vars(args):
            _refuse_unread_fit_flags(parser, args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # the BLAS thread count changes the summation order of GEMMs and
    # Choleskys, so commands run with one BLAS thread on any host
    openblas_threads(set_to=1)
    try:
        return args.func(args, argv)
    except DataError as exc:
        _emit_error("data", str(exc))
        return 2
    except NumericalError as exc:
        _emit_error("numerical", str(exc))
        return 3
    except OSError as exc:
        _emit_error("io", str(exc))
        return 4
    except MemoryError as exc:  # an allocation that no pre-flight foresaw
        _emit_error("data", f"out of memory: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
