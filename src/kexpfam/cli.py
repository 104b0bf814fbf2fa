"""Command-line front end: dataset generation, fitting, evaluation,
sampling, scoring, and the score-degeneracy demo.

Every run writes a provenance JSON next to its primary output recording the
tool version, the full argument list, the BLAS thread environment
variables and the thread count of each loaded OpenBLAS, so the run can be
replayed.  ``main`` sets every OpenBLAS that numpy and scipy loaded to one
thread, so that outputs do not depend on the CPU count; importing the
package changes no thread setting.
Output files themselves contain no timestamps or absolute paths; replaying
a provenance file byte-reproduces them.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import glob
import json
import os
import sys

import numpy as np

from . import __version__
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
# The OpenBLAS builds that the numpy and scipy wheels ship: (package, file
# pattern in the package's ``.libs`` directory, thread symbol with "set" or
# "get" in place of {})
_OPENBLAS_LIBS = (
    ("numpy", "libscipy_openblas64_-*", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "libscipy_openblas-*", "scipy_openblas_{}_num_threads"),
)
# the HmcConfig fields that ``sample`` takes as flags (--step-size, ...); not
# chains, since ancestral HMC runs one chain per output row
_HMC_OPTIONS = (("step_size", float), ("leapfrog_steps", int), ("burn_in", int),
               ("thin", int))


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _openblas_threads(set_to: int | None = None) -> dict[str, int | str]:
    """Thread count of the OpenBLAS that numpy and that scipy loaded, after
    setting it to ``set_to`` when given, or a note where that library is not
    loaded or lacks the symbol."""
    counts = {}
    for package, pattern, symbol in _OPENBLAS_LIBS:
        counts[package] = f"not pinned: {symbol.format('set')} not found"
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            package + ".libs")
        for path in glob.glob(os.path.join(libs, pattern)):
            try:  # RTLD_NOLOAD opens only a library that is already loaded
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
                set_threads = getattr(lib, symbol.format("set"))
                get_threads = getattr(lib, symbol.format("get"))
            except (OSError, AttributeError):
                continue
            # void set(int) and int get(void), also in the 64-bit-index build
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            if set_to is not None:
                set_threads(set_to)
            counts[package] = get_threads()
    return counts


def _write_provenance(out_path: str, subcommand: str, argv: list[str]) -> None:
    payload = {
        "tool": "kexpfam",
        "version": __version__,
        "subcommand": subcommand,
        "argv": list(argv),
        "environment": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
        "openblas_threads": _openblas_threads(),
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


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise DataError(f"{flag}: cannot parse {text!r}") from None


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
    values, names = load_csv(args.data)
    if args.prune_threshold is not None:
        values, names, dropped = prune_correlated(values, names,
                                                  args.prune_threshold)
        if dropped:
            print(f"pruned correlated columns: {', '.join(dropped)}")
    return standardize(values, names)


def _fit_from_args(args, dataset):
    dag = _parse_dag(args.dag, dataset.dim)
    base = BaseDensity(std=args.base_std)
    cv_result = None
    if args.cv:
        cv_config = CvConfig(
            folds=args.folds,
            lambda_grid=_parse_float_list(args.lambda_grid, "--lambda-grid"),
            bandwidth_scale_grid=_parse_float_list(args.scale_grid, "--scale-grid"),
            seed=args.seed,
        )
        cv_result = cross_validate(dataset, dag, cv_config, base)
        hyper = cv_result.hyperparams()
    else:
        if args.lam is None:
            raise DataError("fit requires either --lambda or --cv")
        hyper = NodeHyperparams(lam=args.lam, scale=args.bandwidth_scale)
    model = fit_joint(dataset, dag, hyper, base)
    return model, cv_result


def _cmd_fit(args, argv) -> int:
    dataset = _load_training(args)
    model, cv_result = _fit_from_args(args, dataset)
    archive_settings = {
        "dag": args.dag, "base_std": args.base_std,
        "cv": bool(args.cv), "lambda": args.lam,
        "bandwidth_scale": args.bandwidth_scale, "seed": args.seed,
    }
    save_model(model, args.out_model, provenance=archive_settings)
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
    given = _fit_flags_in(argv)
    if given and not args.curve:
        raise DataError(f"{given[0]} sets up a fit, and eval fits only with --curve")
    if args.is_samples < 1:  # before --curve's first fit
        raise DataError("num_samples must be >= 1")
    if args.curve:
        return _cmd_eval_curve(args, argv)
    if args.model is None:
        raise DataError("eval requires --model (or --curve with --data)")
    model = load_model(args.model)
    rows, _ = load_csv(args.test)
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


def _cmd_eval_curve(args, argv) -> int:
    if args.data is None:
        raise DataError("--curve requires --data (training CSV)")
    dataset = _load_training(args)
    test_rows, _ = load_csv(args.test)
    shuffled = np.random.default_rng(args.seed).permutation(dataset.n)
    records = []
    for size in CURVE_SIZES:
        if size > dataset.n:
            break
        subset = standardize(dataset.destandardize()[shuffled[:size]],
                             dataset.column_names)
        model, _ = _fit_from_args(args, subset)
        mean, per_row = test_loglik(model, test_rows, is_samples=args.is_samples,
                                    seed=args.seed)
        stderr = _stderr_of_mean(per_row)
        records.append([size, mean, stderr])
        print(f"n={size}: mean test log-likelihood {mean:.4f}")
    save_csv(args.out, np.array(records), ["n_train", "mean_loglik", "stderr"])
    _write_provenance(args.out, "eval", argv)
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
    rows, _ = load_csv(args.data)
    Z = model.standardize_rows(rows)
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
    if args.demo != "appendix-d":
        raise DataError(f"unknown demo {args.demo!r}; available: appendix-d")
    result = disjoint_support_demo(n_samples=args.samples, seed=args.seed)
    print(f"score divergence estimate: {result['fisher_divergence']:.3e}")
    print(f"total variation distance: {result['tv_distance']:.4f}")
    if args.out:
        _write_json(args.out, result)
        _write_provenance(args.out, "diverge", argv)
    return 0


# --- parser -----------------------------------------------------------------


def _grid_text(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _add_fit_options(parser: argparse.ArgumentParser,
                     defaults: bool = True) -> dict[str, str]:
    """The model-fitting options shared by ``fit`` and ``eval --curve``.
    Returns the flag of each option but --seed by its dest; without
    ``defaults`` those options are set only where the argv gives them."""
    cv_defaults = CvConfig()
    flags = {}

    def add(flag, default, **kwargs):
        action = parser.add_argument(
            flag, default=default if defaults else argparse.SUPPRESS, **kwargs)
        flags[action.dest] = flag

    add("--dag", "markov", help="full | markov | custom:<json parent lists>")
    add("--lambda", None, dest="lam", type=float)
    add("--bandwidth-scale", 1.0, type=float)
    add("--cv", False, action="store_true", help="grid-search hyperparameters per node")
    add("--folds", cv_defaults.folds, type=int)
    add("--lambda-grid", _grid_text(cv_defaults.lambda_grid))
    add("--scale-grid", _grid_text(cv_defaults.bandwidth_scale_grid))
    parser.add_argument("--seed", type=int, default=cv_defaults.seed,
                        help="seeds the CV fold split and, in eval, the IS draws "
                             "and the --curve subsets")
    add("--base-std", BaseDensity().std, type=float)
    add("--prune-threshold", None, type=float,
        help="drop one of each column pair correlated above this")
    return flags


def _fit_flags_in(argv) -> list[str]:
    """The fit options but --seed that ``argv`` sets."""
    probe = argparse.ArgumentParser(add_help=False)
    flags = _add_fit_options(probe, defaults=False)
    given, _ = probe.parse_known_args(argv)
    return [flag for dest, flag in flags.items() if dest in vars(given)]


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
    _add_fit_options(f)
    f.add_argument("--out-model", required=True)
    f.set_defaults(func=_cmd_fit)

    e = sub.add_parser("eval", help="test log-likelihood of a fitted model")
    e.add_argument("--model")
    e.add_argument("--test", required=True)
    e.add_argument("--is-samples", type=int, default=10_000)
    e.add_argument("--out", required=True)
    e.add_argument("--curve", action="store_true",
                   help="refit at n in {200,500,1000,2000} and emit a table")
    e.add_argument("--data", default=None, help="training CSV (with --curve)")
    _add_fit_options(e)
    e.set_defaults(func=_cmd_eval)

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

    d = sub.add_parser("diverge", help="score-divergence diagnostics")
    d.add_argument("--demo", required=True)
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
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # the BLAS thread count changes the summation order of GEMMs and
    # Choleskys, so commands run with one BLAS thread on any host
    _openblas_threads(set_to=1)
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
