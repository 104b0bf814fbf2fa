"""DAG factorization of a joint density into per-node conditional factors.

A joint density over D columns is written as a product of conditionals
p(col_i | parents(col_i)) following a DAG whose parents always precede the
node in column order.  Each factor is fit independently by the score-matched
estimator; the first node of a chain (no parents) uses a constant
conditioning kernel, which reduces it to an unconditional fit.

Variable ordering is the dataset column order throughout; no order search is
performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, KexpfamError
from .kernels import ConstantKernel, GaussianKernelSpec, median_heuristic
from .score_fit import BaseDensity, FactorModel, fit_factor

DAG_KINDS = ("full", "markov", "custom")


def _parent_indices(node: int, ps) -> tuple[int, ...]:
    """A list of integer parents as ints; anything else, such as a bool, a
    float or a string, is a DataError rather than truncated or split."""
    if not isinstance(ps, (list, tuple)) or any(
            isinstance(p, (bool, np.bool_)) or not isinstance(p, (int, np.integer))
            for p in ps):
        raise DataError(f"node {node}: parents must be a list of integer "
                        f"column indices, got {ps!r}")
    return tuple(int(p) for p in ps)


@dataclass(frozen=True)
class DagSpec:
    """Parent lists over ``node_count`` nodes, one tuple per node.

    Parents are 0-based column indices and must be strictly smaller than the
    node's own index, so the column order is a topological order.
    """

    node_count: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.node_count < 1:
            raise DataError("a DAG needs at least one node")
        parents = tuple(_parent_indices(i, ps) for i, ps in enumerate(self.parents))
        if len(parents) != self.node_count:
            raise DataError(
                f"expected {self.node_count} parent lists, got {len(parents)}"
            )
        for i, ps in enumerate(parents):
            if len(set(ps)) != len(ps):
                raise DataError(f"node {i} has duplicate parents {ps}")
            for p in ps:
                if p < 0 or p >= i:
                    raise DataError(
                        f"node {i} lists parent {p}; parents must be earlier nodes"
                    )
        object.__setattr__(self, "parents", parents)


def make_dag(kind: str, node_count: int,
             custom_parents=None) -> DagSpec:
    """Build a DAG specification.

    ``full`` gives every node all earlier nodes as parents, ``markov`` only
    the immediately preceding one, and ``custom`` takes explicit 0-based
    parent lists (one sequence per node).
    """
    if kind not in DAG_KINDS:
        raise DataError(f"unknown DAG kind {kind!r}; expected one of {DAG_KINDS}")
    if kind == "full":
        parents = tuple(tuple(range(i)) for i in range(node_count))
    elif kind == "markov":
        parents = tuple(() if i == 0 else (i - 1,) for i in range(node_count))
    else:
        if not isinstance(custom_parents, (list, tuple)):
            raise DataError("custom DAG requires explicit parent lists, one "
                            f"per node; got {custom_parents!r}")
        parents = tuple(tuple(sorted(_parent_indices(i, ps)))
                        for i, ps in enumerate(custom_parents))
    return DagSpec(node_count=node_count, parents=parents)


def _column_stats(means, stds, names, columns: int):
    """Read-only copies of one mean, std and name per column, each std
    positive and finite: the standardization of a dataset or of a model."""
    means = np.asarray(means, dtype=np.float64).reshape(-1).copy()
    stds = np.asarray(stds, dtype=np.float64).reshape(-1).copy()
    names = tuple(str(c) for c in names)
    if not means.size == stds.size == len(names) == columns:
        raise DataError(f"need one mean, std and name per column ({columns} columns)")
    if np.any(stds <= 0) or not np.all(np.isfinite(stds)):
        raise DataError("column stds must be positive and finite")
    means.flags.writeable = stds.flags.writeable = False
    return means, stds, names


def _standardized_values(dataset, dag: DagSpec) -> np.ndarray:
    """The values of a StandardizedDataset with one column per DAG node."""
    from .data_io import StandardizedDataset  # data_io imports this module

    if not isinstance(dataset, StandardizedDataset):
        raise DataError("dataset must be a StandardizedDataset (see standardize), "
                        f"got {type(dataset).__name__}")
    if dataset.dim != dag.node_count:
        raise DataError(f"dataset has {dataset.dim} columns but the DAG has "
                        f"{dag.node_count} nodes")
    return dataset.values


@dataclass(frozen=True, eq=False)
class NodeHyperparams:
    """Per-node fit settings: the ridge ``lam`` and the ``scale`` that
    multiplies the median-heuristic bandwidths of both kernels, each taken
    over the node's own training columns."""

    lam: float = 0.01
    scale: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise DataError("lambda must be positive and finite")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise DataError("bandwidth scale must be positive and finite")


@dataclass(frozen=True, eq=False)
class JointModel:
    """Fitted factors in column order plus the standardization applied to
    the training data (per-column mean and std, std > 0)."""

    dag: DagSpec
    factors: tuple[FactorModel, ...]
    column_means: np.ndarray
    column_stds: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.factors) != self.dag.node_count:
            raise DataError("factor count must equal the DAG node count")
        means, stds, names = _column_stats(self.column_means, self.column_stds,
                                           self.column_names, self.dag.node_count)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "column_means", means)
        object.__setattr__(self, "column_stds", stds)
        object.__setattr__(self, "column_names", names)

    @property
    def dim(self) -> int:
        return self.dag.node_count

    def standardize_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.dim:
            raise DataError(
                f"rows have {rows.shape[1]} columns, model expects {self.dim}"
            )
        return (rows - self.column_means) / self.column_stds

    def destandardize_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return rows * self.column_stds + self.column_means

    @property
    def log_jacobian(self) -> float:
        """Log-density shift from standardized to original units."""
        return -float(np.sum(np.log(self.column_stds)))


def _node_medians(values: np.ndarray, parents: tuple[int, ...], node: int):
    """Median-heuristic bandwidths of a node's parent columns (None without
    parents) and of its own column."""
    x_med = median_heuristic(values[:, list(parents)]) if parents else None
    return x_med, median_heuristic(values[:, [node]])


def _node_kernels(x_med, y_med, scale: float):
    """The node's (k_X, k_Y): Gaussian kernels at ``scale`` times the
    medians, and a constant k_X for a node without parents."""
    ky = GaussianKernelSpec(scale * y_med)
    if x_med is None:
        return ConstantKernel(1.0), ky
    return GaussianKernelSpec(scale * x_med), ky


def fit_joint(dataset, dag: DagSpec, hyper=None,
              base: BaseDensity | None = None) -> JointModel:
    """Fit one conditional factor per DAG node by the chain rule.

    ``dataset`` is a StandardizedDataset, whose column statistics and names
    the model keeps.  ``hyper`` is a single NodeHyperparams applied to every
    node or a sequence with one entry per node.  Factors are independent:
    refitting one node never touches the others.
    """
    values = _standardized_values(dataset, dag)
    base = base if base is not None else BaseDensity()
    if hyper is None:
        hyper = NodeHyperparams()
    if isinstance(hyper, NodeHyperparams):
        hyper = [hyper] * dag.node_count
    if len(hyper) != dag.node_count:
        raise DataError("need one hyperparameter set per node")

    factors = []
    for node in range(dag.node_count):
        parents = dag.parents[node]
        hp = hyper[node]
        try:
            kx, ky = _node_kernels(*_node_medians(values, parents, node), hp.scale)
            x = values[:, list(parents)]
            y = values[:, [node]]
            factors.append(fit_factor(x, y, kx, ky, hp.lam, base))
        except KexpfamError as exc:
            raise type(exc)(f"fit failed at node {node}: {exc}") from exc
    return JointModel(
        dag=dag, factors=tuple(factors), column_means=dataset.column_means,
        column_stds=dataset.column_stds, column_names=dataset.column_names,
    )

