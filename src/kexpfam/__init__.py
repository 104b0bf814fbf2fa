"""Conditional density estimation with kernel exponential family models.

Fit natural-parameter functions by regularized score matching (a closed-form
linear system), factorize joint densities over a DAG, sample by exact
inverse-CDF draws on a grid or by HMC, and evaluate test log-likelihoods
through importance-sampling normalization.
"""

__version__ = "0.1.0"

from .errors import ArchiveError, DataError, KexpfamError, NumericalError
from .kernels import (
    ConstantKernel,
    DerivRequest,
    GaussianKernelSpec,
    eval_kernel,
    kernel_matrix,
    kernel_partial,
    median_heuristic,
)
from .score_fit import (
    BaseDensity,
    FactorModel,
    GramSystem,
    build_gram,
    build_gram_system,
    build_h,
    empirical_score,
    eval_T,
    fit_factor,
    unnorm_logpdf_rows,
)
from .factorization import (
    DagSpec,
    JointModel,
    NodeHyperparams,
    fit_joint,
    make_dag,
)
from .sampling import (
    GridDatasetConfig,
    GridSamplerConfig,
    HmcConfig,
    ancestral_sample,
    hmc_sample_conditional,
    leapfrog,
    rejection_sample_grid,
)
from .evaluation import (
    CvConfig,
    CvResult,
    LogPartitionEstimate,
    cross_validate,
    disjoint_support_demo,
    fisher_divergence,
    log_partition_is,
    test_loglik,
)
from .data_io import (
    StandardizedDataset,
    load_csv,
    load_model,
    prune_correlated,
    save_csv,
    save_model,
    standardize,
)

__all__ = [
    "__version__",
    "ArchiveError", "DataError", "KexpfamError", "NumericalError",
    "ConstantKernel", "DerivRequest", "GaussianKernelSpec",
    "eval_kernel", "kernel_matrix", "kernel_partial", "median_heuristic",
    "BaseDensity", "FactorModel", "GramSystem",
    "build_gram", "build_gram_system", "build_h", "empirical_score",
    "eval_T", "fit_factor", "unnorm_logpdf_rows",
    "DagSpec", "JointModel", "NodeHyperparams",
    "fit_joint", "make_dag",
    "GridDatasetConfig", "GridSamplerConfig", "HmcConfig",
    "ancestral_sample", "hmc_sample_conditional", "leapfrog",
    "rejection_sample_grid",
    "CvConfig", "CvResult", "LogPartitionEstimate",
    "cross_validate", "disjoint_support_demo", "fisher_divergence",
    "log_partition_is", "test_loglik",
    "StandardizedDataset", "load_csv", "load_model", "prune_correlated",
    "save_csv", "save_model", "standardize",
]
