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
    partial_matrix,
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
    grad_y_T,
    laplacian_terms_T,
    unnorm_logpdf,
    unnorm_logpdf_rows,
    xi_hat,
)
from .factorization import (
    DagSpec,
    JointModel,
    NodeHyperparams,
    fit_joint,
    joint_unnorm_logpdf_terms,
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
    log_partition_from_draws,
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
    split,
    standardize,
)

__all__ = [
    "__version__",
    "ArchiveError", "DataError", "KexpfamError", "NumericalError",
    "ConstantKernel", "DerivRequest", "GaussianKernelSpec",
    "eval_kernel", "kernel_matrix", "kernel_partial", "median_heuristic",
    "partial_matrix",
    "BaseDensity", "FactorModel", "GramSystem",
    "build_gram", "build_gram_system", "build_h", "empirical_score",
    "eval_T", "fit_factor", "grad_y_T", "laplacian_terms_T",
    "unnorm_logpdf", "unnorm_logpdf_rows", "xi_hat",
    "DagSpec", "JointModel", "NodeHyperparams",
    "fit_joint", "joint_unnorm_logpdf_terms", "make_dag",
    "GridDatasetConfig", "GridSamplerConfig", "HmcConfig",
    "ancestral_sample", "hmc_sample_conditional", "leapfrog",
    "rejection_sample_grid",
    "CvConfig", "CvResult", "LogPartitionEstimate",
    "cross_validate", "disjoint_support_demo", "fisher_divergence",
    "log_partition_from_draws", "log_partition_is", "test_loglik",
    "StandardizedDataset", "load_csv", "load_model", "prune_correlated",
    "save_csv", "save_model", "split", "standardize",
]
