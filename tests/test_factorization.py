import numpy as np
import pytest

from kexpfam import evaluation
from kexpfam.errors import DataError
from kexpfam.factorization import (
    DagSpec,
    JointModel,
    NodeHyperparams,
    fit_joint,
    make_dag,
)
from kexpfam.kernels import ConstantKernel, GaussianKernelSpec, median_heuristic
from kexpfam.sampling import GridDatasetConfig, rejection_sample_grid
from kexpfam.score_fit import eval_T, fit_factor, unnorm_logpdf_rows
from kexpfam.data_io import standardize


def joint_terms(model, row):
    """Each node's unnormalized conditional log-density at one standardized
    row, (parent values, own value) through its factor, as test_loglik
    takes them."""
    return np.array([
        unnorm_logpdf_rows(factor, row[None, list(model.dag.parents[node])],
                           row[None, [node]])[0]
        for node, factor in enumerate(model.factors)
    ])


@pytest.fixture(scope="module")
def grid_dataset():
    raw = rejection_sample_grid(GridDatasetConfig(dim=3, n=200, seed=5))
    return standardize(raw)


class TestMakeDag:
    def test_markov_three_nodes(self):
        dag = make_dag("markov", 3)
        assert dag.parents == ((), (0,), (1,))

    def test_full_three_nodes(self):
        dag = make_dag("full", 3)
        assert dag.parents == ((), (0,), (0, 1))

    def test_single_node(self):
        assert make_dag("full", 1).parents == ((),)
        assert make_dag("markov", 1).parents == ((),)

    def test_custom(self):
        dag = make_dag("custom", 3, custom_parents=[[], [0], [0]])
        assert dag.parents == ((), (0,), (0,))

    def test_forward_reference_rejected(self):
        with pytest.raises(DataError):
            make_dag("custom", 2, custom_parents=[[1], []])
        with pytest.raises(DataError):
            make_dag("custom", 2, custom_parents=[[], [1]])

    @pytest.mark.parametrize("parents", [
        [[], [0.7], [1]], [[], [True], [1]], [[], ["0"], [1]], [[], "0", [1]],
        [1, 2, 3],
    ], ids=["float", "bool", "string", "string_entry", "int_entry"])
    def test_non_integer_parent_rejected(self, parents):
        with pytest.raises(DataError, match="integer"):
            make_dag("custom", 3, custom_parents=parents)
        with pytest.raises(DataError, match="integer"):
            DagSpec(node_count=3, parents=parents)

    def test_duplicate_parent_rejected(self):
        with pytest.raises(DataError):
            DagSpec(node_count=3, parents=((), (0,), (0, 0)))

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            make_dag("tree", 3)

    def test_custom_requires_parents(self):
        with pytest.raises(DataError):
            make_dag("custom", 2)


class TestFitJoint:
    def test_markov_chain_structure(self, grid_dataset):
        model = fit_joint(grid_dataset, make_dag("markov", 3),
                          NodeHyperparams(lam=0.01))
        assert model.dim == 3
        n = grid_dataset.n
        for node, factor in enumerate(model.factors):
            assert factor.d == 1
            assert factor.n == n
            assert factor.beta.shape == (n,)  # one n-by-n system per node
            assert factor.p == (0 if node == 0 else 1)
        assert isinstance(model.factors[0].kernel_x, ConstantKernel)

    def test_row_permutation_equivariance(self, grid_dataset):
        dag = make_dag("markov", 3)
        hp = NodeHyperparams(lam=0.01)
        model = fit_joint(grid_dataset, dag, hp)
        perm = np.random.default_rng(3).permutation(grid_dataset.n)
        shuffled = type(grid_dataset)(
            values=grid_dataset.values[perm],
            column_means=grid_dataset.column_means,
            column_stds=grid_dataset.column_stds,
            column_names=grid_dataset.column_names,
        )
        model_p = fit_joint(shuffled, dag, hp)
        for f, fp in zip(model.factors, model_p.factors):
            # beta rides along with its sample row
            np.testing.assert_allclose(fp.beta, f.beta[perm], atol=1e-8)
        row = grid_dataset.values[0]
        t1 = joint_terms(model, row)
        t2 = joint_terms(model_p, row)
        np.testing.assert_allclose(t1, t2, atol=1e-8)

    def test_single_column_reduces_to_unconditional_fit(self, rng):
        values = rng.normal(size=(40, 1))
        ds = standardize(values)
        model = fit_joint(ds, make_dag("full", 1), NodeHyperparams(lam=0.05))
        ky = GaussianKernelSpec(median_heuristic(ds.values))
        direct = fit_factor(np.empty((40, 0)), ds.values, ConstantKernel(1.0),
                            ky, 0.05)
        np.testing.assert_array_equal(model.factors[0].beta, direct.beta)

    def test_fit_error_names_node(self, grid_dataset):
        bad = [NodeHyperparams(lam=0.01), NodeHyperparams(lam=0.01),
               NodeHyperparams(lam=0.01, scale=1e-12)]  # bandwidths below the floor
        with pytest.raises(DataError, match="node 2"):
            fit_joint(grid_dataset, make_dag("markov", 3), bad)

    def test_column_count_mismatch(self, grid_dataset):
        with pytest.raises(DataError):
            fit_joint(grid_dataset, make_dag("markov", 4))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_hyperparams_refuse_a_scale_that_is_not_positive_and_finite(self, scale):
        with pytest.raises(DataError, match="bandwidth scale"):
            NodeHyperparams(lam=0.01, scale=scale)

    def test_plain_array_input(self, rng):
        """fit_joint and cross_validate read a StandardizedDataset alone: a
        plain array carries no column statistics for the model to keep."""
        values = rng.normal(size=(30, 2))
        dag = make_dag("markov", 2)
        with pytest.raises(DataError, match="StandardizedDataset"):
            fit_joint(values, dag, NodeHyperparams(lam=0.1))
        with pytest.raises(DataError, match="StandardizedDataset"):
            evaluation.cross_validate(values, dag)


class TestFactorIndependence:
    def test_refitting_one_node_leaves_others_untouched(self, grid_dataset):
        dag = make_dag("markov", 3)
        base_hp = [NodeHyperparams(lam=0.01)] * 3
        other_hp = [NodeHyperparams(lam=0.5)] + base_hp[1:]
        m1 = fit_joint(grid_dataset, dag, base_hp)
        m2 = fit_joint(grid_dataset, dag, other_hp)
        assert m1.factors[0].lam != m2.factors[0].lam
        for f1, f2 in zip(m1.factors[1:], m2.factors[1:]):
            np.testing.assert_array_equal(f1.beta, f2.beta)
            np.testing.assert_array_equal(f1.kernel_y.bandwidths,
                                          f2.kernel_y.bandwidths)

    def test_full_equals_markov_for_two_columns(self, rng):
        ds = standardize(rng.normal(size=(50, 2)))
        hp = NodeHyperparams(lam=0.05)
        m_full = fit_joint(ds, make_dag("full", 2), hp)
        m_markov = fit_joint(ds, make_dag("markov", 2), hp)
        for f1, f2 in zip(m_full.factors, m_markov.factors):
            np.testing.assert_array_equal(f1.beta, f2.beta)


class TestJointTerms:
    def test_single_node_reduction(self, rng):
        ds = standardize(rng.normal(size=(30, 1)))
        model = fit_joint(ds, make_dag("full", 1), NodeHyperparams(lam=0.1))
        row = ds.values[4]
        terms = joint_terms(model, row)
        assert terms.shape == (1,)
        factor = model.factors[0]
        assert terms[0] == factor.base.log_pdf_rows(row[None])[0] + eval_T(factor, None, row)

    def test_terms_match_per_factor_recomputation(self, grid_dataset):
        model = fit_joint(grid_dataset, make_dag("full", 3),
                          NodeHyperparams(lam=0.02))
        row = grid_dataset.values[11]
        terms = joint_terms(model, row)
        for node in range(3):
            parents = list(model.dag.parents[node])
            factor = model.factors[node]
            s2 = factor.base.std**2
            log_q0 = -0.5 * np.log(2 * np.pi * s2) - row[node]**2 / (2 * s2)
            expect = log_q0 + eval_T(factor, row[parents], row[[node]])
            assert abs(terms[node] - expect) < 1e-12

    def test_jacobian_shift_matches_stats(self, grid_dataset):
        model = fit_joint(grid_dataset, make_dag("markov", 3),
                          NodeHyperparams(lam=0.05))
        expect = -np.sum(np.log(grid_dataset.column_stds))
        assert model.log_jacobian == pytest.approx(expect, rel=1e-15)

    def test_row_dimension_checked(self, grid_dataset):
        model = fit_joint(grid_dataset, make_dag("markov", 3),
                          NodeHyperparams(lam=0.05))
        with pytest.raises(DataError):
            evaluation.test_loglik(model, np.zeros((1, 2)))


class TestJointModelValidation:
    def test_factor_count_must_match(self, grid_dataset):
        model = fit_joint(grid_dataset, make_dag("markov", 3),
                          NodeHyperparams(lam=0.05))
        with pytest.raises(DataError):
            JointModel(dag=make_dag("markov", 2), factors=model.factors,
                       column_means=np.zeros(2), column_stds=np.ones(2),
                       column_names=("a", "b"))

    def test_positive_stds_required(self, grid_dataset):
        model = fit_joint(grid_dataset, make_dag("markov", 3),
                          NodeHyperparams(lam=0.05))
        with pytest.raises(DataError):
            JointModel(dag=model.dag, factors=model.factors,
                       column_means=np.zeros(3), column_stds=np.array([1, 0, 1]),
                       column_names=("a", "b", "c"))
