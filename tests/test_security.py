import numpy as np
import pytest

from meanking import bases, retrodiction as rd, security


def brute_force_solution_dim(etas):
    """Assemble the eigenvector constraints entry by entry and rank them."""
    etas = np.asarray(etas)
    nvec, dim = etas.shape
    rows = []
    for eta in etas:
        proj = np.eye(dim) - np.outer(eta, eta.conj()) / np.vdot(eta, eta).real
        for out_idx in range(dim):
            row = np.zeros(dim * dim, dtype=complex)
            for j in range(dim):
                for kk in range(dim):
                    # coefficient of E[j, kk] in component out_idx of P E eta
                    row[j * dim + kk] += proj[out_idx, j] * eta[kk]
            rows.append(row)
    m = np.asarray(rows)
    return dim * dim - np.linalg.matrix_rank(m, tol=1e-9 * np.linalg.norm(m, 2))


class TestSingleRunCommutant:
    def test_d2_solution_dim_one(self, strategy_d2):
        report = security.eigenvector_constraint_dim(strategy_d2.safe_vectors)
        assert report.solution_dim == 1
        assert security.witness_identity_deviation(report) < 1e-8

    def test_d3_solution_dim_one(self, strategy_d3):
        report = security.eigenvector_constraint_dim(strategy_d3.safe_vectors)
        assert report.solution_dim == 1
        assert security.witness_identity_deviation(report) < 1e-8

    def test_single_vector_matches_brute_force(self, strategy_d2):
        etas = strategy_d2.etas[:1]
        dim_null, _, _ = security.constraint_nullspace(etas)
        assert dim_null == brute_force_solution_dim(etas)

    def test_few_vectors_match_brute_force(self, strategy_d2):
        for count in (2, 3, 5):
            etas = strategy_d2.etas[:count]
            dim_null, _, _ = security.constraint_nullspace(etas)
            assert dim_null == brute_force_solution_dim(etas), count

    def test_monotone_in_removed_vectors(self, strategy_d2):
        dims = []
        for count in (8, 6, 3, 1):
            dim_null, _, _ = security.constraint_nullspace(strategy_d2.etas[:count])
            dims.append(dim_null)
        assert dims[0] == 1
        assert dims == sorted(dims)
        assert dims[-1] > dims[0]

    def test_spanning_precondition(self, strategy_d2):
        with pytest.raises(ValueError):
            security.eigenvector_constraint_dim(strategy_d2.safe_vectors[:3])

    def test_constraint_rank(self, strategy_d2):
        report = security.eigenvector_constraint_dim(strategy_d2.safe_vectors)
        assert report.constraint_rank == 16 - report.solution_dim


class TestProductCommutant:
    def test_n1_reduces_to_single_run(self, strategy_d2):
        r1 = security.eigenvector_constraint_dim(strategy_d2.safe_vectors)
        r2 = security.product_commutant_check(strategy_d2, 1)
        assert r1.solution_dim == r2.solution_dim
        assert r1.constraint_rank == r2.constraint_rank

    def test_n2_d2(self, strategy_d2):
        report = security.product_commutant_check(strategy_d2, 2)
        assert report.solution_dim == 1
        assert report.witness.shape == (16, 16)
        # witness proportional to identity, restated as a relative distance
        w = report.witness
        scalar = (np.trace(w) / 16) * np.eye(16)
        assert np.linalg.norm(w - scalar) < report.tol * max(1.0, np.linalg.norm(w)) * 10
        assert security.witness_identity_deviation(report) < 1e-8

    def test_resource_guard(self, strategy_d3):
        with pytest.raises(bases.OverBudget):
            security.product_commutant_check(strategy_d3, 2)

    def test_resource_guard_n1(self, monkeypatch):
        # the d=5 MUB strategy's shapes: 15 625 vectors of dimension 25 would
        # stack a 390 625 x 625 complex matrix (3.9 GB)
        def refuse(*_args):
            raise AssertionError("constraint stack built despite the budget")

        monkeypatch.setattr(security, "constraint_matrix", refuse)
        eta = np.zeros(25, dtype=complex)
        safe_vectors = [rd.SafeVector(x=(0,) * 6, eta=eta, residual=0.0)] * 5**6
        with pytest.raises(bases.OverBudget, match="15625 vectors of dimension 25"):
            security.eigenvector_constraint_dim(safe_vectors)

    def test_product_decomposition_property(self, strategy_d2):
        # the triple identity applied to one tensor slot of a product vector
        ps = rd.tensor_strategy(strategy_d2, 2)
        rng = np.random.default_rng(41)
        xs = strategy_d2.guessing_functions
        for _ in range(10):
            x1 = xs[rng.integers(8)]
            x2 = xs[rng.integers(8)]
            bp, bt = rng.choice(3, size=2, replace=False)
            jp = int((x1[bp] + 1) % 2)
            jt = int((x1[bt] + 1) % 2)
            u, v, w = rd.decomposition_triple(x1, bp, bt, jp, jt)
            lhs = ps.safe_vector((x1, x2))
            rhs = (
                ps.safe_vector((u, x2))
                + ps.safe_vector((v, x2))
                - ps.safe_vector((w, x2))
            )
            assert np.linalg.norm(lhs - rhs) < 1e-8


class TestReport:
    def test_json_fields(self, strategy_d2):
        report = security.product_commutant_check(strategy_d2, 2)
        payload = report.to_dict()
        assert payload == {
            "dim": 2,
            "n": 2,
            "solution_dim": 1,
            "constraint_rank": payload["constraint_rank"],
            "tol": report.tol,
        }
