from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanking import bases, retrodiction as rd, security
from oracles import commutant_stacked


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


def residuals_per_vector(etas, e):
    """||(1 - P_eta) E eta||**2 for each row eta, one row at a time."""
    out = []
    for eta in etas:
        v = e @ eta
        v = v - eta * np.vdot(eta, v) / np.vdot(eta, eta).real
        out.append(np.vdot(v, v).real)
    return np.array(out)


def random_operator(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestForm:
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_form_sums_the_conditions(self, strategy_d2, strategy_d3, d, seed):
        rng = np.random.default_rng(seed)
        etas = (strategy_d2 if d == 2 else strategy_d3).etas
        etas = etas[rng.choice(len(etas), size=rng.integers(1, len(etas) + 1), replace=False)]
        e = random_operator(rng, d * d)
        form = np.vdot(e.reshape(-1), security.constraint_matrix(etas) @ e.reshape(-1))
        direct = residuals_per_vector(etas, e).sum()
        assert form.real == pytest.approx(direct, rel=1e-10)
        assert abs(form.imag) <= 1e-10 * direct

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_quantitative_lemma(self, strategy_d2, strategy_d3, d, seed):
        # beyond the paper: on MUBs the weighted residuals bound E's distance
        # from the scalar line by the spectral gap 1 - 1/d
        strategy = strategy_d2 if d == 2 else strategy_d3
        e = random_operator(np.random.default_rng(seed), d * d)
        weighted = float(strategy.weights @ residuals_per_vector(strategy.etas, e))
        off_scalar = np.linalg.norm(e - np.trace(e) / (d * d) * np.eye(d * d)) ** 2
        assert weighted >= (1 - 1 / d) * off_scalar * (1 - 1e-12)


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

    def test_tol_below_rounding_floor(self, strategy_d2):
        # vectors of dimension 4 give a 16 x 16 form, floor 16 * eps
        eps = np.finfo(float).eps
        with pytest.raises(ValueError, match="below the rounding floor"):
            security.constraint_nullspace(strategy_d2.etas, tol=15 * eps)
        with pytest.raises(ValueError, match="below the rounding floor"):
            security.constraint_nullspace(strategy_d2.etas, tol=float("nan"))
        assert security.constraint_nullspace(strategy_d2.etas, tol=16 * eps)[0] == 1

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
        assert report.witness.shape == (4, 4)
        # the n-block witness kron(w, w) is proportional to the identity
        w = np.kron(report.witness, report.witness)
        scalar = (np.trace(w) / 16) * np.eye(16)
        assert np.linalg.norm(w - scalar) < report.tol * max(1.0, np.linalg.norm(w)) * 10
        assert security.witness_identity_deviation(report) < 1e-8

    @pytest.mark.parametrize("n", [0, -1])
    def test_block_length_below_one(self, strategy_d2, n):
        with pytest.raises(ValueError):
            security.product_commutant_check(strategy_d2, n)

    @pytest.mark.parametrize("name, n", [("strategy_d2", 1), ("strategy_d2", 2),
                                         ("strategy_d3", 1), ("unit_strategy", 1),
                                         ("unit_strategy", 2)])
    def test_matches_stacked_route(self, request, name, n):
        strategy = request.getfixturevalue(name)
        report = security.product_commutant_check(strategy, n)
        dim_null, rank, stack = commutant_stacked(strategy, n)
        assert (report.solution_dim, report.constraint_rank) == (dim_null, rank)
        if name == "unit_strategy":
            assert report.solution_dim == 4**n
        # the lifted witness solves the stacked n-block system
        w = report.witness
        for _ in range(n - 1):
            w = np.kron(w, report.witness)
        assert np.linalg.norm(stack @ w.reshape(-1)) < 1e-12 * np.linalg.norm(stack, 2)

    @pytest.mark.parametrize("name, n, rank", [("strategy_d2", 3, 4095), ("strategy_d3", 2, 6560)])
    def test_blocks_beyond_the_stack(self, request, name, n, rank):
        report = security.product_commutant_check(request.getfixturevalue(name), n)
        assert (report.solution_dim, report.constraint_rank) == (1, rank)
        assert security.witness_identity_deviation(report) < 1e-8

    def test_deviation_of_the_tensor_power(self, strategy_d2, unit_strategy):
        # against the deviation of the explicit kron(w, w), and, near the
        # identity, against sqrt(n) times the single-block deviation
        report = security.product_commutant_check(unit_strategy, 2)
        w = np.kron(report.witness, report.witness)
        direct = np.linalg.norm(w - np.trace(w) / 16 * np.eye(16)) / np.linalg.norm(w)
        assert security.witness_identity_deviation(report) == pytest.approx(direct, rel=1e-12)
        one, three = (security.witness_identity_deviation(
            security.product_commutant_check(strategy_d2, n)) for n in (1, 3))
        assert three == pytest.approx(np.sqrt(3) * one, rel=1e-6)

    def test_resource_guard(self, strategy_d2, monkeypatch):
        # every n is answered from the single-block form, max(8, 16) x 16 = 256
        # entries at d=2, so that form's budget is the one that refuses
        monkeypatch.setattr(security, "MAX_CONSTRAINT_ENTRIES", 255)
        for n in (1, 2, 3):
            with pytest.raises(bases.OverBudget, match="8 vectors of dimension 4"):
                security.product_commutant_check(strategy_d2, n)

    @pytest.mark.parametrize("name, largest", [("strategy_d2", 6), ("strategy_d3", 3)])
    def test_block_budget(self, request, name, largest):
        # d**(2n) <= 4096 is the block budget of the n-block attack
        strategy = request.getfixturevalue(name)
        assert security.product_commutant_check(strategy, largest).solution_dim == 1
        with pytest.raises(bases.OverBudget, match=rf"\*\*\(2\*{largest + 1}\)\*1 exceeds"):
            security.product_commutant_check(strategy, largest + 1)

    def test_block_budget_forms_no_large_power(self):
        class Dim(int):
            def __pow__(self, exponent):
                assert exponent <= 64, f"formed d**{exponent}"
                return int(self) ** exponent

        strategy = SimpleNamespace(d=Dim(3), safe_vectors=None)
        with pytest.raises(bases.OverBudget, match=r"3\*\*\(2\*10000000000\)\*1 exceeds"):
            security.product_commutant_check(strategy, 10**10)

    def test_resource_guard_n1(self, monkeypatch):
        # 50 000 vectors of dimension 25 would fill a 50 000 x 625 complex
        # array (500 MB) on the way to the form
        def refuse(*_args):
            raise AssertionError("constraint form built despite the budget")

        monkeypatch.setattr(security, "constraint_matrix", refuse)
        safe_vectors = rd.safe_vector_table(np.zeros((50_000, 6), dtype=int),
                                            np.zeros((50_000, 25), dtype=complex), np.zeros(50_000))
        with pytest.raises(bases.OverBudget, match="50000 vectors of dimension 25"):
            security.eigenvector_constraint_dim(safe_vectors)

    def test_product_decomposition_property(self, strategy_d2):
        # the triple identity applied to one tensor slot of a product vector
        def eta(x1, x2):  # the product safe vector, pair-interleaved
            return np.kron(strategy_d2.safe_vector(x1).eta, strategy_d2.safe_vector(x2).eta)

        rng = np.random.default_rng(41)
        xs = strategy_d2.safe_vectors.x
        for _ in range(10):
            x1 = xs[rng.integers(8)]
            x2 = xs[rng.integers(8)]
            bp, bt = rng.choice(3, size=2, replace=False)
            jp = int((x1[bp] + 1) % 2)
            jt = int((x1[bt] + 1) % 2)
            u, v, w = rd.decomposition_triple(x1, bp, bt, jp, jt)
            lhs = eta(x1, x2)
            rhs = eta(u, x2) + eta(v, x2) - eta(w, x2)
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
            "spectral_gap": pytest.approx(0.5, abs=1e-12),
            "tol": report.tol,
        }
