import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meanking import attack, bases, protocol, qmath, retrodiction, security

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def scaled_copy(bs, factor, which=0):
    mats = bs.vectors.copy()
    mats[which] *= factor
    return bases.BasisSet(mats)


class TestGenMub:
    def test_d2_is_pauli_eigenbases(self, mub2):
        # each basis diagonalizes the matching shift/clock operator
        for op, basis in zip([Z2, X2, X2 @ Z2], mub2.vectors):
            for v in basis:
                ev = np.vdot(v, op @ v)
                assert np.linalg.norm(op @ v - ev * v) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_cross_overlaps(self, d):
        bs = bases.gen_mub(d)
        assert bs.k == d + 1
        worst = bases._gram_deviations(bs)[1]
        assert worst <= 1e-10, worst
        if d in (2, 3):
            assert worst < 1e-12

    def test_unsupported_dimension(self):
        with pytest.raises(bases.UnsupportedDimension):
            bases.gen_mub(4)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_all_checks_pass(self, d):
        bs = bases.gen_mub(d)
        report = bases.validate(bs)
        assert report.orthonormal and report.unbiased
        assert report.nondegenerate and report.span_rank == d * d
        assert report.classical_model


class TestBasisSet:
    def test_shape_read_from_array(self, mub3):
        assert mub3.vectors.shape == (4, 3, 3) and (mub3.k, mub3.dim) == (4, 3)
        assert mub3.vectors.dtype == complex

    @pytest.mark.parametrize("vectors", [np.eye(2), np.zeros((2, 2, 3)), np.zeros((0, 2, 2)),
                                         [np.eye(2), np.eye(3)]],
                             ids=["one-basis", "not-square", "empty", "ragged"])
    def test_shape_refused(self, vectors):
        with pytest.raises(ValueError):
            bases.BasisSet(vectors)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_refused_before_lapack(self, mub2, refused_quietly, value):
        # a NaN once reached LAPACK in build_strategy and validate, which
        # printed "On entry to DLASCL parameter number 4 had an illegal value"
        mats = mub2.vectors.copy()
        mats[1, 0, 1] = value
        refused_quietly(lambda: bases.BasisSet(mats), "not finite")


class TestOrthonormal:
    def test_generated_sets(self, mub3):
        assert bases._gram_deviations(mub3)[0] < 1e-12

    def test_duplicated_vector(self, mub2):
        mats = mub2.vectors.copy()
        mats[1, 1] = mats[1, 0]
        bs = bases.BasisSet(mats)
        assert not bases._gram_deviations(bs)[0] <= qmath.DEFAULT_TOL

    def test_scaled_basis(self, mub2):
        worst = bases._gram_deviations(scaled_copy(mub2, 0.9))[0]
        assert abs(worst - 0.19) < 1e-12  # |0.81 - 1|


class TestNondegenerate:
    def test_mub(self, mub2):
        ok, rank = bases.check_nondegenerate(mub2)
        assert ok and rank == 4

    def test_single_basis(self, mub3):
        bs = bases.BasisSet(mub3.vectors[:1])
        ok, rank = bases.check_nondegenerate(bs)
        assert ok and rank == 3  # 1*(d-1)+1

    def test_duplicated_basis(self, mub3):
        bs = bases.BasisSet(mub3.vectors[[0, 0]])
        ok, rank = bases.check_nondegenerate(bs)
        assert not ok and rank == 3  # below 2(d-1)+1

    def test_invariances(self, mub3):
        rng = np.random.default_rng(23)
        # relabel vectors within a basis
        mats = mub3.vectors.copy()
        mats[2] = mats[2][rng.permutation(3)]
        shuffled = bases.BasisSet(mats)
        assert bases.check_nondegenerate(shuffled) == bases.check_nondegenerate(mub3)
        # global unitary rotation
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rotated = bases.BasisSet(mub3.vectors @ u.T)
        assert bases.check_nondegenerate(rotated) == bases.check_nondegenerate(mub3)


class TestPairwiseJoint:
    def test_d2_uniform(self, mub2):
        assert_allclose(bases.pairwise_joint(mub2, 0, 1), np.full((2, 2), 0.25), atol=1e-14)

    def test_d3_uniform(self, mub3):
        assert_allclose(bases.pairwise_joint(mub3, 1, 3), np.full((3, 3), 1 / 9), atol=1e-12)

    def test_same_basis_rejected(self, mub2):
        with pytest.raises(ValueError):
            bases.pairwise_joint(mub2, 1, 1)

    def test_marginals(self, mub3):
        rng = np.random.default_rng(29)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        bs = bases.BasisSet([mub3.vectors[0], u])
        table = bases.pairwise_joint(bs, 0, 1)
        assert_allclose(table.sum(axis=0), np.full(3, 1 / 3), atol=1e-12)
        assert_allclose(table.sum(axis=1), np.full(3, 1 / 3), atol=1e-12)
        assert abs(table.sum() - 1.0) < 1e-12


class TestClassicalModel:
    def test_d2_feasible_with_witness(self, mub2):
        ok, q = bases.check_classical_model(mub2)
        assert ok
        assert abs(q.sum() - 1.0) < 1e-9
        assert np.all(q >= -1e-12)
        cube = q.reshape((2, 2, 2))
        for a in range(3):
            for b in range(a + 1, 3):
                axes = tuple(ax for ax in range(3) if ax not in (a, b))
                marg = cube.sum(axis=axes)
                assert np.max(np.abs(marg - bases.pairwise_joint(mub2, b, a))) < 1e-9

    def test_single_basis_uniform(self, mub3):
        bs = bases.BasisSet(mub3.vectors[:1])
        ok, q = bases.check_classical_model(bs)
        assert ok and abs(q.sum() - 1.0) < 1e-9

    def test_d3_witness_reproduces_marginals(self, mub3):
        ok, q = bases.check_classical_model(mub3)
        assert ok
        k, d = mub3.k, mub3.dim
        cube = q.reshape((d,) * k)
        for a in range(k):
            for b in range(a + 1, k):
                axes = tuple(ax for ax in range(k) if ax not in (a, b))
                marg = cube.sum(axis=axes)  # indexed [value_a, value_b]
                want = bases.pairwise_joint(mub3, b, a)
                assert np.max(np.abs(marg - want)) < 1e-9, (a, b)


@pytest.fixture()
def lp_calls(monkeypatch):
    """Basis-set sizes (d, k) the classical-model LP is called on."""
    calls = []
    lp = bases._classical_model_lp

    def recording(bs, tol):
        calls.append((bs.dim, bs.k))
        return lp(bs, tol)

    monkeypatch.setattr(bases, "_classical_model_lp", recording)
    return calls


def assert_witness(bs, q):
    k, d = bs.k, bs.dim
    assert abs(q.sum() - 1.0) < 1e-9 and np.all(q >= -1e-12)
    cube = q.reshape((d,) * k)
    for a in range(k):
        for b in range(a + 1, k):
            axes = tuple(ax for ax in range(k) if ax not in (a, b))
            assert np.max(np.abs(cube.sum(axis=axes) - bases.pairwise_joint(bs, b, a))) < 1e-9


class TestClassicalModelPaths:
    @pytest.mark.parametrize("d", [2, 3])
    def test_mub_uniform_witness_without_lp(self, d, lp_calls):
        bs = bases.gen_mub(d)
        ok, q = bases.check_classical_model(bs)
        assert ok and lp_calls == []
        assert np.all(q == 1.0 / d ** (d + 1))
        lp_ok, lp_q = bases._classical_model_lp(bs, 1e-9)
        assert lp_ok
        assert_witness(bs, lp_q)

    @pytest.mark.parametrize("angle", [0.05, 0.6])
    def test_biased_set_falls_back_to_lp(self, angle, mub3, lp_calls, biased_copy):
        bs = biased_copy(mub3, angle, b=2)
        ok, q = bases.check_classical_model(bs)
        assert lp_calls == [(3, 4)]
        assert ok
        assert_witness(bs, q)
        assert bases.validate(bs).classical_model

    def test_nudged_table_needs_lp_at_tight_tolerance(self, mub2, lp_calls, biased_copy):
        bs = biased_copy(mub2, 1e-4)  # tables off 1/4 by about 1e-4
        assert bases.check_classical_model(bs, 1e-3)[0] and lp_calls == []
        assert bases.check_classical_model(bs, 1e-9)[0] and lp_calls == [(2, 3)]


class TestValidateMemory:
    def test_d7_allocates_no_witness(self):
        # the uniform witness at d=7 would be 7**8 floats, 46 MB
        bs = bases.gen_mub(7)
        tracemalloc.start()
        try:
            report = bases.validate(bs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.classical_model
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("angle,flat", [(0.0, True), (1e-4, False), (0.6, False)])
    def test_flatness_predicate(self, mub3, biased_copy, angle, flat):
        assert (bases._gram_deviations(biased_copy(mub3, angle, b=2))[2] <= 1e-9) is flat


class TestSizePolicy:
    """Each size limit lives in ``bases``; the dense-array refusals all read MAX_ARRAY_ENTRIES."""

    def test_block_lemma_and_sampler_read_one_budget(self, monkeypatch, strategy_d2, strategy_d3):
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 255)
        # a block's operator on A x B has (d**(2n))**2 entries: 16 at n=1, 256 at n=2
        assert retrodiction.checked_block_dim(2, 1) == 2
        with pytest.raises(bases.OverBudget, match=r"2\*\*\(2\*2\)\*1 exceeds budget 15"):
            retrodiction.checked_block_dim(2, 2)
        with pytest.raises(bases.OverBudget, match="need 256 entries, budget 255"):
            security.eigenvector_constraint_dim(strategy_d2.safe_vectors)
        # a walked d=3 basis block of the identity attack fills 3 outcomes x 81 guessing functions
        cfg = protocol.ProtocolConfig(d=3, n=1, rounds=1, test_fraction=0.0, seed=1)
        identity = attack.identity_attack(3, 1)
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 242)
        with pytest.raises(bases.OverBudget, match="up to 243 amplitudes, budget 242"):
            protocol.run_protocol(cfg, strategy_d3, identity)
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 243)
        assert len(protocol.run_protocol(cfg, strategy_d3, identity).codes) == 1

    def test_honest_closed_form_reads_the_budget(self, monkeypatch, strategy_d5):
        # an honest run on uniform weights holds one shared table of d**(k-1) entries
        cfg = protocol.ProtocolConfig(d=5, n=1, rounds=1, test_fraction=0.0, seed=1)
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 5**5 - 1)
        with pytest.raises(bases.OverBudget, match="table holds 3125 entries, budget 3124"):
            protocol.run_protocol(cfg, strategy_d5)
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 5**5)
        assert len(protocol.run_protocol(cfg, strategy_d5).codes) == 1

    def test_no_module_keeps_a_copy(self):
        removed = {retrodiction: "MAX_BLOCK_DIM", protocol: "MAX_BORN_ENTRIES",
                   security: "MAX_CONSTRAINT_ENTRIES", bases: "_LP_VAR_GUARD"}
        assert [f"{m.__name__}.{name}" for m, name in removed.items() if hasattr(m, name)] == []
        assert retrodiction.MAX_GUESSING_FUNCTIONS is bases.MAX_GUESSING_FUNCTIONS
        assert retrodiction.enumerate_guessing_functions is bases.enumerate_guessing_functions


class TestValidateTolerance:
    def test_tol_below_floor_refused(self, mub2, biased_copy):
        # cross overlaps off 1/d by 3e-11: visible at 1e-12, hidden under the floor
        bs = biased_copy(mub2, 3e-11)
        assert not bases._gram_deviations(bs)[1] <= 1e-12
        for tol in (1e-12, 1e-10, float("nan")):
            with pytest.raises(ValueError, match="below the validation floor 1e-09"):
                bases.validate(bs, tol)
        assert bases.validate(bs, qmath.MIN_VALIDATE_TOL).unbiased

    def test_tol_at_or_above_ceiling_refused(self, mub2, biased_copy):
        # a tolerance of 1 bounds no overlap of unit vectors: it would accept this set
        bs = biased_copy(mub2, 0.3)
        for tol in (1.0, 1e300, float("inf")):
            with pytest.raises(ValueError, match="is not below the ceiling 1$"):
                bases.validate(bs, tol)
        assert not bases.validate(bs, 0.1).unbiased

    def test_tol_applied_as_given(self, mub2, biased_copy):
        bs = biased_copy(mub2, 1e-6)  # off by about 1e-6, refused at 1e-9, accepted at 1e-5
        assert not bases.validate(bs, 1e-9).unbiased
        assert bases.validate(bs, 1e-5).unbiased


class TestFileFormat:
    def test_roundtrip(self, tmp_path, mub3):
        path = tmp_path / "b3.json"
        bases.save_basis_set(mub3, path)
        loaded = bases.load_basis_set(path)
        assert loaded.dim == 3 and loaded.k == 4
        assert_allclose(loaded.vectors, mub3.vectors)

    def test_complex_pairs_layout(self, tmp_path, mub2):
        path = tmp_path / "b2.json"
        bases.save_basis_set(mub2, path)
        raw = json.loads(path.read_text())
        assert raw["dim"] == 2
        entry = raw["bases"][1][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "bases": [[[0.5, 0.5]]]}')
        with pytest.raises(bases.FormatError):
            bases.load_basis_set(path)
