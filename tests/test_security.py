import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meanking import bases, retrodiction as rd, security
import exact
from oracles import commutant_stacked, decomposition_triple, weyl_loops, weyl_sector_labels


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


def weyl_basis(d):
    """Columns vec(W_(m1,l1) (x) W_(m2,l2)) / d from the oracle's unitaries, column
    (l1 d + l2) d**2 + m1 d + m2 as in ``oracles.weyl_sector_labels``."""
    units = weyl_loops(d, 2)  # [m1 d + m2, l1 d + l2]
    return units.transpose(1, 0, 2, 3).reshape(d**4, d**4).T / d


def weyl_form(etas):
    """The lemma's form of the rows of ``etas`` (dimension d**2) in the dense Weyl basis."""
    basis = weyl_basis(math.isqrt(etas.shape[1]))
    return basis.conj().T @ security.constraint_matrix(etas) @ basis


def off_sector_mass(form, d):
    """Frobenius norm of the entries of a Weyl form that couple two different sectors."""
    labels = weyl_sector_labels(d)
    return np.linalg.norm(form[labels[:, None] != labels])


def eigh_calls(monkeypatch):
    """The shapes of the arrays handed to ``np.linalg.eigh`` from now on."""
    shapes, eigh = [], np.linalg.eigh

    def spy(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


def dense_decision(etas, tol=1e-9):
    """``(solution_dim, spectral_gap)`` from one dense ``eigvalsh`` of the whole form."""
    evals = np.linalg.eigvalsh(security.constraint_matrix(etas))
    null = int(np.sum(evals <= tol * evals[-1]))
    return null, evals[null] / evals[-1]


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

    @pytest.mark.parametrize("name", ["strategy_d2", "strategy_d3"])
    def test_chunks_of_one_row(self, request, monkeypatch, name):
        # d <= 3 fits the default budget in one chunk, so its form is the one-shot sum
        etas = request.getfixturevalue(name).etas
        assert etas.size * etas.shape[1] <= security._FORM_ENTRIES
        whole = security.constraint_matrix(etas)
        monkeypatch.setattr(security, "_FORM_ENTRIES", 1)
        np.testing.assert_allclose(security.constraint_matrix(etas), whole, rtol=0, atol=1e-12)

    def test_peak_memory_d5(self, strategy_d5):
        # w of the d=5 strategy is 15 625 x 625 entries (156 MB) and never built whole
        etas = strategy_d5.etas
        security.constraint_matrix(etas[:1])  # first-call allocations stay outside
        tracemalloc.start()
        try:
            security.constraint_matrix(etas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


class TestWeylSectors:
    """The closed form seen per Weyl sector, in the oracle's dense basis; the library
    decides every enumerated form by one eigh of the whole form."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mub_form_is_sector_diagonal(self, request, d):
        form = weyl_form(request.getfixturevalue(f"strategy_d{d}").etas)
        largest = np.linalg.eigvalsh(form)[-1]
        assert off_sector_mass(form, d) <= security._rounding_floor(d * d) * largest

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_sector_spectra_in_closed_form(self, request, d):
        # G / lambda_max: sector (0, 0) is {0 once, 1 d**2 - 1 times}; every other sector is
        # {1 - 1/d once, 1 - 2/d**2 d(d-1)/2 times, 1 d(d+1)/2 - 1 times}, merged at d=2
        strategy = request.getfixturevalue(f"strategy_d{d}")
        form, labels = weyl_form(strategy.etas), weyl_sector_labels(d)
        assert np.bincount(labels).tolist() == [d * d] * (d * d)
        spectra = np.array([np.linalg.eigvalsh(form[np.ix_(labels == b, labels == b)])
                            for b in range(d * d)])
        spectrum, _ = security._closed_spectrum(strategy)
        values, counts = zip(*spectrum)
        largest = max(values)
        pooled = np.sort(spectra, axis=None) / largest
        np.testing.assert_allclose(pooled, np.sort(np.repeat(values, counts)) / largest,
                                   rtol=0, atol=1e-12)
        spectra /= spectra.max()
        np.testing.assert_allclose(spectra[0], [0.0] + [1.0] * (d * d - 1), rtol=0, atol=1e-12)
        other = sorted([1 - 1 / d] + [1 - 2 / d**2] * (d * (d - 1) // 2)
                       + [1.0] * (d * (d + 1) // 2 - 1))
        np.testing.assert_allclose(spectra[1:], [other] * (d * d - 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 5])
    def test_mub_lemma_is_one_eigh(self, request, monkeypatch, d):
        strategy = request.getfixturevalue(f"strategy_d{d}")
        shapes = eigh_calls(monkeypatch)
        report = security.eigenvector_constraint_dim(strategy.safe_vectors)
        assert shapes == [(d**4, d**4)]
        assert report.solution_dim == 1
        assert report.spectral_gap == pytest.approx(1 - 1 / d, abs=1e-12)

    def test_d2_margin(self, strategy_d2, monkeypatch):
        # the thinnest margin of the MUB tables, 1 - 1/d = 1/2, from the whole 16 x 16 form
        shapes = eigh_calls(monkeypatch)
        report = security.eigenvector_constraint_dim(strategy_d2.safe_vectors)
        assert shapes == [(16, 16)]
        assert (report.solution_dim, report.spectral_gap) == (1, pytest.approx(0.5, abs=1e-12))
        null, gap = dense_decision(strategy_d2.etas)
        assert (null, gap) == (1, pytest.approx(report.spectral_gap, abs=1e-12))

    @pytest.mark.parametrize("case", ["biased-2", "biased-3", "subset-2", "subset-3", "pair-3"])
    def test_other_sets_are_decided_whole(self, request, monkeypatch, biased_copy, case):
        # a set that is not sector diagonal goes through the same one eigh as the MUBs
        kind, d = case.split("-")
        d = int(d)
        if kind == "biased":
            strategy = rd.build_strategy(biased_copy(request.getfixturevalue(f"mub{d}"), 0.1))
            etas = strategy.etas
        else:
            etas = request.getfixturevalue(f"strategy_d{d}").etas
            etas = etas[:2] if kind == "pair" else etas[:d * d + 3]
        shapes = eigh_calls(monkeypatch)
        dim_null, vectors, evals = security.constraint_nullspace(etas)
        assert shapes == [(d**4, d**4)]
        null, gap = dense_decision(etas)
        assert dim_null == null
        assert evals[dim_null] / evals[-1] == pytest.approx(gap, abs=1e-12)
        if kind == "biased":
            report = security.eigenvector_constraint_dim(strategy.safe_vectors)
            assert (report.solution_dim, report.constraint_rank) == (null, d**4 - null)

    def test_dimension_without_weyl_sectors(self, monkeypatch):
        # vectors of dimension 6, not a square: no Weyl basis, and the same one eigh
        rng = np.random.default_rng(6)
        etas = rng.normal(size=(20, 6)) + 1j * rng.normal(size=(20, 6))
        shapes = eigh_calls(monkeypatch)
        dim_null, vectors, evals = security.constraint_nullspace(etas)
        assert shapes == [(36, 36)]
        null, gap = dense_decision(etas)
        assert dim_null == null == 1
        assert evals[1] / evals[-1] == pytest.approx(gap, abs=1e-12)
        np.testing.assert_allclose(security.constraint_matrix(etas) @ vectors[0], 0,
                                   atol=1e-12 * evals[-1])

    @pytest.mark.parametrize("name", ["strategy_d2", "strategy_d3", "unit_strategy"])
    def test_vectors_are_orthonormal_eigenvectors(self, request, name):
        etas = request.getfixturevalue(name).etas
        form = security.constraint_matrix(etas)
        _, vectors, evals = security.constraint_nullspace(etas)
        assert np.all(np.diff(evals) >= 0)
        np.testing.assert_allclose(vectors.conj() @ vectors.T, np.eye(len(evals)), rtol=0,
                                   atol=1e-12)
        residual = vectors.conj() @ form @ vectors.T - np.diag(evals)
        assert np.abs(residual).max() <= 1e-12 * evals[-1]


def agreements(d, k):
    """a(x, y): the number of bases in which guessing functions x and y agree, all pairs."""
    xs = bases.enumerate_guessing_functions(d, k)
    return (xs[:, None, :] == xs[None, :, :]).sum(axis=2)


def no_enumeration(monkeypatch):
    """Make the enumerated route raise, so that a report shows the closed form answered."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("the enumerated route ran")

    monkeypatch.setattr(security, "constraint_nullspace", refuse)


def assert_same_report(closed, enumerated):
    assert (closed.solution_dim, closed.constraint_rank) == (enumerated.solution_dim,
                                                             enumerated.constraint_rank)
    assert closed.spectral_gap == pytest.approx(enumerated.spectral_gap, abs=1e-12)
    assert security.witness_identity_deviation(closed) == pytest.approx(
        security.witness_identity_deviation(enumerated), abs=1e-12)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def gf4_mub():
    """The five MUBs of C^4 from GF(4) (Wootters and Fields, Ann. Phys. 191, 363, 1989).

    GF(4) = {0, 1, w, w**2} with w**2 = w + 1 is held as 0, 1, 2, 3; in its
    self-dual basis {w, w**2} the element a has coordinates (a1, a2), and
    (a, b) labels the Hermitian two-qubit Pauli i**(a.b) X**a1 Z**b1 (x) X**a2 Z**b2.
    Two of them commute iff tr(a b' - a' b) = 0, so each line {(a, lam a)} of
    GF(4)**2, and {(0, b)}, is a class of three commuting Paulis; their common
    eigenbases are mutually unbiased.
    """
    log = {1: 0, 2: 1, 3: 2}
    mul = lambda a, b: 0 if 0 in (a, b) else [1, 2, 3][(log[a] + log[b]) % 3]
    coords = {0: (0, 0), 1: (1, 1), 2: (1, 0), 3: (0, 1)}
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])

    def pauli(a, b):
        (a1, a2), (b1, b2) = coords[a], coords[b]
        phase = 1j ** (a1 * b1 + a2 * b2)
        return phase * np.kron(np.linalg.matrix_power(x, a1) @ np.linalg.matrix_power(z, b1),
                               np.linalg.matrix_power(x, a2) @ np.linalg.matrix_power(z, b2))

    lines = [[(0, b) for b in (1, 2)]] + [[(a, mul(lam, a)) for a in (1, 2)] for lam in range(4)]
    # a combination of two commuting Paulis, eigenvalues +-1 +- 2, has one eigenbasis
    vectors = [np.linalg.eigh(pauli(*p) + 2 * pauli(*q))[1].T for p, q in lines]
    return bases.BasisSet(np.array(vectors))


class TestClosedForm:
    """The lemma from the Krawtchouk spectrum of the generator Gram, against enumeration."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_gram_depends_only_on_agreement(self, request, d):
        etas = request.getfixturevalue(f"strategy_d{d}").etas
        np.testing.assert_allclose(etas.conj() @ etas.T, d * (agreements(d, d + 1) - 1),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_krawtchouk_values(self, d):
        # the kernel (a - 1)**2 of the d=2, 3 MUB strategies: lambda_0..2 = d**k, d**(k-1),
        # 2 d**(k-2), each C(k, j) (d - 1)**j times, and 0 on the rest
        k = d + 1
        kernel = (agreements(d, k) - 1.0) ** 2
        scheme = security._hamming_scheme(k, d)
        lam = scheme.krawtchouk @ (scheme.agreements - 1.0) ** 2
        np.testing.assert_allclose(lam, [d**k, d**(k - 1), 2 * d**(k - 2)], rtol=0, atol=1e-12)
        mult = scheme.multiplicities[:3]
        want = np.repeat(np.append(lam, 0.0), list(mult) + [d**k - sum(mult)])
        np.testing.assert_allclose(np.linalg.eigvalsh(kernel), np.sort(want), rtol=0,
                                   atol=1e-12 * d**k)

    @pytest.mark.parametrize("d", [2, 3])
    def test_spectrum_with_multiplicities(self, request, d):
        strategy = request.getfixturevalue(f"strategy_d{d}")
        spectrum, rho = security._closed_spectrum(strategy)
        closed = np.sort(np.repeat(*np.array(spectrum).T.tolist()))
        dense = np.linalg.eigvalsh(security.constraint_matrix(strategy.etas))
        assert closed.size == d**4
        # within the certified radius, which is far below the gap
        assert np.abs(closed - dense).max() <= rho <= 1e-12 * dense[-1]
        np.testing.assert_allclose(closed / closed[-1], np.sort(
            [0.0] + [1 - 1 / d] * (d * d - 1) + [1 - 2 / d**2] * ((d + 1) * d * (d - 1) ** 2 // 2)
            + [1.0] * (d**4 - d * d - (d + 1) * d * (d - 1) ** 2 // 2)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_report_matches_enumeration(self, request, monkeypatch, d):
        strategy = request.getfixturevalue(f"strategy_d{d}")
        # the default cutoff; one between 1 - 1/d and 1 - 2/d**2 (merged at d=2, so there
        # between them and 1), where the solution dimension counts a whole multiplicity
        cuts = {2: 0.75, 3: 0.7, 5: 0.85}
        enumerated = [security.eigenvector_constraint_dim(strategy.safe_vectors, tol)
                      for tol in (1e-9, cuts[d])]
        no_enumeration(monkeypatch)
        closed = [security.product_commutant_check(strategy, 1, tol) for tol in (1e-9, cuts[d])]
        for got, want in zip(closed, enumerated):
            assert_same_report(got, want)
        assert closed[0].solution_dim == 1
        assert closed[0].spectral_gap == pytest.approx(1 - 1 / d, abs=1e-12)
        assert closed[1].solution_dim == (7 if d == 2 else d * d)
        assert security.witness_identity_deviation(closed[0]) == 0.0

    def test_cutoff_at_an_eigenvalue_goes_to_enumeration(self, strategy_d3, monkeypatch):
        # 2/3 lies within the radius of the eigenvalue 1 - 1/d: the closed form cannot say
        # on which side, and the enumerated route decides
        assert security._closed_form(strategy_d3, 2 / 3) is None
        want = security.eigenvector_constraint_dim(strategy_d3.safe_vectors, 2 / 3)
        got = security.product_commutant_check(strategy_d3, 1, 2 / 3)
        assert (got.solution_dim, got.spectral_gap) == (want.solution_dim, want.spectral_gap)

    @settings(max_examples=10, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
           angle=st.floats(0.05, 0.7))
    def test_routes_follow_the_structure(self, d, seed, angle):
        rng = np.random.default_rng(seed)
        rotated = bases.BasisSet(bases.gen_mub(d).vectors @ random_unitary(rng, d).T)
        strategy = rd.build_strategy(rotated)
        enumerated = security.eigenvector_constraint_dim(strategy.safe_vectors)
        turned = rotated.vectors.copy()
        b = rng.integers(rotated.k)
        turned[b, :2] = np.array([[np.cos(angle), np.sin(angle)],
                                  [-np.sin(angle), np.cos(angle)]]) @ turned[b, :2]
        biased = rd.build_strategy(bases.BasisSet(turned))  # LP weights
        table = rd.Strategy(rotated, strategy.weights, table=strategy.safe_vectors)
        others = [(s, security.eigenvector_constraint_dim(s.safe_vectors)) for s in (biased, table)]
        with pytest.MonkeyPatch.context() as patch:
            no_enumeration(patch)
            assert_same_report(security.product_commutant_check(strategy, 1), enumerated)
        assert biased.uniform_weight is None
        for other, want in others:
            assert security._closed_form(other, 1e-9) is None
            got = security.product_commutant_check(other, 1)
            assert got.to_dict() == want.to_dict()
            np.testing.assert_array_equal(got.witness, want.witness)

    def test_gf4_set(self, monkeypatch):
        # no prime: d=4 from GF(4), 4**5 = 1 024 safe vectors under the enumeration budget
        bs = gf4_mub()
        overlaps = np.abs(np.einsum("bip,cjp->bicj", bs.vectors.conj(), bs.vectors)) ** 2
        across = ~np.eye(5, dtype=bool)[:, None, :, None].repeat(4, 1).repeat(4, 3)
        np.testing.assert_allclose(overlaps[across], 0.25, rtol=0, atol=1e-12)
        strategy = rd.build_strategy(bs)
        enumerated = security.eigenvector_constraint_dim(strategy.safe_vectors)
        no_enumeration(monkeypatch)
        closed = security.product_commutant_check(strategy, 1)
        assert_same_report(closed, enumerated)
        assert (closed.solution_dim, closed.spectral_gap) == (1, pytest.approx(0.75, abs=1e-12))


class TestExactCertificate:
    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_safe_vectors_are_the_strategy_table(self, request, d):
        etas = request.getfixturevalue(f"strategy_d{d}").etas
        exact_etas = [exact.complex_value(exact.safe_vector_coefficients(d, x), d)
                      for x in exact.all_guessing_functions(d)]
        np.testing.assert_allclose(exact_etas, etas, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_prime_and_root(self, d):
        n = exact.root_order(d)
        p, r = exact.prime_and_root(n)
        assert exact.is_prime(p) and p % n == 1 and p < 2**31
        assert [pow(r, e, p) == 1 for e in range(1, n + 1)] == [False] * (n - 1) + [True]

    def test_rank_mod_p(self):
        p = 101
        assert exact.rank_mod_p([[1, 2], [2, 4]], p) == 1
        assert exact.rank_mod_p([[1, 2], [3, 4]], p) == 2
        assert exact.rank_mod_p([[p, 2 * p], [0, 0]], p) == 0
        # full rank over Q, singular mod 101: det = 101
        assert exact.rank_mod_p([[1, 0], [0, 101]], p) == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_solves_every_condition(self, d):
        p, r = exact.prime_and_root(exact.root_order(d))
        rows = exact.conditions_mod_p(d, exact.all_guessing_functions(d)[:5], p, r)
        assert not np.any(rows @ np.eye(d * d, dtype=np.int64).reshape(-1) % p)

    @pytest.mark.parametrize("d", [2, 3])
    def test_solution_dim_one_is_proved(self, request, d):
        # d=5 is left out: 30 of its x's took 2.3 s to eliminate in a prototype
        assert exact.certify(d, exact.all_guessing_functions(d)) == (True, d**4 - 1)
        report = security.eigenvector_constraint_dim(
            request.getfixturevalue(f"strategy_d{d}").safe_vectors)
        assert report.solution_dim == 1

    def test_too_few_conditions_prove_nothing(self, strategy_d3):
        # halve a shuffled list of x's until the rank falls short: that is "no proof",
        # and the floating-point route agrees that one solution is not forced
        xs = exact.all_guessing_functions(3)
        order = np.random.default_rng(3).permutation(len(xs))
        count = len(xs)
        while (verdict := exact.certify(3, [xs[i] for i in order[:count]]))[0]:
            count //= 2
        proved, rank = verdict
        assert not proved and rank < 80
        dim_null, _, _ = security.constraint_nullspace(strategy_d3.etas[order[:count]])
        assert dim_null > 1 and 81 - dim_null >= rank


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

    def test_tol_at_or_above_ceiling(self, strategy_d2):
        # a cutoff at the largest eigenvalue would count all 16 directions as solutions
        for tol in (1.0, 1e300):
            with pytest.raises(ValueError, match="is not below the ceiling 1$"):
                security.constraint_nullspace(strategy_d2.etas, tol=tol)
        assert security.constraint_nullspace(strategy_d2.etas, tol=0.1)[0] == 1

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

    def test_tol_refused_before_span_check(self, strategy_d2, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("span SVD ran before the tolerance was checked")

        monkeypatch.setattr(security.qmath, "matrix_rank", refuse)
        with pytest.raises(ValueError, match="^tolerance 1e-20 is below the rounding floor "
                                             "3.55e-15 of the 16 x 16 commutant form$"):
            security.eigenvector_constraint_dim(strategy_d2.safe_vectors, tol=1e-20)

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_failed_lemma_witness_is_the_identity_in_the_nullspace(self, unit_strategy, n,
                                                                     monkeypatch):
        # every diagonal operator solves it, so no one null vector is the witness: it is the
        # identity projected onto the nullspace, whichever basis of it eigh returns
        report = security.product_commutant_check(unit_strategy, n)
        assert report.solution_dim == 4**n
        np.testing.assert_allclose(report.witness, np.eye(4), rtol=0, atol=1e-12)
        assert security.witness_identity_deviation(report) < 1e-12
        nullspace = security.constraint_nullspace
        mix = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]

        def mixed(*args):
            dim_null, vectors, evals = nullspace(*args)
            vectors = vectors.copy()
            vectors[:4] = mix @ vectors[:4]
            return dim_null, vectors, evals

        monkeypatch.setattr(security, "constraint_nullspace", mixed)
        np.testing.assert_allclose(security.product_commutant_check(unit_strategy, n).witness,
                                   report.witness, rtol=0, atol=1e-12)

    def test_resource_guard(self, strategy_d2, monkeypatch):
        # the closed form builds no form; the enumerated route answers every n from the
        # single-block form, max(8, 16) x 16 = 256 entries at d=2; from n = 2 on the
        # block's 16 x 16 operator is as large and is checked first
        monkeypatch.setattr(bases, "MAX_ARRAY_ENTRIES", 255)
        assert security.product_commutant_check(strategy_d2, 1).solution_dim == 1
        monkeypatch.setattr(security, "_closed_form", lambda *_args: None)
        with pytest.raises(bases.OverBudget, match="8 vectors of dimension 4"):
            security.product_commutant_check(strategy_d2, 1)
        for n in (2, 3):
            with pytest.raises(bases.OverBudget, match=rf"2\*\*\(2\*{n}\)\*1 exceeds budget 15"):
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
        safe_vectors = rd.safe_vector_table(np.zeros((50_000, 25), dtype=complex), np.zeros(50_000))
        with pytest.raises(bases.OverBudget, match="50000 vectors of dimension 25"):
            security.eigenvector_constraint_dim(safe_vectors)

    def test_product_decomposition_property(self, strategy_d2):
        # the triple identity applied to one tensor slot of a product vector
        def eta(x1, x2):  # the product safe vector, pair-interleaved
            # the table lists x first digit slowest, so x's row is its base-2 value
            e1, e2 = (strategy_d2.etas[np.ravel_multi_index(x, (2, 2, 2))] for x in (x1, x2))
            return np.kron(e1, e2)

        rng = np.random.default_rng(41)
        xs = rd.enumerate_guessing_functions(2, 3)
        for _ in range(10):
            x1 = xs[rng.integers(8)]
            x2 = xs[rng.integers(8)]
            bp, bt = rng.choice(3, size=2, replace=False)
            jp = int((x1[bp] + 1) % 2)
            jt = int((x1[bt] + 1) % 2)
            u, v, w = decomposition_triple(x1, bp, bt, jp, jt)
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_scalar_witness_reads_zero(self, d):
        # the trace of eye(49) / 7 sums to 6.999999999999998; the diagonal's mean is exact
        report = security.CommutantReport(dim=d, n=1, constraint_rank=0, solution_dim=1,
                                          witness=np.eye(d * d) / d, tol=1e-9, spectral_gap=1.0)
        assert security.witness_identity_deviation(report) == 0.0
