import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from meanking import bases, qmath, retrodiction as rd

from oracles import (decomposition_triple, partial_trace_loops, phi_hat, product_tables,
                     safe_vector_per_x, tuple_digits)


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    return u


@pytest.fixture()
def lp_calls(monkeypatch):
    """Sizes of the families the max-min weight LP is called on."""
    calls = []
    lp = rd._max_min_weights_lp

    def recording(etas):
        calls.append(len(etas))
        return lp(etas)

    monkeypatch.setattr(rd, "_max_min_weights_lp", recording)
    return calls


def delta_worst(bs, x, sv):
    worst = 0.0
    for b in range(bs.k):
        for i in range(bs.dim):
            val = np.vdot(sv.eta, phi_hat(bs, b, i))
            want = 1.0 if x[b] == i else 0.0
            worst = max(worst, abs(val - want))
    return worst


class TestOmega:
    def test_d2_standard_form(self):
        assert_allclose(rd.omega(2), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_reductions_maximally_mixed(self):
        for d in (2, 3):
            rho = np.outer(rd.omega(d), rd.omega(d).conj())
            for keep in (0, 1):
                assert_allclose(
                    partial_trace_loops(rho, (d, d), [keep]), np.eye(d) / d, atol=1e-14
                )

    def test_ricochet_identity(self):
        rng = np.random.default_rng(31)
        om = rd.omega(3)
        for _ in range(5):
            u = random_unitary(rng, 3)
            left = (om.reshape(3, 3) @ u.T).reshape(-1)  # (1 x U) Omega
            right = (u.T @ om.reshape(3, 3)).reshape(-1)  # (U^T x 1) Omega
            assert np.linalg.norm(left - right) < 1e-12


class TestPhiHat:
    def test_computational_projection(self, mub2):
        out = phi_hat(mub2, 0, 0)
        expect = np.zeros(4, dtype=complex)
        expect[0] = 1 / np.sqrt(2)  # |00> component
        assert_allclose(out, expect)

    def test_norm_is_inverse_dim(self, mub3):
        for b in range(4):
            for i in range(3):
                assert abs(np.linalg.norm(phi_hat(mub3, b, i)) ** 2 - 1 / 3) < 1e-12

    def test_completeness_per_basis(self, mub3):
        for b in range(4):
            total = sum(
                np.outer(phi_hat(mub3, b, i), phi_hat(mub3, b, i).conj())
                for i in range(3)
            )
            assert abs(np.trace(total) - 1.0) < 1e-12

    def test_index_errors(self, mub2):
        with pytest.raises(IndexError):
            phi_hat(mub2, 3, 0)
        with pytest.raises(IndexError):
            phi_hat(mub2, 0, 2)


class TestSafeVectors:
    def test_d2_all_eight(self, mub2):
        count = 0
        for x in rd.enumerate_guessing_functions(2, 3):
            sv = rd.solve_safe_vector(mub2, x)
            assert sv.residual < 1e-10
            assert delta_worst(mub2, x, sv) < 1e-9
            count += 1
        assert count == 8

    def test_d3_all_81(self, mub3):
        xs = rd.enumerate_guessing_functions(3, 4)
        svs = [rd.solve_safe_vector(mub3, x) for x in xs]
        assert len(svs) == 81
        assert max(sv.residual for sv in svs) < 1e-9
        assert max(delta_worst(mub3, x, sv) for x, sv in zip(xs, svs)) < 1e-9

    def test_constraint_system_consistent_d2(self, mub2):
        # 6 complex rows (12 real constraints) on 4 complex unknowns
        a = np.array([phi_hat(mub2, b, i) for b in range(3) for i in range(2)])
        rhs = np.zeros(6, dtype=complex)
        rhs[0] = rhs[2] = rhs[4] = 1.0  # x = (0, 0, 0)
        _, res = qmath.lstsq(a, rhs)
        assert res < 1e-10

    def test_degenerate_set_flagged(self, mub2):
        twice = bases.BasisSet(mub2.vectors[[0, 0]])
        with pytest.raises(rd.ResidualTooLarge):
            rd.solve_safe_vector(twice, (0, 1))

    def test_degenerate_set_build_flagged(self, mub2):
        # (0, 0) is consistent on the twice-listed basis; (0, 1) is the first that is not
        twice = bases.BasisSet(mub2.vectors[[0, 0]])
        with pytest.raises(rd.ResidualTooLarge, match=r"x=\(0, 1\)"):
            rd.build_strategy(twice)


class TestOneSolve:
    """``build_strategy`` against the per-x least-squares route it replaced."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_per_x_oracle(self, d, request):
        s = request.getfixturevalue(f"strategy_d{d}")
        table = s.safe_vectors
        assert table.dtype.names == ("eta", "residual")
        xs = rd.enumerate_guessing_functions(d, d + 1)
        oracle = [safe_vector_per_x(s.basis_set, x) for x in xs]
        etas = np.array([eta for eta, _ in oracle])
        assert np.max(np.abs(table.eta - etas)) < 1e-12
        residuals = np.array([res for _, res in oracle])
        assert np.max(np.abs(table.residual - residuals)) < 1e-12
        weights, _ = rd.solve_povm_weights(rd.safe_vector_table(etas, residuals))
        assert np.max(np.abs(s.weights - weights)) < 1e-12

    def test_matches_per_x_oracle_d5_sampled(self, strategy_d5):
        # MUB safe vectors all have one norm, so the uniform weight
        # d**2 / sum_x ||eta_x||**2 is d**2 / (d**k ||eta_x||**2) for each x; the
        # table lists x first digit slowest, so x's row is its base-d value
        d, k = 5, 6
        rng = np.random.default_rng(2025)
        for x in map(tuple, rng.integers(d, size=(200, k)).tolist()):
            eta, residual = safe_vector_per_x(strategy_d5.basis_set, x)
            row = np.ravel_multi_index(x, (d,) * k)
            sv = strategy_d5.safe_vectors[row]
            assert np.max(np.abs(sv.eta - eta)) < 1e-12
            assert abs(sv.residual - residual) < 1e-12
            norm2 = float(np.vdot(eta, eta).real)
            assert abs(strategy_d5.weights[row] - d**2 / (d**k * norm2)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_lstsq_call(self, d, monkeypatch):
        calls = []
        lstsq = qmath.lstsq

        def counting(a, b):
            calls.append(np.shape(b))
            return lstsq(a, b)

        def forbidden(*args, **kwargs):
            raise AssertionError("solved a safe vector on its own")

        monkeypatch.setattr(qmath, "lstsq", counting)
        monkeypatch.setattr(rd, "solve_safe_vector", forbidden)
        rd.build_strategy(bases.gen_mub(d))
        assert calls == [(d * (d + 1), d * (d + 1))]


@st.composite
def rotated_mubs(draw):
    """``gen_mub(2)`` or ``gen_mub(3)`` with every vector turned by one random unitary."""
    d = draw(st.sampled_from([2, 3]))
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    return bases.BasisSet(bases.gen_mub(d).vectors @ u.T)


@settings(max_examples=25, deadline=None)
@given(rotated_mubs())
def test_one_solve_safe_vector_conditions(bs):
    d, k = bs.dim, bs.k
    s = rd.build_strategy(bs)
    hats = np.array([phi_hat(bs, b, i) for b in range(k) for i in range(d)])
    want = (rd.enumerate_guessing_functions(d, k)[:, :, None] == np.arange(d)).reshape(-1, k * d)
    assert np.max(np.abs(s.etas.conj() @ hats.T - want)) < 1e-9


class TestDecomposition:
    def test_defining_relations(self):
        u, v, w = decomposition_triple((0, 0, 0), 0, 1, 1, 1)
        assert u == (1, 0, 0) and v == (0, 1, 0) and w == (1, 1, 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            decomposition_triple((0, 0, 0), 1, 1, 1, 1)
        with pytest.raises(ValueError):
            decomposition_triple((0, 0, 0), 0, 1, 0, 1)  # j' = x(b')
        with pytest.raises(ValueError):
            decomposition_triple((0, 0, 0), 0, 1, 1, 0)  # j~ = x(b~)

    def test_vector_identity_d2(self, mub2):
        x = (0, 0, 0)
        u, v, w = decomposition_triple(x, 0, 1, 1, 1)
        sv = {t: rd.solve_safe_vector(mub2, t).eta for t in (x, u, v, w)}
        assert np.linalg.norm(sv[x] - (sv[u] + sv[v] - sv[w])) < 1e-8

    @pytest.mark.parametrize("d,trials", [(2, 20), (3, 20)])
    def test_vector_identity_random(self, d, trials, mub2, mub3):
        bs = mub2 if d == 2 else mub3
        rng = np.random.default_rng(d * 100 + 7)
        cache = {}

        def eta(x):
            if x not in cache:
                cache[x] = rd.solve_safe_vector(bs, x).eta
            return cache[x]

        for _ in range(trials):
            x = tuple(int(v) for v in rng.integers(d, size=d + 1))
            bp, bt = rng.choice(d + 1, size=2, replace=False)
            jp = int((x[bp] + 1 + rng.integers(d - 1)) % d)
            jt = int((x[bt] + 1 + rng.integers(d - 1)) % d)
            u, v, w = decomposition_triple(x, bp, bt, jp, jt)
            err = np.linalg.norm(eta(x) - (eta(u) + eta(v) - eta(w)))
            assert err < 1e-8


class TestWeights:
    def test_d2_maximal(self, strategy_d2):
        assert len(strategy_d2.weights) == 8
        assert strategy_d2.weights.min() > 1e-6
        assert strategy_d2.completeness_residual < 1e-8

    def test_d3_maximal(self, strategy_d3):
        assert len(strategy_d3.weights) == 81
        assert strategy_d3.weights.min() > 1e-6
        assert strategy_d3.completeness_residual < 1e-8

    def test_trace_consistency(self, strategy_d2, strategy_d3):
        for s in (strategy_d2, strategy_d3):
            d = s.d
            total = float(np.sum(s.weights * np.linalg.norm(s.etas, axis=1) ** 2))
            assert abs(total - d * d) < 1e-8

    def test_incomplete_family_infeasible(self, strategy_d2, lp_calls):
        with pytest.raises((rd.Infeasible, rd.NotMaximal)):
            rd.solve_povm_weights(strategy_d2.safe_vectors[:4])
        assert lp_calls == [4]  # the uniform candidate failed, so the LP decided

    @pytest.mark.parametrize("d", [2, 3])
    def test_uniform_weights_match_lp(self, d, strategy_d2, strategy_d3):
        s = strategy_d2 if d == 2 else strategy_d3
        assert np.all(s.weights == s.weights[0])
        assert_allclose(s.weights, np.full(d ** (d + 1), 1.0 / d ** (d + 1)), rtol=0, atol=1e-15)
        assert_allclose(s.weights, rd._max_min_weights_lp(s.etas), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mub_weights_skip_lp(self, d, mub2, mub3, lp_calls):
        s = rd.build_strategy(mub2 if d == 2 else mub3)
        assert lp_calls == []
        assert s.completeness_residual < 1e-12

    @pytest.mark.parametrize("angle", [0.2, 0.6])
    def test_biased_set_falls_back_to_lp(self, angle, mub2, lp_calls, biased_copy):
        s = rd.build_strategy(biased_copy(mub2, angle))
        assert lp_calls == [8]
        assert s.weights.max() - s.weights.min() > 0.05  # the uniform point is not feasible
        assert_allclose(s.weights, rd._max_min_weights_lp(s.etas), rtol=0, atol=1e-12)
        assert s.completeness_residual < 1e-8

    @pytest.mark.parametrize("name, angle, calls", [("mub2", None, 1), ("mub3", None, 1),
                                                     ("mub2", 0.2, 2)])
    def test_completeness_residual_per_candidate(self, request, biased_copy, monkeypatch,
                                                 name, angle, calls):
        # each candidate strategy derives one residual during the build and caches
        # it: the uniform candidate in closed form, which a MUB set takes; a biased
        # set's LP answer a second one, over its table
        bs = request.getfixturevalue(name)
        if angle is not None:
            bs = biased_copy(bs, angle)
        original, tables, candidates = rd._completeness_residual, [], []

        def counting(*args):
            tables.append(len(args[0]))
            return original(*args)

        class Recorded(rd.Strategy):
            def __post_init__(self):
                super().__post_init__()
                candidates.append(self)

        monkeypatch.setattr(rd, "_completeness_residual", counting)
        monkeypatch.setattr(rd, "Strategy", Recorded)
        s = rd.build_strategy(bs)
        assert len(candidates) == calls and candidates[-1] is s
        assert all("completeness_residual" in vars(c) for c in candidates)
        assert [c.uniform_weight is None for c in candidates] == [False, True][:calls]
        assert tables == [bs.dim**bs.k][:calls - 1]
        enumerated = original(s.etas, s.weights, bs.dim**2)
        if calls == 1:
            assert abs(s.completeness_residual - enumerated) < 1e-14
        else:
            assert s.completeness_residual == enumerated

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_table_refused(self, strategy_d2, lp_calls, bad):
        table = strategy_d2.safe_vectors.copy()
        table.eta[5, 2] = bad
        with pytest.raises(ValueError, match=f"^safe vector 5 has the non-finite entry \\({bad}"):
            rd.solve_povm_weights(table)
        assert lp_calls == []

    def test_biased_subset_not_maximal(self, mub2, lp_calls, biased_copy):
        svs = rd.build_strategy(biased_copy(mub2, 0.2)).safe_vectors
        with pytest.raises((rd.Infeasible, rd.NotMaximal)):
            rd.solve_povm_weights(svs[:7])
        assert lp_calls == [8, 7]


class TestBuildBudget:
    def test_d5_fits(self):
        assert 5**6 <= rd.MAX_GUESSING_FUNCTIONS < 7**8

    def test_d7_refused_before_enumeration(self, monkeypatch):
        # d=7 builds without listing x; only the paths that list it are refused
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated an over-budget basis set")

        monkeypatch.setattr(rd, "enumerate_guessing_functions", forbidden)
        monkeypatch.setattr(rd, "_table", forbidden)
        s = rd.build_strategy(bases.gen_mub(7))
        for enumerating in (lambda: s.safe_vectors, lambda: s.etas,
                            lambda: rd.solve_povm_weights(s.safe_vectors)):
            with pytest.raises(rd.OverBudget, match="5764801 guessing functions"):
                enumerating()
        lp_weighted = rd.Strategy(basis_set=s.basis_set, generators=s.generators,
                                  weights=np.linspace(1, 2, 7**8))
        with pytest.raises(rd.OverBudget, match="5764801 guessing functions"):
            rd.digit_operators(lp_weighted)


class TestDigitOperators:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_complete_per_basis(self, d, request):
        q = rd.digit_operators(request.getfixturevalue(f"strategy_d{d}"))
        assert q.shape == (d + 1, d, d * d, d * d)
        for b in range(d + 1):
            assert np.max(np.abs(q[b].sum(axis=0) - np.eye(d * d))) < 1e-8


class TestProductStrategy:
    def test_n1_identical(self, strategy_d2):
        ps = rd.tensor_strategy(strategy_d2, 1)
        interleaved = product_tables(strategy_d2, 1, interleaved=True)[0]
        for row, x in enumerate(rd.enumerate_guessing_functions(2, 3)):
            assert_allclose(interleaved[row], strategy_d2.etas[row])
            assert_allclose(ps.safe_vector_grouped((x,)), strategy_d2.etas[row])
            assert abs(ps.weight((x,)) - strategy_d2.weights[row]) < 1e-15

    def test_product_delta_conditions(self, strategy_d2, mub2):
        interleaved = product_tables(strategy_d2, 2, interleaved=True)[0]
        rng = np.random.default_rng(37)
        xs = rd.enumerate_guessing_functions(2, 3)
        for _ in range(10):
            rows = (rng.integers(8), rng.integers(8))
            pair = (xs[rows[0]], xs[rows[1]])
            eta = interleaved[rows[0] * 8 + rows[1]]  # (A1 B1)(A2 B2) order
            for b1 in range(3):
                for i1 in range(2):
                    for b2 in range(3):
                        for i2 in range(2):
                            hat = np.kron(
                                phi_hat(mub2, b1, i1), phi_hat(mub2, b2, i2)
                            )
                            want = float(pair[0][b1] == i1) * float(pair[1][b2] == i2)
                            assert abs(np.vdot(eta, hat) - want) < 1e-8

    def test_product_completeness(self, strategy_d2):
        ps = rd.tensor_strategy(strategy_d2, 2)
        interleaved = product_tables(strategy_d2, 2, interleaved=True)[0]
        total = np.zeros((16, 16), dtype=complex)
        count = 0
        for eta, pair in zip(interleaved, ps.guessing_tuples(), strict=True):
            total += ps.weight(pair) * np.outer(eta, eta.conj())
            count += 1
        assert count == 64
        assert np.max(np.abs(total - np.eye(16))) < 1e-7

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_match_oracle(self, strategy_d2, n):
        ps = rd.tensor_strategy(strategy_d2, n)
        tuples = list(ps.guessing_tuples())
        grouped, _, weights = product_tables(strategy_d2, n)
        interleaved = product_tables(strategy_d2, n, interleaved=True)[0]
        mine = np.array([ps.safe_vector_grouped(xs) for xs in tuples])
        assert_allclose(mine, grouped, rtol=0, atol=1e-12)
        # (A1..An B1..Bn) to (A1 B1 A2 B2 ...): each instance's A and B axes side by side
        pairs = [ax for s in range(n) for ax in (1 + s, 1 + n + s)]
        mine = mine.reshape((len(tuples),) + (2,) * (2 * n)).transpose([0] + pairs)
        assert_allclose(mine.reshape(len(tuples), -1), interleaved, rtol=0, atol=1e-12)
        assert_allclose([ps.weight(xs) for xs in tuples], weights, rtol=0, atol=1e-12)
        assert np.array_equal(np.array(tuples), tuple_digits(strategy_d2, n))

    def test_resource_guard(self, strategy_d2):
        with pytest.raises(rd.OverBudget, match=r"2\*\*\(2\*7\)\*1 exceeds budget 4096"):
            rd.tensor_strategy(strategy_d2, 7)


class TestStrategyTable:
    """Row j of every strategy table is guessing function j, so a table holds all d**k."""

    @pytest.mark.parametrize("rows, weights", [(4, 4), (9, 9), (8, 7)])
    def test_refuses_other_lengths(self, strategy_d2, rows, weights):
        table = np.resize(strategy_d2.safe_vectors, rows).view(np.recarray)
        with pytest.raises(ValueError, match=f"2\\*\\*3 rows and weights, not {rows} and {weights}"):
            rd.Strategy(basis_set=strategy_d2.basis_set, table=table,
                        weights=np.resize(strategy_d2.weights, weights))

    def test_columns(self, strategy_d2):
        assert strategy_d2.safe_vectors.dtype.names == ("eta", "residual")

    def test_rows_are_base_d_values(self, strategy_d3):
        xs = rd.enumerate_guessing_functions(3, 4)
        rows = strategy_d3._rows(xs)
        assert np.array_equal(rows, np.arange(81))


class TestStrategyFile:
    def test_roundtrip(self, tmp_path, strategy_d2):
        path = tmp_path / "s.json"
        rd.save_strategy(strategy_d2, path)
        loaded = rd.load_strategy(path)
        assert loaded.d == 2
        assert loaded.safe_vectors.dtype == strategy_d2.safe_vectors.dtype
        assert_allclose(loaded.weights, strategy_d2.weights)
        assert_allclose(loaded.etas, strategy_d2.etas)

    def test_roundtrip_d5_bitwise(self, tmp_path, strategy_d5):
        path = tmp_path / "s.json"
        rd.save_strategy(strategy_d5, path)
        loaded = rd.load_strategy(path)
        for column in ("eta", "residual"):
            assert np.array_equal(loaded.safe_vectors[column], strategy_d5.safe_vectors[column])
        assert np.array_equal(loaded.weights, strategy_d5.weights)
        assert loaded.completeness_residual == strategy_d5.completeness_residual

    def test_columns_are_views(self, tmp_path, strategy_d3):
        path = tmp_path / "s.json"
        rd.save_strategy(strategy_d3, path)
        for s in (strategy_d3, rd.load_strategy(path)):
            assert isinstance(s.safe_vectors, np.recarray)
            assert np.shares_memory(s.etas, s.safe_vectors)
            assert np.shares_memory(s.safe_vectors.residual, s.safe_vectors)

    def test_tampered_weights_rejected(self, tmp_path, strategy_d2, v1_files):
        import json

        path = tmp_path / "s.json"
        rd.save_strategy(strategy_d2, path)
        data = json.loads(path.read_text())
        for weights in (0.9, [0.9] + [strategy_d2.uniform_weight] * 7):
            data["weights"] = weights
            path.write_text(json.dumps(data))
            with pytest.raises(rd.Infeasible):
                rd.load_strategy(path)
        data = json.loads(v1_files[2].read_text())
        data["entries"][0]["p"] = 0.9
        path.write_text(json.dumps(data))
        with pytest.raises(rd.Infeasible):
            rd.load_strategy(path)

    def test_zero_weight_rejected(self, tmp_path, unit_strategy, zero_weight_strategy):
        # completeness holds either way; only the entry of weight 0 is refused
        path = tmp_path / "s.json"
        rd.save_strategy(unit_strategy, path)
        assert len(rd.load_strategy(path).safe_vectors) == 8
        rd.save_strategy(zero_weight_strategy, path)
        with pytest.raises(rd.NotMaximal):
            rd.load_strategy(path)


def enumerated_q(strategy):
    """Q summed over the table, the route the closed form replaced, via a table strategy."""
    return rd.digit_operators(rd.Strategy(basis_set=strategy.basis_set, table=strategy.safe_vectors,
                                          weights=np.array(strategy.weights)))


@st.composite
def generator_sets(draw):
    """Random generators g[b, j] and miss vectors r[b, j] for d = 2 or 3, k = d + 1."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = d + 1
    gens = rng.standard_normal((k, d, d * d, 2)) @ [1, 1j]
    misses = rng.standard_normal((k, d, k * d, 2)) @ [1, 1j] * draw(st.sampled_from([1e-16, 1.0]))
    return bases.gen_mub(d), gens, misses


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_closed_forms_match_enumeration(case):
    bs, gens, misses = case
    d, k = bs.dim, bs.k
    xs = rd.enumerate_guessing_functions(d, k)
    table = rd._table(gens, misses, xs)
    total = np.einsum("xi,xj->ij", table.eta, table.eta.conj())
    closed = d**k * rd._moments(gens)[2]
    assert np.max(np.abs(closed - total)) <= 1e-12 * np.max(np.abs(total))
    weights = np.full(d**k, 0.25 / d**k)
    uniform = rd.Strategy(basis_set=bs, weights=np.broadcast_to(weights[0], d**k), generators=gens)
    q = rd.digit_operators(uniform)
    want = enumerated_q(rd.Strategy(basis_set=bs, weights=weights, table=table))
    assert np.array_equal(uniform.etas, table.eta)
    enumerated = rd._completeness_residual(table.eta, weights, d * d)
    scale = max(1.0, weights[0] * np.max(np.abs(total)))
    assert abs(uniform.completeness_residual - enumerated) <= 1e-12 * scale
    assert np.max(np.abs(q - want)) <= 1e-12 * np.max(np.abs(want))
    assert rd._residual_bound(misses) >= table.residual.max()


class TestClosedForms:
    """The uniform weight, completeness residual, Q and residual bound against enumeration."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_match_enumeration(self, d, request):
        s = request.getfixturevalue(f"strategy_d{d}")
        etas, nx = s.etas, d ** (d + 1)
        assert abs(s.uniform_weight - d * d / float(np.sum(np.abs(etas) ** 2))) < 1e-14
        assert abs(s.completeness_residual
                   - rd._completeness_residual(etas, s.weights, d * d)) < 1e-14
        assert np.max(np.abs(rd.digit_operators(s) - enumerated_q(s))) < 1e-14
        assert s.max_residual >= s.safe_vectors.residual.max()
        assert s.max_residual < 1e-14
        assert len(s.weights) == nx and s.weights.strides == (0,)

    def test_biased_set_takes_lp_bitwise(self, mub2, biased_copy, lp_calls):
        bs = biased_copy(mub2, 0.2)
        s = rd.build_strategy(bs)
        table = rd.safe_vector_table(s.etas, s.safe_vectors.residual)
        assert np.array_equal(s.weights, rd.solve_povm_weights(table)[0])
        assert lp_calls == [8, 8]
        assert s.uniform_weight is None
        assert np.max(np.abs(rd.digit_operators(s) - enumerated_q(s))) < 1e-14

    def test_conditional_states_one_product(self):
        for d in (2, 3, 5, 7):
            bs = bases.gen_mub(d)
            loop = np.array([phi_hat(bs, b, i) for b in range(bs.k) for i in range(d)])
            assert rd.conditional_states(bs).tobytes() == loop.tobytes()

    def test_residual_bound_over_tolerance_checks_each_x(self, mub2, monkeypatch):
        # a bound over the tolerance alone does not refuse: each x is checked
        monkeypatch.setattr(rd, "_residual_bound", lambda misses: 1.0)
        seen = []
        check = rd._check_residuals
        monkeypatch.setattr(rd, "_check_residuals", lambda *args: seen.append(len(args[0]))
                            or check(*args))
        rd.build_strategy(mub2)
        assert seen == [8]


class TestNoEnumeration:
    """Under uniform weights no step lists the d**k guessing functions."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_strategy_steps(self, d, tmp_path, monkeypatch):
        from meanking import attack as atk

        def forbidden(*args, **kwargs):
            raise AssertionError("listed the guessing functions")

        monkeypatch.setattr(rd, "enumerate_guessing_functions", forbidden)
        monkeypatch.setattr(rd, "_table", forbidden)
        bs = bases.gen_mub(d)
        s = rd.build_strategy(bs)
        q = rd.digit_operators(s)
        assert np.max(np.abs(q.sum(axis=1) - np.eye(d * d))) < 1e-12
        path = tmp_path / "s.json"
        rd.save_strategy(s, path)
        loaded = rd.load_strategy(path)
        assert np.array_equal(loaded.generators, s.generators)
        assert loaded.uniform_weight == s.uniform_weight
        assert loaded.completeness_residual == s.completeness_residual
        report = atk.evaluate_attack(loaded, atk.intercept_resend(bs, 0))
        assert abs(report.detection_probability - (d - 1) ** 2 / (d * (d + 1))) < 1e-12
        assert abs(report.leakage - 1.0) < 1e-12
        assert "safe_vectors" not in vars(s) and "safe_vectors" not in vars(loaded)

    def test_uniform_weight_read_without_a_scan(self, tmp_path, monkeypatch):
        # at d=7 the weights are one value broadcast to 7**8; uniform_weight, the
        # build's verdict, v2 save and load and the load's verdict read the first only
        class NoScan(np.ndarray):
            def min(self, *args, **kwargs):
                raise AssertionError("scanned the weights")

            max = min

            def __array_ufunc__(self, *args, **kwargs):
                raise AssertionError("scanned the weights")

        broadcast_to = np.broadcast_to

        def no_scan(value, shape):
            return broadcast_to(np.array(value).view(NoScan), shape, subok=True)

        monkeypatch.setattr(np, "broadcast_to", no_scan)  # the build and the loader call it
        bs = bases.gen_mub(7)
        s = rd.build_strategy(bs)
        assert rd.Strategy(bs, no_scan(0.5, (7**8,)), s.generators).uniform_weight == 0.5
        path = tmp_path / "s.json"
        rd.save_strategy(s, path)
        loaded = rd.load_strategy(path)
        for strategy in (s, loaded):
            assert isinstance(strategy.weights, NoScan) and len(strategy.weights) == 7**8
        assert loaded.uniform_weight == s.uniform_weight == s.min_weight
        assert loaded.completeness_residual == s.completeness_residual


class TestVersionedFiles:
    @pytest.mark.parametrize("d", [2, 3])
    def test_v1_files_load_bitwise(self, d, v1_files, request, tmp_path):
        import json

        def integral_as_int(node):  # 1.0 written as 1, as a hand-written file may have it
            if isinstance(node, list):
                return [integral_as_int(v) for v in node]
            if isinstance(node, dict):
                return {key: integral_as_int(v) for key, v in node.items()}
            return int(node) if isinstance(node, float) and node.is_integer() else node

        data = json.loads(v1_files[d].read_text())
        entries = data["entries"]
        by_hand = tmp_path / "by_hand.json"
        by_hand.write_text(json.dumps(integral_as_int(data)))
        assert '[1, 0]' in by_hand.read_text()
        for path in (v1_files[d], by_hand):
            loaded = rd.load_strategy(path)
            assert loaded.generators is None
            assert np.array_equal(loaded.etas, [[complex(*z) for z in e["eta"]] for e in entries])
            assert np.array_equal(loaded.weights, [e["p"] for e in entries])
            assert np.array_equal(loaded.safe_vectors.residual, [e["residual"] for e in entries])
        # the table a build sums from its generators is the one 0.7.0 wrote
        built = request.getfixturevalue(f"strategy_d{d}")
        assert np.max(np.abs(built.etas - loaded.etas)) < 1e-12
        assert np.max(np.abs(built.weights - loaded.weights)) < 1e-12

    def test_v2_layout(self, tmp_path, strategy_d5):
        import json

        path = tmp_path / "s.json"
        rd.save_strategy(strategy_d5, path)
        data = json.loads(path.read_text())
        assert sorted(data) == ["bases", "dim", "format", "generators", "weights"]
        assert data["format"] == "meanking-strategy-v2"
        assert data["weights"] == strategy_d5.uniform_weight
        assert np.shape(data["generators"]) == (6, 5, 25, 2)
        assert path.stat().st_size < 64_000  # the v1 layout took 17.95 MB

    def test_v2_weight_list_roundtrip(self, tmp_path, mub2, biased_copy):
        s = rd.build_strategy(biased_copy(mub2, 0.2))
        path = tmp_path / "s.json"
        rd.save_strategy(s, path)
        loaded = rd.load_strategy(path)
        assert np.array_equal(loaded.weights, s.weights)
        assert loaded.completeness_residual == s.completeness_residual

    def test_table_strategy_saved_as_v1(self, tmp_path, v1_files):
        path = tmp_path / "s.json"
        rd.save_strategy(rd.load_strategy(v1_files[2]), path)
        assert path.read_text() == v1_files[2].read_text()

    @pytest.mark.parametrize("given", ["both", "neither"])
    def test_generators_or_table(self, strategy_d2, unit_strategy, given):
        sources = {"both": {"generators": strategy_d2.generators, "table": unit_strategy.table},
                   "neither": {}}[given]
        with pytest.raises(ValueError, match="by its generators or by its table, one of them"):
            rd.Strategy(basis_set=strategy_d2.basis_set, weights=strategy_d2.weights, **sources)


def closed_form_q(bs):
    """(1 - Pi_b) / d + |P_b(i)><P_b(i)|, P_b(j) = conj(phi_b(j)) x phi_b(j), Pi_b their sum."""
    d = bs.dim
    p = qmath.kron(bs.vectors.conj(), bs.vectors, batch=2)
    proj = p[..., :, None] * p[..., None, :].conj()
    return (np.eye(d * d) - proj.sum(axis=1))[:, None] / d + proj


def frame_rotated(strategy):
    """Each Q[b, i] in its basis's product frame conj(phi_b(j)) x phi_b(j'), rows (j, j')."""
    v = strategy.basis_set.vectors
    frames = qmath.kron(v, v.conj(), batch=1)[:, None]
    return frames @ rd.digit_operators(strategy) @ np.swapaxes(frames.conj(), -1, -2)


def exact_table(d):
    """delta(j, i) where j = j', 1/d elsewhere, as [i, j, j']."""
    table = np.full((d, d, d), 1 / d)
    table[:, np.arange(d), np.arange(d)] = np.eye(d)
    return table


class TestDigitClosedForm:
    """On a complete MUB set Q is diagonal in each basis's product frame (a 2-design)."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_matches_digit_operators(self, d):
        bs = bases.gen_mub(d)
        s = rd.build_strategy(bs)
        assert np.max(np.abs(rd.digit_operators(s) - closed_form_q(bs))) <= 1e-14
        # the 2-design: sum over every basis and outcome of |P><P| = 1 + |1><1|
        p = qmath.kron(bs.vectors.conj(), bs.vectors, batch=2).reshape(-1, d * d)
        ones = np.eye(d).reshape(-1)
        assert np.max(np.abs(p.T @ p.conj() - np.eye(d * d) - np.outer(ones, ones))) <= 1e-14
        assert np.max(np.abs(rd.digit_table(s) - exact_table(d))) <= 1e-14

    def test_biased_set_is_not_diagonal(self, mub3, biased_copy):
        bs = biased_copy(mub3, 0.3)
        s = rd.build_strategy(bs)
        rotated = frame_rotated(s)
        off = np.abs(rotated[..., ~np.eye(9, dtype=bool)]).max()
        assert off > 0.1
        assert rd.digit_table(s) is None
        # under the uniform weight its off-diagonal entries alone refuse it
        uniform = rd.Strategy(bs, np.broadcast_to(1 / 81, (81,)), s.generators)
        assert np.abs(frame_rotated(uniform)[..., ~np.eye(9, dtype=bool)]).max() > 0.1
        assert rd.digit_table(uniform) is None

    def test_table_strategies_get_none(self, strategy_d2, unit_strategy, v1_files):
        # a strategy given as its table keeps the summed route, whatever its operators
        as_table = rd.Strategy(basis_set=strategy_d2.basis_set, table=strategy_d2.safe_vectors,
                               weights=np.array(strategy_d2.weights))
        for s in (as_table, unit_strategy, rd.load_strategy(v1_files[2])):
            assert rd.digit_table(s) is None

    def test_built_once_read_only(self, strategy_d3):
        table = rd.digit_table(strategy_d3)
        assert rd.digit_table(strategy_d3) is table and not table.flags.writeable


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_closed_form_under_a_unitary(seed):
    # a unitary turn of the set keeps it a complete MUB set, so the closed form and the gate hold
    u = random_unitary(np.random.default_rng(seed), 3)
    bs = bases.BasisSet(bases.gen_mub(3).vectors @ u.T)
    s = rd.build_strategy(bs)
    assert np.max(np.abs(rd.digit_operators(s) - closed_form_q(bs))) <= 1e-14
    table = rd.digit_table(s)
    assert table is not None and np.max(np.abs(table - exact_table(3))) <= 1e-14
