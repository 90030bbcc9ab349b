import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meanking import attack as atk, protocol as proto, qmath, retrodiction as rd
from meanking.bases import OverBudget

from oracles import (attack_pass_per_outcome, intercept_resend_detection, operator_form_loops,
                     probe_detection, weyl_loops)

# (d, n, d_E) of the operator-form checks against the per-label loops
LOOP_SHAPES = [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 1)]


@pytest.fixture(scope="module")
def ideal2():
    return atk.identity_attack(2)


class TestWeyl:
    def test_identity(self):
        assert_allclose(atk.weyl_operators(2)[0, 0], np.eye(2))

    def test_shift_times_clock(self):
        # multiplied by hand: X Z = [[0, -1], [1, 0]]
        assert_allclose(atk.weyl_operators(2)[1, 1], np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_orders(self):
        for d in (2, 3, 5):
            x = atk.weyl_operators(d)[1, 0]
            z = atk.weyl_operators(d)[0, 1]
            assert_allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12)
            assert_allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
    def test_entangled_basis_orthonormal(self, d, n):
        dd = d**n
        vecs = np.array(
            [
                atk.entangled_basis_vector(d, n, m, l)
                for m in range(dd)
                for l in range(dd)
            ]
        )
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(dd * dd))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_table_matches_loops(self, d):
        assert_allclose(atk.weyl_operators(d), weyl_loops(d, 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2)])
    def test_entangled_basis_matches_loops(self, d, n):
        units = weyl_loops(d, n)
        for m, l in [(0, 0), (1, d**n - 1), (d**n - 1, 2)]:
            want = units[m, l].T.reshape(-1) / np.sqrt(d**n)
            assert_allclose(atk.entangled_basis_vector(d, n, m, l), want, rtol=0, atol=1e-12)


class TestOperatorFormAgainstLoops:
    """The closed-form table applied slot by slot against one Weyl unitary per flat label."""

    @pytest.mark.parametrize("d,n,de", LOOP_SHAPES)
    def test_coefficients_and_operators(self, d, n, de):
        am = atk.random_attack(d, n, de, 2, np.random.default_rng(7 * d + n))
        coeffs, ops = operator_form_loops(am)
        assert_allclose(atk.decompose_source(am.psi_abe, d, n, de), coeffs, rtol=0, atol=1e-12)
        assert_allclose(atk.build_E_operators(am), ops, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n,de", LOOP_SHAPES)
    def test_resynthesis(self, d, n, de):
        rng = np.random.default_rng(11 * d + n)
        dd = d**n
        coeffs = atk.random_state(dd * dd * de, rng).reshape(dd, dd, de)
        # psi[a, b] = sum over labels of c[m, l] U_(m,l)[b, a] / sqrt(d**n)
        want = np.einsum("mlba,mle->abe", weyl_loops(d, n), coeffs) / np.sqrt(dd)
        assert_allclose(atk.source_from_coefficients(coeffs, d, n), want.reshape(-1),
                        rtol=0, atol=1e-12)


class TestDecomposeSource:
    def test_ideal_source_single_coefficient(self):
        psi = np.kron(rd.omega(2), [1.0, 0.0])
        c = atk.decompose_source(psi, 2, 1, 2)
        expect = np.zeros((2, 2, 2), dtype=complex)
        expect[0, 0, 0] = 1.0
        assert_allclose(c, expect, atol=1e-14)

    def test_basis_states(self):
        for m in range(2):
            for l in range(2):
                psi = np.kron(atk.entangled_basis_vector(2, 1, m, l), [0.0, 1.0])
                c = atk.decompose_source(psi, 2, 1, 2)
                assert abs(c[m, l, 1] - 1.0) < 1e-12
                c[m, l, 1] = 0.0
                assert np.max(np.abs(c)) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(43)
        for d, n, de in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2), (5, 1, 2)]:
            psi = atk.random_state(d ** (2 * n) * de, rng)
            c = atk.decompose_source(psi, d, n, de)
            assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-12
            back = atk.source_from_coefficients(c, d, n)
            assert np.linalg.norm(psi - back) < 1e-10

    def test_round_trip_at_the_block_budget(self):
        # d**(2n) = 4096: a table over all label pairs would hold 2**24
        # complex entries (268 MB); slot by slot stays near the state's size
        psi = atk.random_state(4096, np.random.default_rng(5))
        tracemalloc.start()
        try:
            back = atk.source_from_coefficients(atk.decompose_source(psi, 2, 6, 1), 2, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.linalg.norm(psi - back) < 1e-10
        assert peak < 2 * 2**20


class TestModelValidation:
    def test_broken_kraus_rejected(self):
        with pytest.raises(ValueError):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2), kraus=(0.5 * np.eye(2),))

    def test_unnormalized_source_rejected(self):
        with pytest.raises(ValueError):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=2 * rd.omega(2), kraus=(np.eye(2),))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_source_rejected(self, value):
        psi = rd.omega(2)
        psi[1] = value
        with pytest.raises(ValueError, match="source state norm"):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=psi, kraus=(np.eye(2),))

    def test_nan_kraus_rejected(self):
        kraus = np.eye(2, dtype=complex)
        kraus[0, 1] = np.nan
        with pytest.raises(ValueError, match="not trace preserving"):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2), kraus=(kraus,))

    @pytest.mark.parametrize("eve_state", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]])
    def test_degenerate_ancilla_state_rejected(self, eve_state):
        with pytest.raises(ValueError, match="ancilla state has norm"):
            atk.eve_local_attack(2, [np.eye(2)], eve_state=eve_state)

    @pytest.mark.parametrize("make", [
        lambda bs, n: atk.identity_attack(2, n),
        lambda bs, n: atk.intercept_resend(bs, 0, n),
        lambda bs, n: atk.source_replace(2, 0.1, n),
        lambda bs, n: atk.probe_entangle(2, 0.5, n),
        lambda bs, n: atk.eve_local_attack(2, [np.eye(2)], n=n),
        lambda bs, n: atk.random_attack(2, n, 2, 2, np.random.default_rng(0)),
    ], ids=["identity", "intercept-resend", "source-replace", "probe", "eve-local", "random"])
    def test_constructors_check_budget_first(self, make, mub2, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("allocated despite the attack budget")

        for name in ("omega", "phi_product", "random_state"):
            monkeypatch.setattr(atk, name, refuse)
        for n in (7, 10**7):  # 2**(2*7) = 16 384 is the first block over 4 096
            with pytest.raises(OverBudget, match=rf"2\*\*\(2\*{n}\)\*\d+ exceeds budget 4096"):
                make(mub2, n)

    def test_budget_boundary(self):
        assert atk.checked_block_dim(2, 6) == 64
        assert atk.checked_block_dim(3, 3, 5) == 27  # 3**6 * 5 = 3 645
        with pytest.raises(OverBudget):
            atk.checked_block_dim(3, 3, 6)
        with pytest.raises(ValueError, match="block length"):
            atk.checked_block_dim(2, 0)

    def test_resource_guard(self):
        with pytest.raises(OverBudget, match=r"2\*\*\(2\*4\)\*32 exceeds budget 4096"):
            atk.AttackModel(
                d=2, n=4, d_eve=32,
                psi_abe=np.zeros(2**8 * 32), kraus=(np.eye(2**4 * 32),),
            )


class TestProjectedState:
    def test_ideal_probabilities_and_state(self, mub2, ideal2):
        for b in range(3):
            for i in range(2):
                state, prob = atk.bob_projected_state(ideal2, mub2, b, i)
                assert abs(prob - 0.5) < 1e-12
                hat = atk.phi_hat_product(mub2, (b,), (i,), 1)
                assert np.linalg.norm(state - np.sqrt(2) * np.kron(hat, [1.0])) < 1e-12

    def test_outcome_probabilities_sum_to_one(self, mub2):
        rng = np.random.default_rng(47)
        am = atk.random_attack(2, 1, 2, 2, rng)
        for b in range(3):
            total = sum(atk._projected_raw(am, mub2, (b,), (i,))[1] for i in range(2))
            assert abs(total - 1.0) < 1e-10

    def test_two_routes_agree(self, mub2):
        rng = np.random.default_rng(53)
        for _ in range(10):
            am = atk.random_attack(2, 1, 2, 2, rng)
            for b in range(3):
                for i in range(2):
                    s1, p1 = atk.bob_projected_state(am, mub2, b, i)
                    s2, p2 = atk.bob_projected_state_bell_form(am, mub2, b, i)
                    assert abs(p1 - p2) < 1e-12
                    assert np.linalg.norm(s1 - s2) < 1e-10

    def test_zero_probability_raises(self, mub2):
        # source with Bob's factor pinned to |0>, measured against |1>
        psi = np.kron(np.kron([1.0, 0.0], [1.0, 0.0]), [1.0])
        am = atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=psi, kraus=(np.eye(2),))
        with pytest.raises(atk.ZeroProbabilityOutcome):
            atk.bob_projected_state(am, mub2, 0, 1)


class TestFeedback:
    def test_trivial_channel(self, mub2, ideal2):
        state, _ = atk.bob_projected_state(ideal2, mub2, 1, 0)
        rho = atk.apply_feedback(ideal2, state)
        assert_allclose(rho, np.outer(state, state.conj()), atol=1e-14)

    def test_depolarizing_marginal(self, mub2):
        p = 1.0  # full depolarizing on the returned qubit
        table = atk.weyl_operators(2)
        paulis = [np.eye(2), table[1, 0], table[0, 1], table[1, 1]]
        ops = [np.sqrt(1 - 3 * p / 4) * paulis[0]] + [np.sqrt(p / 4) * m for m in paulis[1:]]
        am = atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2), kraus=tuple(ops))
        state, _ = atk.bob_projected_state(am, mub2, 0, 0)
        rho = atk.apply_feedback(am, state)
        marginal = qmath.partial_trace(rho, (2, 2, 1), 1)
        assert_allclose(marginal, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, mub2):
        rng = np.random.default_rng(59)
        am = atk.random_attack(2, 1, 2, 3, rng)
        for _ in range(5):
            v = atk.random_state(8, rng)
            rho = atk.apply_feedback(am, v)
            assert abs(np.trace(rho).real - 1.0) < 1e-12


class TestAliceState:
    def test_no_attack_conditional(self, mub2, ideal2):
        for b in range(3):
            for i in range(2):
                rho = atk.alice_state(ideal2, mub2, b, i)
                hat = atk.phi_hat_product(mub2, (b,), (i,), 1)
                assert np.max(np.abs(rho - 2 * np.outer(hat, hat.conj()))) < 1e-12

    def test_psd_unit_trace(self, mub2):
        rng = np.random.default_rng(61)
        for _ in range(5):
            am = atk.random_attack(2, 1, 2, 2, rng)
            rho = atk.alice_state(am, mub2, 1, 1)
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestEOperators:
    def test_no_attack_single_identity(self, ideal2):
        ops = atk.build_E_operators(ideal2)
        assert ops.shape == (1, 1, 4, 4)
        assert np.max(np.abs(ops[0, 0] - np.eye(4))) < 1e-12

    def test_reconstruction_random_attacks(self, mub2):
        rng = np.random.default_rng(67)
        for trial in range(15):
            d_eve = int(rng.choice([1, 2, 4]))
            am = atk.random_attack(2, 1, d_eve, 2, rng)
            ops = atk.build_E_operators(am)
            for b in range(3):
                for i in range(2):
                    direct, _ = atk.alice_state_unnormalized(am, mub2, b, i)
                    recon = atk.reconstruct_alice_state(am, mub2, b, i, ops)
                    assert np.max(np.abs(direct - recon)) < 1e-9, trial

    def test_scalar_attacks_have_scalar_operators(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            am = atk.eve_local_attack(
                2, atk.random_channel(3, 2, rng), eve_state=atk.random_state(3, rng)
            )
            ops = atk.build_E_operators(am)
            for l in range(ops.shape[0]):
                for k in range(ops.shape[1]):
                    assert atk.scalar_deviation(ops[l, k]) < 1e-9


class TestGuessProbability:
    def test_no_attack_correct_digit(self, strategy_d2, mub2, ideal2):
        x = (0, 1, 0)
        assert abs(atk.guess_probability(strategy_d2, ideal2, (x,), (1,), (1,)) - 1.0) < 1e-9

    def test_no_attack_wrong_digit(self, strategy_d2, ideal2):
        x = (0, 1, 0)  # x(0) = 0 but Bob saw i = 1
        assert atk.guess_probability(strategy_d2, ideal2, (x,), (0,), (1,)) < 1e-12

    def test_intercept_resend_against_oracle(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        # aggregate over outcomes reproduces 1 - detection
        det = atk.detection_probability(strategy_d2, am)
        agree = 0.0
        for b in range(3):
            for i in range(2):
                _, prob = atk.alice_state_unnormalized(am, mub2, (b,), (i,))
                x_match = (i, i, i)  # any x with x(b) = i
                agree += prob * atk.guess_probability(
                    strategy_d2, am, (x_match,), (b,), (i,)
                )
        assert abs(agree / 3 - (1 - det)) < 1e-10


class TestDetectionAndLeakage:
    def test_no_attack(self, strategy_d2, mub2, ideal2):
        assert atk.detection_probability(strategy_d2, ideal2) < 1e-12
        assert atk.leakage(ideal2, mub2) < 1e-12

    def test_intercept_resend(self, strategy_d2, mub2):
        for bstar in range(3):
            am = atk.intercept_resend(mub2, bstar)
            det = atk.detection_probability(strategy_d2, am)
            oracle = intercept_resend_detection(strategy_d2, bstar)
            assert abs(det - oracle) < 1e-10
            assert det > 0.01
            assert atk.leakage(am, mub2) > 0.1

    def test_intercept_resend_d3(self, strategy_d3, mub3):
        am = atk.intercept_resend(mub3, 1)
        det = atk.detection_probability(strategy_d3, am)
        assert abs(det - intercept_resend_detection(strategy_d3, 1)) < 1e-10
        assert det > 0.01

    def test_probe_against_oracle(self, strategy_d2):
        for theta in (0.3, 0.6, 1.0):
            am = atk.probe_entangle(2, theta)
            det = atk.detection_probability(strategy_d2, am)
            assert abs(det - probe_detection(strategy_d2, theta)) < 1e-10

    def test_swap_like_source_attack_detected(self, strategy_d2):
        am = atk.source_replace(2, 0.4)
        assert atk.detection_probability(strategy_d2, am) > 0.01

    def test_scalar_attacks_invisible(self, strategy_d2, mub2):
        rng = np.random.default_rng(73)
        for _ in range(8):
            am = atk.eve_local_attack(
                2, atk.random_channel(2, 2, rng), eve_state=atk.random_state(2, rng)
            )
            assert atk.detection_probability(strategy_d2, am) < 1e-10
            assert atk.leakage(am, mub2) < 1e-8

    def test_scalarized_random_attacks_invisible(self, strategy_d2, mub2):
        rng = np.random.default_rng(79)
        for _ in range(5):
            raw = atk.random_attack(2, 1, 2, 2, rng)
            am = atk.scalarized_attack(raw)
            assert atk.detection_probability(strategy_d2, am) < 1e-10
            assert atk.leakage(am, mub2) < 1e-8

    def test_detect_leak_curve(self, strategy_d2, mub2):
        # detectable canned attacks: leakage > 0 comes with detection > 0
        curve = []
        for theta in np.linspace(0.2, 1.2, 6):
            am = atk.probe_entangle(2, float(theta))
            curve.append(
                (atk.detection_probability(strategy_d2, am), atk.leakage(am, mub2))
            )
        for det, leak in curve:
            assert det > 1e-4 and leak > 1e-4
        assert curve == sorted(curve)  # monotone over this range


def _grid_attack(kind, bs, n):
    d = bs.dim
    if kind == "probe":
        return atk.probe_entangle(d, 0.7, n=n)
    if kind == "intercept-resend":
        return atk.intercept_resend(bs, 1, n=n)
    if kind == "source-replace":
        return atk.source_replace(d, 0.3, n=n)
    raw = atk.random_attack(d, n, 2, 2, np.random.default_rng(100 * d + n))
    return raw if kind == "random" else atk.scalarized_attack(raw)


class TestPassAgainstPerOutcomeOracle:
    @pytest.mark.parametrize("kind", ["probe", "intercept-resend", "source-replace",
                                      "random", "scalarized"])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_report_matches(self, d, n, kind, strategy_d2, strategy_d3):
        strategy = strategy_d2 if d == 2 else strategy_d3
        am = _grid_attack(kind, strategy.basis_set, n)
        report = atk.evaluate_attack(strategy, am)
        detection, leak, table = attack_pass_per_outcome(strategy, am)
        assert abs(report.detection_probability - detection) <= 1e-12
        assert abs(report.leakage - leak) <= 1e-12
        assert [(e["b"], e["i"]) for e in report.per_outcome] == [(e["b"], e["i"]) for e in table]
        for got, want in zip(report.per_outcome, table):
            assert abs(got["prob"] - want["prob"]) <= 1e-12
            assert abs(got["guess_error"] - want["guess_error"]) <= 1e-12

    def test_intercept_resend_d3_n2_closed_form(self, strategy_d3, mub3):
        # blocks of independent instances: detected unless every instance passes
        p = intercept_resend_detection(strategy_d3, 1)
        det = atk.detection_probability(strategy_d3, atk.intercept_resend(mub3, 1, n=2))
        assert abs(det - (1 - (1 - p) ** 2)) < 1e-10


class TestChunkBudgets:
    """The walk and pair-triangle budgets bound memory; they never change a result."""

    @staticmethod
    def _results(strategy, am):
        report = atk.evaluate_attack(strategy, am)
        # repr tells every double apart, -0.0 from 0.0 included
        exact = repr((report.detection_probability, report.leakage, report.per_outcome,
                      atk.leakage(am, strategy.basis_set)))
        return exact, proto._sample(3, strategy, am, 300)

    @pytest.mark.parametrize("kind", ["probe", "intercept-resend", "random"])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_one_block_and_one_row_per_chunk(self, d, n, kind, strategy_d2, strategy_d3,
                                             monkeypatch):
        strategy = strategy_d2 if d == 2 else strategy_d3
        am = _grid_attack(kind, strategy.basis_set, n)
        exact, codes = self._results(strategy, am)
        monkeypatch.setattr(atk, "_WALK_ENTRIES", 1)
        monkeypatch.setattr(atk, "_PAIR_ENTRIES", 1)
        assert len(list(atk._walk(am, strategy.basis_set))) == strategy.basis_set.k**n
        small_exact, small_codes = self._results(strategy, am)
        assert small_exact == exact
        np.testing.assert_array_equal(small_codes, codes)

    def test_default_budget_batches_blocks(self, strategy_d2):
        am = atk.intercept_resend(strategy_d2.basis_set, 1, n=2)
        chunks = list(atk._walk(am, strategy_d2.basis_set))
        assert len(chunks) == 1 and chunks[0][0].tolist() == [[b, c] for b in range(3)
                                                               for c in range(3)]

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_scalar_blocks_match_eigvalsh(self, d, n, strategy_d2, strategy_d3, monkeypatch):
        # intercept-resend leaves Eve only a branch register: her blocks are 1 x 1
        strategy = strategy_d2 if d == 2 else strategy_d3
        states = atk._attack_pass(strategy, atk.intercept_resend(strategy.basis_set, 1, n=n))[2]
        assert states.shape[2:] == (1, 1)
        want = max(0.5 * float(np.abs(np.linalg.eigvalsh(states[j + 1:] - states[j]))
                               .sum(axis=(1, 2)).max()) for j in range(len(states) - 1))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on scalar blocks")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert atk._max_trace_distance(states) == want > 0.1

    def test_peak_memory_n3(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0, n=3)
        atk.evaluate_attack(strategy_d2, am)  # first-call allocations stay outside
        tracemalloc.start()
        try:
            atk.evaluate_attack(strategy_d2, am)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDimensionMismatch:
    def test_evaluate_attack(self, strategy_d3):
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            atk.evaluate_attack(strategy_d3, atk.identity_attack(2))

    def test_leakage(self, mub3):
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            atk.leakage(atk.identity_attack(2), mub3)

    @pytest.mark.parametrize("entry", [atk.alice_state, atk.alice_state_unnormalized,
                                       atk.eve_final_state])
    def test_single_outcome_entry_points(self, mub3, entry):
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            entry(atk.identity_attack(2), mub3, 0, 0)

    def test_guess_probability(self, strategy_d3):
        x = strategy_d3.safe_vectors.x[0]
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            atk.guess_probability(strategy_d3, atk.identity_attack(2), (x,), (0,), (0,))


class TestEveFinalState:
    def test_no_attack_pure_and_constant(self, mub2, ideal2):
        states = [
            atk.eve_final_state(ideal2, mub2, b, i) for b in range(3) for i in range(2)
        ]
        for rho in states:
            assert_allclose(rho, np.array([[1.0]]), atol=1e-12)

    def test_scalar_attack_outcome_independent(self, mub2):
        rng = np.random.default_rng(83)
        am = atk.eve_local_attack(
            2, atk.random_channel(2, 2, rng), eve_state=atk.random_state(2, rng)
        )
        states = [atk.eve_final_state(am, mub2, b, i) for b in range(3) for i in range(2)]
        for rho in states[1:]:
            assert atk.trace_distance(states[0], rho) < 1e-9

    def test_intercept_resend_depends_on_outcome(self, mub2):
        am = atk.intercept_resend(mub2, 0)
        r0 = atk.eve_final_state(am, mub2, 0, 0)
        r1 = atk.eve_final_state(am, mub2, 0, 1)
        assert atk.trace_distance(r0, r1) > 0.1


class TestAttackFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(89)
        am = atk.random_attack(2, 1, 2, 2, rng)
        path = tmp_path / "attack.json"
        atk.save_attack(am, path)
        back = atk.load_attack(path)
        assert back.d == 2 and back.n == 1 and back.d_eve == 2
        assert_allclose(back.psi_abe, am.psi_abe)
        for v1, v2 in zip(back.kraus, am.kraus):
            assert_allclose(v1, v2)


class TestReportObject:
    def test_evaluate_attack(self, strategy_d2, mub2):
        am = atk.intercept_resend(mub2, 0)
        report = atk.evaluate_attack(strategy_d2, am)
        assert abs(
            report.detection_probability - atk.detection_probability(strategy_d2, am)
        ) < 1e-12
        assert report.leakage > 0.1
        assert len(report.per_outcome) == 6
        probs = sum(entry["prob"] for entry in report.per_outcome)
        assert abs(probs - 3.0) < 1e-9  # one unit of mass per basis
        for entry in report.per_outcome:
            assert 0.0 <= entry["guess_error"] <= 1.0 + 1e-10
