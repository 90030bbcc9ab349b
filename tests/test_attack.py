import dataclasses
import functools
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meanking import attack as atk, bases, protocol as proto, qmath, retrodiction as rd
from meanking.bases import OverBudget

from oracles import (attack_pass_per_outcome, intercept_resend_closed_form,
                     intercept_resend_detection, max_trace_distance_all_pairs, operator_form_loops,
                     phi_hat, probe_detection, probe_leakage_closed_form, weyl_loops)

# (d, n, d_E) of the operator-form checks against the per-label loops
LOOP_SHAPES = [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 1)]


@pytest.fixture(scope="module")
def ideal2():
    return atk.identity_attack(2)


class TestWeyl:
    def test_identity(self):
        assert_allclose(weyl_loops(2, 1)[0, 0], np.eye(2))

    def test_shift_times_clock(self):
        # multiplied by hand: X Z = [[0, -1], [1, 0]]
        assert_allclose(weyl_loops(2, 1)[1, 1], np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_orders(self):
        for d in (2, 3, 5):
            x, z = weyl_loops(d, 1)[[1, 0], [0, 1]]
            assert_allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12)
            assert_allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
    def test_entangled_basis_orthonormal(self, d, n):
        # row (m, l) is the Bell vector (1 x U_(m,l)) Omega, entries U[b, a] / sqrt(d**n)
        dd = d**n
        vecs = weyl_loops(d, n).swapaxes(2, 3).reshape(dd * dd, dd * dd) / np.sqrt(dd)
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(dd * dd))) < 1e-12


class TestOperatorFormAgainstLoops:
    """The operator form read off the source against one Weyl unitary per flat label."""

    @pytest.mark.parametrize("d,n,de", LOOP_SHAPES)
    def test_coefficients_and_operators(self, d, n, de):
        am = atk.random_attack(d, n, de, 2, np.random.default_rng(7 * d + n))
        _, ops = operator_form_loops(am)
        assert_allclose(atk.build_E_operators(am), ops, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n,de", LOOP_SHAPES)
    def test_scalarized_source_is_the_honest_coefficient(self, d, n, de):
        # the undetectable part keeps the Weyl label (0, 0) of the source, normalized
        am = atk.random_attack(d, n, de, 2, np.random.default_rng(17 * d + n))
        c00 = operator_form_loops(am)[0][0, 0]
        want = np.kron(rd.omega(d**n), c00 / np.linalg.norm(c00))
        assert_allclose(atk.scalarized_attack(am).psi_abe, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n,de", LOOP_SHAPES)
    def test_weyl_expansion_resums_to_source(self, d, n, de):
        # U_hat_beta = sum_(m,l) c[m, l, beta] U_(m,l) is sqrt(d**n) psi_beta^T, which the
        # operator form reads off the source
        am = atk.random_attack(d, n, de, 2, np.random.default_rng(13 * d + n))
        dd = d**n
        coeffs, _ = operator_form_loops(am)
        resummed = np.einsum("mle,mlxa->xae", coeffs, weyl_loops(d, n))
        want = np.sqrt(dd) * am.psi_abe.reshape(dd, dd, de).transpose(1, 0, 2)
        assert_allclose(resummed, want, rtol=0, atol=1e-12)
        assert_allclose(atk._u_hats(am), resummed, rtol=0, atol=1e-12)


class TestModelValidation:
    def test_broken_kraus_rejected(self):
        with pytest.raises(ValueError):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2), kraus=(0.5 * np.eye(2),))

    def test_unnormalized_source_rejected(self):
        with pytest.raises(ValueError):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=2 * rd.omega(2), kraus=(np.eye(2),))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_source_rejected(self, value, refused_quietly):
        psi = rd.omega(2)
        psi[1] = value
        refused_quietly(lambda: atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=psi,
                                                kraus=(np.eye(2),)), "not finite")

    def test_nan_kraus_rejected(self, refused_quietly):
        kraus = np.eye(2, dtype=complex)
        kraus[0, 1] = np.nan
        refused_quietly(lambda: atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2),
                                                kraus=(kraus,)), "not finite")

    def test_infinite_kraus_rejected(self, refused_quietly):
        # the V^dagger V sum would meet inf * 0 and warn in matmul
        kraus = np.eye(2, dtype=complex)
        kraus[1, 0] = np.inf
        refused_quietly(lambda: atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2),
                                                kraus=(kraus, np.zeros((2, 2)))), "not finite")

    @pytest.mark.parametrize("kraus", [np.eye(2), np.eye(3)[None], np.zeros((0, 2, 2)),
                                       [np.eye(2), np.eye(3)]],
                             ids=["one-matrix", "wrong-size", "none", "ragged"])
    def test_kraus_shape_rejected(self, kraus):
        with pytest.raises(ValueError):
            atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2), kraus=kraus)

    def test_kraus_is_one_array(self, mub2):
        am = atk.intercept_resend(mub2, 1)
        assert am.kraus.shape == (2, 2, 2) and am.kraus.dtype == complex
        assert_allclose(am.kraus.sum(axis=0), np.eye(2), atol=1e-15)

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


def _projected(am, bs, b, i):
    """Bob's normalized post-measurement state on A x B x E, before Eve's channel, and its
    probability: the projection of a copy of the attack whose one Kraus operator is 1."""
    bare = dataclasses.replace(am, kraus=np.eye(am.block_dim * am.d_eve)[None])
    branches, prob = atk._branch_vectors(bare, bs, (b,), (i,))
    return branches.reshape(-1) / np.sqrt(prob), prob


class TestProjectedState:
    def test_ideal_probabilities_and_state(self, mub2, ideal2):
        for b in range(3):
            for i in range(2):
                state, prob = _projected(ideal2, mub2, b, i)
                assert abs(prob - 0.5) < 1e-12
                hat = phi_hat(mub2, b, i)
                assert np.linalg.norm(state - np.sqrt(2) * np.kron(hat, [1.0])) < 1e-12

    def test_outcome_probabilities_sum_to_one(self, mub2):
        rng = np.random.default_rng(47)
        am = atk.random_attack(2, 1, 2, 2, rng)
        for b in range(3):
            total = sum(atk._branch_vectors(am, mub2, (b,), (i,))[1] for i in range(2))
            assert abs(total - 1.0) < 1e-10

    def test_two_routes_agree(self, mub2):
        # second route, label by label over the source's Weyl expansion:
        # sum c[m, l, beta] (U_(m,l)^T x 1) phi_hat x e_beta
        rng = np.random.default_rng(53)
        units, eve = weyl_loops(2, 1), np.eye(2)
        for _ in range(10):
            am = atk.random_attack(2, 1, 2, 2, rng)
            coeffs, _ = operator_form_loops(am)
            for b in range(3):
                for i in range(2):
                    s1, p1 = _projected(am, mub2, b, i)
                    hat = phi_hat(mub2, b, i)
                    out = sum(coeffs[m, l, beta]
                              * np.kron(np.kron(units[m, l].T, np.eye(2)) @ hat, eve[beta])
                              for m in range(2) for l in range(2) for beta in range(2))
                    p2 = float(np.linalg.norm(out) ** 2)
                    assert abs(p1 - p2) < 1e-12
                    assert np.linalg.norm(s1 - out / np.sqrt(p2)) < 1e-10

    @pytest.mark.parametrize("kind", ["identity", "intercept-resend", "probe", "random"])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
    def test_one_outcome_is_the_walks_outcome(self, d, n, kind, mub2, mub3):
        # both go through the one projection, so they agree bit for bit
        bs = mub2 if d == 2 else mub3
        am = atk.identity_attack(d, n) if kind == "identity" else _grid_attack(kind, bs, n)
        ivecs = list(itertools.product(range(d), repeat=n))
        for chunk in atk._walk(am, bs, stacks=True):
            for bvec, block_branches, block_probs in zip(chunk.bvecs.tolist(), chunk.branches,
                                                         chunk.probs):
                for ivec, walked, prob in zip(ivecs, block_branches, block_probs.tolist()):
                    single, single_prob = atk._branch_vectors(am, bs, bvec, ivec)
                    assert single.tobytes() == walked.tobytes() and single_prob == prob

    @pytest.mark.parametrize("bvec,ivec,message", [
        ((3,), (0,), "bases (3,) invalid for n=1, range 0..2"),
        ((-1,), (0,), "bases (-1,) invalid for n=1, range 0..2"),
        ((0,), (2,), "outcomes (2,) invalid for n=1, range 0..1"),
        ((0, 1), (0,), "bases (0, 1) invalid for n=1, range 0..2"),
        ((0,), (0, 1), "outcomes (0, 1) invalid for n=1, range 0..1"),
    ])
    def test_phi_product_refuses_bad_indices(self, bvec, ivec, message, mub2):
        with pytest.raises(IndexError) as info:
            atk.phi_product(mub2, bvec, ivec, 1)
        assert str(info.value) == message

    def test_phi_product_int_shorthand(self, mub2):
        phi = atk.phi_product(mub2, 1, 0, 1)
        assert phi.tobytes() == atk.phi_product(mub2, (1,), (0,), 1).tobytes()
        assert phi.tobytes() == qmath.kron(mub2.vectors[1, 0]).tobytes()
        phi[:] = 0  # a copy: the basis set keeps its vector
        assert np.any(mub2.vectors[1, 0])

    @pytest.mark.parametrize("kind", ["identity", "intercept-resend", "probe", "random"])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_alice_state_is_the_branch_sum(self, d, n, kind, mub2, mub3):
        # one batched product summed over the branch axis: the loop's sum, value for value
        bs = mub2 if d == 2 else mub3
        am = atk.identity_attack(d, n) if kind == "identity" else _grid_attack(kind, bs, n)
        for bvec in itertools.product(range(bs.k), repeat=n):
            for ivec in itertools.product(range(d), repeat=n):
                rho, prob = atk.alice_state_unnormalized(am, bs, bvec, ivec)
                branches, want_prob = atk._branch_vectors(am, bs, bvec, ivec)
                assert np.array_equal(rho, sum(w @ w.conj().T for w in branches))
                assert prob == want_prob

    def test_zero_probability_raises(self, mub2):
        # source with Bob's factor pinned to |0>, measured against |1>
        psi = np.kron(np.kron([1.0, 0.0], [1.0, 0.0]), [1.0])
        am = atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=psi, kraus=(np.eye(2),))
        with pytest.raises(atk.ZeroProbabilityOutcome):
            atk.alice_state(am, mub2, 0, 1)


class TestFeedback:
    """The feedback channel as ``alice_state`` applies it to the projected source."""

    def test_trivial_channel(self, mub2, ideal2):
        state, _ = _projected(ideal2, mub2, 1, 0)
        rho = atk.alice_state(ideal2, mub2, 1, 0)
        assert_allclose(rho, np.outer(state, state.conj()), atol=1e-14)

    def test_depolarizing_marginal(self, mub2):
        p = 1.0  # full depolarizing on the returned qubit
        table = weyl_loops(2, 1)
        paulis = [np.eye(2), table[1, 0], table[0, 1], table[1, 1]]
        ops = [np.sqrt(1 - 3 * p / 4) * paulis[0]] + [np.sqrt(p / 4) * m for m in paulis[1:]]
        am = atk.AttackModel(d=2, n=1, d_eve=1, psi_abe=rd.omega(2), kraus=tuple(ops))
        rho = atk.alice_state(am, mub2, 0, 0)
        marginal = np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)  # A traced out, B kept
        assert_allclose(marginal, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, mub2):
        # the branches sum to the projected state's norm, whatever the channel does
        rng = np.random.default_rng(59)
        am = atk.random_attack(2, 1, 2, 3, rng)
        for b in range(3):
            for i in range(2):
                rho, prob = atk.alice_state_unnormalized(am, mub2, b, i)
                assert abs(np.trace(rho).real - prob) < 1e-12


class TestAliceState:
    def test_no_attack_conditional(self, mub2, ideal2):
        for b in range(3):
            for i in range(2):
                rho = atk.alice_state(ideal2, mub2, b, i)
                hat = phi_hat(mub2, b, i)
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
            dim = ops.shape[-1]
            scalars = np.einsum("lkii->lk", ops)[..., None, None] * np.eye(dim) / dim
            # Frobenius distance of each E_(l,k) from the scalar line
            assert np.linalg.norm(ops - scalars, axis=(2, 3)).max() < 1e-9


class TestGuessProbability:
    """Alice's chance of announcing a digit: tr(Q[b, j] rho) for her state rho."""

    def test_no_attack_correct_digit(self, strategy_d2, mub2, ideal2):
        q = strategy_d2.digit_operators
        for b in range(3):
            for i in range(2):
                rho = atk.alice_state(ideal2, mub2, b, i)
                assert abs(np.trace(q[b, i] @ rho).real - 1.0) < 1e-9

    def test_no_attack_wrong_digit(self, strategy_d2, mub2, ideal2):
        q = strategy_d2.digit_operators
        for b in range(3):
            for i in range(2):
                rho = atk.alice_state(ideal2, mub2, b, i)
                assert np.trace(q[b, 1 - i] @ rho).real < 1e-12

    def test_intercept_resend_against_oracle(self, strategy_d2, mub2):
        # the per-outcome table's guess errors, weighted by their outcomes, give detection
        table = atk.evaluate_attack(strategy_d2, atk.intercept_resend(mub2, 0)).per_outcome
        agree = sum(row["prob"] * (1.0 - row["guess_error"]) for row in table)
        assert abs(agree / 3 - (1 - intercept_resend_detection(strategy_d2, 0))) < 1e-10


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


def _grid_attack(kind, bs, n, seed=None):
    d = bs.dim
    if kind == "probe":
        return atk.probe_entangle(d, 0.7, n=n)
    if kind == "intercept-resend":
        return atk.intercept_resend(bs, 1, n=n)
    if kind == "source-replace":
        return atk.source_replace(d, 0.3, n=n)
    if kind == "probe-E3":
        return atk.probe_entangle(d, 0.7, n=n, d_eve=3)
    raw = atk.random_attack(d, n, 2, 2, np.random.default_rng(100 * d + n if seed is None else seed))
    return raw if kind == "random" else atk.scalarized_attack(raw)


GRID_KINDS = ["probe", "intercept-resend", "source-replace", "random", "scalarized"]
GRID_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


class TestPassAgainstPerOutcomeOracle:
    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("d,n", GRID_SHAPES)
    def test_report_matches(self, d, n, kind, request):
        strategy = request.getfixturevalue(f"strategy_d{d}")
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


@functools.lru_cache(maxsize=None)
def _mub_strategy(d):
    return rd.build_strategy(bases.gen_mub(d))


class TestClosedFormFingerprints:
    """Reports against the paper's arithmetic (``tests/oracles.py``), not only other routes."""

    # the CLI's b=1 and the grid's basis; b*=1 at d=2, n=1 is the worst, err = 5.4 N u exact
    @pytest.mark.parametrize("bstar", [0, 1])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2),
                                     (7, 1), (7, 2)])
    def test_intercept_resend(self, d, n, bstar):
        # detection sums N kept outcomes, so its rounding may grow with N: c N u, c = 8
        strategy = _mub_strategy(d)
        report = atk.evaluate_attack(strategy, atk.intercept_resend(strategy.basis_set, bstar, n=n))
        exact, kept = intercept_resend_closed_form(d, n), len(report.per_outcome)
        err = abs(Fraction(report.detection_probability) - exact)
        assert err <= 8 * kept * Fraction(qmath.UNIT_ROUNDOFF) * exact
        # Eve learns Bob's outcome whenever he used her basis: trace distance 1, no ulp above
        assert report.leakage == 1.0

    @pytest.mark.parametrize("theta", [0.3, 0.8])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)])
    def test_probe_leakage(self, d, n, theta):
        strategy = _mub_strategy(d)
        am = atk.probe_entangle(d, theta, n=n)
        want = probe_leakage_closed_form(d, n, theta)
        for got in (atk.evaluate_attack(strategy, am).leakage, atk.leakage(am, strategy.basis_set)):
            assert abs(got - want) <= 2 * math.ulp(want)


def _outcome_loop(strategy, am):
    """``(detection, table)`` from one Python float sum and one dict per outcome, in a loop
    over the pass's own chunks: the reference for the bits of the pass's array form."""
    bs, n, frame_table = strategy.basis_set, am.n, strategy.digit_table
    if frame_table is None:
        q = strategy.digit_operators
        chunks = ((c.bvecs, c.probs, atk._correct_mass([q[c.bvecs[:, s]] for s in range(n)],
                                                       c.branches))
                  for c in atk._walk(am, bs, stacks=True, states=True))
    else:
        weights = qmath.kron(*[frame_table] * n)
        chunks = ((c.bvecs, c.probs, atk._frame_mass(am, weights, c.phis, c.x))
                  for c in atk._walk(am, bs, frame=True, states=True))
    ivecs = list(itertools.product(range(bs.dim), repeat=n))
    total, table = 0.0, []
    for bvecs, probs, correct in chunks:
        outcomes = zip(itertools.product(bvecs.tolist(), ivecs), probs.ravel().tolist(),
                       correct.ravel().tolist())
        for (bvec, ivec), prob, right in outcomes:
            if prob <= qmath.PROB_FLOOR:
                continue
            total += prob - right
            table.append({"b": [b + 1 for b in bvec], "i": [i + 1 for i in ivec],
                          "prob": prob, "guess_error": max(0.0, 1.0 - right / prob)})
    return total / bs.k**n, table


class TestOutcomeTable:
    """The pass keeps, labels and sums its outcomes with array operations, bit for bit
    as a loop over them does, in one chunk or in one per basis block."""

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("case", ["mub-2-1", "mub-2-3", "mub-3-2", "biased-3-1", "biased-3-2",
                                      "v1-2-2"])
    def test_matches_the_loop(self, case, kind, request, biased_copy, v1_files, monkeypatch):
        source, d, n = case.split("-")
        d, n = int(d), int(n)
        strategy = {"mub": lambda: request.getfixturevalue(f"strategy_d{d}"),
                    "biased": lambda: rd.build_strategy(
                        biased_copy(request.getfixturevalue(f"mub{d}"), 0.3)),
                    "v1": lambda: rd.load_strategy(v1_files[d])}[source]()
        am = _grid_attack(kind, strategy.basis_set, n)
        # repr tells every double apart, -0.0 from 0.0 included
        want = repr(_outcome_loop(strategy, am))
        assert repr(atk._attack_pass(strategy, am)[:2]) == want
        leak = repr(atk.leakage(am, strategy.basis_set))
        monkeypatch.setattr(atk, "_WALK_ENTRIES", 1 << 20)  # the whole grid in one chunk
        assert repr(atk._attack_pass(strategy, am)[:2]) == want
        assert repr(atk.leakage(am, strategy.basis_set)) == leak
        monkeypatch.setattr(atk, "_WALK_ENTRIES", 1)  # one chunk per basis block
        assert repr(atk._attack_pass(strategy, am)[:2]) == want


class TestFrameRoute:
    """On a complete MUB set the correct mass comes from Alice's factor and Eve's in each
    block's frame: no digit operator per slot, and no branch stack at d_E = 1."""

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("d,n", GRID_SHAPES)
    def test_correct_mass_matches_stack(self, d, n, kind, request):
        strategy = request.getfixturevalue(f"strategy_d{d}")
        bs = strategy.basis_set
        am = _grid_attack(kind, bs, n)
        q = strategy.digit_operators
        weights = qmath.kron(*[strategy.digit_table] * n)
        frame = [atk._frame_mass(am, weights, c.phis, c.x) for c in atk._walk(am, bs, frame=True)]
        stack = [atk._correct_mass([q[c.bvecs[:, s]] for s in range(n)], c.branches)
                 for c in atk._walk(am, bs, stacks=True)]
        assert np.max(np.abs(np.concatenate(frame) - np.concatenate(stack))) <= 1e-14

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (5, 2)])
    def test_intercept_resend_closed_form(self, d, n, request):
        # each instance is caught with p = (d-1)**2 / (d(d+1)), independently
        strategy = request.getfixturevalue(f"strategy_d{d}")
        p = (d - 1) ** 2 / (d * (d + 1))
        det = atk.detection_probability(strategy, atk.intercept_resend(strategy.basis_set, 1, n=n))
        assert abs(det - (1 - (1 - p) ** n)) <= 1e-12

    @pytest.mark.parametrize("kind", ["intercept-resend", "source-replace"])
    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
    def test_no_stack_at_one_dimensional_e(self, d, n, kind, request, monkeypatch):
        strategy = request.getfixturevalue(f"strategy_d{d}")
        am = _grid_attack(kind, strategy.basis_set, n)
        want = repr(atk.evaluate_attack(strategy, am))

        def refuse(*_args):
            raise AssertionError("formed a branch stack")

        for name in ("_project", "_correct_mass"):
            monkeypatch.setattr(atk, name, refuse)
        assert repr(atk.evaluate_attack(strategy, am)) == want

    @pytest.mark.parametrize("kind", ["probe", "probe-E3", "random", "scalarized"])
    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1), (3, 2)])
    def test_eve_states_bitwise_at_larger_e(self, d, n, kind, request, monkeypatch):
        strategy = request.getfixturevalue(f"strategy_d{d}")
        bs = strategy.basis_set
        am = _grid_attack(kind, bs, n)
        stack = np.concatenate([atk._eve_states(c.branches)
                                for c in atk._walk(am, bs, stacks=True)])
        monkeypatch.setattr(atk, "_correct_mass", None)  # the frame route only
        assert atk._attack_pass(strategy, am)[2].tobytes() == stack.tobytes()

    @pytest.mark.parametrize("source", ["biased-d2", "biased-d3", "biased-uniform-weight", "v1",
                                        "unit"])
    def test_ungated_strategies_keep_the_stack_route(self, source, mub2, mub3, biased_copy,
                                                     v1_files, unit_strategy, monkeypatch):
        # a biased set takes LP weights; under the uniform weight its digit operators
        # are not diagonal in the frames, and the gate itself refuses it
        biased = rd.build_strategy(biased_copy(mub3, 0.3))
        strategy = {"biased-d2": lambda: rd.build_strategy(biased_copy(mub2, 0.2)),
                    "biased-d3": lambda: biased,
                    "biased-uniform-weight": lambda: rd.Strategy(
                        biased.basis_set, np.broadcast_to(1 / 81, (81,)), biased.generators),
                    "v1": lambda: rd.load_strategy(v1_files[2]),
                    "unit": lambda: unit_strategy}[source]()
        assert strategy.digit_table is None
        monkeypatch.setattr(atk, "_frame_mass", None)
        for kind in GRID_KINDS:
            am = _grid_attack(kind, strategy.basis_set, 1)
            detection, _, _ = attack_pass_per_outcome(strategy, am)
            assert abs(atk.evaluate_attack(strategy, am).detection_probability - detection) <= 1e-12


class TestOneWalk:
    """Eve's states come from the one walk on every route: the pass's leakage is
    :func:`~meanking.attack.leakage`'s bit for bit, on the stack route at d_E = 1 too."""

    ATTACKS = [("intercept-resend", 1), ("intercept-resend", 2), ("source-replace", 1),
               ("source-replace", 2), ("probe", 1), ("probe", 2), ("random-E1", 1),
               ("random-E1", 2), ("random", 1), ("random", 2)]

    @pytest.mark.parametrize("kind,n", ATTACKS, ids=[f"{kind}-{n}" for kind, n in ATTACKS])
    @pytest.mark.parametrize("source", ["biased-d2", "biased-d3", "v1-d2", "v1-d3", "unit"])
    def test_pass_leakage_is_leakage(self, source, kind, n, mub2, mub3, biased_copy, v1_files,
                                     unit_strategy):
        # the default budget, where the pass and leakage() may split the grid differently
        self._check(source, kind, n, mub2, mub3, biased_copy, v1_files, unit_strategy)

    @pytest.mark.parametrize("kind,n", ATTACKS, ids=[f"{kind}-{n}" for kind, n in ATTACKS])
    @pytest.mark.parametrize("source", ["biased-d2", "biased-d3", "v1-d2", "v1-d3", "unit"])
    def test_pass_leakage_is_leakage_one_block_per_chunk(self, source, kind, n, mub2, mub3,
                                                         biased_copy, v1_files, unit_strategy,
                                                         monkeypatch):
        # where Eve's scalar blocks would be a strided view without a copy
        monkeypatch.setattr(atk, "_WALK_ENTRIES", 1)
        self._check(source, kind, n, mub2, mub3, biased_copy, v1_files, unit_strategy)

    @staticmethod
    def _check(source, kind, n, mub2, mub3, biased_copy, v1_files, unit_strategy):
        strategy = {"biased-d2": lambda: rd.build_strategy(biased_copy(mub2, 0.2)),
                    "biased-d3": lambda: rd.build_strategy(biased_copy(mub3, 0.3)),
                    "v1-d2": lambda: rd.load_strategy(v1_files[2]),
                    "v1-d3": lambda: rd.load_strategy(v1_files[3]),
                    "unit": lambda: unit_strategy}[source]()
        bs = strategy.basis_set
        am = (atk.random_attack(bs.dim, n, 1, 3, np.random.default_rng(7 + n))
              if kind == "random-E1" else _grid_attack(kind, bs, n))
        leak = atk.evaluate_attack(strategy, am).leakage
        assert leak == atk.leakage(am, bs)
        assert 0.0 <= leak <= 1.0


    # the stack route on biased sets of d = 2 and 3
    ROUTES = ([("frame", d, n) for d, n in GRID_SHAPES]
              + [("stack", d, n) for d, n in GRID_SHAPES if d < 5])

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("route,d,n", ROUTES)
    def test_detection_forms_no_state(self, route, d, n, kind, request, biased_copy,
                                      monkeypatch):
        strategy = (request.getfixturevalue(f"strategy_d{d}") if route == "frame" else
                    rd.build_strategy(biased_copy(request.getfixturevalue(f"mub{d}"), 0.3)))
        assert (strategy.digit_table is None) == (route == "stack")
        am = _grid_attack(kind, strategy.basis_set, n)
        want = atk.evaluate_attack(strategy, am).detection_probability

        def refuse(*_args):
            raise AssertionError("formed Eve's states")

        for name in ("_eve_states", "_normalized"):
            monkeypatch.setattr(atk, name, refuse)
        assert atk.detection_probability(strategy, am).hex() == want.hex()


class TestChunkBudgets:
    """The walk and pair-triangle budgets bound memory; they never change a result."""

    @staticmethod
    def _results(strategy, am, units):
        report = atk.evaluate_attack(strategy, am)
        # repr tells every double apart, -0.0 from 0.0 included
        exact = repr((report.detection_probability, report.leakage, report.per_outcome,
                      atk.leakage(am, strategy.basis_set)))
        return exact, proto._sample(3, strategy, am, units)

    # 300 units each, and one run of 3 units in 81 basis blocks: most blocks are then
    # drawn by nobody, and the default walk already comes in several chunks
    CASES = [(d, n, kind, 300) for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
             for kind in ["probe", "intercept-resend", "random"]]
    CASES.append((3, 2, "intercept-resend", 3))

    @pytest.mark.parametrize("d,n,kind,units", CASES, ids=[
        f"{d}-{n}-{kind}" + ("" if units == 300 else f"-{units}-units")
        for d, n, kind, units in CASES])
    def test_one_block_and_one_row_per_chunk(self, d, n, kind, units, strategy_d2, strategy_d3,
                                             monkeypatch):
        strategy = strategy_d2 if d == 2 else strategy_d3
        am = _grid_attack(kind, strategy.basis_set, n)
        exact, codes = self._results(strategy, am, units)
        monkeypatch.setattr(atk, "_WALK_ENTRIES", 1)
        monkeypatch.setattr(atk, "_PAIR_ENTRIES", 1)
        assert len(list(atk._walk(am, strategy.basis_set, states=True))) == strategy.basis_set.k**n
        small_exact, small_codes = self._results(strategy, am, units)
        assert small_exact == exact
        np.testing.assert_array_equal(small_codes, codes)

    def test_default_budget_batches_blocks(self, strategy_d2, mub2, mub3):
        am = atk.intercept_resend(strategy_d2.basis_set, 1, n=2)
        chunks = list(atk._walk(am, strategy_d2.basis_set, stacks=True))
        assert len(chunks) == 1 and chunks[0].bvecs.tolist() == [[b, c] for b in range(3)
                                                                 for c in range(3)]
        # the medium grids: one frame-route chunk each; the d=3, n=2 stacks take 8
        for bs, n in [(mub2, 3), (mub3, 2)]:
            am = atk.intercept_resend(bs, 1, n=n)
            assert len(list(atk._walk(am, bs, frame=True, states=True))) == 1
        assert len(list(atk._walk(atk.intercept_resend(mub3, 1, n=2), mub3, stacks=True))) == 8

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
    def test_scalar_blocks_match_eigvalsh(self, d, n, strategy_d2, strategy_d3, monkeypatch):
        # intercept-resend leaves Eve only a branch register: her blocks are 1 x 1
        strategy = strategy_d2 if d == 2 else strategy_d3
        states = atk._attack_pass(strategy, atk.intercept_resend(strategy.basis_set, 1, n=n))[2]
        assert states.shape[2:] == (1, 1)
        want = max_trace_distance_all_pairs(states)

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

    def test_peak_memory_random_n3(self, strategy_d2):
        # 216 distinct states: an unchunked 216 x 216 Gram product per branch took 3 MiB
        am = atk.random_attack(2, 3, 2, 2, np.random.default_rng(1))
        atk.evaluate_attack(strategy_d2, am)
        tracemalloc.start()
        try:
            atk.evaluate_attack(strategy_d2, am)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDistinctStates:
    """Leakage compares Eve's distinct states only, and reports what every pair gives."""

    KINDS = ["probe", "probe-E3", "intercept-resend", "source-replace", "scalarized", "random"]
    CASES = [(d, n, kind, None) for (d, n), kind in
             itertools.product([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)], KINDS)]
    # a copy of a state that follows a later distinct one: the triangle forms both
    # orientations of that pair, and only one of them attains the maximum's last bit
    CASES.append((2, 2, "scalarized", 3))

    @pytest.mark.parametrize("d,n,kind,seed", CASES, ids=[
        f"{d}-{n}-{kind}" + ("" if seed is None else f"-seed-{seed}") for d, n, kind, seed in CASES])
    def test_matches_all_pairs_reference(self, d, n, kind, seed, strategy_d2, strategy_d3):
        strategy = strategy_d2 if d == 2 else strategy_d3
        am = _grid_attack(kind, strategy.basis_set, n, seed)
        states = atk._attack_pass(strategy, am)[2]
        # a trace distance is at most 1; leakage clamps a sum that rounds above it
        want = min(1.0, max_trace_distance_all_pairs(states)).hex()
        assert atk._max_trace_distance(states).hex() == want
        assert atk.leakage(am, strategy.basis_set).hex() == want
        assert atk.evaluate_attack(strategy, am).leakage.hex() == want

    def test_oracle_rounds_above_the_clamp(self, strategy_d3, mub3):
        # keeps the clamp exercised: the all-pairs sum for this stack rounds one ulp above 1
        states = atk._attack_pass(strategy_d3, atk.intercept_resend(mub3, 1, n=2))[2]
        assert max_trace_distance_all_pairs(states).hex() == "0x1.0000000000001p+0"
        assert atk._max_trace_distance(states) == 1.0

    @pytest.mark.parametrize("kind, distinct", [("probe", 9), ("random", 36)])
    def test_repeats_cost_no_eigvalsh(self, kind, distinct, strategy_d2, monkeypatch):
        states = atk._attack_pass(strategy_d2, _grid_attack(kind, strategy_d2.basis_set, 2))[2]
        branches = states.shape[1]
        assert len({state.tobytes() for state in states}) == distinct
        want = atk._max_trace_distance(states)
        seen = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(int(np.prod(np.shape(a)[:-2])))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert atk._max_trace_distance(np.concatenate([states] * 3)).hex() == want.hex() != "0x0.0p+0"
        assert sum(seen) <= distinct * (distinct - 1) // 2 * branches

    # 9 distinct probe states; the scalarized attacks of the seeds whose leakage moved in
    # the last bit with the orientation of a pair
    FEW = [("probe", theta) for theta in (0.1, 0.5, 0.8)] + [
        ("scalarized", seed) for seed in (3, 14, 23, 41, 46, 48)]

    @pytest.mark.parametrize("kind, value", FEW, ids=[f"{k}-{v}" for k, v in FEW])
    @pytest.mark.parametrize("copies", [1, 3])
    def test_few_states_verify_every_pair(self, strategy_d2, monkeypatch, kind, value, copies):
        # no more pairs than states: every distinct pair goes to eigvalsh, none pruned by
        # a bound, and gives the whole triangle's value
        am = (atk.probe_entangle(2, value, n=2) if kind == "probe" else
              atk.scalarized_attack(atk.random_attack(2, 2, 2, 2, np.random.default_rng(value))))
        states = np.concatenate([atk._attack_pass(strategy_d2, am)[2]] * copies)
        distinct = len({state.tobytes() for state in states})
        assert distinct * (distinct - 1) // 2 <= len(states)
        want = min(1.0, max_trace_distance_all_pairs(states)).hex()
        seen = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(int(np.prod(np.shape(a)[:-2])))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert atk._max_trace_distance(states).hex() == want
        assert sum(seen) == distinct * (distinct - 1) // 2 * states.shape[1]

    @staticmethod
    def _distributions(m, first_pair_apart):
        """m distinct scalar states over 3 branches, (m, 3, 1, 1): m - 2 of full support and
        two point masses on different branches, the only pair at trace distance 1, placed
        first or last in the triangle."""
        rng = np.random.default_rng(5)
        full = rng.uniform(0.5, 1.5, (m - 2, 3))
        apart = np.eye(3)[:2]
        probs = np.concatenate([apart, full] if first_pair_apart else [full, apart])
        return (probs / probs.sum(axis=1, keepdims=True))[:, :, None, None].astype(complex)

    def test_last_pair_at_distance_one(self):
        # 200 states over many chunks of rows: the pass reaches the triangle's last pair
        states = self._distributions(200, first_pair_apart=False)
        assert max_trace_distance_all_pairs(states[:-1]) < 1.0
        assert atk._max_trace_distance(states) == 1.0

    def test_stops_at_distance_one(self, monkeypatch):
        states = self._distributions(200, first_pair_apart=True)
        verified = []
        real = atk._verify_pairs

        def counting(states, firsts, lasts, a, b):
            verified.append(len(a))
            return real(states, firsts, lasts, a, b)

        monkeypatch.setattr(atk, "_verify_pairs", counting)
        assert atk._max_trace_distance(states) == 1.0
        assert 0 < sum(verified) < 200 * 199 // 2

    def test_large_scalar_stack_below_one(self, strategy_d5):
        # 900 distinct scalar states over many chunks of rows, none of them a pair at
        # distance 1: the value recorded before the pass stopped at the clamp
        am = atk.random_attack(5, 2, 1, 3, np.random.default_rng(7))
        assert atk.evaluate_attack(strategy_d5, am).leakage.hex() == "0x1.45c7071d9572cp-2"
        assert atk.leakage(am, strategy_d5.basis_set).hex() == "0x1.45c7071d9572cp-2"

    def test_negation_reverses_eigvalsh(self, strategy_d2):
        # what lets one eigvalsh serve both orientations of a pair, bit for bit
        am = atk.random_attack(2, 2, 2, 2, np.random.default_rng(1))
        states = atk._attack_pass(strategy_d2, am)[2]
        diff = states[1:] - states[:-1]
        np.testing.assert_array_equal(np.linalg.eigvalsh(-diff),
                                      -np.linalg.eigvalsh(diff)[..., ::-1])

    def test_bounds_spare_most_pairs_eigvalsh(self, strategy_d2, monkeypatch):
        # a general coherent attack gives each of the 216 outcomes its own state
        am = atk.random_attack(2, 3, 2, 2, np.random.default_rng(1))
        states = atk._attack_pass(strategy_d2, am)[2]
        distinct = len({state.tobytes() for state in states})
        assert distinct == len(states) == 216
        want = max_trace_distance_all_pairs(states)
        seen = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            seen.append(int(np.prod(np.shape(a)[:-2])))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert atk._max_trace_distance(states).hex() == want.hex()
        assert 0 < sum(seen) <= 0.05 * distinct * (distinct - 1) // 2 * states.shape[1]


class TestDigitOperatorsOnce:
    def test_built_once_per_strategy(self, strategy_d2, mub2, monkeypatch):
        strategy = dataclasses.replace(strategy_d2)  # a fresh instance, nothing cached
        builds = []  # a build of the digit operators checks the strategy's size first
        check_size = rd._check_size
        monkeypatch.setattr(rd, "_check_size", lambda bs: builds.append(check_size(bs)))
        am = atk.intercept_resend(mub2, 1, n=2)
        first = atk.evaluate_attack(strategy, am)
        assert atk.evaluate_attack(strategy, am) == first
        assert atk.detection_probability(strategy, am) == first.detection_probability
        assert len(builds) == 1
        assert strategy.digit_operators is strategy.digit_operators
        assert strategy_d2.digit_operators is not strategy.digit_operators

    def test_read_only_and_frozen(self, strategy_d2):
        q = strategy_d2.digit_operators
        assert strategy_d2.digit_operators is q
        assert not q.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            q[0, 0, 0, 0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            strategy_d2.weights = np.ones(8)


class TestDimensionMismatch:
    def test_evaluate_attack(self, strategy_d3):
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            atk.evaluate_attack(strategy_d3, atk.identity_attack(2))

    def test_leakage(self, mub3):
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            atk.leakage(atk.identity_attack(2), mub3)

    @pytest.mark.parametrize("entry", [atk.alice_state, atk.alice_state_unnormalized])
    def test_single_outcome_entry_points(self, mub3, entry):
        with pytest.raises(ValueError, match="strategy and attack dimensions differ"):
            entry(atk.identity_attack(2), mub3, 0, 0)


def _eve_final_states(am, bs):
    """Eve's normalized states over the walk's outcomes, as (outcome, branch, E, E) blocks."""
    return np.concatenate([chunk.states for chunk in atk._walk(am, bs, states=True)])


def _trace_distances(states, rho):
    """(1/2) ||states[j] - rho||_1 for each j; the states are block diagonal."""
    return 0.5 * np.abs(np.linalg.eigvalsh(states - rho)).sum(axis=(1, 2))


class TestEveFinalState:
    def test_no_attack_pure_and_constant(self, mub2, ideal2):
        states = _eve_final_states(ideal2, mub2)
        assert_allclose(states, np.ones((6, 1, 1, 1)), atol=1e-12)

    def test_scalar_attack_outcome_independent(self, mub2):
        rng = np.random.default_rng(83)
        am = atk.eve_local_attack(
            2, atk.random_channel(2, 2, rng), eve_state=atk.random_state(2, rng)
        )
        states = _eve_final_states(am, mub2)
        assert len(states) == 6
        assert _trace_distances(states[1:], states[0]).max() < 1e-9

    def test_intercept_resend_depends_on_outcome(self, mub2):
        # outcomes (b, i) = (0, 0) and (0, 1) come first in the walk
        states = _eve_final_states(atk.intercept_resend(mub2, 0), mub2)
        assert _trace_distances(states[1:2], states[0])[0] > 0.1


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

    def test_to_dict_holds_the_table(self, strategy_d3, mub3):
        report = atk.evaluate_attack(strategy_d3, atk.intercept_resend(mub3, 0, n=2))
        payload = report.to_dict()
        assert payload == dataclasses.asdict(report)
        assert payload["per_outcome"] is report.per_outcome


# Report bits recorded at 0.13.0: detection and leakage by float.hex, and the SHA-256 of the
# per-outcome table's prob and guess_error float.hex values, space-separated in table order.
# Keyed (strategy, attack of _grid_attack, n); gen_mub takes the frame route, and the v1 d=3
# table and a biased d=2 set the stack route.
REPORT_CORPUS = {
    ("mub2", "intercept-resend", 1): ("0x1.555555555556bp-3", "0x1.0000000000000p+0",
        "e3a484ae1ab13ccc0c8a3fac1e8960fa2753d599a5f9ebdb5321fd996c086850"),
    ("mub2", "probe", 1): ("0x1.41119ce565c10p-5", "0x1.49d6e694619b8p-1",
        "8c9011e18d45be9ff1e4c54bc2438e87a10ca8b3efd3e4409d2e1627814b34ba"),
    ("mub2", "source-replace", 1): ("0x1.dcf3413d37020p-6", "0x0.0p+0",
        "7a4be19c981c0865c83f785af8a2340248e1a1e14c0c05ea82f933371719586a"),
    ("mub2", "random", 1): ("0x1.22b898e595510p-1", "0x1.7837be6b37c92p-1",
        "57ae45e04beacab72ae988c74f59cbae28262b12dcf3db0daac7f2427df588ab"),
    ("mub2", "intercept-resend", 2): ("0x1.38e38e38e38fep-2", "0x1.0000000000000p+0",
        "f6b8e3a4309f89da08298e08ec9e5783aeaf86f3a34e7d80aed019f5de94b29c"),
    ("mub2", "probe", 2): ("0x1.607b23ac0b1e4p-3", "0x1.f88cddf44e103p-1",
        "3b2f085acc39f2cd21ac793aed2bcd19d29629301894cb8f5984c9b576fdf8a1"),
    ("mub2", "source-replace", 2): ("0x1.3df780d37a061p-5", "0x0.0p+0",
        "cc3aa8e64aa3f933edb10bb6a6f6773419f4dd1011db1a5e05a06948aa339d28"),
    ("mub2", "random", 2): ("0x1.87d4ad24dc43fp-1", "0x1.1053e10aa3b56p-1",
        "3a08aef0d09eb78db5588c067998eaee9f35c2dd0ea94c235a03c289221fb082"),
    ("mub2", "intercept-resend", 3): ("0x1.af684bda12f6cp-2", "0x1.0000000000000p+0",
        "c7e55a1f32b2221a93f3b8fc88322af41907d37cb9aa150ad35662312327014c"),
    ("mub2", "probe", 3): ("0x1.c2a9d55034669p-2", "0x1.f88cddf44e103p-1",
        "97f40b51db83a2009a0b58220909bfe8c3b77ae989b72eef9bd614d062eaea3e"),
    ("mub2", "source-replace", 3): ("0x1.8035bbaa33731p-5", "0x0.0p+0",
        "fb9ddcd898897ac474360fb0105c8bedaf513e2d0fabf3e395d43ce1cf8f57ef"),
    ("mub2", "random", 3): ("0x1.bb92d0d6ed272p-1", "0x1.f2d0bdca10b98p-2",
        "80cd4c31aca2475685fbe5c25137e5ba2d6152b72ab814ff05c2d73e56e635ff"),
    ("mub3", "intercept-resend", 1): ("0x1.5555555555546p-2", "0x1.0000000000000p+0",
        "6ef83c0c9e9a243cbb4990bef0be33bbffa90fbf7909af406fb5943c30ad8287"),
    ("mub3", "probe", 1): ("0x1.27e6ca1a8dbfap-3", "0x1.f88cddf44e103p-1",
        "e81a246cdb33312e3ecbffc6be1ccb97682f816b98dfc5e5b306a04243d8dc42"),
    ("mub3", "source-replace", 1): ("0x1.65b670ede9330p-5", "0x0.0p+0",
        "2a3695648b8b0c22dee782efd5fc5f184b5b4516fdfbe9427d69174ae4f3336b"),
    ("mub3", "random", 1): ("0x1.560d6c6ed4f0bp-1", "0x1.15a4ec268e12cp-1",
        "61f36a7d04d33a7f7387bb34f1bd6979a4a8bf52cc968af99975f8f0004f3b5f"),
    ("mub3", "intercept-resend", 2): ("0x1.1c71c71c71c6ep-1", "0x1.0000000000000p+0",
        "5f85d3e3f698d122fb3ce5292495d00adbacc80dc971f05137771470fbde6721"),
    ("mub3", "probe", 2): ("0x1.24fc437303a04p-1", "0x1.f88cddf44e103p-1",
        "60779d3fb1700c9bfe2b10b9e3d4703bf15078af2a99dd6a782c09ecf19e417e"),
    ("mub3", "source-replace", 2): ("0x1.dcf3413d36eadp-5", "0x0.0p+0",
        "d95a7cd6f2d8c8772671c001f7560bfd06584215f81bec8cac42caf83b6b8209"),
    ("mub3", "random", 2): ("0x1.c724480598714p-1", "0x1.ab3743fc99f7fp-2",
        "13e04f28409f5597709717822d8c3c99f93fa58688760d35447feca2e67dd8a6"),
    ("v1-3", "intercept-resend", 1): ("0x1.5555555555551p-2", "0x1.0000000000000p+0",
        "747793e4cfc747f9f38c91d0b74aa5f3a1bab9560b0702fed5a51daba21ecf1a"),
    ("v1-3", "intercept-resend", 2): ("0x1.1c71c71c71c71p-1", "0x1.0000000000000p+0",
        "e288f51becb10b70626fab4a9961f183a119f83e513c32c45e329f1e5a35afe6"),
    ("v1-3", "probe", 1): ("0x1.27e6ca1a8dc0ap-3", "0x1.f88cddf44e103p-1",
        "ddc4f265abd85f6e2d410eb2391fe90c6496a3a90f7d769269e198f27d720ef0"),
    ("v1-3", "probe", 2): ("0x1.24fc437303a07p-1", "0x1.f88cddf44e103p-1",
        "58f049bfd274f96206a2f9889f1bcff3cd1908ea3f3e9a41d1e320fc9bea44c9"),
    ("biased2", "intercept-resend", 1): ("0x1.3b73ca512ee9bp-3", "0x1.0000000000000p+0",
        "d7a7957de66cb29bcc3f3ace17c6a00c3c295964a8ae7486939413e2f4257580"),
    ("biased2", "intercept-resend", 2): ("0x1.232867ccfc058p-2", "0x1.0000000000000p+0",
        "0e9401012547c5d1c84b508d61380dc3eb3ea19058eedeb2282dc5f020b7394f"),
    ("biased2", "probe", 1): ("0x1.28b96b8818cdbp-5", "0x1.49d6e694619b8p-1",
        "ebe4b378d1b7e5241d0dd76c16b0ea51813885bf0318ddc3f64ba3df416ef68f"),
    ("biased2", "probe", 2): ("0x1.4688682d7fb04p-3", "0x1.f88cddf44e103p-1",
        "d6995f9eb6d39f681be734726f4b6c82ad14fc9f9cc78931f7a59ad97f8701fd"),
}


class TestReportCorpus:
    """Every report of the corpus bit for bit, so a change that claims unchanged reports is
    checked here, not by a script over two trees."""

    @pytest.mark.parametrize("source,kind,n", list(REPORT_CORPUS),
                             ids=[f"{s}-{k}-{n}" for s, k, n in REPORT_CORPUS])
    def test_report_bits(self, source, kind, n, request, mub2, biased_copy, v1_files):
        strategy = {"mub2": lambda: request.getfixturevalue("strategy_d2"),
                    "mub3": lambda: request.getfixturevalue("strategy_d3"),
                    "v1-3": lambda: rd.load_strategy(v1_files[3]),
                    "biased2": lambda: rd.build_strategy(biased_copy(mub2, 0.2))}[source]()
        report = atk.evaluate_attack(strategy, _grid_attack(kind, strategy.basis_set, n))
        table = " ".join(f"{e['prob'].hex()} {e['guess_error'].hex()}" for e in report.per_outcome)
        got = (report.detection_probability.hex(), report.leakage.hex(),
               hashlib.sha256(table.encode()).hexdigest())
        for field, value, want in zip(("detection", "leakage", "table"), got,
                                      REPORT_CORPUS[source, kind, n]):
            assert value == want, f"{field} of {source}, {kind}, n={n}"
