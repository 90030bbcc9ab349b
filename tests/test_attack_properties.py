"""Property tests of the exact attack analysis over random coherent attacks.

Each example is a random d=2 attack: n in {1, 2}, an ancilla of dimension
1 or 2 and one to three Kraus operators, drawn from a seeded generator.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings, strategies as st

from meanking import attack as atk

from oracles import attack_pass_per_outcome, eve_state_loops, product_tables, tuple_digits


@st.composite
def random_attacks(draw):
    n = draw(st.sampled_from([1, 2]))
    d_eve = draw(st.sampled_from([1, 2]))
    n_kraus = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return atk.random_attack(2, n, d_eve, n_kraus, np.random.default_rng(seed))


def opform_detection(strategy, am) -> float:
    """Detection probability with Alice's states from the operator form.

    States come from ``build_E_operators`` + ``reconstruct_alice_state``;
    the Born rule runs over the product guessing tuples one at a time.
    """
    bs = strategy.basis_set
    etas, _, weights = product_tables(strategy, am.n)
    tuples = list(zip(tuple_digits(strategy, am.n), etas, weights))
    ops = atk.build_E_operators(am)
    total = 0.0
    for bvec in product(range(bs.k), repeat=am.n):
        for ivec in product(range(bs.dim), repeat=am.n):
            rho = atk.reconstruct_alice_state(am, bs, bvec, ivec, ops)
            correct = 0.0
            for xs, eta, weight in tuples:
                if all(x[b] == i for x, b, i in zip(xs, bvec, ivec)):
                    correct += weight * float(np.vdot(eta, rho @ eta).real)
            total += float(np.trace(rho).real) - correct
    return total / bs.k**am.n


@settings(max_examples=25, deadline=None)
@given(am=random_attacks())
def test_one_pass_matches_separate_calls(strategy_d2, mub2, am):
    report = atk.evaluate_attack(strategy_d2, am)
    det = atk.detection_probability(strategy_d2, am)
    leak = atk.leakage(am, mub2)
    assert abs(report.detection_probability - det) <= 1e-12
    assert abs(report.leakage - leak) <= 1e-12
    assert -1e-12 <= det <= 1.0 + 1e-12
    assert -1e-12 <= leak <= 1.0 + 1e-12


@settings(max_examples=10, deadline=None)
@given(am=random_attacks())
def test_block_pass_matches_per_outcome_oracle(strategy_d2, am):
    report = atk.evaluate_attack(strategy_d2, am)
    detection, leak, table = attack_pass_per_outcome(strategy_d2, am)
    assert abs(report.detection_probability - detection) <= 1e-12
    assert abs(report.leakage - leak) <= 1e-12
    assert len(report.per_outcome) == len(table)
    for got, want in zip(report.per_outcome, table):
        assert (got["b"], got["i"]) == (want["b"], want["i"])
        assert abs(got["prob"] - want["prob"]) <= 1e-12
        assert abs(got["guess_error"] - want["guess_error"]) <= 1e-12
        # a guessing function per instance that announces Bob's digit in every basis
        bvec = tuple(b - 1 for b in got["b"])
        ivec = tuple(i - 1 for i in got["i"])
        xvec = tuple((i,) * 3 for i in ivec)
        guess = atk.guess_probability(strategy_d2, am, xvec, bvec, ivec)
        assert abs(max(0.0, 1.0 - guess) - want["guess_error"]) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(am=random_attacks())
def test_scalarized_attack_invisible(strategy_d2, mub2, am):
    scalar = atk.scalarized_attack(am)
    assert abs(atk.detection_probability(strategy_d2, scalar)) <= 1e-9
    assert atk.leakage(scalar, mub2) <= 1e-8


@settings(max_examples=10, deadline=None)
@given(am=random_attacks())
def test_detection_matches_operator_form(strategy_d2, am):
    assert abs(atk.detection_probability(strategy_d2, am) - opform_detection(strategy_d2, am)) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(am=random_attacks())
def test_eve_states_and_leakage_against_loops(mub2, am):
    states = []
    for bvec in product(range(mub2.k), repeat=am.n):
        for ivec in product(range(mub2.dim), repeat=am.n):
            rho = eve_state_loops(am, mub2, bvec, ivec)
            trace = float(np.trace(rho).real)
            if trace > atk._LEAKAGE_SKIP:
                states.append(rho / trace)
                assert np.max(np.abs(atk.eve_final_state(am, mub2, bvec, ivec) - states[-1])) <= 1e-10
    # full-matrix trace distances, not the library's sum over blocks
    worst = max(
        (0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r - s)))) for j, r in enumerate(states)
         for s in states[j + 1:]),
        default=0.0,
    )
    assert abs(atk.leakage(am, mub2) - worst) <= 1e-10
