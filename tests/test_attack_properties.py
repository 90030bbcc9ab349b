"""Property tests of the exact attack analysis over random coherent attacks.

Each example is a random d=2 attack: n in {1, 2}, an ancilla of dimension
1 or 2 and one to three Kraus operators, drawn from a seeded generator; the
leakage maximum is also checked on stacks of Eve's states drawn directly.
"""

from itertools import product
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from meanking import attack as atk, qmath
from meanking.bases import gen_mub
from meanking.retrodiction import checked_block_dim

from oracles import (attack_pass_per_outcome, eve_state_loops, max_trace_distance_all_pairs,
                     product_tables, tuple_digits)


@st.composite
def product_outcomes(draw):
    """A basis set of d in {2, 3, 5}, every n its block budget admits, and one (b, i) block."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 6, 3: 3, 5: 2}[d]))
    bvec = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
    ivec = draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    return MUBS[d], tuple(bvec), tuple(ivec), n


MUBS = {d: gen_mub(d) for d in (2, 3, 5)}


@given(product_outcomes())
@settings(max_examples=60, deadline=None)
def test_phi_product_is_the_tensor_product(case):
    bs, bvec, ivec, n = case
    checked_block_dim(bs.dim, n)  # within the block budget
    got = atk.phi_product(bs, bvec, ivec, n)
    assert got.tobytes() == qmath.kron(*bs.vectors[bvec, ivec]).tobytes()


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
    # one walk, so the same bits on every route
    assert report.detection_probability == det
    assert report.leakage == leak
    assert -1e-12 <= det <= 1.0 + 1e-12
    assert 0.0 <= leak <= 1.0


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
            if trace > qmath.LEAKAGE_SKIP:
                states.append(rho / trace)
    # the walk keeps the same outcomes, in the same order, as diagonal blocks
    blocks = np.concatenate([chunk.states for chunk in atk._walk(am, mub2, states=True)])
    assert len(blocks) == len(states)
    de = blocks.shape[2]
    for got, want in zip(blocks, states):
        for l, block in enumerate(got):
            assert np.max(np.abs(block - want[l * de:(l + 1) * de, l * de:(l + 1) * de])) <= 1e-10
    # full-matrix trace distances, not the library's sum over blocks
    worst = max(
        (0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r - s)))) for j, r in enumerate(states)
         for s in states[j + 1:]),
        default=0.0,
    )
    assert abs(atk.leakage(am, mub2) - worst) <= 1e-10


@st.composite
def eve_stacks(draw):
    """Stacks of Eve's normalized block-diagonal states, (m, branch, E, E), with exact
    repeats, states moved by 1e-13 from another and stacks of one state repeated."""
    nb = draw(st.sampled_from([1, 2, 3]))
    de = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, draw(st.integers(1, 6)), nb, de, de))
    w = parts[0] + 1j * parts[1]
    base = w @ np.swapaxes(w, -1, -2).conj()
    base /= np.einsum("mlee->m", base).real[:, None, None, None]
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=14))
    stack = base[picks]
    for j in draw(st.lists(st.integers(0, len(stack) - 1), max_size=3)):
        nudge = 1e-13 * rng.standard_normal((nb, de, de))
        stack = np.concatenate([stack, (stack[j] + nudge + np.swapaxes(nudge, -1, -2))[None]])
    return stack[rng.permutation(len(stack))]


@settings(max_examples=60, deadline=None)
@given(states=eve_stacks())
def test_max_trace_distance_matches_all_pairs_bit_for_bit(states):
    want = min(1.0, max_trace_distance_all_pairs(states)).hex()
    assert atk._max_trace_distance(states).hex() == want
    with mock.patch.object(atk, "_PAIR_ENTRIES", 1):
        assert atk._max_trace_distance(states).hex() == want
