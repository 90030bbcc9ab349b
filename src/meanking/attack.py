"""Coherent eavesdropping on the two-way protocol.

Eve gets the strongest position the protocol leaves open: she supplies the
source as an arbitrary pure state Psi on A x B x E (A and B the d**n
dimensional block spaces, E her ancilla) and applies an arbitrary Kraus
channel to B x E while Bob's system travels back to Alice. Her effective
final system is (branch register) x E, i.e. she also keeps which Kraus
branch fired.

Alice's conditional state has two equivalent forms. The direct one,
:func:`alice_state`, sums w_l w_l^dagger over the branch stack of one
projected outcome (below). In the operator form the source is expanded in
the maximally entangled basis generated by shift/clock unitaries, and the
channel collapses into operators E_(l,k) acting on A x B with

    rho_A(b, i) = sum_(l,k)  E_(l,k) |phi_hat><phi_hat| E_(l,k)^dagger.

The expansion resums to operators U_hat_beta = sqrt(d**n) psi_beta^T, one
per ancilla component, so the operator form reads them off the source.

An attack is undetectable iff every E_(l,k) is a multiple of the identity,
and then Eve's final state cannot depend on (b, i): zero detection implies
zero leakage. Detection probability and leakage are computed by exact
enumeration, never by sampling.

One walk, :func:`_walk`, takes Bob's whole (b, i) grid in chunks of basis
blocks, and forms for each chunk only what its consumer contracts. Branch
stacks w_l come from one projection, :func:`_project`: one contraction
projects Bob's block eigenstates out of Eve's source, and one batched
Kraus application gives their branch stacks. :func:`_branch_vectors`
takes one outcome through it, bit for bit as the walk does. Only this
module reads a stack's (A_1..A_n, B_1..B_n, E) layout, to reduce it
to Alice's state, Eve's blocks w_l^T w_l^* (:func:`_eve_states`), the
protocol sampler's Born rows (:func:`_born_rows`) or Alice's chance of
announcing Bob's digits. That needs no Born weight per guessing tuple: the
product POVM summed over the tuples that agree with Bob is the tensor
product of the per-instance digit operators Q(b_s, i_s)
(:attr:`~meanking.retrodiction.Strategy.digit_operators`), so

    correct(b, i) = sum_l <w_l| Q(b_1, i_1) x ... x Q(b_n, i_n) |w_l>,

with each Q applied to its own (A_s, B_s) pair, for a whole chunk at once
(:func:`_correct_mass`). One pass, :func:`_attack_pass`, reads detection,
leakage and the per-outcome error table from the walk in one loop, and
the sampler draws from the same walk.

On a complete MUB set the correct mass needs no stack. Each Q(b, i) is
then diagonal in its basis's product frame conj(phi_b(j)) x phi_b(j'),
with one table T[i, j, j'] for every b: delta(j, i) where j = j' and 1/d
elsewhere (:attr:`~meanking.retrodiction.Strategy.digit_table`). Rotate A by the
block eigenstates Phi, rows phi_J, and B by conj(Phi): for outcome I,
w_l[J, J', e'] = sum_e A[J, e] K_l[J', e', e], with Alice's factor
A[J, e] = sum_(a,b) Phi[J, a] psi[a, b, e] conj(Phi[I, b]), the source
after Bob's projection, and K_l[J', e', e] = <phi_J' e'| V_l |phi_I e>, Eve's
channel on his eigenstate. With W(I; J, J') = prod_s T[i_s, j_s, j'_s],

    correct(b, i) = sum_(J,J') W(I; J, J') sum_(e,f) A[J, e] conj(A[J, f]) G[J', e, f],
    G[J', e, f] = sum_(l,e') K_l[J', e', e] conj(K_l[J', e', f]),

two factors of d**(2n) d_E**2 entries per outcome where the stack has
d**(3n) r d_E (:func:`_frame_mass`). The gate is the table's: every Q
rotated into its frame is diagonal, and its diagonal the same over b, up
to a rounding bound derived there. Putting the table in place of a slot's
rotated operator moves it by at most eps in norm: d**2 delta for
off-diagonal entries of at most delta, plus the diagonal's largest
distance from the table. So correct(b, i) moves by at most prob(b, i) ((1
+ eps)**n - 1), a rounding error under the gate. The route each input
takes:

- a strategy with generators and uniform weights whose table passes the
  gate (``gen_mub(d)``, and any unitary turn of it) takes the frame route:
  the walk forms Eve's channel on the block eigenstates for
  :func:`_frame_mass`;
- a biased set, LP weights and a strategy given as its table take the
  stack route: the walk forms the branch stacks for :func:`_correct_mass`;
- :func:`leakage` depends on the attack alone and asks the walk for Eve's
  states only;
- the protocol sampler asks it for the branch stacks only, for
  :func:`_born_rows`, whatever the strategy.

Eve's states come from the walk, by one computation on every route. With
a one-dimensional E her block for branch l is ||w_l||^2 = prob(b, i)
||V_l phi_i||^2, read off her channel on the eigenstates, so no stack is
formed for them; otherwise they are the branch stacks' (:func:`_eve_states`).
So the pass's leakage is :func:`leakage`'s, bit for bit, on either route:
both are :func:`_max_trace_distance` of the same states, clamped at 1.

Eve's state depends on (b, i) only through what her interaction learns,
so structured attacks repeat a few states over the whole grid: leakage
compares one copy of each byte-identical state, in one pass over the
triangle of their pairs that stops at the first pair at trace distance 1
(:func:`_max_trace_distance`). A general attack repeats none; with a
multi-dimensional E, ``eigvalsh`` then runs only on the pairs that a
bound from one Gram product per chunk of the triangle cannot rule out,
so the value is still the full triangle's bit for bit. A chunk of the
walk, of the pair rows or of the verified differences holds a bounded
number of entries, so memory stays flat over the grid. The walk's bound
is the least that a measured sweep found no slower than larger ones, so
medium grids (d=2, n=3 and d=3, n=2) go in one or a few chunks and pay
the fixed cost of a chunk once or a few times.

Subsystem order is always A x B x E, row-major. All indices 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import qmath
from .bases import BasisSet, Refused, digits
from .retrodiction import Strategy, checked_block_dim, omega
from .serialize import (complex_to_pairs, exact_keys, integer, pairs_to_complex, read_json, reading,
                        write_json)

# Chunk budgets, in entries: the branch stacks and Eve's channel on the block
# eigenstates that a chunk of the walk forms, together; per chunk of rows of the
# leakage pair triangle its rows times the states from its first row on, times
# blocks, the real Gram entries where a bound prunes its pairs; and per chunk of
# verified pairs the complex entries of their differences. A chunk always takes at least one basis block, or
# one row of pairs, or one pair. The walk's value is the least of a measured sweep
# (2^12 to 2^16) past which a pass of the benchmark's attack steps grew no faster:
# it takes the d=2, n=3 and d=3, n=2 intercept-resend grids in one chunk.
_WALK_ENTRIES = 1 << 14
_PAIR_ENTRIES = 1 << 13


class ZeroProbabilityOutcome(Refused):
    """Conditioning on an outcome the attacked source never produces."""


def _conditionable(prob: float, bvec, ivec) -> float:
    """``prob``, or raise if the outcome (b, i) is too rare to condition on."""
    if prob <= qmath.PROB_FLOOR:
        raise ZeroProbabilityOutcome(f"outcome (b={bvec}, i={ivec}) has probability {prob:.3e}")
    return prob


@dataclass
class AttackModel:
    """Eve's source state plus feedback channel, validated on construction.

    ``kraus`` holds the Kraus operators on B x E as one (r, m, m) array, built
    from any sequence of r equal-shape matrices; m = d**n * d_eve.
    """

    d: int
    n: int
    d_eve: int
    psi_abe: np.ndarray
    kraus: np.ndarray

    def __post_init__(self):
        self.psi_abe = np.asarray(self.psi_abe, dtype=complex).reshape(-1)
        self.kraus = np.asarray(self.kraus, dtype=complex)
        dd = checked_block_dim(self.d, self.n, self.d_eve)
        m = dd * self.d_eve
        if self.psi_abe.size != dd * m:
            raise ValueError(f"source state has {self.psi_abe.size} entries, expected {dd * m}")
        if self.kraus.ndim != 3 or self.kraus.shape[1:] != (m, m) or not len(self.kraus):
            raise ValueError("Kraus operators must be square on B x E")
        if not (np.isfinite(self.psi_abe).all() and np.isfinite(self.kraus).all()):
            raise ValueError("the source state or a Kraus operator is not finite")
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the checks below
            norm = float(np.linalg.norm(self.psi_abe))
            comp = np.tensordot(self.kraus.conj(), self.kraus, axes=([0, 1], [0, 1]))
            dev = float(np.max(np.abs(comp - np.eye(m))))
        if not abs(norm - 1.0) <= qmath.DEFAULT_TOL:
            raise ValueError(f"source state norm {norm} is not 1")
        if not dev <= qmath.DEFAULT_TOL:
            raise ValueError(f"feedback channel not trace preserving (deviation {dev:.3e})")

    @property
    def block_dim(self) -> int:
        return self.d**self.n


def _as_tuple(v, n: int, bound: int, name: str):
    if isinstance(v, (int, np.integer)):
        v = (int(v),)
    t = tuple(int(x) for x in v)
    if len(t) != n or any(x < 0 or x >= bound for x in t):
        raise IndexError(f"{name} {t} invalid for n={n}, range 0..{bound - 1}")
    return t


def phi_product(bs: BasisSet, bvec, ivec, n: int) -> np.ndarray:
    """Bob's returned eigenstate for a block of basis choices and outcomes."""
    bvec = _as_tuple(bvec, n, bs.k, "bases")
    ivec = _as_tuple(ivec, n, bs.dim, "outcomes")
    # at n = 1 a copy, no view of the basis set
    return qmath.kron(*(bs.vectors[b, i] for b, i in zip(bvec, ivec)))


def _require_same_dim(am: AttackModel, bs: BasisSet) -> None:
    if bs.dim != am.d:
        raise ValueError("strategy and attack dimensions differ")


def _u_hats(am: AttackModel) -> np.ndarray:
    """U_hat_beta[x, a] as (x, a, beta): sum_(m,l) c[m, l, beta] U_(m,l) = sqrt(d**n) psi_beta^T."""
    dd = am.block_dim
    return np.sqrt(dd) * am.psi_abe.reshape(dd, dd, am.d_eve).transpose(1, 0, 2)


def _amplitudes(am: AttackModel, phis: np.ndarray):
    """Bob's block eigenstates (m, d**n) projected out of Eve's source: what is left on A x E,
    as (m, A, E), and the outcome probabilities as (m,)."""
    dd, de = am.block_dim, am.d_eve
    amp = np.einsum("ib,abe->iae", phis.conj(), am.psi_abe.reshape(dd, dd, de))
    return amp, np.sum(np.abs(amp) ** 2, axis=(1, 2))


def _project(am: AttackModel, phis: np.ndarray):
    """Bob's block eigenstates (m, d**n) projected out of Eve's source, then through her channel:
    their Kraus-branch stacks w_l as (m, branch, A x B, E) and outcome probabilities as (m,)."""
    dd, de = am.block_dim, am.d_eve
    amp, probs = _amplitudes(am, phis)
    out = np.einsum("iae,ib->iabe", amp, phis).reshape(-1, 1, dd, dd * de)
    branches = (out @ am.kraus.transpose(0, 2, 1)).reshape(len(out), len(am.kraus), dd * dd, de)
    return branches, probs


def _branch_vectors(am: AttackModel, bs: BasisSet, bvec, ivec):
    """The Kraus-branch stack of one outcome and its probability; every single-outcome
    entry point passes through here, so a basis set of another dimension is refused here."""
    _require_same_dim(am, bs)
    branches, probs = _project(am, phi_product(bs, bvec, ivec, am.n)[None])
    return branches[0], float(probs[0])


class _Chunk(NamedTuple):
    """A chunk of :func:`_walk`, outcomes in ``product`` order; None for a part not formed."""

    bvecs: np.ndarray  # Bob's basis vectors, (c, n)
    phis: np.ndarray  # the block eigenstates, (c, d**n, d**n), row I that of outcome I
    probs: np.ndarray  # the outcome probabilities, (c, d**n)
    branches: np.ndarray | None  # the Kraus-branch stacks w_l, (c, d**n, branch, A x B, E)
    x: np.ndarray | None  # Eve's channel on the block eigenstates, x[c, b', l, e', e, I]
    states: np.ndarray | None  # Eve's states of the outcomes kept (:func:`_normalized`)


def _walk(am: AttackModel, bs: BasisSet, *, frame=False, stacks=False, states=False):
    """The one walk over Bob's outcome grid, in chunks of basis blocks, as :class:`_Chunk`.

    One broadcast Kronecker product over the slots forms a chunk's block
    eigenstates. Past them the walk forms only what its consumer contracts:
    x[c, b', l, e', e, I] = (V_l (phi_I x e))[b', e'] for ``frame``, the
    branch stacks of one :func:`_project` for ``stacks``, and for ``states``
    Eve's states, from x at a one-dimensional E and from the stacks
    otherwise (module docstring). A chunk holds at most ``_WALK_ENTRIES``
    entries of x and stacks together, of those it forms, or one block.
    """
    _require_same_dim(am, bs)
    dd, de, nb, n = am.block_dim, am.d_eve, len(am.kraus), am.n
    form_x, form_stacks = frame or (states and de == 1), stacks or (states and de > 1)
    if form_x:
        # V_l with its input's B index last and its output's B index first: rows (b', l, e', e)
        v_in = am.kraus.reshape(nb, dd, de, dd, de).transpose(1, 0, 2, 4, 3).reshape(-1, dd)
    entries = dd * dd * nb * de * (de * form_x + dd * form_stacks)
    every, step = digits(np.arange(bs.k**n), bs.k, n), max(1, _WALK_ENTRIES // entries)
    for start in range(0, len(every), step):
        bvecs = every[start:start + step]
        c, phis = len(bvecs), qmath.kron(*bs.vectors[bvecs.T], batch=1)
        x = branches = eve = None
        if form_x:
            x = (v_in @ np.swapaxes(phis, 1, 2)).reshape(c, dd, nb, de, de, dd)
        if form_stacks:
            branches, probs = _project(am, phis.reshape(-1, dd))
            branches = branches.reshape((c, dd) + branches.shape[1:])
        else:
            probs = _amplitudes(am, phis.reshape(-1, dd))[1]
        probs = probs.reshape(c, dd)
        if states and de > 1:
            eve = _eve_states(branches)
        elif states:
            blocks = probs[:, None] * np.square(np.abs(x)).sum(axis=(1, 3, 4))  # (c, branch, I)
            # a copy whatever c is: the trace's einsum sums in an order set by the layout
            blocks = np.ascontiguousarray(np.swapaxes(blocks, 1, 2))
            eve = _normalized(blocks.reshape(-1, nb, 1, 1))
        yield _Chunk(bvecs, phis, probs, branches, x, eve)


def _frame_mass(am: AttackModel, weights: np.ndarray, phis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Alice's chance of announcing Bob's digits, correct(b, i) as (c, d**n), for a chunk of
    :func:`_walk`, from her factor and Eve's in each block's frame (module docstring).

    ``weights`` is W as (I, J, J'), the n-fold Kronecker power of the digit
    table (:attr:`~meanking.retrodiction.Strategy.digit_table`).
    """
    c, dd, _ = phis.shape
    de = am.d_eve
    psi = am.psi_abe.reshape(dd, dd, de).transpose(1, 0, 2).reshape(dd, dd * de)  # rows B
    amp = (phis.conj() @ psi).reshape(c, dd, dd, de)  # (c, I, A, E)
    alice = np.swapaxes(amp, 2, 3).reshape(c, -1, dd) @ np.swapaxes(phis, 1, 2)
    alice = alice.reshape(c, dd, de, 1, dd)  # A-tilde as (c, I, E, 1, J)
    eve = (phis.conj() @ x.reshape(c, dd, -1)).reshape(x.shape)  # (c, J', branch, E', E, I)
    gram = np.einsum("ckleai,cklebi->ckabi", eve, eve.conj())
    rho = alice * np.swapaxes(alice, 2, 3).conj()
    return np.einsum("ciabj,ijk,ckabi->ci", rho, weights, gram).real


def _correct_mass(slots, branches: np.ndarray) -> np.ndarray:
    """sum_l <w_l| Q_1 x ... x Q_n |w_l> for every block and combination of per-instance operators.

    ``slots[s]`` stacks, per block, the m_s candidate operators of instance
    s, shape (c, m_s, d*d, d*d) on its (A_s, B_s) pair. ``branches`` holds
    one Kraus-branch stack per block and combination, as (c, m_1 * ... *
    m_n, branch, A x B, E) with A and B grouped over the instances; the
    result is (c, m_1 * ... * m_n). Each Q_s acts on its own two axes, as
    one batched product over the blocks and candidates, so no operator on
    the whole block is formed.
    """
    n = len(slots)
    c, d = len(branches), round(slots[0].shape[-1] ** 0.5)
    shape = (c,) + tuple(q.shape[1] for q in slots) + (branches.shape[2],) + (d,) * (2 * n)
    w = branches.reshape(shape + (branches.shape[-1],))
    qw = w
    for s, q in enumerate(slots):
        # block and candidate axes first, the (A_s, B_s) pair last
        pair = (n + 2 + s, 2 * n + 2 + s)
        perm = [0, 1 + s] + [ax for ax in range(1, w.ndim) if ax not in (1 + s, *pair)] + list(pair)
        moved = qw.transpose(perm)
        applied = moved.reshape(c, q.shape[1], -1, d * d) @ np.swapaxes(q, -1, -2)
        qw = applied.reshape(moved.shape).transpose(np.argsort(perm))
    return (w.conj() * qw).real.sum(axis=tuple(range(n + 1, w.ndim))).reshape(c, -1)


def _born_rows(branches: np.ndarray, etas_conj: np.ndarray, weights, n: int) -> np.ndarray:
    """p(x_1)...p(x_n) sum_(l,e) |<eta_x1 x ... x eta_xn|w_l>|^2 per Kraus-branch stack.

    ``branches`` is (m, branch, A x B, E), one stack per drawn (block,
    outcome) pair of a chunk of :func:`_walk`; rows list the guessing tuples
    in lexicographic order. Each slot's (A_s, B_s) pair is contracted with
    the conjugate safe vectors in turn, one (nx, d*d) product per slot, so
    no product vector is formed.
    """
    m, nb, _, de = branches.shape
    nx, pair = etas_conj.shape
    d = round(pair**0.5)
    slots = [ax for s in range(n) for ax in (2 + s, 2 + n + s)]
    amp = branches.reshape((m, nb) + (d,) * (2 * n) + (de,))
    amp = amp.transpose(slots + [0, 1, 2 + 2 * n])
    for _ in range(n):
        # the processed guess axis goes last, so slot 1's ends up slowest
        amp = (etas_conj @ amp.reshape(pair, -1)).T
    born = np.sum(np.abs(amp.reshape(m, nb * de, nx**n)) ** 2, axis=1)
    return born * qmath.kron(*[weights] * n)


def _born_entries(am: AttackModel, k: int) -> int:
    """Amplitudes in one basis block's :func:`_born_rows` over k bases: d**((1+k)n) * r * d_E."""
    return am.d ** ((1 + k) * am.n) * len(am.kraus) * am.d_eve


def alice_state_unnormalized(am: AttackModel, bs: BasisSet, bvec, ivec):
    """Alice's conditional state on A x B before normalization, sum_l w_l w_l^dagger over the
    Kraus-branch stack, and its trace, the outcome probability: ``(rho, prob)``."""
    branches, prob = _branch_vectors(am, bs, bvec, ivec)
    return (branches @ np.swapaxes(branches, 1, 2).conj()).sum(axis=0), prob


def alice_state(am: AttackModel, bs: BasisSet, bvec, ivec) -> np.ndarray:
    """Normalized state Alice measures, conditioned on Bob's (b, i)."""
    rho, prob = alice_state_unnormalized(am, bs, bvec, ivec)
    return rho / _conditionable(prob, bvec, ivec)


def build_E_operators(am: AttackModel) -> np.ndarray:
    """Operator form of the attack: E[l, k] acting on A x B.

    E_(l,k) = sum_beta U_hat_beta^T x M_(l,k,beta), with U_hat_beta =
    sum_(m,l) c[m, l, beta] U_(m,l) (:func:`_u_hats`) and M the B-block of
    Kraus operator V_l mapping Eve's component beta to k. Reconstructs
    Alice's unnormalized state as sum E |phi_hat><phi_hat| E^dagger.
    """
    dd, de = am.block_dim, am.d_eve
    vr = am.kraus.reshape(len(am.kraus), dd, de, dd, de)
    ops = np.einsum("xae,lbkye->lkabxy", _u_hats(am), vr)
    return ops.reshape(len(am.kraus), de, dd * dd, dd * dd)


def reconstruct_alice_state(am: AttackModel, bs: BasisSet, bvec, ivec,
                            ops: np.ndarray | None = None) -> np.ndarray:
    """Alice's unnormalized state from the E_(l,k) operators (cross-check)."""
    if ops is None:
        ops = build_E_operators(am)
    phi = phi_product(bs, bvec, ivec, am.n)
    phi_hat = (phi.conj()[:, None] * phi).reshape(-1) / np.sqrt(am.block_dim)
    w = (ops @ phi_hat).reshape(-1, len(phi_hat))  # every E_(l,k) phi_hat, one row each
    return w.T @ w.conj()


def _eve_states(branches: np.ndarray) -> np.ndarray:
    """Eve's normalized states of Kraus-branch stacks (..., branch, A x B, E), as (m, branch, E, E).

    Outcomes whose trace is at or below ``qmath.LEAKAGE_SKIP`` are left out.
    """
    w = branches.reshape((-1,) + branches.shape[-3:])
    return _normalized(np.swapaxes(w, -1, -2) @ w.conj())  # w_l^T w_l^*, as (m, branch, E, E)


def _normalized(blocks: np.ndarray) -> np.ndarray:
    """Eve's blocks (m, branch, E, E) over their traces, those at or below
    ``qmath.LEAKAGE_SKIP`` left out."""
    trace = np.einsum("...lee->...", blocks).real
    keep = trace > qmath.LEAKAGE_SKIP
    return blocks[keep] / trace[keep, None, None, None]


def _max_trace_distance(states: np.ndarray) -> float:
    """Largest trace distance between any two of Eve's states, stacked as (m, branch, E, E),
    clamped at 1, which a trace distance cannot exceed but its rounded sum can
    (1.0000000000000002 for intercept-resend at d=3, n=2).

    A state repeated byte for byte adds no new distance, so only one copy
    of each is compared, in the order of the first copies. The whole
    triangle forms v - u for distinct u before v, and also u - v when a
    copy of u comes after a copy of v: ``eigvalsh`` of the negation returns
    its eigenvalues negated and reversed, and summing them in another order
    can move the last bit. So every pair that is evaluated is evaluated in
    each orientation the stack forms, both from one ``eigvalsh``
    (:func:`_verify_pairs`). States that are only close are not merged, so
    the value is the whole triangle's, bit for bit.

    Her states are block diagonal, so a trace distance is half a sum over
    blocks of ||D||_1, the sum of |eigenvalue| of the block's difference D.
    One pass goes over the triangle of the distinct states in chunks of
    rows, each against every state from its first row on: at most
    ``_PAIR_ENTRIES`` such entries times blocks, or one row. Each chunk's pairs go
    to :func:`_verify_pairs`, and the pass stops once a sum reaches 2, a
    trace distance of 1, which the clamped value cannot pass.

    A bound prunes each chunk's pairs first, but only with E of dimension
    e > 1 and more distinct pairs than the whole stack has states.
    Otherwise every pair is verified: with few repeated states (9 of 36 for
    ``probe_entangle(2, theta, n=2)``) that work is of the order of the
    stack the walk built, and the pairs a bound could rule out do not repay
    its fixed cost. Per block, ||D||_F <= ||D||_1 <= sqrt(e) ||D||_F, so
    with l the sum over blocks of ||D||_F a pair's value lies in [l,
    sqrt(e) l]. One real Gram product per chunk gives every pair's block
    norms at once,

        ||X_i - X_j||_F^2 = ||X_i||_F^2 + ||X_j||_F^2 - 2 Re <X_i, X_j>,

    and, up to rounding, the maximum is at least the largest l and at least
    any value verified so far: either is a threshold. Only the pairs with
    sqrt(e) l + slack at or above the threshold are verified. The pair that
    attains the maximum is always among them, and its value is the same
    eigenvalues summed in the same order as in the full triangle, so the
    result is the full triangle's bit for bit. The threshold is the best
    bound known when a chunk is formed; a lower one only lets more pairs
    through.

    The slack covers rounding; u is the unit roundoff. Each Gram entry and
    squared norm is a real dot product of length L = 2 e^2, off by at most
    (L + 1) u times the product of the two norms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1). With S the
    block's largest state norm, the computed square of ||X_i - X_j||_F is
    then off by at most 4 (L + 4) u S^2, the two additions included. Near
    zero that is cancellation, and since |sqrt(a) - sqrt(b)| <=
    sqrt(|a - b|), the computed l is off by at most eps = 2 sqrt((L + 4)
    u) times the sum of S over blocks. Every other error is of order u, not
    sqrt(u): the rounded difference, the backward-stable ``eigvalsh``, the
    sums and the bounds' own rounding, each a small multiple of e^2 u times
    the same norms, so together at most eps for any e below several
    thousand. With l the computed one, a value is therefore at least
    l - 2 eps and at most sqrt(e) (l + eps) + eps, and a pair whose upper
    end falls below the largest lower end, or below a verified value,
    cannot attain the maximum: slack = (sqrt(e) + 3) eps.
    """
    firsts, lasts = {}, {}
    for j, state in enumerate(states):
        key = state.tobytes()
        firsts.setdefault(key, j)
        lasts[key] = j
    keep = list(firsts.values())
    total, states = len(states), states[keep]
    firsts, lasts = np.array(keep), np.array(list(lasts.values()))
    m, nb, de, _ = states.shape
    prune = de > 1 and m * (m - 1) // 2 > total  # more pairs than the stack has states
    if prune:
        # per block, the real and imaginary parts of every state as one row: (branch, m, 2 e^2)
        flat = np.ascontiguousarray(states.reshape(m, nb, de * de).view(float).transpose(1, 0, 2))
        sq = np.square(flat).sum(axis=2)
        norm_sum = float(np.sqrt(sq.max(axis=1, initial=0.0)).sum())  # sum over blocks of S
        eps = 2 * ((flat.shape[-1] + 4) * qmath.UNIT_ROUNDOFF) ** 0.5 * norm_sum
        slack, root_e = (de**0.5 + 3) * eps, de**0.5
    worst = threshold = 0.0
    j0 = 0
    while j0 < m - 1 and worst < 2.0:
        j1 = min(m - 1, j0 + max(1, _PAIR_ENTRIES // (nb * (m - j0))))
        pairs = np.arange(j0, j1)[:, None] < np.arange(j0, m)  # a later state in the column
        if prune:
            gram = flat[:, j0:j1] @ flat[:, j0:].transpose(0, 2, 1)
            ell = np.sqrt(np.maximum(sq[:, j0:j1, None] + sq[:, None, j0:] - 2 * gram, 0.0)).sum(axis=0)
            threshold = max(threshold, worst, float(np.max(ell, where=pairs, initial=0.0)))
            pairs &= ell >= (threshold - slack) / root_e
        a, b = np.nonzero(pairs)
        worst = max(worst, _verify_pairs(states, firsts, lasts, a + j0, b + j0))
        j0 = j1
    return min(1.0, 0.5 * worst)


def _verify_pairs(states: np.ndarray, firsts: np.ndarray, lasts: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> float:
    """Largest sum |eigenvalue| of the differences of the pairs (a, b), a < b, or 0 for none.

    Each pair is evaluated as v - u, u = states[a] and v = states[b], and
    also as u - v where a copy of u follows the first copy of v
    (:func:`_max_trace_distance`), from one ``eigvalsh`` of v - u: that of
    u - v is its negation reversed, bit for bit, so the sum of u - v is its
    |eigenvalues| summed in reverse order. A 1 x 1 block is its own
    eigenvalue, its real part, so it needs no ``eigvalsh`` and reads the
    same in either orientation; its states' real parts are subtracted, which
    gives the real part of their difference bit for bit. The differences go
    in chunks of at most ``_PAIR_ENTRIES`` entries, or one difference.
    """
    _, nb, de, _ = states.shape
    step = max(1, _PAIR_ENTRIES // (nb * de * de))
    worst = 0.0
    for s in range(0, len(a), step):
        u, v = a[s:s + step], b[s:s + step]
        if de == 1:
            diff = states[v, :, 0, 0].real - states[u, :, 0, 0].real
            worst = max(worst, float(np.abs(diff).sum(axis=1).max(initial=0.0)))
            continue
        values = np.abs(np.linalg.eigvalsh(states[v] - states[u]))
        back = np.ascontiguousarray(values[lasts[u] > firsts[v], :, ::-1])  # summed as u - v's
        worst = max(worst, float(values.sum(axis=(1, 2)).max(initial=0.0)),
                    float(back.sum(axis=(1, 2)).max(initial=0.0)))
    return worst


def leakage(am: AttackModel, bs: BasisSet) -> float:
    """Worst-case distinguishability of Eve's conditional final states.

    Maximum trace distance between her states for any two outcomes (b, i)
    of nonnegligible probability; zero means the transcript taught her
    nothing about the key. Only her distinct states are compared
    (:func:`_max_trace_distance`), in the order the walk first meets them.
    """
    return _max_trace_distance(np.concatenate([chunk.states for chunk in _walk(am, bs, states=True)]))


def _attack_pass(strategy: Strategy, am: AttackModel, *, states=True):
    """Detection probability, error table and Eve's states (:func:`_walk`), None for them
    without ``states``, in one pass: the frame route when the strategy has a digit table,
    else the stack route (module docstring)."""
    bs = strategy.basis_set
    q, frame_table = strategy.digit_operators, strategy.digit_table
    frame = frame_table is not None
    weights = qmath.kron(*[frame_table] * am.n) if frame else None
    parts, eve = [], []
    for chunk in _walk(am, bs, frame=frame, stacks=not frame, states=states):
        correct = (_frame_mass(am, weights, chunk.phis, chunk.x) if frame else
                   _correct_mass([q[chunk.bvecs[:, s]] for s in range(am.n)], chunk.branches))
        parts.append((chunk.bvecs, chunk.probs, correct))
        eve.append(chunk.states)
    # every chunk's probs and correct mass are (c, d**n), outcomes in product order
    bvecs, probs, correct = (np.concatenate(part) for part in zip(*parts))
    rows, cols = np.nonzero(probs > qmath.PROB_FLOOR)
    prob, right = probs[rows, cols], correct[rows, cols]
    # a running sum, left to right over the kept outcomes, as one float accumulator adds
    total = float(np.cumsum(prob - right)[-1])
    # 1-based labels in the human-facing table
    labels = zip((bvecs[rows] + 1).tolist(), (digits(cols, bs.dim, am.n) + 1).tolist())
    table = [{"b": b, "i": i, "prob": p, "guess_error": e} for (b, i), p, e in
             zip(labels, prob.tolist(), np.maximum(0.0, 1.0 - right / prob).tolist())]
    return total / bs.k**am.n, table, np.concatenate(eve) if states else None


def detection_probability(strategy: Strategy, am: AttackModel) -> float:
    """Average probability that Alice's inferred digits disagree with Bob's.

    Exact enumeration over uniform basis blocks and Born-rule outcomes; no
    sampling is involved. The pass forms none of Eve's states for it.
    """
    return _attack_pass(strategy, am, states=False)[0]


@dataclass
class AttackReport:
    detection_probability: float
    leakage: float
    per_outcome: list

    def to_dict(self) -> dict:
        """The report's fields, holding the per-outcome table as it is, not a deep copy."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def evaluate_attack(strategy: Strategy, am: AttackModel) -> AttackReport:
    """Detection probability, leakage and the per-outcome error table, from one pass."""
    detection, table, states = _attack_pass(strategy, am)
    return AttackReport(detection, _max_trace_distance(states), table)


# ---------------------------------------------------------------------------
# canned attacks and generators
# ---------------------------------------------------------------------------


def identity_attack(d: int, n: int = 1) -> AttackModel:
    """No eavesdropping: honest source, trivial feedback channel."""
    dd = checked_block_dim(d, n)
    return AttackModel(d=d, n=n, d_eve=1, psi_abe=omega(dd), kraus=(np.eye(dd),))


def intercept_resend(bs: BasisSet, bstar: int, n: int = 1) -> AttackModel:
    """Measure the returning system in basis ``bstar`` and resend the outcome.

    One Kraus branch per measurement result, so the branch register records
    what Eve learned; the source is untouched.
    """
    dd = checked_block_dim(bs.dim, n)
    if not (0 <= bstar < bs.k):
        raise ValueError(f"basis {bstar} out of range")
    # the rows of basis bstar's n-fold Kronecker power are its block eigenstates
    phis = qmath.kron(*[bs.vectors[bstar]] * n)
    return AttackModel(d=bs.dim, n=n, d_eve=1, psi_abe=omega(dd),
                       kraus=phis[:, :, None] * phis[:, None, :].conj())


def source_replace(d: int, eps: float, n: int = 1) -> AttackModel:
    """Rotate the source by ``eps`` toward an orthogonal product state."""
    dd = checked_block_dim(d, n)
    psi = np.cos(eps) * omega(dd)
    psi[1] += np.sin(eps)  # |0...0> x |0...1>, orthogonal to the entangled state
    return AttackModel(d=d, n=n, d_eve=1, psi_abe=psi, kraus=(np.eye(dd),))


def probe_entangle(d: int, theta: float, n: int = 1, d_eve: int = 2) -> AttackModel:
    """Couple a probe to the outgoing system by a controlled rotation.

    The source becomes (1_A x C) (Omega x e_0) with C rotating Eve's qubit
    by j*theta conditioned on Bob's computational index j; the feedback
    channel stays trivial.
    """
    if d_eve < 2:
        raise ValueError("the probe needs at least a qubit ancilla")
    dd = checked_block_dim(d, n, d_eve)
    psi = np.zeros((dd, dd, d_eve), dtype=complex)
    om = omega(dd).reshape(dd, dd)
    for j in range(dd):
        rot = np.zeros(d_eve, dtype=complex)
        rot[0] = np.cos(j * theta)
        rot[1] = np.sin(j * theta)
        psi[:, j, :] = np.outer(om[:, j], rot)
    return AttackModel(
        d=d, n=n, d_eve=d_eve, psi_abe=psi.reshape(-1), kraus=(np.eye(dd * d_eve),)
    )


def eve_local_attack(d: int, kraus_e, eve_state=None, n: int = 1) -> AttackModel:
    """Attack whose channel touches only Eve's ancilla (scalar form).

    The source is the honest entangled state paired with an arbitrary
    ancilla state; such attacks are undetectable and leak nothing.
    """
    kraus_e = np.asarray(kraus_e, dtype=complex)
    d_eve = kraus_e.shape[-1]
    dd = checked_block_dim(d, n, d_eve)
    chi = np.asarray(np.eye(d_eve)[0] if eve_state is None else eve_state, dtype=complex)
    norm = float(np.linalg.norm(chi))
    if not 0.0 < norm < np.inf:
        raise ValueError(f"ancilla state has norm {norm}")
    chi = chi / norm
    psi = qmath.kron(omega(dd), chi)
    ops = qmath.kron(np.eye(dd)[None], kraus_e, batch=1)
    return AttackModel(d=d, n=n, d_eve=d_eve, psi_abe=psi, kraus=ops)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator):
    """Random trace-preserving Kraus family on ``dim`` dimensions, as (n_kraus, dim, dim)."""
    parts = rng.standard_normal((n_kraus, 2, dim, dim))  # each operator's real, then imaginary part
    raw = parts[:, 0] + 1j * parts[:, 1]
    vals, vecs = np.linalg.eigh(sum(g.conj().T @ g for g in raw))
    return raw @ (vecs @ np.diag(vals**-0.5) @ vecs.conj().T)


def random_attack(d: int, n: int, d_eve: int, n_kraus: int, rng: np.random.Generator) -> AttackModel:
    dd = checked_block_dim(d, n, d_eve)
    return AttackModel(
        d=d,
        n=n,
        d_eve=d_eve,
        psi_abe=random_state(dd * dd * d_eve, rng),
        kraus=random_channel(dd * d_eve, n_kraus, rng),
    )


def scalarized_attack(am: AttackModel) -> AttackModel:
    """Project an attack onto its undetectable part.

    Keeps only the honest component of the source and the 1_B x W part of
    every Kraus operator, renormalized back to a valid channel; the result
    is always of scalar form.
    """
    dd, de = am.block_dim, am.d_eve
    # the honest coefficient of the source's Weyl expansion, sum_a psi[a, a] / sqrt(d**n)
    chi = np.einsum("aae->e", am.psi_abe.reshape(dd, dd, de)) / np.sqrt(dd)
    if np.linalg.norm(chi) < qmath.DEFAULT_TOL:
        chi = None  # no honest component; fall back to a fresh ancilla
    # W_l = tr_B(V_l) / d**n for every Kraus operator, and sum_l W_l^dagger W_l
    ws = np.einsum("lbibj->lij", am.kraus.reshape(-1, dd, de, dd, de)) / dd
    vals, vecs = np.linalg.eigh(np.einsum("lki,lkj->ij", ws.conj(), ws))
    if vals.min() < qmath.KRAUS_FLOOR:
        ws = [np.eye(de)]
    else:
        ws = ws @ (vecs @ np.diag(vals**-0.5) @ vecs.conj().T)
    return eve_local_attack(am.d, ws, eve_state=chi, n=am.n)


def save_attack(am: AttackModel, path) -> None:
    write_json(path, {"d": am.d, "n": am.n, "d_E": am.d_eve,
                      "psi_abe": complex_to_pairs(am.psi_abe), "kraus": complex_to_pairs(am.kraus)})


def load_attack(path) -> AttackModel:
    """Read an attack written by :func:`save_attack`; ``FormatError`` for another layout."""
    with reading("attack", path):
        data = exact_keys(read_json(path), ["d", "d_E", "kraus", "n", "psi_abe"], "attack")
        return AttackModel(
            d=integer(data["d"], "d", 2),
            n=integer(data["n"], "n", 1),
            d_eve=integer(data["d_E"], "d_E", 1),
            psi_abe=pairs_to_complex(data["psi_abe"]),
            kraus=pairs_to_complex(data["kraus"]),
        )
