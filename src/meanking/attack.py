"""Coherent eavesdropping on the two-way protocol.

Eve gets the strongest position the protocol leaves open: she supplies the
source as an arbitrary pure state Psi on A x B x E (A and B the d**n
dimensional block spaces, E her ancilla) and applies an arbitrary Kraus
channel to B x E while Bob's system travels back to Alice. Her effective
final system is (branch register) x E, i.e. she also keeps which Kraus
branch fired.

The analysis works with two equivalent computations of Alice's conditional
state: the direct pipeline (project Bob's factor, apply the feedback
channel, trace out Eve) and the operator form, where the source is expanded
in the maximally entangled basis generated by shift/clock unitaries and the
channel collapses into operators E_(l,k) acting on A x B with

    rho_A(b, i) = sum_(l,k)  E_(l,k) |phi_hat><phi_hat| E_(l,k)^dagger.

The n-slot unitaries are tensor products of one-slot ones, so the operator
form contracts the closed-form one-slot table :func:`weyl_operators` with
each slot's index pair in turn and builds no d**n x d**n unitary per label.

An attack is undetectable iff every E_(l,k) is a multiple of the identity,
and then Eve's final state cannot depend on (b, i): zero detection implies
zero leakage. Detection probability and leakage are computed by exact
enumeration, never by sampling.

One pass, :func:`_attack_pass`, walks the (b, i) grid through :func:`_walk`
in chunks of basis blocks, each chunk a few whole-grid arrays: one
broadcast Kronecker product gives Bob's eigenstates for every block of the
chunk, one contraction projects all their outcomes, and one batched Kraus
application gives their branch stacks w_l, from which Eve's blocks are
read. Alice's chance of announcing Bob's digits needs no Born weight per
guessing tuple: the product POVM summed over the tuples that agree with Bob
is the tensor product of the per-instance digit operators Q(b_s, i_s) of
:func:`~meanking.retrodiction.digit_operators`, so

    correct(b, i) = sum_l <w_l| Q(b_1, i_1) x ... x Q(b_n, i_n) |w_l>,

with each Q applied to its own (A_s, B_s) pair, for a whole chunk at once.
Detection, leakage and the per-outcome error table are all read from that
pass, and the protocol sampler draws Bob's outcomes and Alice's results
from the same walk; :func:`_branch_vectors` is the single-outcome
projection behind :func:`alice_state` and :func:`eve_final_state`. Leakage
compares Eve's states pairwise in chunks of the pair triangle. A chunk of
either kind holds a bounded number of entries, so memory does not grow
with the grid.

Subsystem order is always A x B x E, row-major. All indices 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qmath
from .bases import BasisSet, FormatError
from .retrodiction import Strategy, checked_block_dim, digit_operators, omega
from .serialize import complex_to_pairs, pairs_to_complex, read_json, write_json

_PROB_FLOOR = 1e-14  # below this an outcome cannot be conditioned on
_LEAKAGE_SKIP = 1e-12
# Chunk budgets, in complex entries: Kraus-branch stacks per chunk of the
# walk, and state differences per chunk of the leakage pair triangle. A
# chunk always takes at least one basis block, or one row of pairs.
_WALK_ENTRIES = 1 << 12
_PAIR_ENTRIES = 1 << 13


class ZeroProbabilityOutcome(RuntimeError):
    """Conditioning on an outcome the attacked source never produces."""


def _conditionable(prob: float, bvec, ivec) -> float:
    """``prob``, or raise if the outcome (b, i) is too rare to condition on."""
    if prob <= _PROB_FLOOR:
        raise ZeroProbabilityOutcome(f"outcome (b={bvec}, i={ivec}) has probability {prob:.3e}")
    return prob


def weyl_operators(d: int) -> np.ndarray:
    """Every shift/clock unitary X^m Z^l on d dimensions, as table[m, l] of shape (d, d, d, d).

    X cycles |j> -> |j+1> and Z phases |j> by omega^j, so entry [m, l, a, b]
    is delta(a, b + m mod d) omega^(l b), with omega = exp(2 pi i / d).
    """
    j = np.arange(d)
    shift = j[None, :, None] == (j[None, None, :] + j[:, None, None]) % d  # [m, a, b]
    phase = np.exp(2j * np.pi * (np.outer(j, j) % d) / d)  # [l, b]
    return shift[:, None] * phase[None, :, None, :]


def _per_slot(table: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """Apply a one-slot table[u, v, x, y] to each of the n slots of t, shaped (d**n, d**n) + rest.

    Each slot's base-d digit pair (x_s, y_s), first slot slowest, becomes
    (u_s, v_s) by one ``tensordot``; the n-slot operator is never formed.
    """
    d, rest = len(table), t.shape[2:]
    t = t.reshape((d,) * (2 * n) + rest)
    for s in range(n):
        t = np.moveaxis(np.tensordot(table, t, axes=([2, 3], [s, n + s])), (0, 1), (s, n + s))
    return t.reshape((d**n, d**n) + rest)


def entangled_basis_vector(d: int, n: int, m_flat: int, l_flat: int) -> np.ndarray:
    """(1 x U) Omega for the Weyl label given as flat base-d integers."""
    labels = np.unravel_index(m_flat, (d,) * n), np.unravel_index(l_flat, (d,) * n)
    u = qmath.tensor(*weyl_operators(d)[labels])
    return u.T.reshape(-1) / np.sqrt(d**n)


@dataclass
class AttackModel:
    """Eve's source state plus feedback channel, validated on construction."""

    d: int
    n: int
    d_eve: int
    psi_abe: np.ndarray
    kraus: tuple

    def __post_init__(self):
        self.psi_abe = np.asarray(self.psi_abe, dtype=complex).reshape(-1)
        self.kraus = tuple(np.asarray(v, dtype=complex) for v in self.kraus)
        dd = checked_block_dim(self.d, self.n, self.d_eve)
        if self.psi_abe.size != dd * dd * self.d_eve:
            raise ValueError(
                f"source state has {self.psi_abe.size} entries, expected {dd * dd * self.d_eve}"
            )
        norm = float(np.linalg.norm(self.psi_abe))
        if not abs(norm - 1.0) <= 1e-9:  # refuses NaN too
            raise ValueError(f"source state norm {norm} is not 1")
        comp = np.zeros((dd * self.d_eve, dd * self.d_eve), dtype=complex)
        for v in self.kraus:
            if v.shape != (dd * self.d_eve, dd * self.d_eve):
                raise ValueError("Kraus operators must be square on B x E")
            comp += qmath.dagger(v) @ v
        dev = float(np.max(np.abs(comp - np.eye(dd * self.d_eve))))
        if not dev <= 1e-9:
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
    return qmath.tensor(*[bs.vector(b, i) for b, i in zip(bvec, ivec)])


def phi_hat_product(bs: BasisSet, bvec, ivec, n: int) -> np.ndarray:
    """Alice's unnormalized conditional block state on A x B."""
    dd = bs.dim**n
    phi = phi_product(bs, bvec, ivec, n)
    return qmath.tensor(phi.conj(), phi) / np.sqrt(dd)


def _require_same_dim(am: AttackModel, bs: BasisSet) -> None:
    if bs.dim != am.d:
        raise ValueError("strategy and attack dimensions differ")


def _projected_raw(am: AttackModel, bs: BasisSet, bvec, ivec):
    """Unnormalized source state after Bob's projection, as (A, B, E) tensor.

    Every single-outcome entry point passes through here, so this is where
    a basis set of another dimension than the attack is refused.
    """
    _require_same_dim(am, bs)
    dd = am.block_dim
    phi = phi_product(bs, bvec, ivec, am.n)
    psi = am.psi_abe.reshape(dd, dd, am.d_eve)
    amp = np.einsum("b,abe->ae", phi.conj(), psi)
    out = np.einsum("ae,b->abe", amp, phi)
    prob = float(np.sum(np.abs(amp) ** 2))
    return out, prob


def bob_projected_state(am: AttackModel, bs: BasisSet, bvec, ivec):
    """Normalized post-measurement state on A x B x E and its probability."""
    out, prob = _projected_raw(am, bs, bvec, ivec)
    return out.reshape(-1) / np.sqrt(_conditionable(prob, bvec, ivec)), prob


def bob_projected_state_bell_form(am: AttackModel, bs: BasisSet, bvec, ivec):
    """Second route to the projected state, via the entangled-basis expansion.

    Rebuilds sum_beta (U_hat_beta^T x 1 x 1) phi_hat x e_beta from the
    source coefficients; used to cross-check :func:`bob_projected_state`.
    """
    dd = am.block_dim
    u_hats = _per_slot(weyl_operators(am.d).transpose(2, 3, 0, 1),
                       decompose_source(am.psi_abe, am.d, am.n, am.d_eve), am.n)
    out = np.einsum("cae,cb->abe", u_hats, phi_hat_product(bs, bvec, ivec, am.n).reshape(dd, dd))
    prob = float(np.linalg.norm(out) ** 2)
    return out.reshape(-1) / np.sqrt(_conditionable(prob, bvec, ivec)), prob


def decompose_source(psi: np.ndarray, d: int, n: int, d_eve: int) -> np.ndarray:
    """Source coefficients in the maximally entangled basis on A x B.

    Returns c[m, l, beta] with flat base-d Weyl labels; the squared
    magnitudes sum to 1 and resynthesizing reproduces psi exactly. The basis
    vector of label (m, l) holds U_(m,l)[b, a] / sqrt(d**n) at (a, b), so each
    slot contracts with conj(X^m Z^l)[b, a].
    """
    dd = d**n
    psi = np.asarray(psi, dtype=complex).reshape(dd, dd, d_eve)
    return _per_slot(weyl_operators(d).conj().swapaxes(2, 3), psi, n) / np.sqrt(dd)


def source_from_coefficients(coeffs: np.ndarray, d: int, n: int) -> np.ndarray:
    """Resynthesize a source state from entangled-basis coefficients."""
    psi = _per_slot(weyl_operators(d).transpose(3, 2, 0, 1), np.asarray(coeffs, dtype=complex), n)
    return psi.reshape(-1) / np.sqrt(d**n)


def _kraus_branches(am: AttackModel, states) -> np.ndarray:
    """(1 x V_l) applied to m states on A x B x E, one row per branch: (m, branch, A x B, E)."""
    dd, de = am.block_dim, am.d_eve
    s = np.asarray(states, dtype=complex).reshape(-1, 1, dd, dd * de)
    kraus_t = np.stack([v.T for v in am.kraus])
    return (s @ kraus_t).reshape(len(s), len(am.kraus), dd * dd, de)


def apply_feedback(am: AttackModel, state: np.ndarray) -> np.ndarray:
    """Kraus action of the feedback channel on B x E, identity on A."""
    w = _kraus_branches(am, state).reshape(len(am.kraus), -1)
    return w.T @ w.conj()


def _branch_vectors(am: AttackModel, bs: BasisSet, bvec, ivec):
    """The Kraus-branch stack of one projected outcome, and the outcome's probability."""
    out, prob = _projected_raw(am, bs, bvec, ivec)
    return _kraus_branches(am, out)[0], prob


def _walk(am: AttackModel, bs: BasisSet):
    """The one walk over Bob's outcome grid, in chunks of basis blocks.

    Yields ``(bvecs, branches, probs)`` per chunk: its c basis vectors as a
    (c, n) array in ``product`` order, the Kraus-branch stacks of all their
    outcomes as (c, d**n, branch, A x B, E), and the outcome probabilities
    as (c, d**n), outcomes in ``product`` order. The rows of the Kronecker
    product of Bob's basis matrices are his block eigenstates; one broadcast
    product per slot forms them for the whole chunk, one contraction
    projects every outcome and one batched product applies every Kraus
    operator. A chunk holds at most ``_WALK_ENTRIES`` branch-stack entries,
    or one block. The protocol sampler walks it too.
    """
    _require_same_dim(am, bs)
    n, dd = am.n, am.block_dim
    psi = am.psi_abe.reshape(dd, dd, am.d_eve)
    mats = np.stack([basis.vectors for basis in bs.bases]).astype(complex)
    bvecs = np.stack(np.unravel_index(np.arange(bs.k**n), (bs.k,) * n), axis=-1)
    step = max(1, _WALK_ENTRIES // (dd**3 * len(am.kraus) * am.d_eve))
    for start in range(0, len(bvecs), step):
        chunk = bvecs[start:start + step]
        phis = mats[chunk[:, 0]]
        for s in range(1, n):
            phis = qmath.kron(phis, mats[chunk[:, s]], batch=1)
        phis = phis.reshape(-1, dd)
        amp = np.einsum("ib,abe->iae", phis.conj(), psi)
        probs = np.sum(np.abs(amp) ** 2, axis=(1, 2))
        out = np.einsum("iae,ib->iabe", amp, phis)
        branches = _kraus_branches(am, out)
        yield chunk, branches.reshape((len(chunk), dd) + branches.shape[1:]), probs.reshape(-1, dd)


def _eve_blocks(branches: np.ndarray):
    """Eve's unnormalized per-branch blocks w_l^T w_l^*, as (..., branch, E, E), and their traces.

    Leading axes of ``branches`` before the branch axis carry through.
    """
    blocks = np.swapaxes(branches, -1, -2) @ branches.conj()
    return blocks, np.einsum("...lee->...", blocks).real


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


def alice_state_unnormalized(am: AttackModel, bs: BasisSet, bvec, ivec):
    """Alice's conditional state on A x B before normalization.

    It is sum_l w_l w_l^dagger over the Kraus-branch stack; the trace equals
    the outcome probability. Returns ``(rho, prob)``.
    """
    branches, prob = _branch_vectors(am, bs, bvec, ivec)
    return sum(w @ w.conj().T for w in branches), prob


def alice_state(am: AttackModel, bs: BasisSet, bvec, ivec) -> np.ndarray:
    """Normalized state Alice measures, conditioned on Bob's (b, i)."""
    rho, prob = alice_state_unnormalized(am, bs, bvec, ivec)
    return rho / _conditionable(prob, bvec, ivec)


def build_E_operators(am: AttackModel) -> np.ndarray:
    """Operator form of the attack: E[l, k] acting on A x B.

    E_(l,k) = sum_beta U_hat_beta^T x M_(l,k,beta), with U_hat_beta =
    sum_(m,l) c[m, l, beta] U_(m,l) and M the B-block of Kraus operator V_l
    mapping Eve's component beta to k. Reconstructs Alice's unnormalized
    state as sum E |phi_hat><phi_hat| E^dagger.
    """
    dd, de = am.block_dim, am.d_eve
    u_hats = _per_slot(weyl_operators(am.d).transpose(2, 3, 0, 1),
                       decompose_source(am.psi_abe, am.d, am.n, de), am.n)
    vr = np.stack(am.kraus).reshape(len(am.kraus), dd, de, dd, de)
    ops = np.einsum("xae,lbkye->lkabxy", u_hats, vr)
    return ops.reshape(len(am.kraus), de, dd * dd, dd * dd)


def reconstruct_alice_state(am: AttackModel, bs: BasisSet, bvec, ivec,
                            ops: np.ndarray | None = None) -> np.ndarray:
    """Alice's unnormalized state from the E_(l,k) operators (cross-check)."""
    if ops is None:
        ops = build_E_operators(am)
    w = ops @ phi_hat_product(bs, bvec, ivec, am.n)
    return np.einsum("lki,lkj->ij", w, w.conj())


def scalar_deviation(op: np.ndarray) -> float:
    """Distance of an operator from the scalar line (Frobenius norm)."""
    dim = op.shape[0]
    return float(np.linalg.norm(op - (np.trace(op) / dim) * np.eye(dim)))


def eve_final_state(am: AttackModel, bs: BasisSet, bvec, ivec) -> np.ndarray:
    """Eve's normalized final state on (branch register) x E.

    Block l holds the ancilla state produced when Kraus branch l fired;
    the branch register is the slow index.
    """
    blocks, trace = _eve_blocks(_branch_vectors(am, bs, bvec, ivec)[0])
    nb, de = blocks.shape[:2]
    rho = np.einsum("lm,lef->lemf", np.eye(nb), blocks).reshape(nb * de, nb * de)
    return rho / _conditionable(float(trace), bvec, ivec)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 for Hermitian matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def _eve_states(branches: np.ndarray) -> np.ndarray:
    """Eve's normalized states of a chunk of :func:`_walk`, as (m, branch, E, E).

    Outcomes whose trace is at or below ``_LEAKAGE_SKIP`` are left out.
    """
    blocks, trace = _eve_blocks(branches.reshape((-1,) + branches.shape[2:]))
    keep = trace > _LEAKAGE_SKIP
    return blocks[keep] / trace[keep, None, None, None]


def _max_trace_distance(states: np.ndarray) -> float:
    """Largest trace distance between any two of Eve's states, stacked as (m, branch, E, E).

    Her states are block diagonal, so a trace distance is a sum over blocks.
    The pair triangle goes in chunks of rows of at most ``_PAIR_ENTRIES``
    entries, or one row, each one ``eigvalsh`` of the differences
    states[later] - states[earlier]. With a one-dimensional E the blocks are
    scalars, whose eigenvalue is their real part, so the distance is the l1
    distance of the real diagonals and needs no ``eigvalsh``.
    """
    m, nb, de, _ = states.shape
    scalar = de == 1
    if scalar:
        states = states[:, :, 0, 0].real
    rows_done = np.cumsum(np.arange(m - 1, 0, -1))  # pairs in rows 0..j
    worst, j0 = 0.0, 0
    while j0 < m - 1:
        budget = (rows_done[j0 - 1] if j0 else 0) + _PAIR_ENTRIES // (nb * de * de)
        j1 = max(j0 + 1, int(np.searchsorted(rows_done, budget, side="right")))
        earlier, later = np.nonzero(np.arange(j0, j1)[:, None] < np.arange(m))
        diff = states[later] - states[earlier + j0]
        if scalar:
            dist = np.abs(diff).sum(axis=1)
        else:
            dist = np.abs(np.linalg.eigvalsh(diff)).sum(axis=(1, 2))
        worst = max(worst, 0.5 * float(dist.max()))
        j0 = j1
    return worst


def leakage(am: AttackModel, bs: BasisSet) -> float:
    """Worst-case distinguishability of Eve's conditional final states.

    Maximum trace distance between her states for any two outcomes (b, i)
    of nonnegligible probability; zero means the transcript taught her
    nothing about the key.
    """
    return _max_trace_distance(np.concatenate([_eve_states(branches)
                                               for _, branches, _ in _walk(am, bs)]))


def guess_probability(strategy: Strategy, am: AttackModel, xvec, bvec, ivec) -> float:
    """Probability that Alice announces the digits x(b), given Bob saw (b, i).

    Aggregates the POVM elements of every guessing function sharing those
    digits, through the digit operators Q(b_s, x_s(b_s)); without an attack
    this is 1 when x(b) = i and 0 otherwise.
    """
    n = am.n
    branches, prob = _branch_vectors(am, strategy.basis_set, bvec, ivec)
    _conditionable(prob, bvec, ivec)
    bvec = _as_tuple(bvec, n, strategy.basis_set.k, "bases")
    ivec = _as_tuple(ivec, n, strategy.d, "outcomes")
    if isinstance(xvec[0], (int, np.integer)):
        xvec = (tuple(xvec),)
    xvec = tuple(tuple(int(v) for v in x) for x in xvec)
    q = digit_operators(strategy)
    slots = [q[b, x[b]][None, None] for x, b in zip(xvec, bvec)]
    return float(_correct_mass(slots, branches[None, None])[0, 0]) / prob


def _attack_pass(strategy: Strategy, am: AttackModel):
    """Detection probability, error table and Eve's states (:func:`_eve_states`), in one pass."""
    bs = strategy.basis_set
    q = digit_operators(strategy)
    ivecs = list(product(range(bs.dim), repeat=am.n))
    total, table, states = 0.0, [], []
    for bvecs, branches, probs in _walk(am, bs):
        states.append(_eve_states(branches))
        correct = _correct_mass([q[bvecs[:, s]] for s in range(am.n)], branches)
        outcomes = zip(product(bvecs.tolist(), ivecs), probs.ravel().tolist(),
                       correct.ravel().tolist())
        for (bvec, ivec), prob, right in outcomes:
            if prob <= _PROB_FLOOR:
                continue
            total += prob - right
            # 1-based labels in the human-facing table
            table.append({"b": [b + 1 for b in bvec], "i": [i + 1 for i in ivec],
                          "prob": prob, "guess_error": max(0.0, 1.0 - right / prob)})
    return total / bs.k**am.n, table, np.concatenate(states)


def detection_probability(strategy: Strategy, am: AttackModel) -> float:
    """Average probability that Alice's inferred digits disagree with Bob's.

    Exact enumeration over uniform basis blocks and Born-rule outcomes; no
    sampling is involved.
    """
    return _attack_pass(strategy, am)[0]


@dataclass
class AttackReport:
    detection_probability: float
    leakage: float
    per_outcome: list

    def to_dict(self) -> dict:
        return {
            "detection_probability": self.detection_probability,
            "leakage": self.leakage,
            "per_outcome": self.per_outcome,
        }


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
    ops = []
    for jvec in product(range(bs.dim), repeat=n):
        phi = phi_product(bs, (bstar,) * n, jvec, n)
        ops.append(np.outer(phi, phi.conj()))
    return AttackModel(d=bs.dim, n=n, d_eve=1, psi_abe=omega(dd), kraus=tuple(ops))


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
    kraus_e = [np.asarray(w, dtype=complex) for w in kraus_e]
    d_eve = kraus_e[0].shape[0]
    dd = checked_block_dim(d, n, d_eve)
    chi = np.asarray(np.eye(d_eve)[0] if eve_state is None else eve_state, dtype=complex)
    norm = float(np.linalg.norm(chi))
    if not 0.0 < norm < np.inf:
        raise ValueError(f"ancilla state has norm {norm}")
    chi = chi / norm
    psi = qmath.kron(omega(dd), chi)
    ops = tuple(qmath.kron(np.eye(dd), w) for w in kraus_e)
    return AttackModel(d=d, n=n, d_eve=d_eve, psi_abe=psi, kraus=ops)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_channel(dim: int, n_kraus: int, rng: np.random.Generator):
    """Random trace-preserving Kraus family on a ``dim``-dimensional space."""
    raw = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n_kraus)
    ]
    gram = sum(qmath.dagger(g) @ g for g in raw)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return [g @ inv_sqrt for g in raw]


def random_attack(d: int, n: int, d_eve: int, n_kraus: int, rng: np.random.Generator) -> AttackModel:
    dd = checked_block_dim(d, n, d_eve)
    return AttackModel(
        d=d,
        n=n,
        d_eve=d_eve,
        psi_abe=random_state(dd * dd * d_eve, rng),
        kraus=tuple(random_channel(dd * d_eve, n_kraus, rng)),
    )


def scalarized_attack(am: AttackModel) -> AttackModel:
    """Project an attack onto its undetectable part.

    Keeps only the honest component of the source and the 1_B x W part of
    every Kraus operator, renormalized back to a valid channel; the result
    is always of scalar form.
    """
    dd, de = am.block_dim, am.d_eve
    chi = decompose_source(am.psi_abe, am.d, am.n, de)[0, 0]
    if np.linalg.norm(chi) < 1e-9:
        chi = None  # no honest component; fall back to a fresh ancilla
    # W_l = tr_B(V_l) / d**n for every Kraus operator, and sum_l W_l^dagger W_l
    ws = np.einsum("lbibj->lij", np.stack(am.kraus).reshape(-1, dd, de, dd, de)) / dd
    vals, vecs = np.linalg.eigh(np.einsum("lki,lkj->ij", ws.conj(), ws))
    if vals.min() < 1e-12:
        ws = [np.eye(de)]
    else:
        ws = ws @ (vecs @ np.diag(vals**-0.5) @ vecs.conj().T)
    return eve_local_attack(am.d, ws, eve_state=chi, n=am.n)


def save_attack(am: AttackModel, path) -> None:
    write_json(
        path,
        {
            "d": am.d,
            "n": am.n,
            "d_E": am.d_eve,
            "psi_abe": complex_to_pairs(am.psi_abe),
            "kraus": [complex_to_pairs(v) for v in am.kraus],
        },
    )


def load_attack(path) -> AttackModel:
    """Read an attack written by :func:`save_attack`.

    Raises :class:`~meanking.bases.FormatError` when the file does not have
    that layout or does not describe a valid attack.
    """
    data = read_json(path)
    try:
        return AttackModel(
            d=int(data["d"]),
            n=int(data["n"]),
            d_eve=int(data["d_E"]),
            psi_abe=pairs_to_complex(data["psi_abe"]),
            kraus=tuple(pairs_to_complex(v) for v in data["kraus"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"bad attack file {path}: {exc}") from exc
