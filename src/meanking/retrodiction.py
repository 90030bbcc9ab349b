"""Alice's side of the retrodiction game.

She prepares a maximally entangled pair, receives Bob's post-measurement
system back, and measures a POVM whose outcomes are guessing functions:
assignments x with one outcome x(b) for every basis b. The POVM elements
are weighted projectors onto safe vectors eta_x, fixed by the condition

    <eta_x | phi_hat_b(i)> = delta(x(b), i)   for all b, i,

where phi_hat_b(i) is Alice's (unnormalized) conditional state after Bob
measured outcome i in basis b. The conditions are linear in x, so one
least-squares solve gives every eta_x, whatever d is, into one table: a
record array with a row per x and the columns ``x`` (its k digits), ``eta``
and ``residual``, which readers take whole. A measurement
supported on safe vectors never produces a wrong guess. The weights must
make the POVM complete with every weight strictly positive (a maximal
strategy). For mutually unbiased bases uniform weights do (Hayashi, Horibe
& Hashimoto, PRA 71, 052331, 2005), and an exact completeness check
accepts them; other basis sets fall back to a max-min LP (Reimpell &
Werner, PRA 75, 062334, 2007).

All indices in this module are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qmath
from .bases import Basis, BasisSet, FormatError, OverBudget
from .serialize import complex_to_pairs, pairs_to_complex, read_json, write_json

MAX_BLOCK_DIM = 4096  # bound on d**(2n) * d_eve, the densest block operator handled
# most guessing functions (d**k) a build holds, a bound on memory: d=5 (15 625)
# fits, d=7 would hold 5 764 801 x 49 complex entries (about 4.5 GB)
MAX_GUESSING_FUNCTIONS = 50_000
COMPLETENESS_TOL = 1e-8  # max-norm bound on sum_x p(x) |eta_x><eta_x| - identity
POSITIVITY_TOL = 1e-9  # a weight at or below this leaves the strategy not maximal


class ResidualTooLarge(RuntimeError):
    """The safe-vector system is inconsistent for this basis set."""


class NotMaximal(RuntimeError):
    """POVM weights exist but some guessing function gets weight zero."""


class Infeasible(RuntimeError):
    """No nonnegative weights satisfy the completeness condition."""


def checked_block_dim(d: int, n: int, d_eve: int = 1) -> int:
    """d**n, or :class:`OverBudget` when d**(2n) * d_eve exceeds ``MAX_BLOCK_DIM``.

    Decided before anything of size d**n exists: with d >= 2, n capped at
    the budget's bit length decides it exactly.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if d ** (2 * min(n, MAX_BLOCK_DIM.bit_length())) * d_eve > MAX_BLOCK_DIM:
        raise OverBudget(f"block dimension {d}**(2*{n})*{d_eve} exceeds budget {MAX_BLOCK_DIM}")
    return d**n


def enumerate_guessing_functions(d: int, k: int | None = None) -> np.ndarray:
    """All k-tuples with entries in 0..d-1, first slot slowest, as a (d**k, k) array."""
    if k is None:
        k = d + 1
    return np.indices((d,) * k).reshape(k, -1).T


def omega(d: int) -> np.ndarray:
    """The standard maximally entangled state (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError("entangled pair needs dimension >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return v


def phi_hat(bs: BasisSet, b: int, i: int) -> np.ndarray:
    """Alice's unnormalized conditional state (1 x |phi><phi|) Omega.

    Its squared norm is 1/d for the standard maximally entangled source.
    """
    d = bs.dim
    if not (0 <= b < bs.k and 0 <= i < d):
        raise IndexError(f"basis {b} / outcome {i} out of range")
    phi = bs.vector(b, i)
    return (omega(d).reshape(d, d) @ np.outer(phi, phi.conj()).T).reshape(-1)


def safe_vector_table(xs, etas, residuals) -> np.recarray:
    """The strategy table: one row per guessing function, columns ``x``, ``eta``, ``residual``."""
    xs, etas = np.asarray(xs, dtype=np.int64), np.asarray(etas, dtype=complex)
    return np.rec.fromarrays([xs, etas, residuals], dtype=[
        ("x", np.int64, xs.shape[1:]), ("eta", complex, etas.shape[1:]), ("residual", float)])


def _safe_vectors(bs: BasisSet, xs: np.ndarray, residual_tol: float) -> np.recarray:
    """Table of the guessing functions ``xs`` (rows of k digits), all from one least-squares solve.

    conj(eta_x) is the minimum-norm solution of A y = r_x (A: the k*d
    conditional states as rows; r_x: a 1 at each b*d + x(b)). It is linear in
    r_x, so y and A y - r_x sum column b*d + x(b) of G and of A G - 1 over b,
    where G solves A G = 1. Raises :class:`ResidualTooLarge` for the first x
    whose residual exceeds ``residual_tol``: the basis set is bad input.
    """
    d, k = bs.dim, bs.k
    a = np.array([phi_hat(bs, b, i) for b in range(k) for i in range(d)])
    gens, _ = qmath.lstsq(a, np.eye(k * d))
    cols = xs + d * np.arange(k)
    eta_gens, miss_gens = gens.T.conj(), (a @ gens - np.eye(k * d)).T
    etas = sum(eta_gens[cols[:, b]] for b in range(k))
    residuals = np.linalg.norm(sum(miss_gens[cols[:, b]] for b in range(k)), axis=1)
    bad = np.flatnonzero(residuals > residual_tol)
    if bad.size:
        raise ResidualTooLarge(f"safe vector for x={tuple(xs[bad[0]].tolist())} has residual "
                               f"{residuals[bad[0]]:.3e} > {residual_tol:.1e}")
    return safe_vector_table(xs, etas, residuals)


def solve_safe_vector(bs: BasisSet, x, residual_tol: float = 1e-8) -> np.record:
    """Minimum-norm solution of the safe-vector conditions for one x, as a table row.

    The one-x case of :func:`_safe_vectors`, which raises its errors.
    """
    d, k = bs.dim, bs.k
    x = tuple(int(v) for v in x)
    if len(x) != k or any(v < 0 or v >= d for v in x):
        raise ValueError(f"guessing function {x} invalid for k={k}, d={d}")
    return _safe_vectors(bs, np.array([x]), residual_tol)[0]


def decomposition_triple(x, b_prime: int, b_tilde: int, j_prime: int, j_tilde: int):
    """The three guessing functions with eta_x = eta_u + eta_v - eta_w.

    u agrees with x except u(b') = j', v except v(b~) = j~, and w differs
    in both slots. Requires b' != b~, j' != x(b') and j~ != x(b~).
    """
    x = tuple(int(v) for v in x)
    if b_prime == b_tilde:
        raise ValueError("the two bases must differ")
    if not (0 <= b_prime < len(x) and 0 <= b_tilde < len(x)):
        raise ValueError("basis index out of range")
    if j_prime == x[b_prime]:
        raise ValueError("j' must differ from x(b')")
    if j_tilde == x[b_tilde]:
        raise ValueError("j~ must differ from x(b~)")
    u = list(x)
    v = list(x)
    w = list(x)
    u[b_prime] = j_prime
    v[b_tilde] = j_tilde
    w[b_prime] = j_prime
    w[b_tilde] = j_tilde
    return tuple(u), tuple(v), tuple(w)


def _completeness_residual(etas: np.ndarray, weights: np.ndarray, dim2: int) -> float:
    """Max-norm distance of sum_x p(x) |eta_x><eta_x| from the dim2 x dim2 identity."""
    total = (etas.T * weights) @ etas.conj()
    return float(np.max(np.abs(total - np.eye(dim2))))


def _max_min_weights_lp(etas: np.ndarray) -> np.ndarray:
    """Completing weights that maximize the smallest one, from the LP.

    The operator equation is expressed in real Hermitian coordinates,
    rank-reduced by SVD (the stack is highly redundant), and handed to the
    LP with objective "maximize the smallest weight".
    """
    nx, dim2 = etas.shape
    coords = np.empty((dim2 * dim2, nx))
    for j in range(nx):
        coords[:, j] = qmath.hermitian_coords(np.outer(etas[j], etas[j].conj()))
    target = qmath.hermitian_coords(np.eye(dim2))

    u, s, _ = np.linalg.svd(coords, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0]))
    basis = u[:, :rank]
    reduced = basis.T @ coords
    rhs = basis.T @ target
    if np.linalg.norm(basis @ rhs - target) > 1e-8:
        raise Infeasible("identity lies outside the span of the safe-vector projectors")

    feasible, point = qmath.lp_feasible(reduced, rhs, np.zeros(nx), maximize_min_of=range(nx))
    if not feasible:
        raise Infeasible("no nonnegative weights complete the POVM")
    return point


def solve_povm_weights(safe_vectors,
                       positivity_tol: float = POSITIVITY_TOL) -> tuple[np.ndarray, float]:
    """Weights p(x) >= 0 with sum_x p(x) |eta_x><eta_x| = identity, one per table row.

    Returns the weights and their completeness residual. The trace of
    completeness gives sum_x p(x) ||eta_x||^2 = d**2 for every feasible p, so
    no feasible p has a smallest weight above the uniform value
    d**2 / sum_x ||eta_x||^2. When that uniform point completes the POVM it
    is therefore the max-min optimum, and it is returned without an LP;
    otherwise :func:`_max_min_weights_lp` solves for it. Raises
    :class:`Infeasible` when no nonnegative solution exists or the LP's
    answer is not complete, and :class:`NotMaximal` when solutions exist
    but force some weight to zero.
    """
    etas = safe_vectors.eta
    nx, dim2 = etas.shape
    point = np.full(nx, dim2 / float(np.sum(np.abs(etas) ** 2)))
    residual = _completeness_residual(etas, point, dim2)
    if residual > COMPLETENESS_TOL:
        point = _max_min_weights_lp(etas)
        residual = _completeness_residual(etas, point, dim2)
    if float(point.min()) <= positivity_tol:
        raise NotMaximal(
            f"completeness forces a weight down to {point.min():.3e}; strategy not maximal"
        )
    if residual > COMPLETENESS_TOL:
        raise Infeasible(f"POVM completeness residual {residual:.3e} after solve")
    return point, residual


@dataclass
class Strategy:
    """A maximal strategy: source state, safe-vector table and one POVM weight per row."""

    basis_set: BasisSet
    omega: np.ndarray
    safe_vectors: np.recarray
    weights: np.ndarray
    completeness_residual: float

    @property
    def d(self) -> int:
        return self.basis_set.dim

    @property
    def etas(self) -> np.ndarray:
        return self.safe_vectors.eta

    def _rows(self, xs) -> np.ndarray:
        """Table rows of the guessing functions ``xs``, one per row of the (m, k) array-like."""
        match = np.all(self.safe_vectors.x == np.asarray(xs)[:, None], axis=2)
        if not match.any(axis=1).all():
            raise KeyError(f"guessing functions {np.asarray(xs).tolist()} not all in the strategy")
        return match.argmax(axis=1)

    def safe_vector(self, x) -> np.record:
        return self.safe_vectors[self._rows([x])[0]]

    def weight(self, x) -> float:
        return float(self.weights[self._rows([x])[0]])


def build_strategy(bs: BasisSet, residual_tol: float = 1e-8) -> Strategy:
    """Every safe vector, from one solve, and the POVM weights for a full basis set.

    Raises :class:`OverBudget`, before enumerating anything, when the set
    has more than ``MAX_GUESSING_FUNCTIONS`` guessing functions.
    """
    d = bs.dim
    if d**bs.k > MAX_GUESSING_FUNCTIONS:
        raise OverBudget(
            f"{d}**{bs.k} = {d**bs.k} guessing functions exceed the build budget "
            f"{MAX_GUESSING_FUNCTIONS}"
        )
    table = _safe_vectors(bs, enumerate_guessing_functions(d, bs.k), residual_tol)
    weights, residual = solve_povm_weights(table)
    return Strategy(basis_set=bs, omega=omega(d), safe_vectors=table, weights=weights,
                    completeness_residual=residual)


def digit_operators(strategy: Strategy) -> np.ndarray:
    """Alice's POVM coarse-grained to the digit she announces for each basis.

    Returns Q with shape (k, d, d*d, d*d), where

        Q[b, i] = sum over x with x(b) = i of p(x) |eta_x><eta_x|

    is the element for announcing i when Bob's basis was b. Completeness
    gives sum_i Q[b, i] = identity for every b. The POVM of n independent
    instances is a tensor product, so its element for the digits (b_s, i_s)
    is the product of the Q[b_s, i_s], one per instance.
    """
    bs = strategy.basis_set
    d = bs.dim
    etas, xvals = strategy.etas, strategy.safe_vectors.x
    q = np.empty((bs.k, d, d * d, d * d), dtype=complex)
    for b in range(bs.k):
        for i in range(d):
            mask = xvals[:, b] == i
            q[b, i] = (etas[mask].T * strategy.weights[mask]) @ etas[mask].conj()
    return q


def _interleaved_to_grouped_axes(n: int):
    return list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))


@dataclass
class ProductStrategy:
    """n independent runs of a base strategy, viewed as one big game.

    Safe product vectors and weights are exposed through indexed accessors
    rather than materialized tables; ``safe_vector`` returns the natural
    pair-interleaved order (A1 B1 A2 B2 ...) while ``safe_vector_grouped``
    regroups to (A1..An B1..Bn), the layout the attack analysis uses.
    """

    base: Strategy
    n: int

    def __post_init__(self):
        checked_block_dim(self.base.d, self.n)

    @property
    def d(self) -> int:
        return self.base.d

    def guessing_tuples(self):
        return product(map(tuple, self.base.safe_vectors.x.tolist()), repeat=self.n)

    def weight(self, xs) -> float:
        return float(np.prod(self.base.weights[self.base._rows(xs)]))

    def safe_vector(self, xs) -> np.ndarray:
        return qmath.tensor(*self.base.etas[self.base._rows(xs)])

    def safe_vector_grouped(self, xs) -> np.ndarray:
        v = self.safe_vector(xs)
        if self.n == 1:
            return v
        return qmath.permute_factors(
            v, (self.d, self.d) * self.n, _interleaved_to_grouped_axes(self.n)
        )


def tensor_strategy(s: Strategy, n: int) -> ProductStrategy:
    return ProductStrategy(base=s, n=n)


def save_strategy(s: Strategy, path) -> None:
    table = s.safe_vectors
    entries = [
        {"x": x, "eta": eta, "p": p, "residual": res}
        for x, eta, p, res in zip(table.x.tolist(), complex_to_pairs(table.eta),
                                  s.weights.tolist(), table.residual.tolist())
    ]
    write_json(
        path,
        {
            "dim": s.basis_set.dim,
            "bases": [complex_to_pairs(b.vectors) for b in s.basis_set.bases],
            "omega": complex_to_pairs(s.omega),
            "entries": entries,
        },
    )


def load_strategy(path) -> Strategy:
    """Read a strategy written by :func:`save_strategy`.

    Raises :class:`FormatError` when the file does not have that layout (each
    x: k digits in 0..d-1, none repeated; each eta: d*d entries),
    :class:`Infeasible` when the stored POVM is not complete and
    :class:`NotMaximal` when it is complete but some weight is not positive.
    """
    data = read_json(path)
    try:
        dim = int(data["dim"])
        bs = BasisSet(
            dim=dim,
            bases=tuple(
                Basis(label=b, vectors=pairs_to_complex(entry))
                for b, entry in enumerate(data["bases"])
            ),
        )
        omega_vec = pairs_to_complex(data["omega"])
        xs, etas, weights, residuals = zip(*[(e["x"], e["eta"], e["p"], e["residual"])
                                            for e in data["entries"]])
        if any(len(x) != bs.k for x in xs):
            raise ValueError(f"a guessing function does not have k = {bs.k} digits")
        if any(len(eta) != dim * dim for eta in etas):
            raise ValueError(f"a safe vector does not have {dim * dim} entries")
        xs = np.array(xs, dtype=np.int64).reshape(len(xs), bs.k)
        if xs.min() < 0 or xs.max() >= dim:
            raise ValueError(f"a guessing function has a digit outside 0..{dim - 1}")
        if len(np.unique(xs, axis=0)) < len(xs):
            raise ValueError("a guessing function is listed twice")
        table = safe_vector_table(xs, pairs_to_complex(etas).reshape(len(xs), -1), residuals)
        weights = np.array(weights, dtype=float)
        if not np.isfinite(weights).all() or not np.isfinite(table.residual).all():
            raise ValueError("a weight or residual is not finite")
        residual = _completeness_residual(table.eta, weights, dim * dim)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"bad strategy file {path}: {exc}") from exc
    if not residual <= COMPLETENESS_TOL:
        raise Infeasible(f"stored strategy violates completeness by {residual:.3e}")
    if not float(weights.min()) > POSITIVITY_TOL:
        raise NotMaximal(f"stored strategy has weight {weights.min():.3e}; strategy not maximal")
    return Strategy(basis_set=bs, omega=omega_vec, safe_vectors=table, weights=weights,
                    completeness_residual=residual)
