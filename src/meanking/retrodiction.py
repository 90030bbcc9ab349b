"""Alice's side of the retrodiction game.

She prepares a maximally entangled pair, receives Bob's post-measurement
system back, and measures a POVM whose outcomes are guessing functions:
assignments x with one outcome x(b) for every basis b. The POVM elements
are weighted projectors onto safe vectors eta_x, fixed by the condition

    <eta_x | phi_hat_b(i)> = delta(x(b), i)   for all b, i,

where phi_hat_b(i) is Alice's (unnormalized) conditional state after Bob
measured outcome i in basis b. The conditions are linear in x, so one
least-squares solve gives every eta_x, whatever d is, into one table: a
record array with the columns ``eta`` and ``residual`` and row j for the x
whose base-d digits are j, which readers take whole. A measurement
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
from functools import cached_property
from itertools import product
from math import isqrt

import numpy as np

from . import bases, qmath
from .bases import (MAX_GUESSING_FUNCTIONS, BasisSet, FormatError, OverBudget,
                    basis_set_from_json, digits, enumerate_guessing_functions)
from .serialize import complex_to_pairs, pairs_to_complex, read_json, write_json


class ResidualTooLarge(RuntimeError):
    """The safe-vector system is inconsistent for this basis set."""


class NotMaximal(RuntimeError):
    """POVM weights exist but some guessing function gets weight zero."""


class Infeasible(RuntimeError):
    """No nonnegative weights satisfy the completeness condition."""


def checked_block_dim(d: int, n: int, d_eve: int = 1) -> int:
    """d**n, or :class:`OverBudget` when (d**(2n) * d_eve)**2 exceeds ``bases.MAX_ARRAY_ENTRIES``.

    That square counts the entries of a dense operator on the block's A x B x E
    space; the refusal names its root, 4096. Decided before anything of size
    d**n exists: with d >= 2, n capped at the root's bit length decides it exactly.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    limit = isqrt(bases.MAX_ARRAY_ENTRIES)
    if d ** (2 * min(n, limit.bit_length())) * d_eve > limit:
        raise OverBudget(f"block dimension {d}**(2*{n})*{d_eve} exceeds budget {limit}")
    return d**n


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
    phi = bs.vectors[b, i]
    return (omega(d).reshape(d, d) @ np.outer(phi, phi.conj()).T).reshape(-1)


def safe_vector_table(etas, residuals) -> np.recarray:
    """The strategy table: a row per guessing function, columns ``eta`` and ``residual``."""
    etas = np.asarray(etas, dtype=complex)
    return np.rec.fromarrays([etas, residuals],
                             dtype=[("eta", complex, etas.shape[1:]), ("residual", float)])


def _safe_vectors(bs: BasisSet, xs: np.ndarray, residual_tol: float) -> np.recarray:
    """Rows for the guessing functions ``xs`` (rows of k digits), all from one least-squares solve.

    conj(eta_x) is the minimum-norm solution of A y = r_x (A: the k*d
    conditional states as rows; r_x: a 1 at each b*d + x(b)). It is linear in
    r_x, so y and A y - r_x sum column b*d + x(b) of G and of A G - 1 over b,
    where G solves A G = 1. Raises ``ValueError`` for a ``residual_tol`` outside
    qmath's (0, MAX_TOL), then :class:`ResidualTooLarge` for the first x over it.
    """
    qmath.check_tol(residual_tol, qmath.POSITIVE_FLOOR, "positive floor")
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
    return safe_vector_table(etas, residuals)


def solve_safe_vector(bs: BasisSet, x, residual_tol: float = qmath.RESIDUAL_TOL) -> np.record:
    """Minimum-norm solution of the safe-vector conditions for one x, as a table row.

    The one-x case of :func:`_safe_vectors`, which raises its errors.
    """
    d, k = bs.dim, bs.k
    x = tuple(int(v) for v in x)
    if len(x) != k or any(v < 0 or v >= d for v in x):
        raise ValueError(f"guessing function {x} invalid for k={k}, d={d}")
    return _safe_vectors(bs, np.array([x]), residual_tol)[0]


def _completeness_residual(etas: np.ndarray, weights: np.ndarray, dim2: int) -> float:
    """Max-norm distance of sum_x p(x) |eta_x><eta_x| from the dim2 x dim2 identity."""
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or NaN
        total = (etas.T * weights) @ etas.conj()
        return float(np.max(np.abs(total - np.eye(dim2))))


def _check_complete_and_maximal(weights: np.ndarray, residual: float, what: str) -> None:
    """The one verdict on a solved or stored strategy, at qmath's tolerances; NaN fails it."""
    if not float(weights.min()) > qmath.POSITIVITY_TOL:
        raise NotMaximal(f"{what} has weight {weights.min():.3e}; strategy not maximal")
    if not residual <= qmath.COMPLETENESS_TOL:
        raise Infeasible(f"{what} violates completeness by {residual:.3e}")


def _max_min_weights_lp(etas: np.ndarray) -> np.ndarray:
    """Completing weights that maximize the smallest one, from the LP.

    The operator equation is expressed in real Hermitian coordinates,
    rank-reduced by SVD (the stack is highly redundant), and handed to the
    LP with objective "maximize the smallest weight".
    """
    nx, dim2 = etas.shape
    coords = qmath.hermitian_coords(etas[:, :, None] * etas[:, None, :].conj()).T
    target = qmath.hermitian_coords(np.eye(dim2))

    u, s, _ = np.linalg.svd(coords, full_matrices=False)
    rank = int(np.sum(s > qmath.WEIGHT_SVD_CUTOFF * s[0]))
    basis = u[:, :rank]
    reduced = basis.T @ coords
    rhs = basis.T @ target
    if np.linalg.norm(basis @ rhs - target) > qmath.COMPLETENESS_TOL:
        raise Infeasible("identity lies outside the span of the safe-vector projectors")

    feasible, point = qmath.lp_feasible(reduced, rhs, maximize_min=True)
    if not feasible:
        raise Infeasible("no nonnegative weights complete the POVM")
    return point


def solve_povm_weights(safe_vectors) -> tuple[np.ndarray, float]:
    """Weights p(x) >= 0 with sum_x p(x) |eta_x><eta_x| = identity, one per table row.

    Returns the weights and their completeness residual. The trace of
    completeness gives sum_x p(x) ||eta_x||^2 = d**2 for every feasible p, so
    no feasible p has a smallest weight above the uniform value
    d**2 / sum_x ||eta_x||^2. When that uniform point completes the POVM it
    is therefore the max-min optimum, and it is returned without an LP;
    otherwise :func:`_max_min_weights_lp` solves for it. Raises
    :class:`Infeasible` when no nonnegative solution exists or the LP's
    answer is not complete, and :class:`NotMaximal` when solutions exist
    but force some weight to zero. A table holding a NaN or infinite entry
    is refused first, with ``ValueError``.
    """
    etas = safe_vectors.eta
    nx, dim2 = etas.shape
    bad = np.argwhere(~np.isfinite(etas))
    if bad.size:
        j, c = bad[0]
        raise ValueError(f"safe vector {j} has the non-finite entry {etas[j, c]}")
    point = np.full(nx, dim2 / float(np.sum(np.abs(etas) ** 2)))
    residual = _completeness_residual(etas, point, dim2)
    if residual > qmath.COMPLETENESS_TOL:
        point = _max_min_weights_lp(etas)
        residual = _completeness_residual(etas, point, dim2)
    _check_complete_and_maximal(point, residual, "solved strategy")
    return point, residual


@dataclass(frozen=True, eq=False)
class Strategy:
    """A maximal strategy for :func:`omega`: table row and weight j for guessing function j.

    Its arrays are not edited after construction: the stored
    ``completeness_residual`` and the digit operators, built once on first
    use, describe them as they were.
    """

    basis_set: BasisSet
    safe_vectors: np.recarray
    weights: np.ndarray
    completeness_residual: float

    def __post_init__(self):
        if not len(self.safe_vectors) == len(self.weights) == self.d**self.basis_set.k:
            raise ValueError(f"a strategy has {self.d}**{self.basis_set.k} rows and weights, "
                             f"not {len(self.safe_vectors)} and {len(self.weights)}")

    @property
    def d(self) -> int:
        return self.basis_set.dim

    @property
    def etas(self) -> np.ndarray:
        return self.safe_vectors.eta

    def _rows(self, xs) -> np.ndarray:
        """Table rows of the guessing functions ``xs``, one per row of the (m, k) array-like."""
        return np.ravel_multi_index(np.asarray(xs).T, (self.d,) * self.basis_set.k)

    @cached_property
    def _digit_operators(self) -> np.ndarray:
        """:func:`digit_operators`, built on first read, then cached read-only."""
        bs, d = self.basis_set, self.d
        etas, xvals = self.etas, enumerate_guessing_functions(d, bs.k)
        q = np.empty((bs.k, d, d * d, d * d), dtype=complex)
        for b in range(bs.k):
            for i in range(d):
                mask = xvals[:, b] == i
                q[b, i] = (etas[mask].T * self.weights[mask]) @ etas[mask].conj()
        q.flags.writeable = False
        return q


def build_strategy(bs: BasisSet, residual_tol: float = qmath.RESIDUAL_TOL) -> Strategy:
    """Every safe vector, from one solve, and the POVM weights for a full basis set.

    Raises :class:`OverBudget`, before enumerating anything, when the set
    has more than ``MAX_GUESSING_FUNCTIONS`` guessing functions.
    """
    d = bs.dim
    if d**bs.k > MAX_GUESSING_FUNCTIONS:
        raise OverBudget(f"{d}**{bs.k} = {d**bs.k} guessing functions exceed the build "
                         f"budget {MAX_GUESSING_FUNCTIONS}")
    table = _safe_vectors(bs, enumerate_guessing_functions(d, bs.k), residual_tol)
    weights, residual = solve_povm_weights(table)
    return Strategy(basis_set=bs, safe_vectors=table, weights=weights,
                    completeness_residual=residual)


def digit_operators(strategy: Strategy) -> np.ndarray:
    """Alice's POVM coarse-grained to the digit she announces for each basis.

    Returns Q with shape (k, d, d*d, d*d), where

        Q[b, i] = sum over x with x(b) = i of p(x) |eta_x><eta_x|

    is the element for announcing i when Bob's basis was b. Completeness
    gives sum_i Q[b, i] = identity for every b. The POVM of n independent
    instances is a tensor product, so its element for the digits (b_s, i_s)
    is the product of the Q[b_s, i_s], one per instance.

    Q is built once per strategy, on first use, and every later call returns
    that same read-only array: an attack sweep against one strategy does
    not rebuild it.
    """
    return strategy._digit_operators


@dataclass
class ProductStrategy:
    """n independent runs of a base strategy, viewed as one big game.

    Safe product vectors and weights are exposed through indexed accessors
    rather than materialized tables; ``safe_vector_grouped`` returns the
    grouped order (A1..An B1..Bn), the layout the attack analysis uses.
    """

    base: Strategy
    n: int

    def __post_init__(self):
        checked_block_dim(self.base.d, self.n)

    @property
    def d(self) -> int:
        return self.base.d

    def guessing_tuples(self):
        xs = enumerate_guessing_functions(self.d, self.base.basis_set.k)
        return product(map(tuple, xs.tolist()), repeat=self.n)

    def weight(self, xs) -> float:
        return float(np.prod(self.base.weights[self.base._rows(xs)]))

    def safe_vector_grouped(self, xs) -> np.ndarray:
        # the Kronecker product of the (A_s, B_s) matrices is indexed (A1..An, B1..Bn)
        pairs = self.base.etas[self.base._rows(xs)].reshape(-1, self.d, self.d)
        return qmath.tensor(*pairs).reshape(-1)


def tensor_strategy(s: Strategy, n: int) -> ProductStrategy:
    return ProductStrategy(base=s, n=n)


def save_strategy(s: Strategy, path) -> None:
    table, xs = s.safe_vectors, enumerate_guessing_functions(s.d, s.basis_set.k)
    entries = [{"x": x, "eta": eta, "p": p, "residual": res} for x, eta, p, res in
               zip(xs.tolist(), complex_to_pairs(table.eta), s.weights.tolist(),
                   table.residual.tolist())]
    write_json(path, {"dim": s.d, "bases": complex_to_pairs(s.basis_set.vectors),
                      "omega": complex_to_pairs(omega(s.d)), "entries": entries})


def load_strategy(path) -> Strategy:
    """Read a strategy written by :func:`save_strategy`.

    Raises :class:`FormatError` when the file does not have that layout
    (d**k entries, entry j with guessing function j as its x and d*d eta
    entries), then :class:`NotMaximal` or :class:`Infeasible` on the verdict
    of :func:`_check_complete_and_maximal`.
    """
    data = read_json(path)
    try:
        bs = basis_set_from_json(data)
        dim = bs.dim
        source = pairs_to_complex(data["omega"])
        if source.shape != (dim * dim,) or np.max(np.abs(source - omega(dim))) > qmath.DEFAULT_TOL:
            raise ValueError(f"omega is not the maximally entangled state of dimension {dim}")
        entries = data["entries"]  # nothing longer than the entry list is built
        want = digits(np.arange(min(len(entries), dim**bs.k)), dim, bs.k).tolist()
        bad = next((j for j, (e, x) in enumerate(zip(entries, want)) if e["x"] != x), len(want))
        if bad < len(entries) or len(entries) != dim**bs.k:
            raise ValueError(f"entry {bad} of {len(entries)} is not guessing function {bad}: "
                             f"the entries list all {dim}**{bs.k} in order, first basis slowest")
        etas, weights, residuals = zip(*[(e["eta"], e["p"], e["residual"]) for e in entries])
        if any(len(eta) != dim * dim for eta in etas):
            raise ValueError(f"a safe vector does not have {dim * dim} entries")
        table = safe_vector_table(pairs_to_complex(etas).reshape(len(etas), -1), residuals)
        weights = np.array(weights, dtype=float)
        if not np.isfinite(weights).all() or not np.isfinite(table.residual).all():
            raise ValueError("a weight or residual is not finite")
        residual = _completeness_residual(table.eta, weights, dim * dim)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad strategy file {path}: {exc}") from exc
    _check_complete_and_maximal(weights, residual, "stored strategy")
    return Strategy(basis_set=bs, safe_vectors=table, weights=weights,
                    completeness_residual=residual)
