"""Alice's side of the retrodiction game.

She prepares a maximally entangled pair, receives Bob's post-measurement
system back, and measures a POVM whose outcomes are guessing functions:
assignments x with one outcome x(b) for every basis b. The POVM elements
are weighted projectors onto safe vectors eta_x, fixed by the condition

    <eta_x | phi_hat_b(i)> = delta(x(b), i)   for all b, i,

where phi_hat_b(i) is Alice's (unnormalized) conditional state after Bob
measured outcome i in basis b. The conditions are linear in x, so one
least-squares solve gives k*d generators g[b, j], one per basis and
outcome, and eta_x = sum_b g[b, x(b)] whatever d is. A :class:`Strategy`
holds only the generators and the weights, and derives the rest (the
completeness residual, the table) on first read. A measurement supported
on safe vectors never produces a wrong guess. The weights must make the
POVM complete with every weight strictly positive (a maximal strategy).
For mutually unbiased bases uniform weights do (Hayashi, Horibe &
Hashimoto, PRA 71, 052331, 2005); other basis sets fall back to a max-min
LP (Reimpell & Werner, PRA 75, 062334, 2007).

Under uniform weights no sum over the d**k guessing functions needs them
listed, because the digits of x are independent and uniform: each sum is a
moment of every basis's generators. With mu_b the mean of g[b, j] over j,
C_b = mean_j g[b, j] g[b, j]^dagger - mu_b mu_b^dagger and m = sum_b mu_b,

    sum_x |eta_x><eta_x| = d**k (m m^dagger + sum_b C_b),
    Q[b, i] = p d**(k-1) (v v^dagger + sum_(b' != b) C_b'),   v = g[b, i] + m - mu_b,

which give the uniform weight p = d**2 / trace, its completeness residual
and the digit operators Q. The residual of eta_x is the norm of a sum of
one miss vector r[b, x(b)] per basis, so with nu_b their mean over j,
||sum_b nu_b|| + sum_b max_j ||r[b, j] - nu_b|| bounds every one of them.

The table of all d**k safe vectors, a record array with the columns
``eta`` and ``residual`` and row j for the x whose base-d digits are j, is
a cached, read-only view, summed from the generators the way the solve
always summed them. Only what must enumerate builds it: the protocol
sampler's walked route (attacked runs, and honest ones on weights that are
not uniform), the lemma, the LP weights and the digit operators under them,
and the per-x check of a residual bound above its tolerance.
``MAX_GUESSING_FUNCTIONS`` bounds that view.

All indices in this module are 0-based.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import isqrt

import numpy as np

from . import bases, qmath
from .bases import (MAX_GUESSING_FUNCTIONS, BasisSet, OverBudget, Refused, basis_set_from_json,
                    digits, enumerate_guessing_functions)
from .serialize import (complex_to_pairs, exact_keys, integers, numbers, pairs_to_complex,
                        read_json, reading, write_json)

STRATEGY_FORMAT = "meanking-strategy-v2"


class ResidualTooLarge(Refused):
    """The safe-vector system is inconsistent for this basis set."""


class NotMaximal(Refused):
    """POVM weights exist but some guessing function gets weight zero."""


class Infeasible(Refused):
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


def conditional_states(bs: BasisSet) -> np.ndarray:
    """Each phi_hat_b(i) = (1 x |phi_b(i)><phi_b(i)|) Omega as row b*d + i, in one product."""
    d, k = bs.dim, bs.k
    v = bs.vectors.reshape(k * d, d)
    projectors = v[:, :, None] * v[:, None, :].conj()
    return (omega(d).reshape(d, d) @ projectors.transpose(0, 2, 1)).reshape(k * d, -1)


def safe_vector_table(etas, residuals) -> np.recarray:
    """The strategy table: a row per guessing function, columns ``eta`` and ``residual``."""
    etas = np.asarray(etas, dtype=complex)
    return np.rec.fromarrays([etas, residuals],
                             dtype=[("eta", complex, etas.shape[1:]), ("residual", float)])


def _check_size(bs: BasisSet) -> None:
    """:class:`OverBudget` when a strategy's largest array is over ``bases.MAX_ARRAY_ENTRIES``.

    That is k*d * max(k*d, d**4) entries: the solve's identity right-hand
    side, or the k*d digit operators on the d*d dimensional pair space.
    """
    kd, d = bs.k * bs.dim, bs.dim
    entries = kd * max(kd, d**4)
    if entries > bases.MAX_ARRAY_ENTRIES:
        raise OverBudget(f"a strategy for {bs.k} bases in dimension {d} needs {entries} "
                         f"entries, budget {bases.MAX_ARRAY_ENTRIES}")


def _generators(a: np.ndarray, d: int) -> np.ndarray:
    """The generators g[b, j] as (k, d, d*d), from one least-squares solve.

    conj(g[b, j]) is the minimum-norm solution of A y = e_(b*d + j), A the
    conditional states as rows, so conj(eta_x) = sum_b conj(g[b, x(b)])
    solves A y = r_x (r_x: a 1 at each b*d + x(b)).
    """
    gens, _ = qmath.lstsq(a, np.eye(len(a)))
    return gens.T.conj().reshape(-1, d, d * d)


def _miss_vectors(a: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """A conj(g[b, j]) - e_(b*d + j) per generator, as (k, d, k*d): a residual is a sum's norm."""
    k, d, _ = generators.shape
    misses = a @ generators.reshape(k * d, -1).T.conj() - np.eye(k * d)
    return misses.T.reshape(k, d, k * d)


def _residual_bound(misses: np.ndarray) -> float:
    """||sum_b nu_b|| + sum_b max_j ||r[b, j] - nu_b||, nu_b = mean_j r[b, j]: >= every residual."""
    nu = misses.sum(axis=1, keepdims=True) / misses.shape[1]
    spread = np.linalg.norm(misses - nu, axis=2).max(axis=1)
    return float(np.linalg.norm(nu.sum(axis=0)) + spread.sum())


def _guessing_functions(bs: BasisSet) -> np.ndarray:
    """Every guessing function; :class:`OverBudget`, before any is listed, past the budget."""
    d, k = bs.dim, bs.k
    if d**k > MAX_GUESSING_FUNCTIONS:
        raise OverBudget(f"{d}**{k} = {d**k} guessing functions exceed the enumeration budget "
                         f"{MAX_GUESSING_FUNCTIONS}")
    return enumerate_guessing_functions(d, k)


def _table(generators: np.ndarray, misses: np.ndarray, xs: np.ndarray) -> np.recarray:
    """Table rows of the guessing functions ``xs`` (rows of k digits), summed basis by basis."""
    k = len(generators)
    etas = sum(generators[b, xs[:, b]] for b in range(k))
    residuals = np.linalg.norm(sum(misses[b, xs[:, b]] for b in range(k)), axis=1)
    return safe_vector_table(etas, residuals)


def _check_residuals(table: np.recarray, xs: np.ndarray, residual_tol: float) -> None:
    """:class:`ResidualTooLarge` for the first row of ``table`` over ``residual_tol``."""
    bad = np.flatnonzero(table.residual > residual_tol)
    if bad.size:
        raise ResidualTooLarge(f"safe vector for x={tuple(xs[bad[0]].tolist())} has residual "
                               f"{table.residual[bad[0]]:.3e} > {residual_tol:.1e}")


def solve_safe_vector(bs: BasisSet, x, residual_tol: float = qmath.RESIDUAL_TOL) -> np.record:
    """Minimum-norm solution of the safe-vector conditions for one x, as a table row.

    Raises ``ValueError`` for an x that is not a guessing function of the
    set or a ``residual_tol`` outside qmath's (0, MAX_TOL), then
    :class:`ResidualTooLarge` when x's residual is over it.
    """
    d, k = bs.dim, bs.k
    x = tuple(int(v) for v in x)
    if len(x) != k or any(v < 0 or v >= d for v in x):
        raise ValueError(f"guessing function {x} invalid for k={k}, d={d}")
    qmath.check_tol(residual_tol, qmath.POSITIVE_FLOOR, "positive floor")
    _check_size(bs)
    a, xs = conditional_states(bs), np.array([x])
    generators = _generators(a, d)
    row = _table(generators, _miss_vectors(a, generators), xs)
    _check_residuals(row, xs, residual_tol)
    return row[0]


def _moments(generators: np.ndarray):
    """mu_b, C_b (both stacked over b) and T = m m^dagger + sum_b C_b of the module docstring."""
    d = generators.shape[1]
    mu = generators.sum(axis=1) / d
    cov = (np.swapaxes(generators, 1, 2) @ generators.conj() / d
           - mu[:, :, None] * mu[:, None, :].conj())
    m = mu.sum(axis=0)
    return mu, cov, np.outer(m, m.conj()) + cov.sum(axis=0)


def _completeness_residual(etas: np.ndarray, weights: np.ndarray, dim2: int) -> float:
    """Max-norm distance of sum_x p(x) |eta_x><eta_x| from the dim2 x dim2 identity."""
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or NaN
        total = (etas.T * weights) @ etas.conj()
        return float(np.max(np.abs(total - np.eye(dim2))))


def _check_complete_and_maximal(min_weight: float, residual: float, what: str) -> None:
    """The one verdict on a solved or stored strategy, at qmath's tolerances; NaN fails it."""
    if not min_weight > qmath.POSITIVITY_TOL:
        raise NotMaximal(f"{what} has weight {min_weight:.3e}; strategy not maximal")
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
    _check_complete_and_maximal(float(point.min()), residual, "solved strategy")
    return point, residual


@dataclass(frozen=True, eq=False)
class Strategy:
    """A maximal strategy for :func:`omega`: weight j, and table row j, for guessing function j.

    It is given by its generators, shape (k, d, d*d), as :func:`build_strategy`
    and a v2 file give it, or by its whole ``table``, as a v1 file or a table
    made by hand gives it; by exactly one of the two. Uniform weights may be
    one value broadcast read-only to all d**k. The arrays are not edited after
    construction: the completeness residual, the uniform weight, the table view
    and the digit operators are derived from them on first read and cached.
    """

    basis_set: BasisSet
    weights: np.ndarray
    generators: np.ndarray | None = None
    table: np.recarray | None = None

    def __post_init__(self):
        bs, count = self.basis_set, self.d**self.basis_set.k
        if (self.generators is None) == (self.table is None):
            raise ValueError("a strategy is given by its generators or by its table, one of them")
        shape = (bs.k, bs.dim, bs.dim**2)
        if self.generators is not None and self.generators.shape != shape:
            raise ValueError(f"generators have shape {self.generators.shape}, not {shape}")
        rows = count if self.table is None else len(self.table)
        if not rows == len(self.weights) == count:
            raise ValueError(f"a strategy has {self.d}**{bs.k} rows and weights, "
                             f"not {rows} and {len(self.weights)}")

    @property
    def d(self) -> int:
        return self.basis_set.dim

    @cached_property
    def safe_vectors(self) -> np.recarray:
        """The table: the one given, or a read-only view built from the generators on first read.

        Building it raises :class:`OverBudget` past ``MAX_GUESSING_FUNCTIONS``.
        """
        if self.table is not None:
            return self.table
        xs = _guessing_functions(self.basis_set)
        table = _table(self.generators, self._misses, xs)
        table.flags.writeable = False
        return table

    @property
    def etas(self) -> np.ndarray:
        return self.safe_vectors.eta

    @cached_property
    def _misses(self) -> np.ndarray:
        return _miss_vectors(conditional_states(self.basis_set), self.generators)

    @cached_property
    def _generator_moments(self):
        return _moments(self.generators)

    @property
    def max_residual(self) -> float:
        """The bound of the module docstring on every residual, or the given table's largest one."""
        if self.table is not None:
            return float(self.table.residual.max())
        return _residual_bound(self._misses)

    @cached_property
    def uniform_weight(self) -> float | None:
        """The one weight of every guessing function, else None; O(1) for a one-value broadcast."""
        w = self.weights
        return float(w[0]) if w.strides == (0,) or w.min() == w.max() else None

    @property
    def min_weight(self) -> float:
        """The smallest weight; the uniform one, when there is one, read without a scan."""
        return float(self.weights.min()) if self.uniform_weight is None else self.uniform_weight

    @cached_property
    def completeness_residual(self) -> float:
        """Max-norm distance of sum_x p(x) |eta_x><eta_x| from the identity.

        Under uniform weights p * d**k * T from the generators (module
        docstring), else summed over the table: the choice of :func:`digit_operators`.
        """
        p = self.uniform_weight
        if self.generators is None or p is None:
            return _completeness_residual(self.etas, self.weights, self.d**2)
        total = p * len(self.weights) * self._generator_moments[2]
        return float(np.max(np.abs(total - np.eye(self.d**2))))

    def _rows(self, xs) -> np.ndarray:
        """Table rows of the guessing functions ``xs``, one per row of the (m, k) array-like."""
        return np.ravel_multi_index(np.asarray(xs).T, (self.d,) * self.basis_set.k)

    @cached_property
    def _digit_operators(self) -> np.ndarray:
        """:func:`digit_operators`, built on first read, then cached read-only.

        In closed form from the generators under uniform weights; summed over
        the table otherwise.
        """
        bs, d, p = self.basis_set, self.d, self.uniform_weight
        _check_size(bs)
        if self.generators is not None and p is not None:
            mu, cov, _ = self._generator_moments
            v = self.generators + (mu.sum(axis=0) - mu)[:, None, :]
            rest = cov.sum(axis=0) - cov  # sum_(b' != b) C_b'
            q = p * d ** (bs.k - 1) * (v[..., :, None] * v[..., None, :].conj() + rest[:, None])
        else:
            etas, xvals = self.etas, _guessing_functions(bs)
            q = np.empty((bs.k, d, d * d, d * d), dtype=complex)
            for b in range(bs.k):
                for i in range(d):
                    mask = xvals[:, b] == i
                    q[b, i] = (etas[mask].T * self.weights[mask]) @ etas[mask].conj()
        q.flags.writeable = False
        return q

    @cached_property
    def _digit_table(self) -> np.ndarray | None:
        """:func:`digit_table`, built on first read, then cached read-only."""
        if self.generators is None or self.uniform_weight is None:
            return None
        bs, q = self.basis_set, self._digit_operators
        frames = qmath.kron(bs.vectors, bs.vectors.conj(), batch=1)[:, None]  # F_b, rows (j, j')
        rotated = frames @ q @ np.swapaxes(frames.conj(), -1, -2)
        dim2 = rotated.shape[-1]
        diagonals = np.diagonal(rotated, axis1=2, axis2=3).real
        table = diagonals.mean(axis=0)
        roundoff = (dim2 + 2) * qmath.UNIT_ROUNDOFF
        bound = 2 * 2**0.5 * roundoff / (1 - roundoff) * np.trace(q, axis1=2, axis2=3).real.max()
        off = np.abs(rotated[..., ~np.eye(dim2, dtype=bool)]).max()
        if not (off <= bound and np.abs(diagonals - table).max() <= 2 * bound):
            return None
        table = table.reshape((self.d,) * 3)
        table.flags.writeable = False
        return table


def build_strategy(bs: BasisSet, residual_tol: float = qmath.RESIDUAL_TOL) -> Strategy:
    """The generators, from one solve, and the POVM weights for a full basis set.

    Nothing is enumerated when the residual bound is within ``residual_tol``
    and the uniform weight completes the POVM, as for mutually unbiased
    bases. Otherwise every residual is checked, or the max-min weights are
    solved for by :func:`_max_min_weights_lp`, over the table of all d**k
    guessing functions. Raises ``ValueError`` for a ``residual_tol``
    outside qmath's (0, MAX_TOL); :class:`OverBudget` for a set whose strategy arrays are
    over ``bases.MAX_ARRAY_ENTRIES``, or which must enumerate past
    ``MAX_GUESSING_FUNCTIONS``; :class:`ResidualTooLarge` for the first x over
    ``residual_tol``; and :class:`NotMaximal` or :class:`Infeasible` on the
    verdict of :func:`_check_complete_and_maximal`.
    """
    qmath.check_tol(residual_tol, qmath.POSITIVE_FLOOR, "positive floor")
    _check_size(bs)
    d, count = bs.dim, bs.dim**bs.k
    a = conditional_states(bs)
    generators = _generators(a, d)
    misses, moments = _miss_vectors(a, generators), _moments(generators)
    # the uniform candidate, in closed form; its cached properties get what they'd compute
    weight = d * d / (count * float(np.trace(moments[2]).real))
    strategy = Strategy(bs, np.broadcast_to(weight, (count,)), generators)
    vars(strategy).update(_misses=misses, _generator_moments=moments, uniform_weight=weight)
    if _residual_bound(misses) > residual_tol:
        _check_residuals(strategy.safe_vectors, _guessing_functions(bs), residual_tol)
    if strategy.completeness_residual > qmath.COMPLETENESS_TOL:
        table = strategy.safe_vectors
        strategy = Strategy(bs, _max_min_weights_lp(table.eta), generators)
        vars(strategy).update(_misses=misses, _generator_moments=moments, safe_vectors=table)
    _check_complete_and_maximal(strategy.min_weight, strategy.completeness_residual,
                                "solved strategy")
    return strategy


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
    not rebuild it. Under uniform weights it comes from the generators in
    closed form (module docstring), which lists no guessing function; under
    other weights, or for a strategy given as its table, it is summed over
    the table. Raises :class:`OverBudget` when its k*d operators on the pair
    space are over ``bases.MAX_ARRAY_ENTRIES``, or when it must list more
    than ``MAX_GUESSING_FUNCTIONS`` guessing functions.

    On a complete set of d + 1 mutually unbiased bases under the uniform
    weight, Q has a closed form. With |P_b(j)> = conj(phi_b(j)) x phi_b(j)
    on the (A, B) pair and Pi_b = sum_j |P_b(j)><P_b(j)|,

        Q[b, i] = (1 - Pi_b) / d + |P_b(i)><P_b(i)|,

    because such a set is a complex projective 2-design (Klappenecker &
    Roetteler, ISIT 2005, 1740), so sum_(b, j) |P_b(j)><P_b(j)| = 1 +
    |1><1| with |1> the unnormalized identity vector. In the product basis
    conj(phi_b(j)) x phi_b(j') of basis b, Q[b, i] is therefore diagonal,
    with entry delta(j, i) where j = j' and 1/d elsewhere, the same for
    every b (:func:`digit_table`).
    """
    return strategy._digit_operators


def digit_table(strategy: Strategy) -> np.ndarray | None:
    """The digit operators' diagonal in each basis's own product frame, or None.

    Returns T with shape (d, d, d), T[i, j, j'] the diagonal entry of Q[b,
    i] (:func:`digit_operators`) at conj(phi_b(j)) x phi_b(j'), when every
    Q[b, i] is diagonal in its basis's frame and the diagonals agree over b,
    both up to rounding; T is their mean over b. On a complete MUB set that
    is the closed form of :func:`digit_operators`, whatever unitary turns
    the set. A biased set gets None, and so do LP weights and a strategy
    given as its table, without a look at Q.

    The frame is F_b = Phi_b x conj(Phi_b), Phi_b the rows phi_b(j), and the
    rotation is two complex products of inner dimension N = d*d. To first
    order each is off by at most sqrt(2) gamma_(N+2) |A| |B| entrywise,
    gamma_m = m u / (1 - m u) with u the unit roundoff (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sections 3.5 and 3.6).
    The rows of |F_b| are unit vectors, and ||Q||_2 <= ||Q||_F <= tr Q for
    a positive operator, so every entry of the rotated Q is within beta = 2
    sqrt(2) gamma_(N+2) tr Q of the exact one, tr Q taken as the largest
    over (b, i). That is the gate: an off-diagonal entry above beta, or a
    diagonal entry further than 2 beta from the mean over b, is not
    rounding. Q and the frames carry rounding of their own from the solve
    and from the bases, of order u tr Q; on ``gen_mub(d)``, d = 2, 3, 5 and
    7, the off-diagonal entries are at most 6.1e-16, against beta = 3.8e-15
    at d = 2.

    Built once per strategy, like the digit operators, and read-only.
    """
    return strategy._digit_table


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
    """Write a strategy: its generators in the v2 layout, or its table in the v1 layout.

    A v2 file holds ``format``, ``dim``, ``bases``, ``generators`` (k, d, d*d)
    and ``weights``, one number when every guessing function has the same
    weight and a list of d**k otherwise. A strategy given as its table has
    no generators, and only the v1 layout stores a table: ``dim``, ``bases``,
    ``omega`` and one entry with ``x``, ``eta``, ``p`` and ``residual`` per row.
    """
    bs = s.basis_set
    if s.table is not None:
        xs = enumerate_guessing_functions(s.d, bs.k)
        entries = [{"x": x, "eta": eta, "p": p, "residual": res} for x, eta, p, res in
                   zip(xs.tolist(), complex_to_pairs(s.table.eta), s.weights.tolist(),
                       s.table.residual.tolist())]
        write_json(path, {"dim": s.d, "bases": complex_to_pairs(bs.vectors),
                          "omega": complex_to_pairs(omega(s.d)), "entries": entries})
        return
    weight = s.uniform_weight
    write_json(path, {"format": STRATEGY_FORMAT, "dim": s.d, "bases": complex_to_pairs(bs.vectors),
                      "generators": complex_to_pairs(s.generators),
                      "weights": s.weights.tolist() if weight is None else weight})


def _read_v2(data) -> Strategy:
    """The strategy of a v2 file's fields; :class:`Strategy` checks their shapes."""
    keys = ["bases", "dim", "format", "generators", "weights"]
    bs = basis_set_from_json(exact_keys(data, keys, "v2 strategy"))
    if data["format"] != STRATEGY_FORMAT:
        raise ValueError(f"unknown strategy format {reprlib.repr(data['format'])}")
    _check_size(bs)
    generators = pairs_to_complex(data["generators"])
    weights = numbers(data["weights"], "weights")
    if weights.ndim > 1:
        raise ValueError("weights must be one number or a list of numbers")
    weights = weights if weights.ndim else np.broadcast_to(weights, (bs.dim**bs.k,))
    return Strategy(basis_set=bs, weights=weights, generators=generators)


def _read_v1(data) -> Strategy:
    """The strategy of a v1 file's fields, as its table."""
    entries = exact_keys(data, ["bases", "dim", "entries", "omega"], "v1 strategy")["entries"]
    for j, e in enumerate(entries):
        exact_keys(e, ["eta", "p", "residual", "x"], f"entry {j}")
    bs = basis_set_from_json(data)
    dim, k = bs.dim, bs.k  # nothing longer than the entry list is built
    source = pairs_to_complex(data["omega"])
    if source.shape != (dim * dim,) or np.max(np.abs(source - omega(dim))) > qmath.DEFAULT_TOL:
        raise ValueError(f"omega is not the maximally entangled state of dimension {dim}")
    rows = min(([len(e["x"]) == k for e in entries] + [False]).index(False), dim**k)  # k digits
    got = np.array(integers([v for e in entries for v in e["x"]], "x"))[:rows * k].reshape(rows, k)
    wrong = np.flatnonzero((got != digits(np.arange(rows), dim, k)).any(axis=1))
    bad = int(wrong[0]) if wrong.size else rows
    if bad < len(entries) or len(entries) != dim**k:
        raise ValueError(f"entry {bad} of {len(entries)} is not guessing function {bad}: "
                         f"the entries list all {dim}**{k} in order, first basis slowest")
    etas, values = zip(*[(e["eta"], (e["p"], e["residual"])) for e in entries])
    if any(len(eta) != dim * dim for eta in etas):
        raise ValueError(f"a safe vector does not have {dim * dim} entries")
    values = numbers(values, "a weight or residual")
    if values.shape != (len(entries), 2):
        raise ValueError("a weight or residual is not a number")
    table = safe_vector_table(pairs_to_complex(etas).reshape(len(etas), -1), values[:, 1])
    return Strategy(basis_set=bs, weights=values[:, 0].copy(), table=table)


def load_strategy(path) -> Strategy:
    """Read a strategy written by :func:`save_strategy`, in either layout.

    A file with a ``format`` field is v2; one without is v1. Raises
    :class:`FormatError` when the file does not have its layout (exactly
    its layout's keys, and each entry's, checked before any field is read;
    a v1 file lists d**k entries, entry j with guessing function j as its x
    and d*d eta entries, and the maximally entangled ``omega``), then
    :class:`NotMaximal` or :class:`Infeasible` on the verdict of
    :func:`_check_complete_and_maximal` on the derived completeness residual:
    closed form for a v2 file with uniform weights, else over its d**k safe
    vectors, which raises :class:`OverBudget` past ``MAX_GUESSING_FUNCTIONS``
    for a v2 file (a v1 file lists them already).
    """
    with reading("strategy", path):
        data = read_json(path)
        s = (_read_v2 if isinstance(data, dict) and "format" in data else _read_v1)(data)
    with np.errstate(over="ignore", invalid="ignore"):  # a file's numbers past the float range
        _check_complete_and_maximal(s.min_weight, s.completeness_residual, "stored strategy")
    return s
