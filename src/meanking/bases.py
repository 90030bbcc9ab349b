"""Mutually unbiased bases for prime dimensions and basis-set validation.

A basis set is k orthonormal bases of a d-dimensional complex space, held
as one (k, d, d) array (:class:`BasisSet`). The retrodiction game is
winnable whenever the set is non-degenerate (the d*k rank-one projectors
span a k(d-1)+1 dimensional real space) and the pairwise outcome statistics
admit a classical joint model. d+1 mutually unbiased bases satisfy both;
this module generates them for prime d and checks the conditions
numerically for any supplied set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import qmath
from .serialize import (FormatError, complex_to_pairs, exact_keys, integer, pairs_to_complex,
                        read_json, reading, write_json)

SUPPORTED_GEN_DIMS = (2, 3, 5, 7)
# The size limits of every enumerating path. Entries of the largest dense array
# built: a block operator, a basis block's sampler amplitudes, the commutant form.
MAX_ARRAY_ENTRIES = 1 << 24
# d**k outcome tuples a strategy build or the classical-model LP enumerates:
# d=5 (15 625) fits, d=7 would hold 5 764 801 x 49 complex entries (about 4.5 GB)
MAX_GUESSING_FUNCTIONS = 50_000
MAX_VALIDATE_DIM = 16
# (b, i) grid points an attack-eval sweep evaluates over all its steps,
# S * (k*d)**n: 455 steps at d=3, n=2, each one full attack evaluation
MAX_SWEEP_POINTS = 1 << 16
# no entry of an orthonormal basis exceeds 1 in magnitude; one past this bound
# is refused, which keeps the checks' products of up to four entries finite
MAX_ENTRY = 1e6
# Gram-block entries per chunk of basis pairs in the orthonormal, unbiased and flat checks
_PAIR_OVERLAPS = 1 << 16


class UnsupportedDimension(ValueError):
    """Basis generation asked for a dimension outside the supported set."""


class Refused(RuntimeError):
    """A check or solve failed, or an input is over its size budget: the command exits 2."""


class OverBudget(Refused):
    """An input is larger than the computation it asks for may enumerate or allocate."""


@dataclass
class BasisSet:
    """k orthonormal bases of C^d as one (k, d, d) array: ``vectors[b, i]`` is vector i of basis b.

    Refuses, before any arithmetic, an array of another shape and one holding
    a number that is not finite or above ``MAX_ENTRY`` in magnitude.
    """

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=complex)
        shape = self.vectors.shape
        if len(shape) != 3 or shape[1] != shape[2] or 0 in shape:
            raise ValueError(f"a basis set is a (k, d, d) array with k, d >= 1, not {shape}")
        if not np.abs(self.vectors).max() <= MAX_ENTRY:  # NaN fails too
            raise ValueError(f"a basis vector holds a number not finite or above {MAX_ENTRY:g}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def k(self) -> int:
        return len(self.vectors)


@dataclass
class ValidationReport:
    orthonormal: bool
    unbiased: bool
    nondegenerate: bool
    span_rank: int
    classical_model: bool
    worst_violation: float

    def to_dict(self) -> dict:
        return asdict(self)


def digits(flat, base: int, n: int) -> np.ndarray:
    """Base-``base`` digits of each flat index, first slot slowest, as (len, n)."""
    return np.stack(np.unravel_index(flat, (base,) * n), axis=-1)


def enumerate_guessing_functions(d: int, k: int) -> np.ndarray:
    """All k-tuples over 0..d-1 as a (d**k, k) array: row j holds the base-d digits of j."""
    return digits(np.arange(d**k), d, k)


def gen_mub(d: int) -> BasisSet:
    """Generate d+1 mutually unbiased bases for prime d.

    For odd prime d the construction is the computational basis plus the d
    quadratic-phase bases with components omega**(a*s*s + i*s) / sqrt(d),
    omega = exp(2*pi*1j/d). For d = 2 those phases degenerate, so the three
    Pauli eigenbases (of Z, X and XZ) are used instead.
    """
    if d not in SUPPORTED_GEN_DIMS:
        raise UnsupportedDimension(
            f"unsupported dimension {d}; supported: {SUPPORTED_GEN_DIMS}"
        )
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        return BasisSet([np.eye(2), [[s, s], [s, -s]], [[s, 1j * s], [s, -1j * s]]])

    omega = np.exp(2j * np.pi / d)
    a, i, s = np.ogrid[:d, :d, :d]
    phases = omega ** ((a * s * s + i * s) % d) / np.sqrt(d)
    return BasisSet(np.concatenate([np.eye(d)[None], phases]))


def _gram_deviations(bs: BasisSet):
    """Worst deviations of the Gram blocks <v_a,i|v_b,j> over bases a <= b, from one product.

    Returns ``(orthonormal, unbiased, flat)``: of the blocks a = b from the
    identity; of the squared overlaps, a < b, from 1/d; and of those over d,
    the pairwise joint tables, from 1/d**2. One batched product per chunk of
    basis pairs forms every block, so each table is built once for all three;
    a chunk holds at most ``_PAIR_OVERLAPS`` entries, or one pair. With one
    basis the last two are 0.
    """
    d, v = bs.dim, bs.vectors
    first, second = qmath.triu_indices(bs.k)
    step = max(1, _PAIR_OVERLAPS // (d * d))
    orthonormal = unbiased = flat = 0.0
    for start in range(0, len(first), step):
        a, b = first[start:start + step], second[start:start + step]
        gram = v[a].conj() @ v[b].transpose(0, 2, 1)
        same = a == b
        orthonormal = max(orthonormal, float(np.max(np.abs(gram[same] - np.eye(d)), initial=0.0)))
        ov = np.abs(gram[~same]) ** 2
        unbiased = max(unbiased, float(np.max(np.abs(ov - 1.0 / d), initial=0.0)))
        flat = max(flat, float(np.max(np.abs(ov / d - 1.0 / d**2), initial=0.0)))
    return orthonormal, unbiased, flat


def check_nondegenerate(bs: BasisSet, tol: float = qmath.DEFAULT_TOL):
    """Real-linear rank of the k*d rank-one projectors; ok iff k(d-1)+1."""
    d, k, v = bs.dim, bs.k, bs.vectors
    coords = qmath.hermitian_coords(v[..., :, None] * v[..., None, :].conj())
    rank = qmath.matrix_rank(coords.reshape(k * d, d * d), tol)
    return rank == k * (d - 1) + 1, rank


def pairwise_joint(bs: BasisSet, a: int, b: int) -> np.ndarray:
    """Joint outcome table for two bases measured on the shared source.

    Entry (i, j) is |<Phi_b(i)|Phi_a(j)>|^2 / d; rows and columns both sum
    to 1/d, the whole table to 1.
    """
    if a == b:
        raise ValueError("pairwise_joint needs two distinct bases")
    if not (0 <= a < bs.k and 0 <= b < bs.k):
        raise ValueError(f"basis index out of range (k={bs.k})")
    ov = bs.vectors[b].conj() @ bs.vectors[a].T
    return np.abs(ov) ** 2 / bs.dim


def check_classical_model(bs: BasisSet, tol: float = qmath.DEFAULT_TOL):
    """Feasibility of a joint distribution reproducing all pairwise tables.

    Looks for a distribution over d**k outcome tuples q(j_1..j_k) whose
    pairwise marginals match :func:`pairwise_joint`. Returns
    ``(feasible, witness)``; the witness is the flat distribution array
    (C-order over the k outcome indices) or None when infeasible. A ``tol``
    outside qmath's [MIN_VALIDATE_TOL, MAX_TOL) raises ``ValueError``. When
    every pairwise table is within ``tol`` of 1/d**2, as for mutually unbiased
    bases, the uniform distribution is the witness; any other set falls back
    to the LP of :func:`_classical_model_lp`, refused with :class:`OverBudget`
    above ``MAX_GUESSING_FUNCTIONS`` variables, the build's budget.
    """
    qmath.check_tol(tol, qmath.MIN_VALIDATE_TOL, "validation floor")
    d, k = bs.dim, bs.k
    nvar = d**k
    if _gram_deviations(bs)[2] <= tol:  # every pairwise table within tol of 1/d**2
        return True, np.full(nvar, 1.0 / nvar)
    if nvar > MAX_GUESSING_FUNCTIONS:
        raise OverBudget(f"classical-model LP with {nvar} variables exceeds the supported size")
    return _classical_model_lp(bs, tol)


def _classical_model_lp(bs: BasisSet, tol: float):
    """The classical-model LP over d**k nonnegative variables with total mass 1.

    Variable j is the tuple ``enumerate_guessing_functions(d, k)[j]``; row
    p*d*d + x_a*d + x_b holds pair p = (a, b) of bases to its Born table.
    """
    import scipy.sparse

    d, k = bs.dim, bs.k
    xs = enumerate_guessing_functions(d, k)
    pairs = list(combinations(range(k), 2))
    rows = np.concatenate([p * d * d + xs[:, a] * d + xs[:, b] for p, (a, b) in enumerate(pairs)]
                          + [np.full(len(xs), len(pairs) * d * d)])
    rhs = np.concatenate([pairwise_joint(bs, b, a).ravel() for a, b in pairs] + [[1.0]])
    cols = np.tile(np.arange(len(xs)), len(pairs) + 1)
    a_eq = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(rhs.size, len(xs)))
    return qmath.lp_feasible(a_eq, rhs, feasibility_tol=tol)


def validate(bs: BasisSet, tol: float = qmath.DEFAULT_TOL) -> ValidationReport:
    """Run all structural checks at ``tol`` and collect them into one report.

    Raises ``ValueError`` when ``tol`` is outside qmath's [MIN_VALIDATE_TOL, MAX_TOL).
    """
    qmath.check_tol(tol, qmath.MIN_VALIDATE_TOL, "validation floor")
    if bs.dim > MAX_VALIDATE_DIM:
        raise OverBudget(f"validation supports d <= {MAX_VALIDATE_DIM}, not d = {bs.dim}")
    orth_worst, unb_worst, flat_worst = _gram_deviations(bs)  # every Gram block, once
    nondeg_ok, rank = check_nondegenerate(bs, tol)
    # the flat case needs no witness, and its witness would hold d**k entries
    classical_ok = flat_worst <= tol or check_classical_model(bs, tol)[0]
    return ValidationReport(
        orthonormal=orth_worst <= tol,
        unbiased=unb_worst <= tol,
        nondegenerate=nondeg_ok,
        span_rank=rank,
        classical_model=bool(classical_ok),
        worst_violation=max(orth_worst, unb_worst),
    )


def save_basis_set(bs: BasisSet, path) -> None:
    write_json(path, {"dim": bs.dim, "bases": complex_to_pairs(bs.vectors)})


def basis_set_from_json(data) -> BasisSet:
    """The basis set of the ``dim`` and ``bases`` fields of a basis-set or strategy file."""
    bs = BasisSet(pairs_to_complex(data["bases"]))
    if bs.dim != integer(data["dim"], "dim", 1):
        raise ValueError(f"bases have shape {bs.vectors.shape}, expected dimension {data['dim']}")
    return bs


def load_basis_set(path) -> BasisSet:
    with reading("basis-set", path):
        return basis_set_from_json(exact_keys(read_json(path), ["bases", "dim"], "basis set"))
