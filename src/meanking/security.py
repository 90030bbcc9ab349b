"""Commutant checks behind the zero-error security argument.

The security of the protocol reduces to one linear-algebra fact: an
operator that has every safe (product) vector as an eigenvector must be a
multiple of the identity. This module verifies that numerically. Each safe
vector eta contributes the linear condition "E eta is parallel to eta",
encoded as (1 - P_eta) E eta = 0 with P_eta the projector onto eta. Summed,
they are one Hermitian positive semidefinite form on vec(E),
vec(E)^H G vec(E) = sum_eta ||(1 - P_eta) E eta||^2, of size D^2 x D^2 for
vectors of dimension D however many there are. One ``eigh`` of G decides
the claim: it holds iff exactly one eigenvalue is at or below ``tol`` times
the largest (with the identity as witness). The eigenvalues are the squared
singular values of the per-vector stack of conditions, so ``tol`` bounds
those squares. The smallest eigenvalue above the cutoff, over the largest,
is reported as the margin of that decision.

Blocks of n instances need no larger form. For a maximal strategy
(every p(x) > 0) completeness makes the nullspace the fixed points of
Phi(E) = sum_x p(x) <eta_x|E|eta_x> / ||eta_x||^2 |eta_x><eta_x|, a
self-adjoint map with spectrum in [0, 1]; on mutually unbiased bases
G = nx (1 - Phi) and the margin is 1 - 1/d. n blocks measure with its n-th
tensor power, whose fixed points are the n-th tensor power of Phi's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import bases, qmath
from .retrodiction import Strategy, checked_block_dim


@dataclass
class CommutantReport:
    dim: int
    n: int
    constraint_rank: int
    solution_dim: int
    witness: np.ndarray
    tol: float
    spectral_gap: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witness"}


# entries of the rows w that constraint_matrix builds at once (16 MB); at least one row
_FORM_ENTRIES = 1 << 20


def constraint_matrix(etas: np.ndarray) -> np.ndarray:
    """The form G = 1 (x) conj(S) - sum_eta w w^H of the eigenvector conditions of the rows eta.

    S = sum_eta |eta><eta| and w = (eta (x) conj(eta)) / ||eta||; vec(E) is
    row-major. E lies in G's nullspace iff every eta is one of its eigenvectors.
    The w w^H terms are subtracted over chunks of at most ``_FORM_ENTRIES``
    entries of w, so memory beyond G is bounded whatever the number of rows.
    """
    etas = np.asarray(etas, dtype=complex)
    nvec, dim = etas.shape
    norms = np.linalg.norm(etas, axis=1)
    form = qmath.kron(np.eye(dim), etas.conj().T @ etas)
    step = max(1, _FORM_ENTRIES // (dim * dim))
    for start in range(0, nvec, step):
        chunk = etas[start:start + step]
        w = (chunk[:, :, None] * chunk.conj()[:, None, :]).reshape(len(chunk), dim * dim)
        w /= norms[start:start + step, None]
        form -= w.T @ w.conj()
    return form


def _check_form_tol(dim: int, tol: float) -> None:
    """Refuse a ``tol`` outside [D**2 * eps, MAX_TOL) for the form of vectors of dimension D."""
    size = dim * dim
    qmath.check_tol(tol, size * np.finfo(float).eps, "rounding floor",
                    f" of the {size} x {size} commutant form")


def constraint_nullspace(etas: np.ndarray, tol: float = qmath.DEFAULT_TOL):
    """Nullspace of the eigenvector conditions, from one ``eigh`` of their form.

    Returns ``(dimension, vectors, eigenvalues)``: the eigenvalues ascend,
    row j of ``vectors`` is the eigenvector of eigenvalue j, and the
    dimension counts the eigenvalues at or below ``tol`` times the largest,
    so the first ``dimension`` rows span the nullspace. Raises
    ``ValueError`` when ``tol`` is below the form's rounding floor,
    D**2 * eps for vectors of dimension D: ``eigh`` cannot resolve a null
    eigenvalue below that, so such a cutoff would report no solution; nor
    can it reach ``qmath.MAX_TOL``, where every direction counts as one.
    """
    _check_form_tol(np.shape(etas)[1], tol)
    evals, evecs = np.linalg.eigh(constraint_matrix(etas))
    return int(np.sum(evals <= tol * evals[-1])), evecs.T, evals


def eigenvector_constraint_dim(safe_vectors, tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """Solution space of "E has every ``eta`` of a strategy table as an eigenvector".

    Requires the safe vectors to span the doubled space (they do for any
    maximal strategy); the expected result is solution dimension 1 with a
    witness proportional to the identity. Raises :class:`OverBudget`, before
    any array is built, when the largest array on the way to the form,
    max(nvec, dim**2) * dim**2 entries, exceeds ``bases.MAX_ARRAY_ENTRIES``:
    the d=5 MUB strategy counts 15 625 * 625 = 9.8 million, though
    :func:`constraint_matrix` builds them in chunks of 2**20 (16 MB). A
    ``tol`` that :func:`constraint_nullspace` refuses is refused first,
    before the span check's SVD.
    """
    etas = safe_vectors.eta
    nvec, dim = etas.shape
    _check_form_tol(dim, tol)
    entries = max(nvec, dim * dim) * dim * dim
    if entries > bases.MAX_ARRAY_ENTRIES:
        raise bases.OverBudget(f"commutant check too large: {nvec} vectors of dimension {dim} "
                               f"need {entries} entries, budget {bases.MAX_ARRAY_ENTRIES}")
    if qmath.matrix_rank(etas) < dim:
        raise ValueError("safe vectors do not span the space; commutant check undefined")
    dim_null, vectors, evals = constraint_nullspace(etas, tol)
    gap = float(evals[dim_null] / evals[-1]) if dim_null < evals.size else 0.0
    return CommutantReport(dim=int(round(np.sqrt(dim))), n=1, constraint_rank=evals.size - dim_null,
                           solution_dim=dim_null, witness=vectors[0].reshape(dim, dim), tol=tol,
                           spectral_gap=gap)


def product_commutant_check(strategy: Strategy, n: int,
                            tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """The commutant check over the safe product vectors of n blocks, from one block's.

    m solutions at n=1 give m**n (module docstring); the n-block witness is
    the n-th tensor power of the single-block witness the report keeps, and
    the spectral gap is the single block's, the only rank decision made.
    Raises :class:`OverBudget` when n blocks are over the block budget.
    """
    checked_block_dim(strategy.d, n)
    single = eigenvector_constraint_dim(strategy.safe_vectors, tol)
    solution_dim = single.solution_dim**n
    return replace(single, n=n, solution_dim=solution_dim,
                   constraint_rank=strategy.d ** (4 * n) - solution_dim)


def witness_identity_deviation(report: CommutantReport) -> float:
    """Relative distance sin(theta_n) of the n-block witness from the scalar line.

    theta is the angle to the identity, and cos(theta_n) = cos(theta_1)**n;
    log1p and expm1 keep a 1e-16 deviation that sqrt(1 - cos^(2n)) rounds to 0.
    """
    w = report.witness
    dim = w.shape[0]
    scalar = (np.trace(w) / dim) * np.eye(dim)
    sin = float(np.linalg.norm(w - scalar) / np.linalg.norm(w))
    with np.errstate(divide="ignore"):  # a traceless witness has sin = 1
        return float(np.sqrt(-np.expm1(report.n * np.log1p(-min(sin * sin, 1.0)))))
