"""Commutant checks behind the zero-error security argument.

The security of the protocol reduces to one linear-algebra fact: an
operator that has every safe (product) vector as an eigenvector must be a
multiple of the identity. This module verifies that numerically. Each safe
vector eta contributes the linear condition "E eta is parallel to eta",
encoded as (1 - P_eta) E eta = 0 with P_eta the projector onto eta; the
stacked system's nullspace is computed exactly once, and the claim holds
iff its dimension is 1 (with the identity as witness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .bases import OverBudget
from .retrodiction import Strategy, tensor_strategy

# entries of the dense constraint stack, nvec * dim**3 at 16 bytes each: d=2,
# n=2 needs 262 144; d=5, n=1 would need 244 million (3.9 GB)
MAX_CONSTRAINT_ENTRIES = 1 << 20


@dataclass
class CommutantReport:
    dim: int
    n: int
    constraint_rank: int
    solution_dim: int
    witness: np.ndarray
    tol: float

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n": self.n,
            "solution_dim": self.solution_dim,
            "constraint_rank": self.constraint_rank,
            "tol": self.tol,
        }


def constraint_matrix(etas: np.ndarray) -> np.ndarray:
    """Stack the eigenvector conditions for a family of vectors.

    For each row eta the block maps vec(E) (row-major) to
    (1 - P_eta) E eta; an operator lies in the nullspace of the stack iff
    every eta is one of its eigenvectors.
    """
    etas = np.asarray(etas, dtype=complex)
    nvec, dim = etas.shape
    blocks = np.empty((nvec * dim, dim * dim), dtype=complex)
    eye = np.eye(dim)
    for j in range(nvec):
        eta = etas[j]
        norm2 = float(np.vdot(eta, eta).real)
        proj = eye - np.outer(eta, eta.conj()) / norm2
        blocks[j * dim : (j + 1) * dim] = np.kron(proj, eta.reshape(1, -1))
    return blocks


def _require_stack_budget(nvec: int, dim: int) -> None:
    """Raise :class:`OverBudget` unless the (nvec*dim) x dim**2 stack fits the budget."""
    if nvec * dim**3 > MAX_CONSTRAINT_ENTRIES:
        raise OverBudget(f"commutant check too large: {nvec} vectors of dimension {dim} stack "
                         f"{nvec * dim**3} entries, budget {MAX_CONSTRAINT_ENTRIES}")


def constraint_nullspace(etas: np.ndarray, tol: float = qmath.DEFAULT_TOL):
    """Nullspace (dimension, basis, rank) of the stacked eigenvector system."""
    m = constraint_matrix(etas)
    dim_null, basis = qmath.nullspace(m, tol)
    return dim_null, basis, m.shape[1] - dim_null


def _commutant_report(etas: np.ndarray, d: int, n: int, tol: float) -> CommutantReport:
    """Spanning precondition, stacked nullspace and report for one vector family."""
    dim = etas.shape[1]
    if qmath.matrix_rank(etas) < dim:
        raise ValueError("safe vectors do not span the space; commutant check undefined")
    dim_null, basis, rank = constraint_nullspace(etas, tol)
    return CommutantReport(dim=d, n=n, constraint_rank=rank, solution_dim=dim_null,
                           witness=basis[0].reshape(dim, dim), tol=tol)


def eigenvector_constraint_dim(safe_vectors, tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """Solution space of "E has every safe vector as an eigenvector".

    Requires the safe vectors to span the doubled space (they do for any
    maximal strategy); the expected result is solution dimension 1 with a
    witness proportional to the identity. Raises :class:`OverBudget`, before
    any array is built, when the stack exceeds ``MAX_CONSTRAINT_ENTRIES``.
    """
    dim = safe_vectors[0].eta.size
    _require_stack_budget(len(safe_vectors), dim)
    etas = np.asarray([sv.eta for sv in safe_vectors])
    return _commutant_report(etas, int(round(np.sqrt(dim))), 1, tol)


def product_commutant_check(strategy: Strategy, n: int,
                            tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """Same commutant computation and budget over all safe product vectors of n blocks."""
    _require_stack_budget(len(strategy.safe_vectors) ** n, strategy.d ** (2 * n))
    ps = tensor_strategy(strategy, n)
    etas = np.asarray([ps.safe_vector(xs) for xs in ps.guessing_tuples()])
    return _commutant_report(etas, strategy.d, n, tol)


def witness_identity_deviation(report: CommutantReport) -> float:
    """Relative distance of the witness from the scalar line."""
    w = report.witness
    dim = w.shape[0]
    scalar = (np.trace(w) / dim) * np.eye(dim)
    return float(np.linalg.norm(w - scalar) / np.linalg.norm(w))
