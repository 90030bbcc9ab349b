"""Commutant checks behind the zero-error security argument.

The security of the protocol reduces to one linear-algebra fact: an
operator that has every safe (product) vector as an eigenvector must be a
multiple of the identity. This module verifies that numerically. Each safe
vector eta contributes the linear condition "E eta is parallel to eta",
encoded as (1 - P_eta) E eta = 0 with P_eta the projector onto eta; the
stacked system's nullspace is computed exactly once, and the claim holds
iff its dimension is 1 (with the identity as witness).

Blocks of n instances need no larger system. For a maximal strategy
(every p(x) > 0) completeness makes the stacked nullspace the fixed points of
Phi(E) = sum_x p(x) <eta_x|E|eta_x> / ||eta_x||^2 |eta_x><eta_x|, a
self-adjoint map with spectrum in [0, 1]. n blocks measure with its n-th
tensor power, whose fixed points are the n-th tensor power of Phi's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import qmath
from .bases import OverBudget
from .retrodiction import MAX_PRODUCT_DIM, Strategy

# entries of the dense single-block constraint stack, nvec * dim**3 at 16
# bytes each: d=3 needs 59 049; d=5 would need 244 million (3.9 GB)
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


def constraint_nullspace(etas: np.ndarray, tol: float = qmath.DEFAULT_TOL):
    """Nullspace (dimension, basis, rank) of the stacked eigenvector system."""
    m = constraint_matrix(etas)
    dim_null, basis = qmath.nullspace(m, tol)
    return dim_null, basis, m.shape[1] - dim_null


def eigenvector_constraint_dim(safe_vectors, tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """Solution space of "E has every ``eta`` of a strategy table as an eigenvector".

    Requires the safe vectors to span the doubled space (they do for any
    maximal strategy); the expected result is solution dimension 1 with a
    witness proportional to the identity. Raises :class:`OverBudget`, before
    any array is built, when the stack exceeds ``MAX_CONSTRAINT_ENTRIES``.
    """
    etas = safe_vectors.eta
    nvec, dim = etas.shape
    if nvec * dim**3 > MAX_CONSTRAINT_ENTRIES:
        raise OverBudget(f"commutant check too large: {nvec} vectors of dimension {dim} stack "
                         f"{nvec * dim**3} entries, budget {MAX_CONSTRAINT_ENTRIES}")
    if qmath.matrix_rank(etas) < dim:
        raise ValueError("safe vectors do not span the space; commutant check undefined")
    dim_null, basis, rank = constraint_nullspace(etas, tol)
    return CommutantReport(dim=int(round(np.sqrt(dim))), n=1, constraint_rank=rank,
                           solution_dim=dim_null, witness=basis[0].reshape(dim, dim), tol=tol)


def product_commutant_check(strategy: Strategy, n: int,
                            tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """The commutant check over the safe product vectors of n blocks, from one block's.

    m solutions at n=1 give m**n (module docstring); the n-block witness is
    the n-th tensor power of the single-block witness the report keeps.
    Raises :class:`OverBudget` when d**(2n) exceeds ``MAX_PRODUCT_DIM``; with
    d >= 2, n capped at the budget's bit length decides that exactly.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if strategy.d ** (2 * min(n, MAX_PRODUCT_DIM.bit_length())) > MAX_PRODUCT_DIM:
        raise OverBudget(f"{strategy.d}**(2*{n}) exceeds the block budget {MAX_PRODUCT_DIM}")
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
