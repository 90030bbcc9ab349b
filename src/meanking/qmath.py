"""Dense complex linear-algebra kernels shared by the rest of the package.

Conventions: state vectors are 1-D complex128 arrays, operators are 2-D
arrays, and composite systems use row-major Kronecker order (the first
factor is the slow index). Rank decisions use a relative singular-value
cutoff; everything else is an absolute tolerance defaulting to 1e-9.
All functions are pure and never mutate their arguments. The module is
also the tolerance policy: the table below and :func:`check_tol`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

# Every tolerance default and numerical floor of the package, each with the reason for its value.
DEFAULT_TOL = 1e-9  # of every check: ~5e6 ulps of a unit-scale entry, far below a real defect
MAX_TOL = 1.0  # every tolerance bounds a unit-scale deviation, so one at 1 checks nothing
MIN_VALIDATE_TOL = 1e-9  # the slack floating-point marginals need in the classical-model LP
POSITIVE_FLOOR = math.ulp(0.0)  # the least positive float: no solve promises an exact zero
RESIDUAL_TOL = 1e-8  # default bound on a safe vector's least-squares residual
COMPLETENESS_TOL = 1e-8  # max-norm bound on sum_x p(x) |eta_x><eta_x| - identity
POSITIVITY_TOL = 1e-9  # a weight at or below this leaves the strategy not maximal
LP_FEASIBILITY_TOL = 1e-10  # HiGHS's least; its default 1e-7 is looser than DEFAULT_TOL
WEIGHT_SVD_CUTOFF = 1e-12  # relative: the weight LP's redundant directions sit below it
PROB_FLOOR = 1e-14  # an outcome at or below this cannot be conditioned on
LEAKAGE_SKIP = 1e-12  # an Eve state of trace at or below this is left out of leakage
KRAUS_FLOOR = 1e-12  # sum W^dagger W with an eigenvalue below this has no inverse root to take
SUM_SLACK = 1e-6  # a sampled distribution further than this from sum 1 is a broken model
NEGATIVITY_FLOOR = 1e-12  # nor may an entry be below -NEGATIVITY_FLOOR, beyond rounding
UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2  # u, the unit of every derived rounding bound


def check_tol(tol: float, floor: float, name: str, where: str = "") -> float:
    """``tol``, or ``ValueError`` naming the caller's floor unless floor <= tol < MAX_TOL."""
    if not tol >= floor:  # refuses NaN too
        raise ValueError(f"tolerance {tol:.3g} is below the {name} {floor:.3g}{where}")
    if tol >= MAX_TOL:
        raise ValueError(f"tolerance {tol:.3g} is not below the ceiling {MAX_TOL:g}")
    return tol


def kron(*factors: np.ndarray, batch: int = 0) -> np.ndarray:
    """``np.kron`` of every factor, left to right, over the axes after the first ``batch``,
    which broadcast as a stack; one factor comes back as a copy.

    Every factor needs the same number of Kronecker axes. Each step forms the
    same products in the same layout as ``np.kron`` of the running product
    and the next factor, so the values are bitwise equal, without its
    per-call overhead; the dtype is not changed.
    """
    if not factors:
        raise ValueError("kron needs at least one factor")
    out, *rest = map(np.asarray, factors)
    k = out.ndim - batch
    for b in rest:
        if k != b.ndim - batch:
            raise ValueError(f"kron of {k}- and {b.ndim - batch}-axis factors")
        # every Kronecker axis of out followed by a new axis, every one of b preceded by one
        out = out[(..., *(slice(None), None) * k)] * b[(..., *(None, slice(None)) * k)]
        s = out.shape
        out = out.reshape(s[:batch] + tuple(map(mul, s[batch::2], s[batch + 1::2])))
    return out if rest else out.copy()


def matrix_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Rank with a relative cutoff: singular values > tol * sigma_max count."""
    s = np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)
    return int(np.sum(s > tol * s[:1]))  # s[:1] is empty for an empty matrix: rank 0


def nullspace(a: np.ndarray, tol: float = DEFAULT_TOL):
    """Right nullspace of a matrix.

    Returns ``(dimension, basis)`` where ``basis`` rows are orthonormal
    vectors spanning the subspace of x with ``a @ x ~ 0``; the dimension
    counts singular values at or below ``tol * sigma_max`` (columns beyond
    the row count included).
    """
    a = np.asarray(a, dtype=complex)
    m, n = a.shape
    _, s, vh = np.linalg.svd(a, full_matrices=(m < n))
    rank = int(np.sum(s > tol * s[:1]))
    return n - rank, vh[rank:].conj()


def lstsq(a: np.ndarray, b: np.ndarray):
    """Minimum-norm least-squares solution of ``a @ x = b``.

    Returns ``(x, residual)`` with residual the 2-norm of ``a @ x - b``.
    Among all minimizers, x has minimum norm (and is therefore orthogonal
    to the nullspace of ``a``).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"{a.shape[0]} rows vs right-hand side of length {b.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual


@lru_cache(maxsize=None)
def triu_indices(n: int, k: int = 0):
    """``np.triu_indices(n, k)``, formed once per (n, k) and read-only."""
    rows, cols = np.triu_indices(n, k)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def hermitian_coords(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each in a stack over the leading axes.

    The map is a real-linear isometry onto R^(n^2) (diagonal, then scaled
    real and imaginary parts of the upper triangle), so real-linear rank
    and inner products of Hermitian families are preserved.
    """
    h = np.asarray(h, dtype=complex)
    upper = h[(..., *triu_indices(h.shape[-1], 1))]
    return np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real,
                           np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1)


def lp_feasible(a_eq, b_eq, maximize_min=False, feasibility_tol=LP_FEASIBILITY_TOL):
    """Feasibility (and optional max-min) solve for ``A p = b, p >= 0``.

    Parameters
    ----------
    a_eq : equality constraint matrix (dense or scipy sparse).
    b_eq : equality right-hand side.
    maximize_min : when true, the solver maximizes ``min(p)``.
    feasibility_tol : allowed constraint slack, in [LP_FEASIBILITY_TOL, MAX_TOL);
        callers with floating-point right-hand sides can widen it from the floor.

    Returns ``(feasible, point)``; infeasibility is a result, not an error.
    scipy is imported here, on first use: the MUB paths never reach an LP.
    """
    check_tol(feasibility_tol, LP_FEASIBILITY_TOL, "LP feasibility floor")
    import scipy.sparse
    from scipy.optimize import linprog

    if not scipy.sparse.issparse(a_eq):
        a_eq = scipy.sparse.csr_matrix(np.atleast_2d(np.asarray(a_eq, dtype=float)))
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    m, n = a_eq.shape
    if b_eq.size != m:
        raise ValueError("inconsistent LP shapes")
    options = {"primal_feasibility_tolerance": float(feasibility_tol),
               "dual_feasibility_tolerance": LP_FEASIBILITY_TOL}

    if not maximize_min:
        # linprog's default bounds are p >= 0
        res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, method="highs", options=options)
        point = res.x
    else:
        # auxiliary variable t with t <= p[i] for every i, maximized
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_eq2 = scipy.sparse.hstack([a_eq, scipy.sparse.csr_matrix((m, 1))], format="csr")
        # row r is t - p[r] <= 0, i.e. [-I | 1]: sparse
        rows = np.arange(n)
        a_ub = scipy.sparse.csr_matrix(
            (np.r_[-np.ones(n), np.ones(n)], (np.r_[rows, rows], np.r_[rows, np.full(n, n)])),
            shape=(n, n + 1),
        )
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=np.zeros(n),
            A_eq=a_eq2,
            b_eq=b_eq,
            bounds=[(0.0, None)] * n + [(None, None)],
            method="highs",
            options=options,
        )
        point = res.x[:-1] if res.x is not None else None

    if res.status == 0:
        return True, np.asarray(point, dtype=float)
    if res.status == 2:
        return False, None
    raise RuntimeError(f"LP solver failed (status {res.status}): {res.message}")
