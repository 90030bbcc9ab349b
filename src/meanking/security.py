"""Commutant checks behind the zero-error security argument.

The security of the protocol reduces to one linear-algebra fact: an
operator that has every safe (product) vector as an eigenvector must be a
multiple of the identity. This module verifies that numerically. Each safe
vector eta contributes the linear condition "E eta is parallel to eta",
encoded as (1 - P_eta) E eta = 0 with P_eta the projector onto eta. Summed,
they are one Hermitian positive semidefinite form on vec(E),
vec(E)^H G vec(E) = sum_eta ||(1 - P_eta) E eta||^2, of size D^2 x D^2 for
vectors of dimension D however many there are. The claim holds iff
exactly one eigenvalue of G is at or below ``tol`` times the largest (with
the identity as witness). The eigenvalues are the squared singular values
of the per-vector stack of conditions, so ``tol`` bounds those squares.
The smallest eigenvalue above the cutoff, over the largest, is reported as
the margin of that decision.

Two routes decide it. :func:`product_commutant_check` answers a strategy
given by its generators under one uniform weight from G's spectrum in
closed form (below), when a certified radius shows that the answer is the
form's; every other strategy, and every table handed to
:func:`eigenvector_constraint_dim`, lists its safe vectors and decides the
form by one ``eigh``.

Blocks of n instances need no larger form. For a maximal strategy
(every p(x) > 0) completeness makes the nullspace the fixed points of
Phi(E) = sum_x p(x) <eta_x|E|eta_x> / ||eta_x||^2 |eta_x><eta_x|, a
self-adjoint map with spectrum in [0, 1]; on mutually unbiased bases
G = nx (1 - Phi) and the margin is 1 - 1/d. n blocks measure with its n-th
tensor power, whose fixed points are the n-th tensor power of Phi's.

The spectrum in closed form. The safe vectors are eta_x = sum_b g[b, x(b)]
over the k*d generators. Let Gamma = <g[b, i]|g[b', j]>, k*d x k*d. If
Gamma = alpha delta_ij + beta within a basis (b = b') and gamma across
bases, then <eta_x|eta_y> = alpha a + c0, with a = a(x, y) the number of
bases in which x and y agree and c0 = k beta + k (k - 1) gamma; on the d + 1
MUBs alpha = d and c0 = -d. The form is G = 1 (x) conj(S) - sum_x w_x w_x^H
with w_x = eta_x (x) conj(eta_x) / ||eta_x|| (:func:`constraint_matrix`), so
<w_x|w_y> = f(w) = (alpha (k - w) + c0)**2 / n0, n0 = alpha k + c0 = ||eta||^2,
depends only on the Hamming distance w = k - a. Completeness under the
uniform weight p makes S = s 1 with s = 1/p, and then G's eigenvalues are
s - lambda for the nonzero eigenvalues lambda of the d**k x d**k kernel
K[x, y] = f(w), and s on the rest of the d**4 directions. K lies in the
Bose-Mesner algebra of the Hamming scheme H(k, d), so its eigenvalues are
the Krawtchouk transforms lambda_j = sum_w f(w) K_w(j), with
K_w(j) = sum_i (-1)**i (d - 1)**(w - i) C(j, i) C(k - j, w - i), each of
multiplicity C(k, j) (d - 1)**j (Delsarte, Philips Res. Rep. Suppl. 10,
1973; MacWilliams and Sloane, The Theory of Error-Correcting Codes, 1977,
ch. 5). f is quadratic in w, so lambda_j = 0 for j > 2. On the MUBs
lambda_0 = s, lambda_1 = s/d and lambda_2 = 2 s/d**2: the identity is the
one null direction, d**2 - 1 directions sit at 1 - 1/d of the largest,
(d + 1) d (d - 1)**2 / 2 at 1 - 2/d**2, and the margin is 1 - 1/d in every
dimension. The identity has every vector as an eigenvector, so it is
always a null direction of G, and it is the witness.

The radius and the gate. Let delta be the largest entry of
|Gamma - model|, plus Gamma's own rounding: (2D + 2) u times a bound on
its largest entry, a diagonal one, for the 2D real products of each entry
(u the unit roundoff; Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 3.1). Each <eta_x|eta_y> and each
||eta_x||^2 is a sum of k**2 entries of Gamma, so it lies within
t = k**2 delta of the model's. With g0 = max(|c0|, n0), the largest
|alpha a + c0|, an entry of K then lies within
e = ((2 g0 + t) t + g0**2 t / n0) / (n0 - t) of f, and K within d**k e of
the model's kernel in spectral norm (at most its size times its largest
entry). S lies within s D r of s 1 in spectral norm, with r the
strategy's completeness residual, a max-norm. K has rank at most d**4,
the dimension of the w_x; a model kernel with no negative eigenvalue whose
multiplicities of lambda_0..lambda_2 fit in d**4 has too. Then, by Weyl's
inequality, no eigenvalue of G lies further than
rho = d**k e + s D r + D**2 eps s from the closed form's. The last term,
the rounding floor (below) times s = d**k n0 / D, is 2 D u d**k n0: it
stands for the rounding of the closed form's own arithmetic, whose
Krawtchouk sums are off by at most about (k + 5) u d**k g0**2 / n0
(|K_w(j)| <= K_w(0), and those sum to d**k), less than it on the MUBs,
where g0 = n0. The route answers only when every closed-form eigenvalue,
widened by rho, lies wholly at or below the least cutoff tol (L - rho) or
wholly above the greatest tol (L + rho), L the largest: then its solution
dimension is the form's, and its margin is within about 2 rho / L of the
form's (rho / L is 3.1e-12 at d=5, 1.6e-11 at d=7). It builds Gamma,
O((k d)**2 d**2) work, and no d**k table and no d**4 x d**4 form. A
biased set, LP weights, a table, a fit that fails these conditions and a
radius that straddles the cutoff all go to the enumerated route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

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


def _rounding_floor(dim: int) -> float:
    """D**2 * eps: the least null eigenvalue, over the largest, that ``eigh`` resolves."""
    return dim * dim * 2 * qmath.UNIT_ROUNDOFF


def _check_form_tol(dim: int, tol: float) -> None:
    """Refuse a ``tol`` outside [D**2 * eps, MAX_TOL) for the form of vectors of dimension D."""
    size = dim * dim
    qmath.check_tol(tol, _rounding_floor(dim), "rounding floor",
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
    witness proportional to the identity. Where the dimension is larger, the
    witness is the identity projected onto the nullspace, whatever basis of
    it ``eigh`` returns. Raises :class:`OverBudget`, before
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
    witness = vectors[0]
    if dim_null > 1:
        null = vectors[:dim_null]
        witness = (null.conj() @ np.eye(dim).reshape(-1)) @ null
    return CommutantReport(dim=int(round(np.sqrt(dim))), n=1, constraint_rank=evals.size - dim_null,
                           solution_dim=dim_null, witness=witness.reshape(dim, dim), tol=tol,
                           spectral_gap=gap)


class _Scheme(NamedTuple):
    """What the closed form needs of k bases in dimension d and the Hamming scheme H(k, d)."""

    classes: np.ndarray  # of each entry of Gamma, row-major: 0 diagonal, 1 within a basis, 2 across
    counts: np.ndarray  # the entries of each class
    agreements: np.ndarray  # k - w for the Hamming distances w = 0..k
    krawtchouk: np.ndarray  # K_w(j) as row j = 0, 1, 2 and column w = 0..k
    multiplicities: tuple  # of lambda_0, lambda_1, lambda_2 and of the rest of the d**4 directions


@lru_cache(maxsize=None)
def _hamming_scheme(k: int, d: int) -> _Scheme:
    """The tables for k >= 2 bases in dimension d, built once and shared read-only.

    K_w(j) = sum_i (-1)**i (d - 1)**(w - i) C(j, i) C(k - j, w - i), in integers.
    """
    basis = np.repeat(np.arange(k), d)
    classes = 2 - (basis[:, None] == basis) - np.eye(k * d, dtype=int)
    krawtchouk = np.array([[sum((-1)**i * (d - 1)**(w - i) * math.comb(j, i)
                                * math.comb(k - j, w - i) for i in range(min(j, w) + 1))
                            for w in range(k + 1)] for j in range(3)], dtype=float)
    mult = [math.comb(k, j) * (d - 1)**j for j in range(3)]
    scheme = _Scheme(classes.reshape(-1), np.bincount(classes.reshape(-1)), np.arange(k, -1, -1),
                     krawtchouk, (*mult, d**4 - sum(mult)))
    for table in scheme[:4]:
        table.flags.writeable = False
    return scheme


def _closed_spectrum(strategy: Strategy) -> tuple[list, float] | None:
    """G's spectrum in closed form, as (eigenvalue, multiplicity) pairs, and its radius rho.

    For a strategy given by its generators under one uniform weight, from
    their k*d x k*d Gram: the fit, the Krawtchouk spectrum and the radius
    of the module docstring. None for any other strategy, and where the
    fit leaves the conditions the radius needs.
    """
    gens, p = strategy.generators, strategy.uniform_weight
    if gens is None or p is None or len(gens) < 2:  # one basis has no Gram across bases
        return None
    k, d, dim = gens.shape
    scheme = _hamming_scheme(k, d)
    flat = gens.reshape(k * d, dim)
    gram = (flat.conj() @ flat.T).reshape(-1)
    means = np.bincount(scheme.classes, gram.real) / scheme.counts  # alpha + beta, beta, gamma
    fit = float(np.abs(gram - means[scheme.classes]).max())
    diagonal, beta, gamma = means.tolist()
    # Gamma's own rounding, against its largest entry, a diagonal one
    delta = fit + (dim + 1) * 2 * qmath.UNIT_ROUNDOFF * (diagonal + fit)
    alpha, c0 = diagonal - beta, k * beta + k * (k - 1) * gamma
    n0, t = alpha * k + c0, k * k * delta
    lam = (scheme.krawtchouk @ np.square(alpha * scheme.agreements + c0) / n0).tolist()
    if not (t < n0 and scheme.multiplicities[3] >= 0 and min(lam) >= 0):
        return None
    g0, s = max(abs(c0), n0), 1 / p
    entry = ((2 * g0 + t) * t + g0 * g0 * t / n0) / (n0 - t)
    rho = (len(strategy.weights) * entry + s * dim * strategy.completeness_residual
           + _rounding_floor(dim) * s)
    return [(s - x, m) for x, m in zip(lam + [0.0], scheme.multiplicities) if m > 0], rho


def _closed_form(strategy: Strategy, tol: float) -> CommutantReport | None:
    """The single-block report from :func:`_closed_spectrum`, or None where it is not certified.

    Certified when every eigenvalue, widened by the radius, lies wholly on
    one side of the cutoff (module docstring). None sends the strategy to
    the enumerated route.
    """
    found = _closed_spectrum(strategy)
    if found is None:
        return None
    spectrum, rho = found
    largest = max(value for value, _ in spectrum)
    null = [m for value, m in spectrum if value + rho <= tol * (largest - rho)]
    live = [value for value, _ in spectrum if value - rho > tol * (largest + rho)]
    if len(null) + len(live) < len(spectrum):
        return None
    d, dim = strategy.d, strategy.d**2
    return CommutantReport(dim=d, n=1, constraint_rank=dim * dim - sum(null),
                           solution_dim=sum(null), witness=np.eye(dim, dtype=complex) / d,
                           tol=tol, spectral_gap=min(live) / largest if live else 0.0)


def product_commutant_check(strategy: Strategy, n: int,
                            tol: float = qmath.DEFAULT_TOL) -> CommutantReport:
    """The commutant check over the safe product vectors of n blocks, from one block's.

    m solutions at n=1 give m**n (module docstring); the n-block witness is
    the n-th tensor power of the single-block witness the report keeps, and
    the spectral gap is the single block's, the only rank decision made.
    The single block is answered in closed form where the gate of the module
    docstring certifies it, and by :func:`eigenvector_constraint_dim` over
    the strategy's table otherwise. Raises :class:`OverBudget` when n blocks
    are over the block budget, and ``ValueError`` for a ``tol`` outside
    [D**2 * eps, MAX_TOL), both before either route runs; the enumerated
    route raises its own :class:`OverBudget` past its budgets.
    """
    checked_block_dim(strategy.d, n)
    _check_form_tol(strategy.d**2, tol)
    single = _closed_form(strategy, tol)
    if single is None:
        single = eigenvector_constraint_dim(strategy.safe_vectors, tol)
    solution_dim = single.solution_dim**n
    return replace(single, n=n, solution_dim=solution_dim,
                   constraint_rank=strategy.d ** (4 * n) - solution_dim)


def witness_identity_deviation(report: CommutantReport) -> float:
    """Relative distance sin(theta_n) of the n-block witness from the scalar line.

    theta is the angle to the identity, and cos(theta_n) = cos(theta_1)**n;
    log1p and expm1 keep a 1e-16 deviation that sqrt(1 - cos^(2n)) rounds to 0.
    The scalar is the mean of the diagonal, taken as diag[0] + mean(diag -
    diag[0]): exact for an exactly scalar witness, whose trace sum rounds
    (eye(49) / 7 sums to 6.999999999999998), and the same mean otherwise.
    """
    w = report.witness
    diag = np.diagonal(w)
    scalar = (diag[0] + np.mean(diag - diag[0])) * np.eye(w.shape[0])
    sin = float(np.linalg.norm(w - scalar) / np.linalg.norm(w))
    with np.errstate(divide="ignore"):  # a traceless witness has sin = 1
        return float(np.sqrt(-np.expm1(report.n * np.log1p(-min(sin * sin, 1.0)))))
