"""An exact certificate for the lemma's solution dimension on the standard MUBs.

The library decides the lemma with a floating-point ``eigh`` read against a
tolerance. Here the same count is proved with no tolerance at all.

The standard MUBs of ``bases.gen_mub`` have entries omega^e / sqrt(d), with
omega = exp(2 pi i / N), N = d for odd prime d and N = 4 at d = 2 (the
Pauli eigenbases), besides the computational basis. With
phi_hat_b(i) = (1 (x) |phi_b(i)><phi_b(i)|) Omega, whose entry [p, q] is
phi_b(i)[q] conj(phi_b(i)[p]) / sqrt(d), the safe vectors of the uniform
strategy are eta_x = d (sum_b phi_hat_b(x(b)) - Omega). So sqrt(d) eta_x
has entries in Z[omega], held here as integer coefficients of omega^0 ..
omega^(N-1), built from exponent tables alone. Complex conjugation maps
omega to omega^-1, so it negates exponents, before any reduction.

Each eta gives the conditions (||eta||^2 - eta eta^H) E eta = 0, linear in
vec(E) (row-major) with coefficients in Z[omega]; over C they say that eta
is an eigenvector of E. Reducing mod a prime p = 1 (mod N), omega becomes
an element r of order N in F_p, a ring map Z[omega] -> F_p. A nonzero minor
mod p is nonzero in Z[omega], so the rank of the conditions mod p bounds
their rank over Q(omega), and so over C, from below. The identity solves
every condition exactly, so rank d**4 - 1 mod p proves solution dimension
1; a smaller rank proves nothing, and :func:`certify` then says so rather
than guess. The conditions of any subset of the x's bound the rank from
below too.

The elimination is a row reduction in int64 with p < 2**31, so no product
overflows. At d = 2 and 3 the conditions of every x take well under a
second; d = 5 (30 of its x's, 750 x 625 conditions) took 2.3 s in a
prototype and is left out of the tier-1 run.
"""

import numpy as np

from meanking import bases


def root_order(d):
    """N: the order of the root of unity the standard MUBs of dimension d need."""
    return 4 if d == 2 else d


def phase_exponents(d):
    """[b - 1, i, s]: the exponent of omega_N in component s of phase basis b's vector i.

    b runs over the bases after the computational one: for odd prime d,
    exponent (b - 1) s**2 + i s (mod d), as in ``bases.gen_mub``; at d = 2
    the eigenbases of X and XZ, (1, +-1) / sqrt(2) and (1, +-i) / sqrt(2).
    """
    if d == 2:
        return np.array([[[0, 0], [0, 2]], [[0, 1], [0, 3]]])
    a, i, s = np.ogrid[:d, :d, :d]
    return (a * s * s + i * s) % d


def safe_vector_coefficients(d, x):
    """(d*d, N) integers c with sqrt(d) eta_x[p d + q] = sum_e c[p d + q, e] omega^e.

    d * phi_hat_b(i) * sqrt(d) has the entry d at [i, i] for the
    computational basis and omega^(e(q) - e(p)) for a phase basis;
    d * Omega * sqrt(d) has d on the diagonal.
    """
    n = root_order(d)
    coef = np.zeros((d, d, n), dtype=np.int64)
    coef[x[0], x[0], 0] += d
    exps = phase_exponents(d)
    p, q = np.ogrid[:d, :d]
    for b, i in enumerate(x[1:]):
        e = exps[b, i]
        np.add.at(coef, (p, q, (e[q] - e[p]) % n), 1)
    coef[np.arange(d), np.arange(d), 0] -= d
    return coef.reshape(d * d, n)


def complex_value(coef, d):
    """The complex vector eta_x that safe vector coefficients stand for."""
    n = coef.shape[1]
    return coef @ np.exp(2j * np.pi * np.arange(n) / n) / np.sqrt(d)


def is_prime(m):
    """Deterministic Miller-Rabin for m < 3.4e14 (bases 2, 3, 5, 7, 11, 13, 17)."""
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17)
    if m in small:
        return True
    if any(m % b == 0 for b in small):
        return False
    r, s = m - 1, 0
    while r % 2 == 0:
        r, s = r // 2, s + 1
    for a in small:
        y = pow(a, r, m)
        if y in (1, m - 1):
            continue
        for _ in range(s - 1):
            y = y * y % m
            if y == m - 1:
                break
        else:
            return False
    return True


def prime_and_root(n, below=1 << 30):
    """(p, r): the largest prime p < ``below`` with p = 1 (mod n), and r of order n in F_p."""
    p = below - (below - 1) % n
    while not is_prime(p):
        p -= n
    factors = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    for a in range(2, p):
        r = pow(a, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in factors):
            return p, r
    raise AssertionError("no root of unity found")


def conditions_mod_p(d, xs, p, r):
    """The stacked conditions (||eta||^2 - eta eta^H) (x) eta^T of each x, mod p.

    Row block j maps vec(E) to (||eta||^2 - eta eta^H) E eta for the safe
    vector of xs[j]; conj(eta) is reduced from the negated exponents.
    """
    n = root_order(d)
    powers = np.array([pow(r, e, p) for e in range(n)], dtype=np.int64)
    conj_powers = powers[(-np.arange(n)) % n]
    blocks = []
    for x in xs:
        coef = safe_vector_coefficients(d, x)
        eta, eta_bar = coef % p @ powers % p, coef % p @ conj_powers % p
        norm = int(eta @ eta_bar % p)
        proj = (norm * np.eye(d * d, dtype=np.int64) - eta[:, None] * eta_bar[None, :]) % p
        blocks.append((proj[:, None, :, None] * eta[None, None, None, :] % p)
                      .reshape(d * d, d**4))
    return np.vstack(blocks)


def rank_mod_p(m, p):
    """Rank of an integer matrix over F_p, by row reduction."""
    m = np.array(m, dtype=np.int64) % p
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col]) + rank
        if pivots.size == 0:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), p - 2, p) % p
        below = m[rank + 1:, col].copy()
        m[rank + 1:] = (m[rank + 1:] - below[:, None] * m[rank]) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def certify(d, xs):
    """``(proved, rank)``: whether the conditions of xs prove solution dimension 1.

    ``rank`` is their rank mod p; ``proved`` is True only when it reaches
    d**4 - 1, and False (no proof, not a disproof) otherwise.
    """
    p, r = prime_and_root(root_order(d))
    rank = rank_mod_p(conditions_mod_p(d, xs, p, r), p)
    return rank == d**4 - 1, rank


def all_guessing_functions(d):
    """Every x of the d + 1 standard MUBs, first basis slowest (the strategy table's order)."""
    return [tuple(int(v) for v in x) for x in bases.enumerate_guessing_functions(d, d + 1)]
