"""Independent brute-force oracles the tests compare the library against.

Everything here is written from the physics directly (explicit loops over
amplitudes, no reuse of the library's projection / channel pipeline), so
agreement is a genuine dual-route check and not a tautology.
The exceptions are :func:`attack_pass_per_outcome` and
:func:`sample_per_tuple`, which keep the library's earlier per-outcome
routes (the single-outcome projection and a Born weight per product
guessing tuple) as the references for the block-at-a-time attack pass and
sampler that replaced them, :func:`commutant_stacked`, the earlier
n-block commutant route over all product safe vectors, kept as the
reference for the single-block check raised to the n-th power, and
:func:`safe_vector_per_x`, the earlier least-squares solve per guessing
function, kept as the reference for the one-solve strategy build, and
:func:`weyl_loops` with :func:`operator_form_loops`, the source's Weyl
expansion with one unitary per flat label, kept as the reference for the
operator form and the honest coefficient, which the library reads off the
source without expanding it, and :func:`max_trace_distance_all_pairs`,
the earlier leakage triangle over every pair of Eve's states, duplicates
included, kept as the reference for the triangle over her distinct states.

One resident is not a reference but a construct only the tests read:
:func:`decomposition_triple`, the paper's eta_x = eta_u + eta_v - eta_w
identity.

:func:`phi_hat`, one conditional state, is the per-(b, i) reference for
the library's ``retrodiction.conditional_states``, which forms all k*d of
them in one batched product.
"""

import numpy as np


def guessing_functions(strategy):
    """The digits of each strategy table row: row j is guessing function j."""
    from meanking import bases

    return bases.enumerate_guessing_functions(strategy.d, strategy.basis_set.k)


def partial_trace_loops(rho, dims, keep):
    """Index-by-index contraction, quadruple loop over kept/traced labels."""
    dims = tuple(dims)
    keep = sorted(keep)
    drop = [ax for ax in range(len(dims)) if ax not in keep]
    kdim = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((kdim, kdim), dtype=complex)
    kshapes = tuple(dims[i] for i in keep)
    dshapes = tuple(dims[i] for i in drop)
    for krow in range(kdim):
        krow_digits = np.unravel_index(krow, kshapes) if keep else ()
        for kcol in range(kdim):
            kcol_digits = np.unravel_index(kcol, kshapes) if keep else ()
            acc = 0.0 + 0.0j
            for t in range(int(np.prod(dshapes)) if drop else 1):
                t_digits = np.unravel_index(t, dshapes) if drop else ()
                row = [0] * len(dims)
                col = [0] * len(dims)
                for ax, v in zip(keep, krow_digits):
                    row[ax] = int(v)
                for ax, v in zip(keep, kcol_digits):
                    col[ax] = int(v)
                for ax, v in zip(drop, t_digits):
                    row[ax] = int(v)
                    col[ax] = int(v)
                acc += rho[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)]
            out[krow, kcol] = acc
    return out


def phi_hat(bs, b, i):
    """Alice's unnormalized conditional state (1 x |phi><phi|) Omega, phi vector i of basis b.

    Its squared norm is 1/d for the standard maximally entangled source.
    """
    from meanking import retrodiction as rd

    d = bs.dim
    if not (0 <= b < bs.k and 0 <= i < d):
        raise IndexError(f"basis {b} / outcome {i} out of range")
    phi = bs.vectors[b, i]
    return (rd.omega(d).reshape(d, d) @ np.outer(phi, phi.conj()).T).reshape(-1)


def safe_vector_per_x(bs, x):
    """``(eta, residual)`` for one guessing function x from its own least-squares solve.

    The k*d conditional states are stacked row by row, the right-hand side
    is delta(x(b), i), and ``qmath.lstsq`` solves for conj(eta).
    """
    from meanking import qmath, retrodiction as rd

    d, k = bs.dim, bs.k
    a = np.empty((k * d, d * d), dtype=complex)
    rhs = np.zeros(k * d, dtype=complex)
    for b in range(k):
        for i in range(d):
            a[b * d + i] = phi_hat(bs, b, i)
            if x[b] == i:
                rhs[b * d + i] = 1.0
    y, residual = qmath.lstsq(a, rhs)
    return y.conj(), residual


def intercept_resend_detection(strategy, bstar):
    """Classical enumeration of the measure-and-resend attack on the return leg.

    Bob's outcome i is uniform (the source is untouched); Eve's outcome j
    follows the overlap rule; Alice then holds the known pure product state
    conj(Phi_b(i)) x Phi_bstar(j) and measures her POVM.
    """
    bs = strategy.basis_set
    d, k = bs.dim, bs.k
    weights = strategy.weights
    xs = guessing_functions(strategy)
    etas = strategy.etas
    total = 0.0
    for b in range(k):
        for i in range(d):
            phi_b = bs.vectors[b, i]
            for j in range(d):
                phi_star = bs.vectors[bstar, j]
                w = abs(np.vdot(phi_star, phi_b)) ** 2
                psi = np.kron(phi_b.conj(), phi_star)
                correct = 0.0
                for pos, x in enumerate(xs):
                    if x[b] == i:
                        correct += weights[pos] * abs(np.vdot(etas[pos], psi)) ** 2
                total += (1.0 / d) * w * (1.0 - correct)
    return total / k


def probe_detection(strategy, theta, d_eve=2):
    """Closed-form enumeration for the controlled-rotation probe.

    Alice's unnormalized conditional state is assembled entry by entry from
    the amplitude formula; each outcome has probability 1/d.
    """
    bs = strategy.basis_set
    d, k = bs.dim, bs.k
    weights = strategy.weights
    xs = guessing_functions(strategy)
    etas = strategy.etas
    rvecs = []
    for j in range(d):
        r = np.zeros(d_eve, dtype=complex)
        r[0] = np.cos(j * theta)
        r[1] = np.sin(j * theta)
        rvecs.append(r)
    total = 0.0
    for b in range(k):
        for i in range(d):
            phi = bs.vectors[b, i]
            pmat = np.outer(phi, phi.conj())
            rho = np.zeros((d * d, d * d), dtype=complex)
            for j in range(d):
                for jp in range(d):
                    amp = (1.0 / d) * phi[j].conj() * phi[jp] * np.vdot(rvecs[jp], rvecs[j])
                    ea = np.zeros((d, d), dtype=complex)
                    ea[j, jp] = 1.0
                    rho += amp * np.kron(ea, pmat)
            prob = float(np.trace(rho).real)
            correct = 0.0
            for pos, x in enumerate(xs):
                if x[b] == i:
                    correct += weights[pos] * float(np.vdot(etas[pos], rho @ etas[pos]).real)
            total += prob - correct
    return total / k


def eve_state_loops(am, bs, bvec, ivec):
    """Eve's unnormalized final state on (branch register) x E, by explicit loops.

    Bob's projection onto his block eigenstate and each Kraus operator
    (1_A x V_l) act amplitude by amplitude on the source; the ancilla block
    of branch l is the partial trace over A x B of that branch's pure state,
    taken by :func:`partial_trace_loops`. The blocks sit on the diagonal in
    branch order, so the result is the full matrix, not a stack of blocks.
    """
    dd, de = am.d**am.n, am.d_eve
    phi = np.ones(1, dtype=complex)
    for b, i in zip(bvec, ivec):
        phi = np.kron(phi, bs.vectors[b, i])
    psi = np.asarray(am.psi_abe).reshape(dd, dd, de)
    projected = np.zeros((dd, dd * de), dtype=complex)  # rows A, columns (B, E)
    for a in range(dd):
        for e in range(de):
            amp = sum(phi[j].conj() * psi[a, j, e] for j in range(dd))
            for j in range(dd):
                projected[a, j * de + e] = amp * phi[j]
    nb = len(am.kraus)
    out = np.zeros((nb * de, nb * de), dtype=complex)
    for l, v in enumerate(am.kraus):
        branch = np.zeros((dd, dd * de), dtype=complex)
        for a in range(dd):
            for row in range(dd * de):
                branch[a, row] = sum(v[row, col] * projected[a, col] for col in range(dd * de))
        flat = branch.reshape(-1)
        block = partial_trace_loops(np.outer(flat, flat.conj()), (dd, dd, de), [2])
        out[l * de:(l + 1) * de, l * de:(l + 1) * de] = block
    return out


def attack_pass_per_outcome(strategy, am):
    """Detection, leakage and the per-outcome table, one outcome at a time.

    This is the route the library's block pass replaced. Per outcome (b, i),
    Alice's state comes from the single-outcome projection
    (``alice_state_unnormalized``); every product guessing tuple gets its
    Born weight over the full table of grouped safe product vectors, and the
    digit mask x_s(b_s) = i_s is tested tuple by tuple. Eve's states are
    assembled as full block-diagonal matrices and compared by full
    eigendecompositions. Returns ``(detection, leakage, per_outcome)`` with
    the same floors and 1-based labels as ``evaluate_attack``.
    """
    from itertools import product

    from meanking import attack as atk, qmath

    bs = strategy.basis_set
    etas, _, weights = product_tables(strategy, am.n)
    digits = tuple_digits(strategy, am.n)
    slots = np.arange(am.n)
    total, table, eve = 0.0, [], []
    for bvec in product(range(bs.k), repeat=am.n):
        for ivec in product(range(bs.dim), repeat=am.n):
            branches, _ = atk._branch_vectors(am, bs, bvec, ivec)
            nb, de = branches.shape[0], branches.shape[2]
            state = np.zeros((nb * de, nb * de), dtype=complex)
            for l, w in enumerate(branches):
                state[l * de:(l + 1) * de, l * de:(l + 1) * de] = w.T @ w.conj()
            trace = float(np.trace(state).real)
            if trace > qmath.LEAKAGE_SKIP:
                eve.append(state / trace)
            rho, prob = atk.alice_state_unnormalized(am, bs, bvec, ivec)
            if prob <= qmath.PROB_FLOOR:
                continue
            mask = np.all(digits[:, slots, list(bvec)] == np.array(ivec), axis=1)
            born = weights[mask] * np.sum((etas[mask].conj() @ rho) * etas[mask], axis=1).real
            correct = float(born.sum())
            total += prob - correct
            table.append({"b": [b + 1 for b in bvec], "i": [i + 1 for i in ivec],
                          "prob": prob, "guess_error": max(0.0, 1.0 - correct / prob)})
    worst = 0.0
    for j, r in enumerate(eve[:-1]):
        eigs = np.linalg.eigvalsh(np.array(eve[j + 1:]) - r)
        worst = max(worst, 0.5 * float(np.abs(eigs).sum(axis=1).max()))
    return total / bs.k**am.n, worst, table


def max_trace_distance_all_pairs(states):
    """Largest trace distance over every pair of Eve's states, stacked as (m, branch, E, E).

    One ``eigvalsh`` of states[later] - states[j] per row j of the pair
    triangle; repeated states are compared like any others.
    """
    return max((0.5 * float(np.abs(np.linalg.eigvalsh(states[j + 1:] - states[j]))
                            .sum(axis=(1, 2)).max()) for j in range(len(states) - 1)), default=0.0)


def product_tables(strategy, n, interleaved=False):
    """Safe product vectors, their conjugates and weights, one row per guessing tuple.

    Tuples run over n rows of the strategy table, first instance slowest.
    Each vector is one einsum of the eta rows as (A, B) matrices, in grouped
    order (A1..An B1..Bn), or pair-interleaved (A1 B1 A2 B2 ...) with
    ``interleaved``; each weight is a Kronecker product of the row weights.
    """
    from functools import reduce

    d = strategy.d
    etas = strategy.etas.reshape(-1, d, d)
    slots = [[s, n + s, 2 * n + s] for s in range(n)]  # row, A and B axis of each instance
    pairs = [ax for slot in slots for ax in slot[1:]]
    out = list(range(n)) + (pairs if interleaved else pairs[0::2] + pairs[1::2])
    table = np.einsum(*[x for slot in slots for x in (etas, slot)], out)
    table = table.reshape(len(etas) ** n, -1)
    return table, table.conj(), reduce(np.kron, [strategy.weights] * n)


def tuple_digits(strategy, n):
    """The guessing tuples of :func:`product_tables`, as digits (tuple, instance, basis)."""
    xs = guessing_functions(strategy)
    return xs[np.indices((len(xs),) * n).reshape(n, -1).T]


def outcome_dist(am, bs, bvec):
    """Bob's outcome distribution for one basis vector, one projection per outcome."""
    from itertools import product

    from meanking import attack as atk, protocol as proto

    probs = [atk._projected_raw(am, bs, bvec, ivec)[1]
             for ivec in product(range(bs.dim), repeat=am.n)]
    return proto._normalized(np.asarray(probs), f"Bob outcomes (b={bvec})")


def povm_dist(am, bs, tables, bvec, ivec):
    """Born weights p(x) <eta_x| rho |eta_x> of every guessing tuple, for Alice's state rho."""
    from meanking import attack as atk, protocol as proto

    etas, etas_conj, weights = tables
    rho = atk.alice_state(am, bs, bvec, ivec)
    born = weights * np.sum((etas_conj @ rho) * etas, axis=1).real
    return proto._normalized(born, f"measurement (b={bvec}, i={ivec})")


def sample_per_tuple(seed, strategy, am, units, tables):
    """Instance codes as ``protocol._sample`` draws them, from per-outcome tables.

    The same chunk streams and inverse-CDF lookups, but Bob's rows come from
    one projection per outcome and Alice's from ``alice_state`` against
    ``tables``, the :func:`product_tables` of the strategy, per drawn (b, i).
    """
    from meanking import bases, protocol as proto

    bs = strategy.basis_set
    d, k, n = bs.dim, bs.k, am.n
    nx = len(strategy.safe_vectors)
    draws = []
    for chunk, start in enumerate(range(0, units, proto.CHUNK)):
        rng = proto._stream(seed, proto._CHUNK_KEY, chunk)
        size = min(proto.CHUNK, units - start)
        draws.append((rng.integers(k**n, size=size),
                      rng.integers(proto._RES, size=size),
                      rng.integers(proto._RES, size=size)))
    bflat, u_out, u_povm = (np.concatenate(col) for col in zip(*draws))

    bkeys, brows = np.unique(bflat, return_inverse=True)
    outcome = np.array([outcome_dist(am, bs, tuple(bvec))
                        for bvec in bases.digits(bkeys, k, n).tolist()])
    iflat = proto._lookup(outcome, brows, u_out)

    pkeys, prows = np.unique(bflat * d**n + iflat, return_inverse=True)
    pairs = zip(bases.digits(pkeys // d**n, k, n).tolist(),
                bases.digits(pkeys % d**n, d, n).tolist())
    povm = np.array([povm_dist(am, bs, tables, tuple(bvec), tuple(ivec)) for bvec, ivec in pairs])
    yflat = proto._lookup(povm, prows, u_povm)

    b = bases.digits(bflat, k, n).ravel()
    i = bases.digits(iflat, d, n).ravel()
    y = bases.digits(yflat, nx, n).ravel()
    return (b * d + i) * nx + y


def commutant_stacked(strategy, n):
    """``(solution_dim, constraint_rank, stack)`` of the n-block eigenvector system.

    Every safe product vector eta of n blocks (pair-interleaved order, from
    :func:`product_tables`) contributes the rows (1 - P_eta) (x) eta^T,
    which map vec(E) (row-major) to (1 - P_eta) E eta, to one dense stack,
    whose nullspace is taken at the library's default tolerance.
    """
    from meanking import qmath

    etas = product_tables(strategy, n, interleaved=True)[0]
    eye = np.eye(etas.shape[1])
    stack = np.vstack([np.kron(eye - np.outer(eta, eta.conj()) / np.vdot(eta, eta).real, eta)
                       for eta in etas])
    dim_null, _ = qmath.nullspace(stack, qmath.DEFAULT_TOL)
    return dim_null, stack.shape[1] - dim_null, stack


def weyl_loops(d, n):
    """Every n-slot Weyl unitary, as (d**n,) * 4 indexed [m, l] by flat base-d labels.

    One label at a time: X^m Z^l per slot from ``matrix_power`` of the shift
    and clock matrices, then ``qmath.tensor`` over the slots, first slot
    slowest.
    """
    from meanking import qmath

    dd = d**n
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    out = np.empty((dd,) * 4, dtype=complex)
    for m_flat in range(dd):
        for l_flat in range(dd):
            labels = zip(np.unravel_index(m_flat, (d,) * n), np.unravel_index(l_flat, (d,) * n))
            out[m_flat, l_flat] = qmath.tensor(*[np.linalg.matrix_power(shift, m)
                                                 @ np.linalg.matrix_power(clock, l)
                                                 for m, l in labels])
    return out


def operator_form_loops(am):
    """``(coeffs, ops)``: the source's entangled-basis coefficients and the E_(l,k) operators.

    Label by label over :func:`weyl_loops`: the basis vector (1 x U) Omega
    has entries U[b, a] / sqrt(d**n), c[m, l] is its overlap with the source,
    U_hat_beta sums c[m, l, beta] U over the labels, and E_(l,k) sums
    U_hat_beta^T x M_(l,k,beta) over beta, M the B-block of Kraus operator
    V_l mapping Eve's component beta to k.
    """
    from meanking import qmath

    dd, de = am.d**am.n, am.d_eve
    units = weyl_loops(am.d, am.n)
    psi = am.psi_abe.reshape(dd * dd, de)
    coeffs = np.empty((dd, dd, de), dtype=complex)
    u_hats = np.zeros((de, dd, dd), dtype=complex)
    for m_flat in range(dd):
        for l_flat in range(dd):
            bell = units[m_flat, l_flat].T.reshape(-1) / np.sqrt(dd)
            coeffs[m_flat, l_flat] = bell.conj() @ psi
            for beta in range(de):
                u_hats[beta] += coeffs[m_flat, l_flat, beta] * units[m_flat, l_flat]
    vr = am.kraus.reshape(len(am.kraus), dd, de, dd, de)
    ops = np.zeros((len(am.kraus), de, dd * dd, dd * dd), dtype=complex)
    for beta in range(de):
        ops += qmath.kron(u_hats[beta].T[None, None], vr[..., beta].transpose(0, 2, 1, 3), batch=2)
    return coeffs, ops


def decomposition_triple(x, b_prime, b_tilde, j_prime, j_tilde):
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
    u, v, w = list(x), list(x), list(x)
    u[b_prime] = w[b_prime] = j_prime
    v[b_tilde] = w[b_tilde] = j_tilde
    return tuple(u), tuple(v), tuple(w)

