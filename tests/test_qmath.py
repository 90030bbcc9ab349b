import ast
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meanking import bases, qmath, retrodiction, security

from oracles import partial_trace_loops

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTensor:
    """The n-fold Kronecker product: every factor, left to right, first factor slowest."""

    def test_identity(self):
        assert_allclose(qmath.kron(np.eye(2), np.eye(2), np.eye(2)), np.eye(8))

    def test_basis_bookkeeping(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        expect = np.zeros(8)
        expect[(0 * 2 + 1) * 2 + 1] = 1.0
        assert_allclose(qmath.kron(e0, e1, e1), expect)

    def test_shift_times_clock(self):
        # expanded by hand: X (x) Z has Z blocks on the X pattern
        expect = np.zeros((4, 4))
        expect[0, 2] = 1.0
        expect[1, 3] = -1.0
        expect[2, 0] = 1.0
        expect[3, 1] = -1.0
        assert_allclose(qmath.kron(X2, Z2), expect)

    def test_associative_bilinear(self):
        # bitwise the running product times the next factor, as np.kron folds them
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, c = rand_complex(rng, 2, 3), rand_complex(rng, 3, 2), rand_complex(rng, 2, 2)
            out = qmath.kron(a, b, c)
            np.testing.assert_array_equal(out, np.kron(np.kron(a, b), c))
            np.testing.assert_array_equal(out, qmath.kron(qmath.kron(a, b), c))
            assert_allclose(out, qmath.kron(a, qmath.kron(b, c)), atol=1e-12)
            s, t = rng.standard_normal(2)
            assert_allclose(qmath.kron(s * a + t * a, b),
                            s * qmath.kron(a, b) + t * qmath.kron(a, b), atol=1e-12)

    def test_batch_axes_of_many(self):
        rng = np.random.default_rng(4)
        a, b, c = (rand_complex(rng, 5, 2, 2) for _ in range(3))
        out = qmath.kron(a, b, c, batch=1)
        for j in range(5):
            np.testing.assert_array_equal(out[j], np.kron(np.kron(a[j], b[j]), c[j]))

    def test_one_factor_is_a_copy(self):
        a = np.arange(4.0)
        out = qmath.kron(a)
        np.testing.assert_array_equal(out, a)
        out[:] = 0.0
        assert a.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_no_factor(self):
        with pytest.raises(ValueError, match="kron needs at least one factor"):
            qmath.kron()


class TestKron:
    """The broadcast Kronecker product against ``np.kron``, bit for bit."""

    def test_matches_numpy_bitwise(self):
        rng = np.random.default_rng(5)
        for shape_a, shape_b in [((2, 3), (3, 2)), ((4,), (3,)), ((3, 3), (1, 2)),
                                 ((2, 1, 3), (3, 2, 2))]:
            a, b = rand_complex(rng, *shape_a), rand_complex(rng, *shape_b)
            np.testing.assert_array_equal(qmath.kron(a, b), np.kron(a, b))
            np.testing.assert_array_equal(qmath.kron(a.T, b), np.kron(a.T, b))

    def test_keeps_dtype(self):
        w = np.array([0.25, 0.75])
        out = qmath.kron(w, w)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.kron(w, w))

    def test_batch_axes_broadcast(self):
        rng = np.random.default_rng(6)
        a, b = rand_complex(rng, 4, 2, 3), rand_complex(rng, 4, 3, 2)
        out = qmath.kron(a, b, batch=1)
        for j in range(4):
            np.testing.assert_array_equal(out[j], np.kron(a[j], b[j]))
        single = qmath.kron(a[:1], b, batch=1)
        for j in range(4):
            np.testing.assert_array_equal(single[j], np.kron(a[0], b[j]))

    def test_axis_count_mismatch(self):
        with pytest.raises(ValueError, match="kron of 1- and 2-axis factors"):
            qmath.kron(np.ones(2), np.eye(2))


class TestPartialTrace:
    """The loop oracle behind ``eve_state_loops``, against closed forms and one einsum."""

    def test_maximally_entangled_reduction(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        assert_allclose(partial_trace_loops(rho, (2, 2), [0]), np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        rng = np.random.default_rng(5)
        a = rand_complex(rng, 3, 3)
        rho1 = a @ a.conj().T
        b = rand_complex(rng, 2, 2)
        rho2 = b @ b.conj().T
        out = partial_trace_loops(np.kron(rho1, rho2), (3, 2), [1])
        assert_allclose(out, rho2 * np.trace(rho1), atol=1e-12)

    def test_against_loop_contraction(self):
        # each traced factor shares its row and column label in one einsum
        rng = np.random.default_rng(7)
        dims = (2, 3, 2)
        a = rand_complex(rng, 12, 12)
        rho = a @ a.conj().T
        for keep in [(0,), (1,), (2,), (0, 2), (0, 1), (1, 2)]:
            rows = "abc"
            cols = "".join(rows[ax] if ax not in keep else "def"[ax] for ax in range(3))
            kept = "".join(rows[ax] for ax in keep) + "".join(cols[ax] for ax in keep)
            size = int(np.prod([dims[ax] for ax in keep]))
            want = np.einsum(f"{rows}{cols}->{kept}", rho.reshape(dims + dims))
            assert_allclose(partial_trace_loops(rho, dims, keep), want.reshape(size, size),
                            atol=1e-10)

    def test_keep_all_and_trace_preservation(self):
        rng = np.random.default_rng(9)
        a = rand_complex(rng, 6, 6)
        rho = a @ a.conj().T
        assert_allclose(partial_trace_loops(rho, (2, 3), [0, 1]), rho)
        red = partial_trace_loops(rho, (2, 3), [0])
        assert abs(np.trace(red) - np.trace(rho)) < 1e-12


class TestNullspace:
    def test_zero_matrix(self):
        dim, basis = qmath.nullspace(np.zeros((4, 4)))
        assert dim == 4 and basis.shape == (4, 4)
        assert qmath.nullspace(np.zeros((0, 3)))[0] == 3
        assert qmath.matrix_rank(np.zeros((4, 4))) == qmath.matrix_rank(np.zeros((0, 3))) == 0

    def test_identity(self):
        dim, _ = qmath.nullspace(np.eye(5))
        assert dim == 0

    def test_known_rank(self):
        rng = np.random.default_rng(11)
        for n, r in [(6, 2), (8, 5), (7, 7)]:
            a = rand_complex(rng, n, r) @ rand_complex(rng, r, n)
            dim, basis = qmath.nullspace(a)
            assert dim == n - r
            for v in basis:
                assert np.linalg.norm(a @ v) < 1e-9 * np.linalg.norm(a)

    def test_wide_matrix(self):
        rng = np.random.default_rng(13)
        a = rand_complex(rng, 2, 6)
        dim, basis = qmath.nullspace(a)
        assert dim == 4
        assert np.max(np.abs(a @ basis.T)) < 1e-10


class TestLstsq:
    def test_identity_system(self):
        rng = np.random.default_rng(15)
        b = rand_complex(rng, 5)
        x, res = qmath.lstsq(np.eye(5), b)
        assert_allclose(x, b)
        assert res < 1e-13

    def test_orthonormal_rows_consistent(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rand_complex(rng, 6, 6))
        a = q.conj().T[:3]  # orthonormal rows
        x, res = qmath.lstsq(a, rand_complex(rng, 3))
        assert res < 1e-12

    def test_min_norm_orthogonal_to_nullspace(self):
        rng = np.random.default_rng(19)
        a = rand_complex(rng, 6, 3) @ rand_complex(rng, 3, 6)
        b = a @ rand_complex(rng, 6)  # consistent by construction
        x, res = qmath.lstsq(a, b)
        assert res < 1e-10
        _, basis = qmath.nullspace(a)
        for v in basis:
            assert abs(np.vdot(v, x)) < 1e-10


class TestLpFeasible:
    def test_single_variable(self):
        ok, p = qmath.lp_feasible([[1.0]], [1.0])
        assert ok and abs(p[0] - 1.0) < 1e-9

    def test_infeasible(self):
        ok, p = qmath.lp_feasible([[1.0]], [-1.0])
        assert not ok and p is None

    def test_constraint_satisfaction(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 6))
        p0 = rng.uniform(0.5, 1.5, 6)
        b = a @ p0  # feasible by construction
        ok, p = qmath.lp_feasible(a, b)
        assert ok
        assert np.max(np.abs(a @ p - b)) < 1e-9
        assert np.all(p >= -1e-12)

    def test_maximize_min(self):
        ok, p = qmath.lp_feasible([[1.0, 1.0]], [1.0], maximize_min=True)
        assert ok
        assert_allclose(p, [0.5, 0.5], atol=1e-8)


# Every entry point that takes a caller's tolerance: (call of tol, a value below
# its floor, the floor's words in the refusal).
TOLERANCE_ENTRY_POINTS = {
    "validate": (lambda f, tol: bases.validate(f("mub2"), tol),
                 1e-12, "validation floor 1e-09"),
    "check_classical_model": (lambda f, tol: bases.check_classical_model(f("mub2"), tol),
                              1e-12, "validation floor 1e-09"),
    "constraint_nullspace": (lambda f, tol: security.constraint_nullspace(f("strategy_d2").etas,
                                                                          tol),
                             1e-20, "rounding floor 3.55e-15 of the 16 x 16 commutant form"),
    "eigenvector_constraint_dim": (
        lambda f, tol: security.eigenvector_constraint_dim(f("strategy_d2").safe_vectors, tol),
        1e-20, "rounding floor 3.55e-15 of the 16 x 16 commutant form"),
    "build_strategy": (lambda f, tol: retrodiction.build_strategy(f("mub2"), residual_tol=tol),
                       0.0, "positive floor 4.94e-324"),
    "solve_safe_vector": (lambda f, tol: retrodiction.solve_safe_vector(f("mub2"), (0, 1, 0),
                                                                        residual_tol=tol),
                          -1e-3, "positive floor 4.94e-324"),
    "lp_feasible": (lambda f, tol: qmath.lp_feasible([[1.0]], [1.0], feasibility_tol=tol),
                    1e-12, "LP feasibility floor 1e-10"),
}


class TestTolerancePolicy:
    @pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
    @pytest.mark.parametrize("value", ["nan", "-inf", "inf", "floor", 1.0, 1e300])
    def test_refused_before_any_solve(self, request, monkeypatch, entry, value):
        import scipy.optimize

        call, below, floor = TOLERANCE_ENTRY_POINTS[entry]
        get = request.getfixturevalue
        get("mub2"), get("strategy_d2")  # built before the solves are cut off

        def solve(*args, **kwargs):
            raise AssertionError("a solve ran before the tolerance was checked")

        for module, name in ((np.linalg, "eigh"), (np.linalg, "lstsq"),
                             (scipy.optimize, "linprog")):
            monkeypatch.setattr(module, name, solve)
        tol = below if value == "floor" else float(value)
        if value in ("nan", "-inf", "floor"):
            message = f"^tolerance {tol:.3g} is below the {floor}$"
        else:
            message = "^tolerance .* is not below the ceiling 1$"
        with pytest.raises(ValueError, match=message):
            call(get, tol)

    @pytest.mark.parametrize("entry", sorted(TOLERANCE_ENTRY_POINTS))
    def test_default_accepted(self, request, entry):
        TOLERANCE_ENTRY_POINTS[entry][0](request.getfixturevalue, qmath.DEFAULT_TOL)

    def test_no_tolerance_literal_outside_the_table(self):
        # a float below 1e-3 in the package is a tolerance or a floor; each is named once,
        # in a module-level assignment of qmath
        found = []
        for path in sorted(pathlib.Path(qmath.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            table = {id(node) for stmt in tree.body if path.name == "qmath.py"
                     and isinstance(stmt, ast.Assign) for node in ast.walk(stmt)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant) and type(node.value) is float
                        and 0 < abs(node.value) < 1e-3 and id(node) not in table):
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
        assert found == []
