"""Complex matrix kernel checks: numpy agreement and the singularity rule."""

import numpy as np
import pytest

from difprec import linalg
from difprec.linalg import SingularMatrixError


def rand_cmatrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_inverse_trivial_cases():
    assert np.allclose(linalg.inverse(np.eye(3, dtype=complex)), np.eye(3))
    inv = linalg.inverse(linalg.cmatrix([[2, 0], [0, 1j]]))
    assert np.allclose(inv, np.diag([0.5, -1j]))


def test_inverse_residual_small():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rand_cmatrix(rng, 4)
        res = m @ linalg.inverse(m) - np.eye(4)
        assert np.sqrt(linalg.frob_norm_sq(res)) <= 1e-9 * np.sqrt(linalg.frob_norm_sq(m))


def test_inverse_singular_raises():
    sing = linalg.cmatrix([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        linalg.inverse(sing)
    with pytest.raises(SingularMatrixError):
        linalg.inverse(linalg.cmatrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]]))


def test_det_trivial_and_closed_form():
    assert linalg.det(np.eye(3, dtype=complex)) == 1
    assert linalg.det(linalg.cmatrix([[2, 0], [0, 3]])) == 6
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rand_cmatrix(rng, 2)
        oracle = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(linalg.det(m) - oracle) <= 1e-12 * abs(oracle)


def test_det_singular_is_zero():
    assert linalg.det(linalg.cmatrix([[1, 1], [1, 1]])) == 0
    assert linalg.det(linalg.cmatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == 0


def test_agrees_with_numpy():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        for _ in range(10):
            m = rand_cmatrix(rng, n)
            d = np.linalg.det(m)
            assert abs(linalg.det(m) - d) <= 1e-12 * abs(d)
            inv = np.linalg.inv(m)
            assert np.max(np.abs(linalg.inverse(m) - inv)) <= 1e-12 * np.max(np.abs(inv))


@pytest.mark.parametrize("n", [2, 4])
def test_singularity_threshold(n):
    """Singular means smallest singular value <= PIVOT_RTOL (1e-12) x largest."""
    sing = np.diag([1.0] * (n - 1) + [1e-13]).astype(complex)
    with pytest.raises(SingularMatrixError):
        linalg.inverse(sing)
    assert linalg.det(sing) == 0
    ok = np.diag([1.0] * (n - 1) + [1e-11]).astype(complex)
    assert np.allclose(linalg.inverse(ok), np.diag([1.0] * (n - 1) + [1e11]))
    assert abs(linalg.det(ok) - 1e-11) <= 1e-24


def test_rank_deficient_products_are_singular():
    rng = np.random.default_rng(11)
    for n in range(3, 9):
        m = rand_cmatrix(rng, n, n - 1) @ rand_cmatrix(rng, n - 1, n)
        with pytest.raises(SingularMatrixError):
            linalg.inverse(m)
        assert linalg.det(m) == 0


@pytest.mark.parametrize("n", [2, 4])
def test_stacks_follow_the_same_rule(n):
    """A (..., n, n) stack is inverted member by member; its singular members
    come back as NaN, the others as their own inverse, and their det is 0."""
    rng = np.random.default_rng(12)
    stack = rand_cmatrix(rng, 3 * n, n).reshape(3, n, n)
    stack[1] = np.diag([1.0] * (n - 1) + [1e-13])
    inv = linalg.inverse(stack)
    assert inv.shape == stack.shape
    assert np.all(np.isnan(inv[1]))
    for i in (0, 2):
        single = linalg.inverse(stack[i])
        assert np.max(np.abs(inv[i] - single)) <= 1e-12 * np.max(np.abs(single))
    assert list(linalg._is_singular(stack)) == [False, True, False]
    dets = linalg.det(stack)
    assert dets[1] == 0
    assert all(abs(dets[i] - linalg.det(stack[i])) <= 1e-12 * abs(dets[i]) for i in (0, 2))


def test_det_multiplicative():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(10):
            a, b = rand_cmatrix(rng, n), rand_cmatrix(rng, n)
            lhs = linalg.det(a @ b)
            rhs = linalg.det(a) * linalg.det(b)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_trace_and_frobenius():
    assert linalg.frob_norm_sq(linalg.cmatrix([[1, 1j]])) == 2.0
    rng = np.random.default_rng(8)
    m = rand_cmatrix(rng, 3, 5)
    assert np.isclose(linalg.frob_norm_sq(m), np.sum(np.abs(m) ** 2), rtol=1e-15)
    # frob_norm_sq(m) = trace(gram(m)) for any shape
    assert np.isclose(linalg.frob_norm_sq(m), np.trace(linalg.gram(m)).real, rtol=1e-13)


def test_gram_of_unitary_is_identity():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rand_cmatrix(rng, 4))
    assert np.allclose(linalg.gram(q), np.eye(4), atol=1e-12)


def assert_matmul_matches_numpy(x, y):
    """linalg.matmul(x, y) has the shape and dtype of x @ y and lies within
    4 K eps (|x| @ |y|) of it per element, with K the inner dimension."""
    out, ref = linalg.matmul(x, y), x @ y
    assert out.shape == ref.shape and out.dtype == ref.dtype
    bound = 4 * x.shape[-1] * np.finfo(np.float64).eps * (np.abs(x) @ np.abs(y))
    assert (np.abs(out - ref) <= bound).all()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_matmul_matches_numpy_on_stacks(k):
    rng = np.random.default_rng(40 + k)
    stack = lambda *shape: rand_cmatrix(rng, int(np.prod(shape[:-1])), shape[-1]).reshape(shape)  # noqa: E731
    per_trial, per_point, constant = stack(6, 1, k, k), stack(6, 5, k, k), stack(k, k)
    assert_matmul_matches_numpy(per_trial, per_point)  # (T, 1, K, K) @ (T, S, K, K)
    assert_matmul_matches_numpy(per_point, per_trial)
    assert_matmul_matches_numpy(constant, per_point)
    assert_matmul_matches_numpy(per_point, constant)
    assert_matmul_matches_numpy(constant, stack(k, k))  # 2-D operands
    integers = rng.integers(-3, 4, (6, 5, k, k))
    assert_matmul_matches_numpy(per_trial, integers)
    assert np.array_equal(linalg.matmul(integers, integers), integers @ integers)
    for m in range(k, 9):  # rectangular (K x M) @ (M x K), alone and stacked
        assert_matmul_matches_numpy(stack(k, m), stack(m, k))
        assert_matmul_matches_numpy(stack(6, 1, k, m), stack(6, 5, m, k))
    with pytest.raises(ValueError):
        linalg.matmul(stack(k, k), stack(k + 1, k))


def test_matmul_keeps_nan_members():
    """The NaN members of a stack of inverse Gram matrices (singular channels)
    give NaN products; the others are untouched."""
    rng = np.random.default_rng(47)
    m = rand_cmatrix(rng, 8 * 2, 2).reshape(4, 2, 2, 2)
    m[1, 0] = m[3, 1] = np.nan
    y = rand_cmatrix(rng, 8 * 2, 2).reshape(4, 2, 2, 2)
    out = linalg.matmul(m, y)
    nan = np.isnan(m).all(axis=(-2, -1))
    assert np.isnan(out[nan]).all()
    assert not np.isnan(out[~nan]).any()
    assert_matmul_matches_numpy(m[~nan], y[~nan])


def test_cmatrix_validation():
    with pytest.raises(ValueError):
        linalg.cmatrix([1, 2, 3])
    with pytest.raises(ValueError):
        linalg.cmatrix([[np.inf, 0], [0, 1]])


def conditioned_stack(rng, n, conds):
    """U diag(s) V^H members with s log-spaced from 1 down to 1/cond."""
    def unitary():
        return np.linalg.qr(rand_cmatrix(rng, n))[0]

    members = [unitary() @ np.diag(np.geomspace(1.0, 1.0 / c, n)) @ unitary().conj().T for c in conds]
    return np.array(members)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_norm_bound_agrees_with_svd_rule(n):
    """inverse clears members by ||m||_F ||m^-1||_F < 0.5/PIVOT_RTOL before any
    SVD; the members it marks singular must be exactly those _is_singular
    marks, with condition numbers on both sides of the bound's 5e11 and the
    rule's 1e12, and every other member must be np.linalg.inv of it alone."""
    rng = np.random.default_rng(30 + n)
    # log-spaced over 1e9-1e15, and dense within 2e-4 of the rule's 1e12, where
    # the computed m^-1 and the SVD each err by about 1e-4 of the condition number
    near_rule = 1e12 * (1.0 + np.linspace(-2e-4, 2e-4, 200))
    conds = np.concatenate([np.geomspace(1e9, 1e15, 61), near_rule])
    base = conditioned_stack(rng, n, conds)
    zero_row = base[len(base) // 2].copy()
    zero_row[n // 2] = 0.0  # makes np.linalg.inv raise for a whole stack holding it
    with_zero_row = np.concatenate([base, zero_row[None]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(with_zero_row)
    for stack in (base, with_zero_row, with_zero_row.reshape(-1, 2, n, n)):
        singular = linalg._is_singular(stack)
        assert singular.any() and not singular.all()
        inv = linalg.inverse(stack)
        assert (np.isnan(inv).all(axis=(-2, -1)) == singular).all()
        assert not np.isnan(inv[~singular]).any()
        members, inverses = stack[~singular], inv[~singular]
        for member, member_inv in zip(members, inverses):
            assert np.array_equal(member_inv, np.linalg.inv(member))
    for member, singular in zip(with_zero_row, linalg._is_singular(with_zero_row)):
        if singular:
            with pytest.raises(SingularMatrixError):
                linalg.inverse(member)
        else:
            assert np.array_equal(linalg.inverse(member), np.linalg.inv(member))


@pytest.mark.parametrize("k", range(2, 9))
def test_norm_sq_does_not_depend_on_the_stack(k):
    """Each member's squared row norms, and its squared column norms through a
    transposed view, have the same bits alone, in a sub-stack and in the
    whole stack, also for a lone row or column view."""
    rng = np.random.default_rng(60 + k)
    g = rand_cmatrix(rng, 6 * 5 * k, k).reshape(6, 5, k, k)
    rows, cols = linalg.norm_sq(g), linalg.norm_sq(np.swapaxes(g, -2, -1))
    assert np.allclose(rows, (np.abs(g) ** 2).sum(axis=-1), rtol=1e-14, atol=0)
    assert np.allclose(cols, (np.abs(g) ** 2).sum(axis=-2), rtol=1e-14, atol=0)
    assert np.array_equal(linalg.norm_sq(np.swapaxes(g[2], -2, -1)), cols[2])
    for i, j in np.ndindex(6, 5):
        member = g[i, j].copy()
        assert np.array_equal(linalg.norm_sq(member), rows[i, j])
        assert np.array_equal(linalg.norm_sq(member.T), cols[i, j])
        for r in range(k):
            assert linalg.norm_sq(g[i, j, r]) == rows[i, j, r]
            assert linalg.norm_sq(g[i, j, :, r]) == cols[i, j, r]
