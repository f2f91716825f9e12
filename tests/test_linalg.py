"""Complex matrix kernel checks: the QR factor against numpy, and the one
singularity rule read from its diagonal."""

import numpy as np
import pytest

from difprec import linalg
from difprec.baselines import design_rzf, design_zf
from difprec.designer import design_dif_2user
from difprec.linalg import SingularMatrixError
from difprec.rates import ChannelMatrix


def rand_cmatrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_inverse_trivial_cases():
    """For a square channel H, b = H^H (H H^H)^-1 is H^-1 and m is (H H^H)^-1."""
    for h in (np.eye(3, dtype=complex), linalg.cmatrix([[2, 0], [0, 1j]])):
        f = linalg.qr_factor(h.conj().T)
        assert not f.singular
        assert np.allclose(f.b, np.linalg.inv(h), rtol=0, atol=1e-15)
        assert np.allclose(f.m, np.linalg.inv(h @ h.conj().T), rtol=0, atol=1e-15)


def test_inverse_residual_small():
    """b is a right inverse of H: H b = I to 1e-12, square or wide, plain or
    regularized, where H^H b = (H H^H + s^2 I)^-1 H H^H."""
    rng = np.random.default_rng(4)
    for m in (4, 6):
        for _ in range(20):
            h = rand_cmatrix(rng, 4, m)
            assert np.abs(h @ linalg.qr_factor(h.conj().T).b - np.eye(4)).max() <= 1e-12
            g = h @ h.conj().T
            b = linalg.qr_factor(h.conj().T, 0.5).b
            assert np.abs(h @ b - np.linalg.solve(g + 0.25 * np.eye(4), g)).max() <= 1e-12


def singular_channels():
    return [linalg.cmatrix([[1, 1], [1, 1]]), linalg.cmatrix([[1, 2, 3], [4, 5, 6], [5, 7, 9]])]


def test_inverse_singular_raises():
    """A singular channel's factor is flagged, its b is NaN, its m raises
    SingularMatrixError, and so does a single-channel design on it."""
    for h in singular_channels():
        f = linalg.qr_factor(h.conj().T)
        assert f.singular and np.isnan(f.b).all()
        with pytest.raises(SingularMatrixError):
            f.m
        with pytest.raises(SingularMatrixError):
            design_zf(ChannelMatrix(h, 10.0))
    with pytest.raises(SingularMatrixError):
        design_dif_2user(ChannelMatrix(singular_channels()[0], 10.0))


def test_det_trivial_and_closed_form():
    """det(H H^H) = prod |r_jj|^2, the determinant the high-SNR formulas read."""
    def det_gram(h):
        return np.prod(np.abs(np.diagonal(linalg.qr_factor(h.conj().T).r)) ** 2)

    assert det_gram(np.eye(3, dtype=complex)) == 1
    assert abs(det_gram(linalg.cmatrix([[2, 0], [0, 3]])) - 36) <= 1e-13
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = rand_cmatrix(rng, 2, 3)
        oracle = np.linalg.det(h @ h.conj().T).real
        assert abs(det_gram(h) - oracle) <= 1e-12 * oracle


def test_det_singular_is_zero():
    """A singular channel, whose det(H H^H) is 0, has a singular factor, and
    the two-user design on it raises by name."""
    for h in singular_channels():
        assert ChannelMatrix(h, 100.0).factor().singular
    with pytest.raises(SingularMatrixError):
        design_dif_2user(ChannelMatrix(singular_channels()[0], 100.0))


def test_agrees_with_numpy():
    """m is numpy's (X^H X + s^2 I)^-1 and b is X m, for square and tall X."""
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        for rows in (n, n + 2):
            for s in (None, 0.3):
                x = rand_cmatrix(rng, rows, n)
                m = np.linalg.inv(x.conj().T @ x + (0.0 if s is None else s * s) * np.eye(n))
                f = linalg.qr_factor(x, s)
                assert np.abs(f.m - m).max() <= 1e-12 * np.abs(m).max()
                assert np.abs(f.b - x @ m).max() <= 1e-12 * np.abs(x @ m).max()


def near_collinear(n, sine):
    """Columns e_1 .. e_(n-1) and cos e_(n-1) + sine e_n: the last lies at
    angle asin(sine) from the span of the others."""
    x = np.eye(n, dtype=complex)
    x[:, -1] = np.sqrt(1.0 - sine * sine) * x[:, -2] + sine * x[:, -1]
    return x


@pytest.mark.parametrize("n", [2, 4])
def test_singularity_threshold(n):
    """Singular means some |r_jj| <= FACTOR_RTOL (1e-6) x its column's norm,
    whatever the columns' scales; a zero column is singular.  Just above the
    threshold b still inverts X to 1e-9."""
    for sine, expected in ((0.9e-6, True), (1.1e-6, False)):
        x = near_collinear(n, sine)
        for scale in (1.0, 1e-7, 1e7):
            x_scaled = x * np.r_[np.ones(n - 1), scale]
            assert linalg.qr_factor(x_scaled).singular == expected
        if not expected:
            b = linalg.qr_factor(x).b
            assert np.abs(x.conj().T @ b - np.eye(n)).max() <= 1e-9
    x = np.eye(n, dtype=complex)
    x[:, 1] = 0
    assert linalg.qr_factor(x).singular


def test_rank_deficient_products_are_singular():
    rng = np.random.default_rng(11)
    for n in range(3, 9):
        m = rand_cmatrix(rng, n, n - 1) @ rand_cmatrix(rng, n - 1, n)
        assert linalg.qr_factor(m).singular


@pytest.mark.parametrize("n", [2, 4])
def test_stacks_follow_the_same_rule(n):
    """A (..., n, n) stack is factored member by member: each member gets the
    flag and the bits it gets alone, also with its own shift s, and a
    singular member's b and m are NaN."""
    rng = np.random.default_rng(12)
    stack = rand_cmatrix(rng, 3 * n, n).reshape(3, n, n)
    stack[1] = near_collinear(n, 1e-7)
    shifts = np.array([0.1, 0.2, 0.3])
    for s in (None, shifts):
        f = linalg.qr_factor(stack, s)
        assert list(f.singular) == [False, s is None, False]
        assert np.isnan(f.b[f.singular]).all() and np.isnan(f.m[f.singular]).all()
        for i in range(3):
            alone = linalg.qr_factor(stack[i], None if s is None else s[i])
            assert alone.singular == f.singular[i]
            for field in ("r", "r_inv", "b"):
                assert np.array_equal(getattr(alone, field), getattr(f, field)[i], equal_nan=True), field


def test_regularized_factor_of_a_zero_row_is_regular():
    """A zero row makes the plain factor singular; the regularized factor is
    regular, and RZF gives that user rate 0 and the other a positive rate."""
    h = rand_cmatrix(np.random.default_rng(13), 2, 2)
    h[1] = 0
    ch = ChannelMatrix(h, 10.0)
    assert ch.factor().singular and not ch.factor(True).singular
    rates = design_rzf(ch).rates.per_user
    assert rates[1] == 0.0 and rates[0] > 0.0


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
    """The NaN members of a stack of factors' B (singular channels) give NaN
    products; the others are untouched."""
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
def test_diagonal_rule_brackets_the_condition_number(n):
    """With X_e the matrix X with unit columns, a member the rule marks
    singular has cond(X_e) >= 1/FACTOR_RTOL, since the smallest singular value
    of triangular R is at most its smallest |r_jj|; for two columns the rule
    is exact: cond + 1/cond = 2/|sin angle| >= 2/FACTOR_RTOL.  Checked over
    condition numbers 1e3 to 1e9, and on a stack holding a zero column."""
    rng = np.random.default_rng(30 + n)
    stack = conditioned_stack(rng, n, np.geomspace(1e3, 1e9, 121))
    zero = stack[0].copy()
    zero[:, n // 2] = 0.0
    stack = np.concatenate([stack, zero[None]])
    flags = linalg.qr_factor(stack).singular
    assert flags.any() and not flags.all() and flags[-1]
    for member, flag in zip(stack[:-1], flags[:-1]):
        s = np.linalg.svd(member / np.linalg.norm(member, axis=0), compute_uv=False)
        cond = s[0] / s[-1]
        if flag:
            assert cond >= (1.0 - 1e-6) / linalg.FACTOR_RTOL
        if n == 2:
            assert flag == (cond + 1.0 / cond >= 2.0 / linalg.FACTOR_RTOL)


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
