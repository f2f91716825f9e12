"""Gaussian-integer arithmetic and two-squares set, checked by enumeration."""

import math

import numpy as np
import pytest

from difprec.gaussint import (
    GaussInt,
    IntegerCoeffMatrix,
    ceil_norm_set,
    floor_norm_set,
    in_norm_set,
    two_square_decomp,
)


def norm_set_oracle(limit):
    """Direct double-loop enumeration of {a^2 + b^2 <= limit}."""
    members = set()
    a = 0
    while a * a <= limit:
        b = 0
        while a * a + b * b <= limit:
            members.add(a * a + b * b)
            b += 1
        a += 1
    return members


def test_ring_ops():
    x = GaussInt(1, 1)
    y = GaussInt(1, -1)
    assert x * y == GaussInt(2, 0)
    assert GaussInt(2, 1).norm_sq() == 5
    assert x + y == GaussInt(2, 0)
    assert x.conj().conj() == x


def test_norm_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = GaussInt(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
        y = GaussInt(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


def test_in_norm_set_small_values():
    assert in_norm_set(0) and in_norm_set(1) and in_norm_set(2)
    assert not in_norm_set(3) and not in_norm_set(7)
    assert in_norm_set(8) and in_norm_set(9)


def test_in_norm_set_matches_enumeration_to_1e4():
    members = norm_set_oracle(10**4)
    for n in range(10**4 + 1):
        assert in_norm_set(n) == (n in members), n


def test_in_norm_set_rejects_negative():
    with pytest.raises(ValueError):
        in_norm_set(-1)


def test_floor_ceil_examples():
    assert floor_norm_set(7) == 5
    assert ceil_norm_set(7) == 8
    assert floor_norm_set(4) == 4 == ceil_norm_set(4)
    assert floor_norm_set(0.3) == 0
    assert ceil_norm_set(0.3) == 1


def test_floor_ceil_bracket_property():
    rng = np.random.default_rng(1)
    for x in rng.uniform(0, 500, 200):
        lo, hi = floor_norm_set(x), ceil_norm_set(x)
        assert lo <= x <= hi
        assert in_norm_set(lo) and in_norm_set(hi)


def is_two_squares_brute(n):
    a = np.arange(math.isqrt(n) + 1, dtype=np.int64)
    rest = n - a * a
    b = np.round(np.sqrt(rest)).astype(np.int64)
    return bool((b * b == rest).any())


def test_floor_ceil_extremal_above_1e7():
    """Up to the 5e8 that the designer's correlation clamp produces, floor is
    the largest member <= x and ceil the smallest >= x: every integer strictly
    between them is outside the set, by a scan independent of in_norm_set."""
    rng = np.random.default_rng(8)
    for x in [*rng.uniform(1e7, 5e8, 4), 5e8 + 0.5, 5e8]:
        lo, hi = floor_norm_set(x), ceil_norm_set(x)
        assert lo <= x <= hi
        assert is_two_squares_brute(lo) and is_two_squares_brute(hi)
        assert not any(is_two_squares_brute(n) for n in range(lo + 1, hi))


def test_two_square_decomp_canonical():
    assert two_square_decomp(5) == GaussInt(2, 1)
    assert two_square_decomp(0) == GaussInt(0, 0)
    assert two_square_decomp(1) == GaussInt(1, 0)
    assert two_square_decomp(8) == GaussInt(2, 2)
    for n in range(0, 400):
        if in_norm_set(n):
            g = two_square_decomp(n)
            assert g.norm_sq() == n
            assert g.re >= g.im >= 0
        else:
            with pytest.raises(ValueError):
                two_square_decomp(n)


def largest_a_brute(n):
    """a >= b >= 0 with a^2 + b^2 = n and the largest a, or None, by a scan
    over b upward (the smallest b has the largest a), independent of gaussint."""
    b = np.arange(math.isqrt(n // 2) + 1, dtype=np.int64)
    rest = n - b * b
    a = np.round(np.sqrt(rest)).astype(np.int64)
    hit = np.flatnonzero((a * a == rest) & (a >= b))
    return (int(a[hit[0]]), int(b[hit[0]])) if hit.size else None


def test_two_square_decomp_takes_the_largest_a_to_1e5():
    """The pair with the largest a fixes A = [[1, 0], [a21, 1]] in the two-user
    table: checked against every representation a >= b >= 0 up to 10^5."""
    limit = 10**5
    best = np.full(limit + 1, -1)
    a, b = np.meshgrid(np.arange(math.isqrt(limit) + 1), np.arange(math.isqrt(limit) + 1), indexing="ij")
    keep = (a >= b) & (a * a + b * b <= limit)
    np.maximum.at(best, (a * a + b * b)[keep], a[keep])
    for n in range(limit + 1):
        if best[n] < 0:
            assert not in_norm_set(n), n
            with pytest.raises(ValueError):
                two_square_decomp(n)
        else:
            assert in_norm_set(n), n
            assert two_square_decomp(n) == GaussInt(int(best[n]), math.isqrt(n - int(best[n]) ** 2)), n


def test_two_square_decomp_takes_the_largest_a_to_the_correlation_clamp():
    """Up to the 5e8 the designer's correlation clamp produces, and on n with
    several representations, the canonical pair is the largest-a one."""
    several = [25, 65, 325, 1105, 5525, 32045, 1185665, 48612265, 5**2 * 13**2 * 17 * 29 * 37, 5 * 13 * 17 * 29 * 37 * 41 * 2]
    assert all(n <= 5 * 10**8 for n in several)
    rng = np.random.default_rng(26)
    squares = rng.integers(0, 15811, (100, 2))  # a^2 + b^2 <= 5e8
    sampled = [int(x) for x in rng.integers(10**5, 5 * 10**8, 100)] + [5 * 10**8, 5 * 10**8 - 1]
    for n in several + [int(a * a + b * b) for a, b in squares] + sampled:
        want = largest_a_brute(n)
        assert in_norm_set(n) == (want is not None), n
        if want is None:
            with pytest.raises(ValueError):
                two_square_decomp(n)
        else:
            assert two_square_decomp(n) == GaussInt(*want), n
    for n in several:  # each has more than one representation a >= b >= 0
        reps = [a for a in range(math.isqrt(n // 2), math.isqrt(n) + 1) if math.isqrt(n - a * a) ** 2 == n - a * a]
        assert len(reps) >= 2, n


def test_coeff_matrix_exact_det():
    eye = IntegerCoeffMatrix.identity(3)
    assert eye.det_exact() == GaussInt(1, 0)
    assert eye.is_unimodular()
    a = IntegerCoeffMatrix.from_rows(
        [[GaussInt(1, 0), GaussInt(0, 0)], [GaussInt(2, 1), GaussInt(1, 0)]]
    )
    assert a.det_exact() == GaussInt(1, 0)
    sing = IntegerCoeffMatrix(np.ones((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))
    assert not sing.is_full_rank()


def test_coeff_matrix_det_matches_float():
    rng = np.random.default_rng(2)
    for k in (2, 3, 4):
        for _ in range(20):
            re = rng.integers(-4, 5, (k, k))
            im = rng.integers(-4, 5, (k, k))
            a = IntegerCoeffMatrix(re, im)
            d = a.det_exact()
            assert np.isclose(
                complex(d.re, d.im), np.linalg.det(a.to_complex()), atol=1e-6
            )


def test_coeff_matrix_holds_a_stack():
    """A (T, S, K, K) stack: its K, complex form and equality are those of its
    members; non-square and mismatched parts are refused."""
    rng = np.random.default_rng(4)
    re, im = rng.integers(-4, 5, (2, 3, 3, 3)), rng.integers(-4, 5, (2, 3, 3, 3))
    a = IntegerCoeffMatrix(re, im)
    assert a.k == 3 and a.re.shape == a.im.shape == (2, 3, 3, 3) and a.re.dtype == np.int64
    z = a.to_complex()
    assert z.shape == (2, 3, 3, 3) and z.dtype == np.complex128
    for t, s in np.ndindex(2, 3):
        member = IntegerCoeffMatrix(re[t, s], im[t, s])
        assert np.array_equal(z[t, s], member.to_complex())
        assert np.array_equal(a.row(1)[t, s], member.row(1))
    assert a == IntegerCoeffMatrix(re.copy(), im.copy())
    assert a != IntegerCoeffMatrix(re, im + (np.arange(3) == 2))
    assert a != IntegerCoeffMatrix(re[:1], im[:1])
    for bad_re, bad_im in (
        (re[..., :2], im[..., :2]),  # K x (K - 1)
        (re, im[:1]),  # parts of different stack shapes
        (re[0, 0, 0], im[0, 0, 0]),  # a vector
    ):
        with pytest.raises(ValueError):
            IntegerCoeffMatrix(bad_re, bad_im)


def test_coeff_matrix_refuses_float_parts_it_cannot_hold_exactly():
    """A float part must hold integers below 2^53 in magnitude, the range in
    which complex floats keep Gaussian integers exactly: a fraction, a value
    past it or a NaN raises ValueError instead of being truncated or wrapped."""
    zero = np.zeros((2, 2))
    for bad in ([[1.5, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.7]], [[1e19, 0.0], [0.0, 1.0]],
                [[2.0**53, 0.0], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]], [[-math.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="below 2\\^53"):
            IntegerCoeffMatrix(bad, zero)
        with pytest.raises(ValueError, match="below 2\\^53"):
            IntegerCoeffMatrix(zero, bad)
    edge = 2.0**53 - 1.0
    a = IntegerCoeffMatrix(np.array([[edge, -0.0], [3.0, -edge]]), zero)
    assert a.re.dtype == np.int64 and a.re.tolist() == [[2**53 - 1, 0], [3, 1 - 2**53]]
    big = IntegerCoeffMatrix([[2**62, 0], [0, 1]], [[0, 0], [0, 0]])  # integer parts keep int64's range
    assert big.re[0, 0] == 2**62


def test_coeff_matrix_single_matrix_methods_refuse_a_stack():
    """det_exact and the rank tests need a single matrix; a stack of one
    member is refused too, so no axis of a stack is read as a matrix's."""
    for shape in ((1, 2, 2), (4, 2, 2), (2, 3, 2, 2)):
        a = IntegerCoeffMatrix(np.broadcast_to(np.eye(2, dtype=np.int64), shape), np.zeros(shape))
        for method in (a.det_exact, a.is_full_rank, a.is_unimodular):
            with pytest.raises(ValueError):
                method()
