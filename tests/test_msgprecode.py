"""Finite-field message layer: invertibility, pre-inversion, exact round trips."""

import math
import time
import warnings

import numpy as np
import pytest

from difprec.gaussint import GaussInt, IntegerCoeffMatrix
from difprec.msgprecode import (
    MessageMatrix,
    ModPField,
    NotInvertibleModPError,
    modp_inverse,
    modp_invertible,
    precode_messages,
    recover_message,
)


def gi_matrix(rows):
    return IntegerCoeffMatrix.from_rows([[GaussInt(*e) for e in row] for row in rows])


def random_invertible(field, k, rng):
    while True:
        a = IntegerCoeffMatrix(rng.integers(-6, 7, (k, k)), rng.integers(-6, 7, (k, k)))
        if modp_invertible(a, field):
            return a


def test_field_validation():
    ModPField(7)
    ModPField(11)
    ModPField(19)
    with pytest.raises(ValueError):
        ModPField(5)  # 5 = 1 mod 4: Z_5[j] is not a field
    with pytest.raises(ValueError):
        ModPField(9)  # not prime
    with pytest.raises(ValueError):
        ModPField(2)


def test_field_rejects_p_whose_square_overflows_int64_at_once():
    """2^61 - 1 is prime and 3 mod 4, but its products overflow int64; it is
    rejected before the trial-division primality test, which would not end."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        ModPField(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert ModPField(3_037_000_427).p == 3_037_000_427  # the largest accepted p


# The accepted primes on either side of each storage-type boundary, and the ends.
BOUNDARY_PRIMES = {
    3: np.int8, 59: np.int8, 67: np.int16, 251: np.int16, 16_363: np.int16, 16_411: np.int32,
    1_073_741_783: np.int32, 1_073_741_827: np.int64, 2**31 - 1: np.int64, 3_037_000_427: np.int64,
}


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_parts_are_stored_in_the_narrowest_type_that_holds_a_sum_of_two(p):
    """Every MessageMatrix the layer returns keeps its parts reduced mod p in
    np.min_scalar_type(-2 p), where a sum of two parts cannot wrap, and the
    products taken through the layer stay exact."""
    field = ModPField(p)
    dtype = np.min_scalar_type(-2 * p)
    assert dtype == BOUNDARY_PRIMES[p]
    rng = np.random.default_rng(p % 1000)
    a = random_invertible(field, 3, rng)
    w = MessageMatrix.random(field, 3, 5, rng)
    wp = precode_messages(w, a)
    top = MessageMatrix(field, np.full((3, 5), p - 1), np.full((3, 5), p - 1))
    given = MessageMatrix(field, [[p - 1, -1, 2 * p + 1]], [[-p, p, -2 * p + 3]])
    made = [given, w, top, w.row(2), w + w, top + top, modp_inverse(a, field), wp, recover_message(1, wp, a)]
    for m in made:
        for part in (m.re, m.im):
            assert part.dtype == dtype
            assert ((part >= 0) & (part < p)).all()
    assert given.re.tolist() == [[p - 1, p - 1, 1]] and given.im.tolist() == [[0, 0, 3 % p]]
    assert np.array_equal((top + top).re, np.full((3, 5), 2 * (p - 1) % p))
    assert np.array_equal((top + top).im, np.full((3, 5), 2 * (p - 1) % p))
    for i in range(3):
        assert recover_message(i, wp, a) == w.row(i)


def test_message_parts_that_are_not_integers_are_refused():
    """A fraction, a NaN, an infinity, an integer int64 cannot hold or a
    complex part raises ValueError, with no warning, instead of being
    truncated, wrapped or overflowing; integers in any dtype are reduced mod p.
    IntegerCoeffMatrix applies the same check."""
    field = ModPField(7)
    zero = np.zeros((1, 2), np.int64)
    bad_parts = ([[1.5, 2.9]], [[math.nan, 0.0]], [[0.0, -math.inf]], [[2**70, 0]], [[-(2**63) - 1, 0]],
                 np.array([[2**63, 0]], np.uint64), np.array([[1, 0.5]], object), np.array([[1 + 0j, 0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in bad_parts:
            with pytest.raises(ValueError, match="integers"):
                MessageMatrix(field, bad, zero)
            with pytest.raises(ValueError, match="integers"):
                MessageMatrix(field, zero, bad)
        with pytest.raises(ValueError, match="integers"):
            IntegerCoeffMatrix([[2**70, 0], [0, 1]], np.zeros((2, 2), np.int64))
        w = MessageMatrix(field, [[3.0, -1.0]], np.array([[2**63 - 1, -(2**63)]]))
        assert w.re.tolist() == [[3, 6]] and w.im.tolist() == [[(2**63 - 1) % 7, -(2**63) % 7]]
        small = MessageMatrix(field, np.array([[9, 250]], np.uint8), np.array([[True, False]]))
        assert small.re.tolist() == [[2, 5]] and small.im.tolist() == [[1, 0]]


def test_parts_are_read_only():
    """An in-place write would break the reduced-mod-p invariant, so the
    parts refuse it; the caller's own arrays stay writable."""
    field = ModPField(11)
    src = np.arange(6).reshape(2, 3)
    w = MessageMatrix(field, src, src)
    a = IntegerCoeffMatrix.identity(2)
    for m in (w, w.row(0), w + w, MessageMatrix.random(field, 2, 3, np.random.default_rng(8)),
              modp_inverse(a, field), precode_messages(w, a), recover_message(1, w, a)):
        for part in (m.re, m.im):
            with pytest.raises(ValueError, match="read-only"):
                part[0, 0] = 999
    src[0, 0] = 5
    assert w.re[0, 0] == 0


def test_round_trip_exact_for_large_p():
    """p = 2^31 - 1 at K = 3: a sum of K products below p^2 would overflow
    int64 unless each product is reduced first."""
    field = ModPField(2**31 - 1)
    rng = np.random.default_rng(6)
    for k in (1, 3, 5):
        a = random_invertible(field, k, rng)
        w = MessageMatrix.random(field, k, 16, rng)
        wp = precode_messages(w, a)
        for i in range(k):
            assert recover_message(i, wp, a) == w.row(i)


def test_modp_invertible_examples():
    f7 = ModPField(7)
    assert modp_invertible(IntegerCoeffMatrix.identity(2), f7)
    assert not modp_invertible(gi_matrix([[(1, 0), (1, 0)], [(1, 0), (1, 0)]]), f7)
    assert modp_invertible(gi_matrix([[(1, 0), (0, 0)], [(2, 1), (1, 0)]]), f7)
    # det = 7: invertible over C but zero mod 7
    a = gi_matrix([[(7, 0), (0, 0)], [(0, 0), (1, 0)]])
    assert a.is_full_rank() and not modp_invertible(a, f7)


def test_modp_inverse_hand_example():
    f7 = ModPField(7)
    a = gi_matrix([[(1, 0), (0, 0)], [(2, 0), (1, 0)]])
    atilde = modp_inverse(a, f7)
    assert np.array_equal(atilde.re, [[1, 0], [5, 1]])
    assert np.array_equal(atilde.im, np.zeros((2, 2), dtype=np.int64))
    eye = modp_inverse(IntegerCoeffMatrix.identity(3), f7)
    assert np.array_equal(eye.re, np.eye(3, dtype=np.int64))


def test_modp_inverse_multiply_back():
    """The inverse is unique, so A Atilde = I mod p pins it, for K = 1 to 8,
    up to the largest accepted p (the check multiplies in Python integers)."""
    rng = np.random.default_rng(0)
    for p in (11, 251, 3_037_000_427):
        field = ModPField(p)
        for k in range(1, 9):
            for _ in range(5):
                a = random_invertible(field, k, rng)
                atilde = modp_inverse(a, field)
                assert atilde.re.dtype == atilde.im.dtype == np.min_scalar_type(-2 * p)
                ar, ai, tr, ti = (x.astype(object) for x in (a.re % p, a.im % p, atilde.re, atilde.im))
                assert np.array_equal((ar @ tr - ai @ ti) % p, np.eye(k, dtype=np.int64))
                assert np.array_equal((ar @ ti + ai @ tr) % p, np.zeros((k, k), dtype=np.int64))


def test_modp_inverse_not_invertible_raises():
    with pytest.raises(NotInvertibleModPError):
        modp_inverse(gi_matrix([[(1, 0), (1, 0)], [(1, 0), (1, 0)]]), ModPField(7))


def test_a_stack_of_coefficient_matrices_is_refused():
    """The message layer takes one A: a stack raises ValueError, as the
    single-matrix methods of IntegerCoeffMatrix do."""
    field = ModPField(7)
    stack = IntegerCoeffMatrix(np.tile(np.eye(2, dtype=np.int64), (3, 1, 1)), np.zeros((3, 2, 2), np.int64))
    w = MessageMatrix(field, np.ones((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="not a stack"):
        modp_inverse(stack, field)
    with pytest.raises(ValueError, match="not a stack"):
        precode_messages(w, stack)
    with pytest.raises(ValueError, match="not a stack"):
        recover_message(0, w, stack)


def test_full_rank_matrix_with_det_zero_mod_p_is_refused():
    """det = 7: invertible over C, but neither inverted nor used to precode mod 7."""
    field = ModPField(7)
    a = gi_matrix([[(7, 0), (0, 0)], [(0, 0), (1, 0)]])
    assert a.is_full_rank()
    with pytest.raises(NotInvertibleModPError):
        modp_inverse(a, field)
    with pytest.raises(NotInvertibleModPError):
        precode_messages(MessageMatrix.random(field, 2, 3, np.random.default_rng(7)), a)


@pytest.mark.parametrize("p", [3, 7])
def test_modp_invertible_iff_modp_inverse_returns(p):
    """The det_exact test and the elimination agree on every draw; at small p
    singular draws are common, so both answers occur at every K."""
    field = ModPField(p)
    rng = np.random.default_rng(p)
    for k in range(1, 6):
        answers = set()
        for _ in range(60):
            a = IntegerCoeffMatrix(rng.integers(-6, 7, (k, k)), rng.integers(-6, 7, (k, k)))
            try:
                modp_inverse(a, field)
                returned = True
            except NotInvertibleModPError:
                returned = False
            assert modp_invertible(a, field) == returned
            answers.add(returned)
        assert answers == {True, False}


def test_precode_identity_and_zero():
    field = ModPField(7)
    rng = np.random.default_rng(1)
    w = MessageMatrix.random(field, 2, 6, rng)
    assert precode_messages(w, IntegerCoeffMatrix.identity(2)) == w
    zero = MessageMatrix(field, np.zeros((2, 6), int), np.zeros((2, 6), int))
    a = gi_matrix([[(1, 0), (0, 0)], [(2, 1), (1, 0)]])
    assert precode_messages(zero, a) == zero


def test_precode_hand_case():
    # A = [[1,0],[2,1](int)], p = 7: row 2 of W' is (w2 - 2 w1) mod 7 entry-wise
    field = ModPField(7)
    w = MessageMatrix(field, np.array([[1, 4], [3, 2]]), np.array([[0, 5], [0, 6]]))
    a = gi_matrix([[(1, 0), (0, 0)], [(2, 0), (1, 0)]])
    wp = precode_messages(w, a)
    assert np.array_equal(wp.re[0], w.re[0]) and np.array_equal(wp.im[0], w.im[0])
    assert np.array_equal(wp.re[1], (w.re[1] - 2 * w.re[0]) % 7)
    assert np.array_equal(wp.im[1], (w.im[1] - 2 * w.im[0]) % 7)


def test_recover_identity_case():
    field = ModPField(19)
    rng = np.random.default_rng(2)
    w = MessageMatrix.random(field, 3, 4, rng)
    for i in range(3):
        assert recover_message(i, w, IntegerCoeffMatrix.identity(3)) == w.row(i)


def test_a_row_outside_the_matrix_raises_index_error():
    """Rows are 0..K-1: a row past either end, -1 included, raises IndexError
    instead of giving an empty 0 x n matrix."""
    field = ModPField(7)
    w = MessageMatrix.random(field, 2, 3, np.random.default_rng(4))
    a = IntegerCoeffMatrix.identity(2)
    for i in (2, 5, -1, -3):
        with pytest.raises(IndexError):
            w.row(i)
        with pytest.raises(IndexError):
            recover_message(i, w, a)
    assert w.row(1).shape == recover_message(1, w, a).shape == (1, 3)


def test_round_trip_random():
    rng = np.random.default_rng(3)
    for p in (7, 11, 19):
        field = ModPField(p)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            w = MessageMatrix.random(field, k, int(rng.integers(1, 8)), rng)
            a = random_invertible(field, k, rng)
            wp = precode_messages(w, a)
            for i in range(k):
                assert recover_message(i, wp, a) == w.row(i)


def test_round_trip_single_symbol_by_hand():
    # K = 2, n = 1, p = 7, A = [[1,0],[1,1]]: Atilde = [[1,0],[6,1]],
    # W' = Atilde W, a_2 W' = (w1 + (6 w1 + w2)) = w2 mod 7.
    field = ModPField(7)
    w = MessageMatrix(field, np.array([[3], [5]]), np.array([[2], [4]]))
    a = gi_matrix([[(1, 0), (0, 0)], [(1, 0), (1, 0)]])
    wp = precode_messages(w, a)
    assert np.array_equal(wp.re, np.array([[3], [(5 + 6 * 3) % 7]]))
    assert recover_message(0, wp, a) == w.row(0)
    assert recover_message(1, wp, a) == w.row(1)


def test_precode_is_linear():
    field = ModPField(11)
    rng = np.random.default_rng(4)
    a = random_invertible(field, 3, rng)
    w1 = MessageMatrix.random(field, 3, 5, rng)
    w2 = MessageMatrix.random(field, 3, 5, rng)
    assert precode_messages(w1 + w2, a) == precode_messages(w1, a) + precode_messages(w2, a)


def test_invertibility_invariant_under_row_ops():
    field = ModPField(7)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_invertible(field, 3, rng)
        perm = rng.permutation(3)
        permuted = IntegerCoeffMatrix(a.re[perm], a.im[perm])
        assert modp_invertible(permuted, field)
        # multiply a row by the unit j: (re, im) -> (-im, re)
        re2, im2 = a.re.copy(), a.im.copy()
        re2[0], im2[0] = -a.im[0], a.re[0]
        assert modp_invertible(IntegerCoeffMatrix(re2, im2), field)
