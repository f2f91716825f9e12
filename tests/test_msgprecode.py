"""Finite-field message layer: invertibility, pre-inversion, exact round trips."""

import time

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
                assert atilde.re.dtype == atilde.im.dtype == np.int64
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
