"""Finite-field message layer.

Messages live in Z_p[j] with p prime and p = 3 (mod 4), which makes Z_p[j] a
field of order p^2.  The transmitter pre-inverts the integer coefficient
matrix A there (W' = inv(A) W mod p) so that the integer combination each
receiver decodes, a_i W' mod p, is exactly its own message row.  The
inverse comes from Gauss-Jordan elimination of [A | I] over Z_p[j] in Python
integers.  All arithmetic is exact for every p that ModPField accepts
(p^2 < 2^63): message parts are reduced mod p in the narrowest signed type
that holds -2p, where a sum of two cannot wrap, and they multiply in int64,
or in Python integers where their sums could overflow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussint import IntegerCoeffMatrix, exact_int64


class NotInvertibleModPError(ValueError):
    """Coefficient matrix has zero determinant modulo p."""


def _is_prime(p: int) -> bool:
    return p == 2 or p > 2 and p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


@dataclass(frozen=True)
class ModPField:
    """Z_p[j] for prime p = 3 (mod 4) with p^2 < 2^63: the largest accepted p
    is 3,037,000,427.  The bound is checked before the trial-division
    primality test, whose cost grows as sqrt(p).
    """

    p: int

    def __post_init__(self):
        if self.p * self.p >= 2**63:
            raise ValueError(f"p = {self.p} is too large: need p^2 < 2^63")
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.p % 4 != 3:
            raise ValueError(f"p = {self.p} must be congruent to 3 mod 4")


@dataclass(frozen=True)
class MessageMatrix:
    """Matrix over Z_p[j], its parts reduced mod p in read-only arrays of
    np.min_scalar_type(-2 * p) (int8 to p = 64, int16 to 16,384, int32 to 2^30,
    else int64): a sum or difference of two parts fits, a product needs an
    upcast.  An entry that is not an integer int64 holds raises ValueError."""

    field: ModPField
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        p, dtype = self.field.p, np.min_scalar_type(-2 * self.field.p)
        re, im = ((exact_int64(x, "message parts") % p).astype(dtype, copy=False) for x in (self.re, self.im))
        if re.shape != im.shape or re.ndim != 2:
            raise ValueError("message matrix components must be matching 2-D arrays")
        for name, part in (("re", re), ("im", im)):
            part.setflags(write=False)
            object.__setattr__(self, name, part)

    @property
    def shape(self):
        return self.re.shape

    @classmethod
    def random(cls, field: ModPField, rows: int, cols: int, rng) -> "MessageMatrix":
        return cls(field, *(rng.integers(0, field.p, size=(rows, cols)) for _ in range(2)))

    def row(self, i: int) -> "MessageMatrix":
        _check_row(i, self.shape[0])
        return MessageMatrix(self.field, self.re[i : i + 1], self.im[i : i + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MessageMatrix):
            return NotImplemented
        same = self.field.p == other.field.p
        return same and np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)

    def __add__(self, other: "MessageMatrix") -> "MessageMatrix":
        if self.field.p != other.field.p:
            raise ValueError("fields differ")
        return MessageMatrix(self.field, self.re + other.re, self.im + other.im)


def _matmul_modp(ar, ai, br, bi, p):
    # A's reduced int64 parts times the message parts, widened: a sum of 2K products
    # below p^2 must fit int64 (MessageMatrix reduces it), else Python integers, reduced here.
    wide = object if 2 * ar.shape[-1] * (p - 1) ** 2 >= 2**63 else np.int64
    br, bi = br.astype(wide), bi.astype(wide)
    re, im = ar @ br - ai @ bi, ar @ bi + ai @ br
    return (re % p, im % p) if wide is object else (re, im)


def _check_row(i: int, k: int) -> None:
    if not 0 <= i < k:
        raise IndexError(f"row {i} is outside 0..{k - 1}")


def _check_single(a: IntegerCoeffMatrix) -> None:
    if a.re.ndim != 2:
        raise ValueError("the message layer needs a single coefficient matrix, not a stack")


def _inverse_modp(a: IntegerCoeffMatrix, p: int):
    """(re, im) int64 parts of inv(A) mod p, by Gauss-Jordan elimination of
    [A | I] on rows of (re, im) pairs; each pivot column is dropped once it is
    a unit column.  A column without a nonzero pivot means det(A) = 0 mod p.

    (x + yj)^-1 = (x - yj) (x^2 + y^2)^-1 mod p, and x^2 + y^2 = 0 mod p only
    when x = y = 0 mod p, because p = 3 (mod 4).  A stack of A raises ValueError."""
    _check_single(a)
    k = a.k
    re, im = (a.re % p).tolist(), (a.im % p).tolist()
    rows = [list(zip(re[i] + [int(i == j) for j in range(k)], im[i] + [0] * k)) for i in range(k)]
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][0] != (0, 0)), None)
        if piv is None:
            raise NotInvertibleModPError(f"matrix not invertible mod {p}")
        ((x, y), *pivot), rows[piv] = rows[piv], rows[c]
        s = pow(x * x + y * y, -1, p)
        ur, ui = x * s % p, -y * s % p
        rows[c] = pivot = [((u * ur - v * ui) % p, (u * ui + v * ur) % p) for u, v in pivot]
        for r in range(k):
            if r != c:
                (fr, fi), *row = rows[r]
                rows[r] = [
                    ((q - fr * u + fi * v) % p, (w - fr * v - fi * u) % p) for (q, w), (u, v) in zip(row, pivot)
                ] if fr or fi else row
    inv = np.array(rows, np.int64)
    return inv[..., 0], inv[..., 1]


def modp_invertible(a: IntegerCoeffMatrix, field: ModPField) -> bool:
    """True iff det(A) mod p is a nonzero element of Z_p[j]."""
    d = a.det_exact()
    return d.re % field.p != 0 or d.im % field.p != 0


def modp_inverse(a: IntegerCoeffMatrix, field: ModPField) -> MessageMatrix:
    """K x K matrix over Z_p[j] with A @ result = I mod p."""
    return MessageMatrix(field, *_inverse_modp(a, field.p))


def precode_messages(w: MessageMatrix, a: IntegerCoeffMatrix) -> MessageMatrix:
    """W' = inv(A) W mod p."""
    p = w.field.p
    return MessageMatrix(w.field, *_matmul_modp(*_inverse_modp(a, p), w.re, w.im, p))


def recover_message(i: int, w_prime: MessageMatrix, a: IntegerCoeffMatrix) -> MessageMatrix:
    """Row a_i times W' mod p: the i-th receiver's decoded combination.

    Precondition: W' came from precode_messages with the same (A, p), which
    proved A invertible mod p; then this is row i of the original message
    matrix.  A is not checked again here.  A stack of A raises ValueError,
    and i outside 0..K-1 IndexError.
    """
    _check_single(a)
    _check_row(i, a.k)
    p = w_prime.field.p
    row = (a.re[i : i + 1] % p, a.im[i : i + 1] % p)
    return MessageMatrix(w_prime.field, *_matmul_modp(*row, w_prime.re, w_prime.im, p))
