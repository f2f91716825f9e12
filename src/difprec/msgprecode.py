"""Finite-field message layer.

Messages live in Z_p[j] with p prime and p = 3 (mod 4), which makes Z_p[j] a
field of order p^2.  The transmitter pre-inverts the integer coefficient
matrix A there (W' = inv(A) W mod p) so that the integer combination each
receiver decodes, a_i W' mod p, is exactly its own message row.  The
inverse comes from Gauss-Jordan elimination of [A | I] over Z_p[j] in Python
integers.  All arithmetic is exact: message parts are int64 arrays reduced
mod p, for every p that ModPField accepts (p^2 < 2^63), and products whose
sums could overflow int64 are taken in Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussint import IntegerCoeffMatrix


class NotInvertibleModPError(ValueError):
    """Coefficient matrix has zero determinant modulo p."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


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
    """Matrix over Z_p[j]; component arrays are kept reduced mod p."""

    field: ModPField
    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.int64) % self.field.p
        im = np.asarray(self.im, dtype=np.int64) % self.field.p
        if re.shape != im.shape or re.ndim != 2:
            raise ValueError("message matrix components must be matching 2-D arrays")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def shape(self):
        return self.re.shape

    @classmethod
    def random(cls, field: ModPField, rows: int, cols: int, rng) -> "MessageMatrix":
        return cls(
            field,
            rng.integers(0, field.p, size=(rows, cols)),
            rng.integers(0, field.p, size=(rows, cols)),
        )

    def row(self, i: int) -> "MessageMatrix":
        _check_row(i, self.shape[0])
        return MessageMatrix(self.field, self.re[i : i + 1], self.im[i : i + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MessageMatrix):
            return NotImplemented
        return (
            self.field.p == other.field.p
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )

    def __add__(self, other: "MessageMatrix") -> "MessageMatrix":
        if self.field.p != other.field.p:
            raise ValueError("fields differ")
        return MessageMatrix(self.field, self.re + other.re, self.im + other.im)


def _matmul_modp(ar, ai, br, bi, p):
    # Reduced parts: each product is below p^2, and a sum of 2K of them must
    # fit in int64; past that the products are taken in Python integers.
    if 2 * ar.shape[-1] * (p - 1) ** 2 >= 2**63:
        ar, ai, br, bi = (x.astype(object) for x in (ar, ai, br, bi))
    return (ar @ br - ai @ bi) % p, (ar @ bi + ai @ br) % p


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
    ar = a.re[i : i + 1] % p
    ai = a.im[i : i + 1] % p
    rr, ri = _matmul_modp(ar, ai, w_prime.re, w_prime.im, p)
    return MessageMatrix(w_prime.field, rr, ri)
