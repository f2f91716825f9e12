"""Exact arithmetic over the Gaussian integers and the sum-of-two-squares set.

Everything here is integer-exact (Python ints); the floating-point world only
enters through explicit conversions.  The two-squares set N2 = {a^2 + b^2} is
handled by direct enumeration at every size, with no approximate fallback:
one scan of a from isqrt(n) down to isqrt(n / 2), about 0.29 sqrt(n) steps
for a non-member, a few milliseconds at the largest arguments the two-user
designer produces (about 5e8, at its correlation clamp).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class GaussInt(NamedTuple):
    """Gaussian integer re + im*j."""

    re: int
    im: int

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im


def _two_squares(n: int) -> GaussInt | None:
    """The a + b*j with a >= b >= 0 and a^2 + b^2 = n of largest a, or None."""
    if n < 0:
        raise ValueError(f"the two-squares set has no negative members, got {n}")
    for a in range(math.isqrt(n), math.isqrt(n // 2) - 1, -1):
        b = math.isqrt(n - a * a)
        if a * a + b * b == n:
            return GaussInt(a, b)
    return None


@lru_cache(maxsize=65536)
def in_norm_set(n: int) -> bool:
    """True iff n = a^2 + b^2 for some integers a, b (n >= 0)."""
    return _two_squares(n) is not None


def floor_norm_set(x: float) -> int:
    """Largest member of the two-squares set that is <= x (an exact scan,
    whose cost grows as sqrt(x))."""
    if x < 0:
        raise ValueError("floor_norm_set requires x >= 0")
    n = math.floor(x)
    while n > 0 and not in_norm_set(n):
        n -= 1
    return n


def ceil_norm_set(x: float) -> int:
    """Smallest member of the two-squares set that is >= x (an exact scan,
    whose cost grows as sqrt(x))."""
    if x < 0:
        raise ValueError("ceil_norm_set requires x >= 0")
    n = math.ceil(x)
    while not in_norm_set(n):
        n += 1
    return n


@lru_cache(maxsize=4096)
def two_square_decomp(n: int) -> GaussInt:
    """Canonical a + b*j with a >= b >= 0 and a^2 + b^2 = n: of several (25 =
    5^2 + 0^2 = 4^2 + 3^2), the one with the largest a, which the two-user
    table takes as a21.  Raises ValueError if n is not a sum of two squares.
    """
    if (pair := _two_squares(n)) is None:
        raise ValueError(f"{n} is not a sum of two squares")
    return pair


def det_exact(re: np.ndarray, im: np.ndarray):
    """Exact determinants of a (..., k, k) stack of Gaussian-integer matrices
    given by their integer parts; returns the (re, im) parts, shaped (...).

    Minor expansion along the rows, each minor (the trailing rows on a set of
    columns) computed once for the whole stack.  A single matrix is expanded
    in Python integers; a stack in int64 when k! max|entry|^k stays below
    2^62, and in Python integers otherwise.
    """
    re = np.asarray(re)
    im = np.asarray(im)
    k = re.shape[-1]
    if re.ndim == 2:
        re, im = re.tolist(), im.tolist()
    else:
        bound = max(int(np.abs(re).max(initial=0)) + int(np.abs(im).max(initial=0)), 1)
        if math.factorial(k) * bound**k >= 2**62:
            re, im = re.astype(object), im.astype(object)
        # matrix axes first, so that re[row][j] is the (...) stack of entries
        re = np.moveaxis(re, (-2, -1), (0, 1))
        im = np.moveaxis(im, (-2, -1), (0, 1))
    # minors[cols]: (re, im) of the determinant of the last len(cols) rows on
    # the columns in the bit set cols; the last row's minors are its entries
    minors = {1 << j: (re[k - 1][j], im[k - 1][j]) for j in range(k)}
    for row in range(k - 2, -1, -1):
        nxt = {}
        for cols in itertools.combinations(range(k), k - row):
            key = sum(1 << j for j in cols)
            acc = None
            for pos, j in enumerate(cols):
                sub_re, sub_im = minors[key & ~(1 << j)]
                e_re, e_im = re[row][j], im[row][j]
                t_re = e_re * sub_re - e_im * sub_im
                t_im = e_re * sub_im + e_im * sub_re
                if acc is None:
                    acc = (t_re, t_im)
                elif pos % 2:
                    acc = (acc[0] - t_re, acc[1] - t_im)
                else:
                    acc = (acc[0] + t_re, acc[1] + t_im)
            nxt[key] = acc
        minors = nxt
    return minors[(1 << k) - 1]


def exact_int64(x, what: str) -> np.ndarray:
    """x as int64, or ValueError unless every entry is an integer int64 holds,
    below 2^53 in magnitude if a float (past that, floats are not exact)."""
    x = np.asarray(x)
    kind = x.dtype.kind
    try:  # a signed int is exact; a complex part is refused; another kind must survive the cast
        float_ok = kind == "f" and ((abs(x) < 2.0**53) & (np.trunc(x) == x)).all()
        exact = kind == "i" or float_ok or kind not in "fc" and (x.astype(np.int64) == x).all()
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ValueError(f"{what} must be integers below 2^63 in magnitude, and below 2^53 as floats")
    return x.astype(np.int64, copy=False)


@dataclass(frozen=True)
class IntegerCoeffMatrix:
    """Square Gaussian-integer coefficient matrix, or a (..., K, K) stack of them, as exact int parts.

    Rows are the per-user coefficient vectors; columns are what lattice
    reduction produces.  Conversion to complex floats is explicit so the
    exact and floating worlds never mix silently (a part must hold int64
    integers, below 2^53 if floats, else ValueError).  On a stack, row(i)
    gives every member's row i; det_exact and the rank tests raise ValueError.
    """

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re, im = exact_int64(self.re, "coefficient entries"), exact_int64(self.im, "coefficient entries")
        if re.ndim < 2 or re.shape[-2] != re.shape[-1] or re.shape != im.shape:
            raise ValueError("coefficient matrix must be square, with matching parts")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def k(self) -> int:
        return self.re.shape[-1]

    @classmethod
    def identity(cls, k: int) -> "IntegerCoeffMatrix":
        return cls(np.eye(k, dtype=np.int64), np.zeros((k, k), dtype=np.int64))

    @classmethod
    def from_rows(cls, rows) -> "IntegerCoeffMatrix":
        """Build from nested GaussInt (or (re, im) pair) rows."""
        re = [[int(e[0]) for e in row] for row in rows]
        im = [[int(e[1]) for e in row] for row in rows]
        return cls(np.array(re, dtype=np.int64), np.array(im, dtype=np.int64))

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    def row(self, i: int) -> np.ndarray:
        return self.re[..., i, :] + 1j * self.im[..., i, :]

    def det_exact(self) -> GaussInt:
        """Exact determinant over the Gaussian integers."""
        if self.re.ndim != 2:
            raise ValueError("det_exact needs a single coefficient matrix, not a stack")
        re, im = det_exact(self.re, self.im)
        return GaussInt(int(re), int(im))

    def is_full_rank(self) -> bool:
        d = self.det_exact()
        return d.re != 0 or d.im != 0

    def is_unimodular(self) -> bool:
        """|det| = 1 exactly, i.e. det is a unit of the Gaussian integers."""
        return self.det_exact().norm_sq() == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerCoeffMatrix):
            return NotImplemented
        return np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)
