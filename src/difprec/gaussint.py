"""Exact arithmetic over the Gaussian integers and the sum-of-two-squares set.

Everything here is integer-exact (Python ints); the floating-point world only
enters through explicit conversions.  The two-squares set N2 = {a^2 + b^2} is
handled by direct enumeration, which is plenty fast for the argument sizes
produced by channel correlations (a few hundred at most).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Above this, floor/ceil fall back to a nearby representable value instead of
# an exact scan (exactness is irrelevant there and the scan would be slow).
_EXACT_NORM_SET_LIMIT = 10**7


class GaussInt(NamedTuple):
    """Gaussian integer re + im*j."""

    re: int
    im: int

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


@lru_cache(maxsize=65536)
def in_norm_set(n: int) -> bool:
    """True iff n = a^2 + b^2 for some integers a, b (n >= 0)."""
    if n < 0:
        raise ValueError("in_norm_set requires n >= 0")
    for a in range(math.isqrt(n) + 1):
        b = math.isqrt(n - a * a)
        if a * a + b * b == n:
            return True
    return False


def floor_norm_set(x: float) -> int:
    """Largest member of the two-squares set that is <= x."""
    if x < 0:
        raise ValueError("floor_norm_set requires x >= 0")
    n = math.floor(x)
    if n > _EXACT_NORM_SET_LIMIT:
        return _nearby_member(n)
    while n > 0 and not in_norm_set(n):
        n -= 1
    return n


def ceil_norm_set(x: float) -> int:
    """Smallest member of the two-squares set that is >= x."""
    if x < 0:
        raise ValueError("ceil_norm_set requires x >= 0")
    n = math.ceil(x)
    if n > _EXACT_NORM_SET_LIMIT:
        return _nearby_member(n, round_up=True)
    while not in_norm_set(n):
        n += 1
    return n


def _nearby_member(n: int, round_up: bool = False) -> int:
    # a^2 + b^2 with a = isqrt(n): within O(sqrt(n)) of n, always representable.
    # b = isqrt(n - a^2) lands at or below n; one more lands above it.
    a = math.isqrt(n)
    b = math.isqrt(n - a * a)
    if round_up and a * a + b * b < n:
        b += 1
    return a * a + b * b


def two_square_decomp(n: int) -> GaussInt:
    """Canonical a + b*j with a >= b >= 0 and a^2 + b^2 = n.

    Raises ValueError if n is not a sum of two squares.  Other decompositions
    differ from the canonical one by unit factors and component swaps.
    """
    if n < 0:
        raise ValueError("two_square_decomp requires n >= 0")
    for a in range(math.isqrt(n), -1, -1):
        bb = n - a * a
        b = math.isqrt(bb)
        if b * b == bb and a >= b:
            return GaussInt(a, b)
    raise ValueError(f"{n} is not a sum of two squares")


@dataclass(frozen=True)
class IntegerCoeffMatrix:
    """Square Gaussian-integer coefficient matrix, stored as exact int parts.

    Rows are the per-user coefficient vectors; columns are what lattice
    reduction produces.  Conversion to complex floats is explicit so the
    exact and floating worlds never mix silently.
    """

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.int64)
        im = np.asarray(self.im, dtype=np.int64)
        if re.ndim != 2 or re.shape[0] != re.shape[1] or re.shape != im.shape:
            raise ValueError("coefficient matrix must be square, with matching parts")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def k(self) -> int:
        return self.re.shape[0]

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
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)

    def row(self, i: int) -> np.ndarray:
        return self.re[i].astype(np.complex128) + 1j * self.im[i].astype(np.complex128)

    def det_exact(self) -> GaussInt:
        """Exact determinant over the Gaussian integers (minor expansion)."""
        k = self.k
        re = [[int(v) for v in r] for r in self.re]
        im = [[int(v) for v in r] for r in self.im]

        def minor(row: int, cols: int) -> GaussInt:
            if row == k:
                return GaussInt(1, 0)
            acc = GaussInt(0, 0)
            sign = 1
            for j in range(k):
                bit = 1 << j
                if cols & bit:
                    continue
                entry = GaussInt(re[row][j], im[row][j])
                if entry.re or entry.im:
                    sub = _minor_cached(row + 1, cols | bit)
                    term = entry * sub
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
            return acc

        cache: dict[tuple[int, int], GaussInt] = {}

        def _minor_cached(row: int, cols: int) -> GaussInt:
            key = (row, cols)
            if key not in cache:
                cache[key] = minor(row, cols)
            return cache[key]

        return minor(0, 0)

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
