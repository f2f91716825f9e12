"""Small dense complex matrix kernel.

All matrices are complex128 numpy arrays (row-major), either one 2-D matrix
or a (..., n, n) stack of them.  Inverse and determinant are numpy's; what
this module adds is one singularity rule for every size and every caller: a
matrix is singular, with no inverse and determinant 0, when its smallest
singular value is at most PIVOT_RTOL times its largest.  inverse decides the
rule by a norm bound first: s_max <= ||m||_F and s_min >= 1/||m^-1||_F, so
||m||_F ||m^-1||_F < 0.5/PIVOT_RTOL (half, for the error of the computed m^-1)
proves a matrix regular; the SVD decides the rest.
"""

from __future__ import annotations

import numpy as np

PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Smallest singular value fell below the relative singularity threshold."""

    def __init__(self, message: str = "matrix is singular to working precision"):
        super().__init__(message)


def cmatrix(entries) -> np.ndarray:
    """Validate and convert to the canonical 2-D complex128 representation."""
    m = np.array(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return m


def gram(m: np.ndarray) -> np.ndarray:
    """m times its conjugate transpose, for a matrix or each member of a stack."""
    return m @ m.swapaxes(-1, -2).conj()


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y, with its broadcasting, summed term by term over the inner axis:
    the same elementwise arithmetic for every member, whatever the stack
    (BLAS picks its kernel by shape), and no BLAS call per member of a small stack.
    The search probes and gram keep `@`, faster on their stacks (timeit, K = 4, 8 / 16 /
    27 members: complex 5.9 / 6.9 / 9.7 us by `@`, 9.8 / 11.9 / 14.3 us by this; int64
    1.5 / 2.0 / 2.8 against 9.2 / 11.3 / 14.5 us; one 2 x 2: 1.8 against 3.6 us)."""
    if x.shape[-1] != y.shape[-2]:
        raise ValueError(f"matmul: inner dimensions {x.shape[-1]} and {y.shape[-2]} differ")
    out = x[..., :, 0, None] * y[..., None, 0, :]
    for j in range(1, x.shape[-1]):
        out += x[..., :, j, None] * y[..., None, j, :]
    return out


def norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of a (..., n) stack, each summed along a contiguous copy
    so that it does not depend on the rest of the stack; exact for Gaussian-integer rows."""
    v = np.ascontiguousarray(v)
    return (v.real**2 + v.imag**2).sum(axis=-1)


def frob_norm_sq(m: np.ndarray):
    """Squared Frobenius norm of a matrix (a float), or of each member of a stack."""
    return (m.conj() * m).real.sum(axis=(-2, -1))


def _is_singular(m: np.ndarray) -> np.ndarray:
    """Singularity of m, or of each member of a (..., n, n) stack (bool array)."""
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError("det and inverse require a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., -1] <= PIVOT_RTOL * s[..., 0]


def det(m: np.ndarray):
    """Determinant (complex, or an array for a stack); 0 for matrices singular
    at working precision."""
    d = np.where(_is_singular(m), 0j, np.linalg.det(m))
    return complex(d) if d.ndim == 0 else d


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a matrix, or of each member of a (..., n, n) stack.

    A single singular matrix raises SingularMatrixError.  In a stack, the
    singular members come back filled with NaN instead, so one singular member
    does not cost the others their inverses.  The norm bound decides the rule
    first, keeping LAPACK's inverse of each member it proves regular, and the
    SVD decides the rest: all members when LAPACK meets an exactly singular one.
    """
    try:
        inv = np.linalg.inv(m).astype(np.complex128, copy=False)
    except np.linalg.LinAlgError:  # not square, or an exactly singular member
        singular = _is_singular(m)
        inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(m.shape[-1]), m))
        inv = inv.astype(np.complex128, copy=False)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cleared = frob_norm_sq(m) * frob_norm_sq(inv) < (0.5 / PIVOT_RTOL) ** 2
        if cleared.all():
            return inv
        singular = np.zeros_like(cleared)
        singular[~cleared] = _is_singular(m[~cleared])
    if m.ndim == 2 and singular:
        raise SingularMatrixError()
    inv[singular] = np.nan
    return inv
