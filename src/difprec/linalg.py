"""Small dense complex matrix kernel.

All matrices are complex128 numpy arrays (row-major), either one 2-D matrix
or a (..., n, n) stack of them.  Inverse and determinant are numpy's; what
this module adds is one singularity rule for every size, so that "singular"
means the same thing to every caller: a matrix is singular when its smallest
singular value is at most PIVOT_RTOL times its largest.  Such a matrix has no
inverse and determinant 0.
"""

from __future__ import annotations

import numpy as np

# CMatrix: alias for a 2-D complex128 ndarray.
CMatrix = np.ndarray

PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Smallest singular value fell below the relative singularity threshold."""

    def __init__(self, message: str = "matrix is singular to working precision"):
        super().__init__(message)


def cmatrix(entries) -> CMatrix:
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


def frob_norm_sq(m: CMatrix) -> float:
    return float(np.sum(np.abs(m) ** 2))


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
    does not cost the others their inverses.
    """
    singular = _is_singular(m)
    if m.ndim == 2:
        if singular:
            raise SingularMatrixError()
        return np.linalg.inv(m).astype(np.complex128, copy=False)
    inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(m.shape[-1]), m))
    inv = inv.astype(np.complex128, copy=False)
    inv[singular] = np.nan
    return inv
