"""Small dense complex matrix kernel.

All matrices are 2-D complex128 numpy arrays (row-major).  Inverse and
determinant are numpy's; what this module adds is one singularity rule for
every size, so that "singular" means the same thing to every caller: a matrix
is singular when its smallest singular value is at most PIVOT_RTOL times its
largest.  Such a matrix has no inverse (SingularMatrixError) and determinant 0.
"""

from __future__ import annotations

import numpy as np

# CMatrix: alias for a 2-D complex128 ndarray.
CMatrix = np.ndarray

PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Smallest singular value fell below the relative singularity threshold."""


def cmatrix(entries) -> CMatrix:
    """Validate and convert to the canonical 2-D complex128 representation."""
    m = np.array(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return m


def gram(m: CMatrix) -> CMatrix:
    """m times its conjugate transpose."""
    return m @ np.conj(m.T)


def frob_norm_sq(m: CMatrix) -> float:
    return float(np.sum(np.abs(m) ** 2))


def _is_singular(m: CMatrix) -> bool:
    if m.shape[0] != m.shape[1]:
        raise ValueError("det and inverse require a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] <= PIVOT_RTOL * s[0])


def det(m: CMatrix) -> complex:
    """Determinant; returns 0 for matrices singular at working precision."""
    if _is_singular(m):
        return 0j
    return complex(np.linalg.det(m))


def inverse(m: CMatrix) -> CMatrix:
    """Inverse; raises SingularMatrixError when m is singular at working precision."""
    if _is_singular(m):
        raise SingularMatrixError("matrix is singular to working precision")
    return np.linalg.inv(m).astype(np.complex128, copy=False)
