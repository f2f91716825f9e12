"""Small dense complex matrix kernel.

All matrices are complex128 numpy arrays (row-major), either one 2-D matrix
or a (..., n, k) stack of them.  Every precoder is formed from one QR factor
(qr_factor), and one rule (singular) reads from a QR factor's diagonal
whether a matrix is singular: when some |r_jj| is at most a tolerance times
the norm of column j, which then lies within about that angle of the span
of the columns before it.  Like the factor, the rule is blind to the scale
of each column; for two columns it is exact: cond + 1/cond = 2/|sin angle|
for the matrix with unit columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FACTOR_RTOL = 1e-6  # of |r_jj| to its column's norm: about 1e-12 on the Gram matrix's singular values


class SingularMatrixError(ValueError):
    """A matrix is singular by the QR diagonal rule (see singular)."""

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


def singular(qnorm: np.ndarray, scale: np.ndarray, rtol: float) -> np.ndarray:
    """The singularity rule, per member (...) of a stack: some |r_jj|^2 of qnorm (..., K) is at most
    rtol^2 times scale_j, the squared norm of column j (..., K) or of the longest column (..., 1)."""
    return (qnorm <= rtol * rtol * scale).any(axis=-1)


@dataclass(frozen=True)
class QRFactor:
    """[X; s I] = [Q1; Q2] R for each member of an (..., n, k) stack X: r: R (..., k, k);
    r_inv: R^-1; b: Q1 R^-H = X M (..., n, k), with M = (X^H X + s^2 I)^-1; singular: the
    members (...) singular by FACTOR_RTOL, where r_inv, b and M are NaN (a single M raises)."""

    r: np.ndarray
    r_inv: np.ndarray
    b: np.ndarray
    singular: np.ndarray

    @property
    def m(self) -> np.ndarray:
        if self.singular.ndim == 0 and self.singular:
            raise SingularMatrixError()
        return self.r_inv @ self.r_inv.swapaxes(-1, -2).conj()


def qr_factor(x: np.ndarray, s=None) -> QRFactor:
    """The QRFactor of an (..., n, k) stack x, with s (broadcast against ...)
    or without the lower block.  Classical Gram-Schmidt projecting each column
    twice, which leaves Q orthonormal to rounding (Giraud, Langou and
    Rozloznik, 2005), on each member's own rows: the same bits in any stack.
    Each column carries e_j along, which takes the same combinations and so
    ends as column j of R^-1."""
    n, k = x.shape[-2:]
    l, eye = (n if s is None else n + k), np.eye(k)
    shape = x.shape[:-2] if np.ndim(s) == 0 else np.broadcast_shapes(x.shape[:-2], np.shape(s))
    cols = np.zeros(shape + (k, l + k), dtype=np.complex128)  # row j: column j of [x; s I], then e_j
    cols[..., :n] = x.swapaxes(-1, -2)
    if s is not None:
        cols[..., n:l] = np.multiply.outer(s, eye)
    cols[..., l:] = eye
    q, r, qnorm = np.empty_like(cols), np.zeros(shape + (k, k), dtype=np.complex128), np.empty(shape + (k,))
    for j in range(k):
        v = cols[..., j, :]
        for _ in range(2 if j else 0):
            c = (q[..., :j, :l].conj() * v[..., None, :l]).sum(axis=-1)
            r[..., :j, j] += c
            for i in range(j):
                v = v - c[..., i, None] * q[..., i, :]
        qnorm[..., j] = norm_sq(v[..., :l])
        r[..., j, j] = r_jj = np.sqrt(qnorm[..., j])
        q[..., j, :] = v / (r_jj + (r_jj == 0.0))[..., None]  # a zero column stays zero
    bad = singular(qnorm, norm_sq(cols[..., :l]), FACTOR_RTOL)
    q[bad] = np.nan
    b = matmul(q[..., :n].swapaxes(-1, -2), q[..., l:].conj())  # Q1 R^-H: row j of q[..., l:] is column j of R^-1
    for shared in (r, q, b):  # read-only, as a channel's factor is shared by every precoder on it
        shared.setflags(write=False)
    return QRFactor(r, q[..., l:].swapaxes(-1, -2), b, bad)
