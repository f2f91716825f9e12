"""Gaussian-integer lattice reduction of stacks of complex column generators.

Complex LLL: size reduction rounds Gram-Schmidt coefficients to the nearest
Gaussian integer and the Lovasz test is ||q_k||^2 >= (LLL_DELTA -
|mu_{k,k-1}|^2) ||q_{k-1}||^2.  A generator stack (N, M, K) holds N lattices,
each spanned by the columns of an M x K matrix.  One pass reduces it: a batched
QR gives the Gram-Schmidt data, ||q_j||^2 = |r_jj|^2 and mu_{i,j} = r_ji / r_jj,
and the loop's tests on it, row by row.  A member passing them all keeps U = I
(its image norms are its column norms).  The index loop runs only on the rest,
member by member on Python scalars (K <= 8), from the first failing row.  It
updates mu, the norms and the exact integer transform U, never the basis: the
reduced columns are g @ U.  sorted_reduction sorts them by image norm.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from . import linalg
from .gaussint import IntegerCoeffMatrix

_MAX_STEPS = 100000
LLL_DELTA = 0.99
_upper = cache(lambda k: ~np.tri(k, k, -1, dtype=bool))  # a K x K diagonal and upper triangle


def _gram_schmidt(g: np.ndarray):
    """R^T of a batched QR of an (N, M, K) stack (N, K, K), lower triangle only,
    the squared Gram-Schmidt norms |r_jj|^2, the squared column norms and the rank-
    deficient members: a squared Gram-Schmidt norm at most 1e-24 times the largest column's."""
    rt = np.linalg.qr(g, mode="raw")[0][..., : g.shape[-1]]
    diag = np.diagonal(rt, axis1=-2, axis2=-1)
    qnorm, cols = diag.real**2 + diag.imag**2, linalg.norm_sq(np.swapaxes(g, -2, -1))
    return rt, qnorm, cols, qnorm.min(axis=-1) <= 1e-24 * cols.max(axis=-1)


def rank_deficient(g: np.ndarray) -> np.ndarray:
    """Which members (N,) of an (N, M, K) stack the reduction rejects."""
    return _gram_schmidt(g)[3]


def _lll_one(mu, qnorm, k: int, kk: int):
    """Complex LLL of one lattice on its Gram-Schmidt data (nested lists,
    updated in place), from row kk, before which it would change nothing.
    Returns U column by column, each column's real then imaginary parts."""
    u = [[0] * j + [1] + [0] * (2 * k - 1 - j) for j in range(k)]
    for _ in range(_MAX_STEPS + 1):
        if kk == k:
            return sum(u, [])
        mrow = mu[kk]
        for j in range(kk - 1, -1, -1):
            mj = mrow[j]
            if -0.5 <= mj.real <= 0.5 and -0.5 <= mj.imag <= 0.5:
                continue  # rounds to 0
            cr, ci = round(mj.real), round(mj.imag)
            uk, uj = u[kk], u[j]
            for t in range(k):
                br, bi = uj[t], uj[k + t]
                uk[t] -= cr * br - ci * bi
                uk[k + t] -= cr * bi + ci * br
            c = complex(cr, ci)
            muj = mu[j]
            for l in range(j):
                mrow[l] -= c * muj[l]
            mrow[j] = mj - c
        if qnorm[kk] >= (LLL_DELTA - abs(mrow[kk - 1]) ** 2) * qnorm[kk - 1]:
            kk += 1
            continue
        # swap kk-1 and kk in O(k): the new q_{kk-1} = q_kk + m q_{kk-1}, of
        # squared norm b (Cohen, A Course in Computational Algebraic Number
        # Theory, 2.6.3, with the conjugate where the inner product needs it)
        u[kk - 1], u[kk] = u[kk], u[kk - 1]
        m = mrow[kk - 1]
        q_prev = qnorm[kk - 1]
        b = qnorm[kk] + (m.real * m.real + m.imag * m.imag) * q_prev
        m_new = m.conjugate() * q_prev / b
        qnorm[kk] = q_prev * qnorm[kk] / b
        qnorm[kk - 1] = b
        mu[kk - 1], mu[kk] = mu[kk], mu[kk - 1]
        mu[kk - 1][kk - 1] = 0j
        mu[kk][kk - 1] = m_new
        for row in mu[kk + 1 :]:
            a, c = row[kk - 1], row[kk]
            row[kk] = a - m * c
            row[kk - 1] = c + m_new * row[kk]
        kk = max(kk - 1, 1)
    raise RuntimeError("lattice reduction failed to converge")


def _reduce(g: np.ndarray):
    """One reduction pass over an (N, M, K) generator stack: its squared column
    norms (N, K), the members that fail the loop's tests and their U, column
    by column (n, K, 2K).  Raises ValueError if a member is rank deficient."""
    k = g.shape[-1]
    rt, qnorm, cols, deficient = _gram_schmidt(g)
    if deficient.any():
        raise ValueError("generator matrix is rank deficient")
    mu = np.divide(rt, np.diagonal(rt, axis1=-2, axis2=-1)[..., None, :], order="C")
    mu[:, _upper(k)] = 0  # the loop reads only below the diagonal
    # the loop's tests per row, 1e-12 stricter so that numpy's rounding never passes a swap
    ok = (abs(mu.view(np.float64)) <= 0.5).all(axis=-1)  # |Re|, |Im| <= 1/2
    sub = np.diagonal(mu, -1, axis1=-2, axis2=-1)
    ok[:, 1:] &= qnorm[:, 1:] >= (LLL_DELTA - np.hypot(sub.real, sub.imag) ** 2) * qnorm[:, :-1] * (1 + 1e-12)
    todo = np.flatnonzero(~ok.all(axis=-1))
    u = []
    for m, q, kk in zip(mu[todo].tolist(), qnorm[todo].tolist(), ok[todo].argmin(axis=-1).tolist()):
        u += _lll_one(m, q, k, kk)
    return cols, todo, np.array(u, dtype=np.int64).reshape(-1, k, 2 * k)


def _lll(g: np.ndarray) -> np.ndarray:
    """Unimodular U (N, 2, K, K), re and im, LLL-reducing each member of an (N, M, K) stack."""
    n, k = len(g), g.shape[-1]
    _, todo, u_todo = _reduce(g)
    u = np.tile(np.eye(k, 2 * k, dtype=np.int64), (n, 1, 1))  # U = I, column by column
    u[todo] = u_todo
    return u.reshape(n, k, 2, k).transpose(0, 2, 3, 1)


def sorted_reduction(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LLL-reduce every member of an (N, M, K) generator stack, sort its
    columns by image norm and fall back to the identity where the reduction
    did not shorten the basis, so A never loses to I in sum of squared image
    norms.  Returns A (re and im, each (N, K, K) int64) and the squared norms
    of the columns of g @ A (N, K), ascending except where the identity was
    kept.  Norm ties are broken lexicographically on the integer entries of A,
    real parts first.  Raises ValueError if any member is rank deficient.
    """
    g = np.asarray(g, dtype=np.complex128)
    k = g.shape[-1]
    norms, todo, u = _reduce(g)
    u_todo = np.ascontiguousarray(np.swapaxes(u[..., :k] + 1j * u[..., k:], -2, -1))
    image = linalg.norm_sq(np.swapaxes(g[todo] @ u_todo, -2, -1))
    keep = image.sum(axis=-1) <= norms[todo].sum(axis=-1)
    norms[todo[keep]] = image[keep]
    # per column of A, its entries and its norm's bits: one gather sorts them all
    w = np.zeros((len(g), k, 2 * k + 1), np.int64)
    w[..., : 2 * k], w[todo[keep], :, : 2 * k], w[..., 2 * k] = np.eye(k, 2 * k), u[keep], norms.view(np.int64)
    a = w[np.arange(len(g))[:, None], np.argsort(norms, axis=-1, kind="stable")]
    s = a[..., 2 * k].view(np.float64)
    for n in np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=-1)):
        a[n] = w[n, np.lexsort((*w[n, :, 2 * k - 1 :: -1].T, norms[n]))]
    a[todo[~keep]] = w[todo[~keep]]  # the identity, unsorted
    return np.swapaxes(a[..., :k], -2, -1), np.swapaxes(a[..., k : 2 * k], -2, -1), s


def _single(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] < g.shape[1]:
        raise ValueError("generator must be M x K with K <= M")
    return g[None]


def clll_reduce(g: np.ndarray):
    """LLL-reduce the lattice generated by the columns of g over Z[j]: returns
    (reduced_basis, u), u unimodular and reduced_basis = g @ u.to_complex()."""
    g = _single(g)
    u = IntegerCoeffMatrix(*_lll(g)[0])
    return g[0] @ u.to_complex(), u


def shortest_independent_columns(g: np.ndarray) -> IntegerCoeffMatrix:
    """Full-rank Gaussian-integer A whose columns give short independent
    images: sorted_reduction of the single generator g."""
    a_re, a_im, _ = sorted_reduction(_single(g))
    return IntegerCoeffMatrix(a_re[0], a_im[0])


def reduction_objective(g: np.ndarray, a: IntegerCoeffMatrix) -> float:
    """Sum of squared norms of the columns of g @ A."""
    return float(linalg.frob_norm_sq(np.asarray(g, dtype=np.complex128) @ a.to_complex()))
