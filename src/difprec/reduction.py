"""Gaussian-integer lattice reduction of stacks of complex column generators.

Complex LLL: size reduction rounds Gram-Schmidt coefficients to the nearest
Gaussian integer and the Lovasz test is ||q_k||^2 >= (LLL_DELTA -
|mu_{k,k-1}|^2) ||q_{k-1}||^2.  A generator stack (N, M, K) holds N lattices,
each spanned by the columns of an M x K matrix.  One batched QR gives every
member's Gram-Schmidt data, ||q_j||^2 = |r_jj|^2 and mu_{i,j} = r_ji / r_jj.
Members that pass every test on it already get U = I with no loop.  On the
rest the index loop runs member by member on Python scalars (K <= 8, where
numpy call overhead would dominate) and updates mu, the norms and the exact
integer transform U, never the basis: the reduced columns are g @ U.
sorted_reduction sorts them by image norm, which approximates the K shortest
independent lattice vectors.
"""

from __future__ import annotations

import numpy as np

from .gaussint import IntegerCoeffMatrix

_MAX_STEPS = 100000
LLL_DELTA = 0.99


def _col_norm_sq(g: np.ndarray) -> np.ndarray:
    """Squared column norms (..., K) of a (..., M, K) stack, each summed along
    a contiguous axis, so that it does not depend on the rest of the stack."""
    v = np.ascontiguousarray(np.swapaxes(g, -2, -1))
    return (v.real**2 + v.imag**2).sum(axis=-1)


def _gram_schmidt(g: np.ndarray):
    """R of a batched QR of an (N, M, K) stack, the squared Gram-Schmidt norms
    |r_jj|^2 and the rank-deficient members: a squared Gram-Schmidt norm at
    most 1e-24 times the largest squared column norm."""
    r = np.linalg.qr(g, mode="r")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    qnorm = diag.real**2 + diag.imag**2
    return r, qnorm, qnorm.min(axis=-1) <= 1e-24 * _col_norm_sq(g).max(axis=-1)


def rank_deficient(g: np.ndarray) -> np.ndarray:
    """Which members (N,) of an (N, M, K) stack the reduction rejects."""
    return _gram_schmidt(g)[2]


def _lll_one(mu, qnorm, k: int):
    """Complex LLL of one lattice on its Gram-Schmidt data (nested lists,
    updated in place); returns the columns of U as (re, im) integer lists."""
    ur = [[0] * j + [1] + [0] * (k - 1 - j) for j in range(k)]
    ui = [[0] * k for _ in range(k)]
    kk = 1
    steps = 0
    while kk < k:
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError("lattice reduction failed to converge")
        mrow = mu[kk]
        for j in range(kk - 1, -1, -1):
            mj = mrow[j]
            if -0.5 <= mj.real <= 0.5 and -0.5 <= mj.imag <= 0.5:
                continue  # rounds to 0
            cr, ci = round(mj.real), round(mj.imag)
            urk, uik, urj, uij = ur[kk], ui[kk], ur[j], ui[j]
            for t in range(k):
                br, bi = urj[t], uij[t]
                urk[t] -= cr * br - ci * bi
                uik[t] -= cr * bi + ci * br
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
        ur[kk - 1], ur[kk] = ur[kk], ur[kk - 1]
        ui[kk - 1], ui[kk] = ui[kk], ui[kk - 1]
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
    return ur, ui


def _lll(g: np.ndarray) -> np.ndarray:
    """Unimodular U (N, 2, K, K), real and imaginary parts, LLL-reducing every
    member of an (N, M, K) generator stack; raises ValueError if any member is
    rank deficient."""
    k = g.shape[-1]
    r, qnorm, deficient = _gram_schmidt(g)
    if deficient.any():
        raise ValueError("generator matrix is rank deficient")
    mu = np.swapaxes(r / np.diagonal(r, axis1=-2, axis2=-1)[..., :, None], -2, -1)
    # the loop's tests, passed by the members it leaves as they are; the 1e-12
    # margin keeps rounding unlike the loop's from passing a swap it would make
    sub = np.diagonal(mu, -1, axis1=-2, axis2=-1)
    lovasz = qnorm[:, 1:] >= (LLL_DELTA - np.hypot(sub.real, sub.imag) ** 2) * qnorm[:, :-1] * (1 + 1e-12)
    sized = (abs(np.tril(mu, -1).view(np.float64)) <= 0.5).all(axis=(-2, -1))  # |Re|, |Im| <= 1/2
    todo = np.flatnonzero(~(sized & lovasz.all(axis=-1)))
    u = np.tile([np.eye(k, dtype=np.int64), np.zeros((k, k), np.int64)], (len(g), 1, 1, 1))
    cols = [_lll_one(m, q, k) for m, q in zip(mu[todo].tolist(), qnorm[todo].tolist())]
    u[todo] = np.swapaxes(np.array(cols, dtype=np.int64).reshape(-1, 2, k, k), -2, -1)
    return u


def sorted_reduction(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LLL-reduce every member of an (N, M, K) generator stack, sort its
    columns by image norm and fall back to the identity where the reduction
    did not shorten the basis.

    Returns A (re and im, each (N, K, K) int64) and the squared norms of the
    columns of g @ A (N, K), ascending except where the identity was kept.
    Norm ties are broken lexicographically on the integer entries of A, real
    parts first.  Raises ValueError if any member is rank deficient.
    """
    g = np.asarray(g, dtype=np.complex128)
    k = g.shape[-1]
    u = _lll(g)
    norms = _col_norm_sq(g @ (u[:, 0] + 1j * u[:, 1]))
    orig = _col_norm_sq(g)
    fallback = norms.sum(axis=-1) > orig.sum(axis=-1)
    u[fallback, 0], u[fallback, 1], norms[fallback] = np.eye(k, dtype=np.int64), 0, orig[fallback]
    order = np.argsort(norms, axis=-1, kind="stable")
    order[fallback] = np.arange(k)
    sorted_norms = np.take_along_axis(norms, order, axis=-1)
    tied = (sorted_norms[:, 1:] == sorted_norms[:, :-1]).any(axis=-1) & ~fallback
    for n in np.flatnonzero(tied):
        order[n] = np.lexsort((*u[n, 1][::-1], *u[n, 0][::-1], norms[n]))
    a = np.take_along_axis(u, order[:, None, None, :], axis=-1)
    return a[:, 0], a[:, 1], sorted_norms


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
    """Full-rank Gaussian-integer A whose columns give short independent images.

    Columns come from the LLL-reduced basis sorted by image norm (ties broken
    lexicographically on the integer entries); the identity is kept as a
    fallback so the result never loses to A = I in sum of squared image norms.
    """
    a_re, a_im, _ = sorted_reduction(_single(g))
    return IntegerCoeffMatrix(a_re[0], a_im[0])


def reduction_objective(g: np.ndarray, a: IntegerCoeffMatrix) -> float:
    """Sum of squared norms of the columns of g @ A."""
    return float(np.sum(np.abs(np.asarray(g, dtype=np.complex128) @ a.to_complex()) ** 2))
