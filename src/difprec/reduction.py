"""Gaussian-integer lattice reduction on complex column generators.

The reducer is the complex LLL variant: size reduction rounds Gram-Schmidt
coefficients to the nearest Gaussian integer (both components within 1/2) and
the Lovasz test uses ||q_k||^2 >= (LLL_DELTA - |mu_{k,k-1}|^2) ||q_{k-1}||^2.
The unimodular transform is tracked in exact integer arithmetic.  The
Gram-Schmidt data is built once per reduction; a swap updates it in O(k)
instead of rebuilding it.

The coefficient matrix for precoding comes out of shortest_independent_columns:
the reduced basis columns, sorted by image norm, approximate the K shortest
independent lattice vectors.  The working core operates on plain Python
complex scalars; matrices here are at most 8 x 8 and this is the innermost
loop of the diagonal search, where numpy call overhead dominates actual
arithmetic.
"""

from __future__ import annotations

import numpy as np

from .gaussint import IntegerCoeffMatrix

_MAX_SWEEPS = 100000
LLL_DELTA = 0.99


def _gso(cols):
    """Squared Gram-Schmidt norms and mu coefficients of complex column lists."""
    k = len(cols)
    m = len(cols[0])
    q = []
    qnorm = [0.0] * k
    mu = [[0j] * k for _ in range(k)]
    for i in range(k):
        v = list(cols[i])
        ci = cols[i]
        for j in range(i):
            qj = q[j]
            s = 0j
            for t in range(m):
                s += qj[t].conjugate() * ci[t]
            mij = s / qnorm[j]
            mu[i][j] = mij
            for t in range(m):
                v[t] -= mij * qj[t]
        q.append(v)
        qnorm[i] = sum(z.real * z.real + z.imag * z.imag for z in v)
    return qnorm, mu


def _col_norm_sq(col) -> float:
    return sum(z.real * z.real + z.imag * z.imag for z in col)


def _clll_core(cols, ucols) -> None:
    """In-place complex LLL on column lists; ucols holds exact (re, im) ints."""
    k = len(cols)
    m = len(cols[0])
    qnorm, mu = _gso(cols)
    scale = max(_col_norm_sq(c) for c in cols)
    if min(qnorm) <= 1e-24 * scale:
        raise ValueError("generator matrix is rank deficient")
    kk = 1
    steps = 0
    while kk < k:
        steps += 1
        if steps > _MAX_SWEEPS:
            raise RuntimeError("lattice reduction failed to converge")
        mrow = mu[kk]
        for j in range(kk - 1, -1, -1):
            mj = mrow[j]
            cr, ci = round(mj.real), round(mj.imag)
            if cr or ci:
                c = complex(cr, ci)
                colk, colj = cols[kk], cols[j]
                for t in range(m):
                    colk[t] -= c * colj[t]
                uk, uj = ucols[kk], ucols[j]
                for t in range(k):
                    ar, ai = uk[t]
                    br, bi = uj[t]
                    uk[t] = (ar - cr * br + ci * bi, ai - cr * bi - ci * br)
                muj = mu[j]
                for l in range(j):
                    mrow[l] -= c * muj[l]
                mrow[j] = mj - c
        if qnorm[kk] >= (LLL_DELTA - abs(mrow[kk - 1]) ** 2) * qnorm[kk - 1]:
            kk += 1
        else:
            _swap(cols, ucols, qnorm, mu, kk)
            kk = max(kk - 1, 1)


def _swap(cols, ucols, qnorm, mu, kk: int) -> None:
    """Swap columns kk-1 and kk and update the Gram-Schmidt data in O(k).

    With mu_{i,j} = <q_j, c_i> / ||q_j||^2 and m = mu_{kk,kk-1}, the new
    q_{kk-1} is q_kk + m q_{kk-1}, of squared norm B = ||q_kk||^2 +
    |m|^2 ||q_{kk-1}||^2; rows below kk re-express their (kk-1, kk)
    components in the new pair (Cohen, A Course in Computational Algebraic
    Number Theory, 2.6.3, with the conjugate where the inner product needs it).
    """
    cols[kk - 1], cols[kk] = cols[kk], cols[kk - 1]
    ucols[kk - 1], ucols[kk] = ucols[kk], ucols[kk - 1]
    m = mu[kk][kk - 1]
    q_prev = qnorm[kk - 1]
    b = qnorm[kk] + (m.real * m.real + m.imag * m.imag) * q_prev
    m_new = m.conjugate() * q_prev / b
    qnorm[kk] = q_prev * qnorm[kk] / b
    qnorm[kk - 1] = b
    mu[kk - 1], mu[kk] = mu[kk], mu[kk - 1]
    mu[kk - 1][kk - 1] = 0j
    mu[kk][kk - 1] = m_new
    for row in mu[kk + 1:]:
        a, c = row[kk - 1], row[kk]
        row[kk] = a - m * c
        row[kk - 1] = c + m_new * row[kk]


def _identity_ucols(k: int):
    return [[(1, 0) if t == j else (0, 0) for t in range(k)] for j in range(k)]


def _sorted_reduction(g_cols):
    """LLL-reduce, sort columns by image norm, fall back to identity if the
    reduction did not shorten the basis.  Returns (basis columns, U columns,
    column squared norms)."""
    k = len(g_cols)
    cols = [list(c) for c in g_cols]
    ucols = _identity_ucols(k)
    _clll_core(cols, ucols)
    norms = [_col_norm_sq(c) for c in cols]
    orig_norms = [_col_norm_sq(c) for c in g_cols]
    if sum(norms) > sum(orig_norms):
        return [list(c) for c in g_cols], _identity_ucols(k), orig_norms
    order = sorted(
        range(k),
        key=lambda i: (
            norms[i],
            tuple(e[0] for e in ucols[i]),
            tuple(e[1] for e in ucols[i]),
        ),
    )
    return [cols[i] for i in order], [ucols[i] for i in order], [norms[i] for i in order]


def _to_cols(g: np.ndarray):
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] < g.shape[1]:
        raise ValueError("generator must be M x K with K <= M")
    return [list(map(complex, g[:, j])) for j in range(g.shape[1])]


def _ucols_to_matrix(ucols) -> IntegerCoeffMatrix:
    k = len(ucols)
    re = np.array([[ucols[j][t][0] for j in range(k)] for t in range(k)], dtype=np.int64)
    im = np.array([[ucols[j][t][1] for j in range(k)] for t in range(k)], dtype=np.int64)
    return IntegerCoeffMatrix(re, im)


def clll_reduce(g: np.ndarray):
    """LLL-reduce the lattice generated by the columns of g over Z[j].

    Returns (reduced_basis, u) with reduced_basis = g @ u.to_complex() and u
    unimodular.
    """
    cols = _to_cols(g)
    ucols = _identity_ucols(len(cols))
    _clll_core(cols, ucols)
    basis = np.array(cols, dtype=np.complex128).T
    return basis, _ucols_to_matrix(ucols)


def shortest_independent_columns(g: np.ndarray) -> IntegerCoeffMatrix:
    """Full-rank Gaussian-integer A whose columns give short independent images.

    Columns come from the LLL-reduced basis sorted by image norm (ties broken
    lexicographically on the integer entries); the identity is kept as a
    fallback so the result never loses to A = I in sum of squared image norms.
    """
    _, ucols, _ = _sorted_reduction(_to_cols(g))
    return _ucols_to_matrix(ucols)


def reduction_objective(g: np.ndarray, a: IntegerCoeffMatrix) -> float:
    """Sum of squared norms of the columns of g @ A."""
    return float(np.sum(np.abs(np.asarray(g, dtype=np.complex128) @ a.to_complex()) ** 2))
