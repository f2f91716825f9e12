"""The stacked lattice reduction against the column-list reducer it replaced.

`sorted_reduction_reference` below is the reducer `reduction` ran before it
took a generator stack: an explicit Gram-Schmidt pass over complex column
lists, then the LLL index loop updating the basis columns, their Gram-Schmidt
data and the exact integer transform together, then the sort by image norm
with the identity fallback.  It is kept here, written out on plain Python
scalars, as the reference.
"""

import numpy as np
import pytest

from difprec import reduction
from difprec.reduction import LLL_DELTA, _lll, rank_deficient, sorted_reduction


def col_norm_sq(col):
    return sum(z.real * z.real + z.imag * z.imag for z in col)


def gso(cols):
    """Squared Gram-Schmidt norms and mu coefficients of complex column lists."""
    k, m = len(cols), len(cols[0])
    q, qnorm = [], [0.0] * k
    mu = [[0j] * k for _ in range(k)]
    for i in range(k):
        v = list(cols[i])
        for j in range(i):
            s = sum(q[j][t].conjugate() * cols[i][t] for t in range(m))
            mu[i][j] = s / qnorm[j]
            for t in range(m):
                v[t] -= mu[i][j] * q[j][t]
        q.append(v)
        qnorm[i] = col_norm_sq(v)
    return qnorm, mu


def swap(cols, ucols, qnorm, mu, kk):
    """Swap columns kk-1 and kk and update the Gram-Schmidt data in O(k)."""
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
    for row in mu[kk + 1 :]:
        a, c = row[kk - 1], row[kk]
        row[kk] = a - m * c
        row[kk - 1] = c + m_new * row[kk]


def clll_core(cols, ucols):
    """In-place complex LLL on column lists; ucols holds exact (re, im) ints."""
    k, m = len(cols), len(cols[0])
    qnorm, mu = gso(cols)
    if min(qnorm) <= 1e-24 * max(col_norm_sq(c) for c in cols):
        raise ValueError("generator matrix is rank deficient")
    kk = 1
    while kk < k:
        mrow = mu[kk]
        for j in range(kk - 1, -1, -1):
            mj = mrow[j]
            cr, ci = round(mj.real), round(mj.imag)
            if cr or ci:
                c = complex(cr, ci)
                for t in range(m):
                    cols[kk][t] -= c * cols[j][t]
                uk, uj = ucols[kk], ucols[j]
                for t in range(k):
                    ar, ai = uk[t]
                    br, bi = uj[t]
                    uk[t] = (ar - cr * br + ci * bi, ai - cr * bi - ci * br)
                for l in range(j):
                    mrow[l] -= c * mu[j][l]
                mrow[j] = mj - c
        if qnorm[kk] >= (LLL_DELTA - abs(mrow[kk - 1]) ** 2) * qnorm[kk - 1]:
            kk += 1
        else:
            swap(cols, ucols, qnorm, mu, kk)
            kk = max(kk - 1, 1)


def identity_ucols(k):
    return [[(1, 0) if t == j else (0, 0) for t in range(k)] for j in range(k)]


def lll_reference(g):
    """(U re, U im) of the column-list index loop for one M x K g, unsorted."""
    cols = [list(map(complex, g[:, j])) for j in range(g.shape[1])]
    ucols = identity_ucols(len(cols))
    clll_core(cols, ucols)
    u = np.array(ucols, dtype=np.int64)  # (column, entry, re/im)
    return u[..., 0].T, u[..., 1].T


def sorted_reduction_reference(g):
    """(U re, U im, fallback taken) of the column-list reducer for one M x K g."""
    g_cols = [list(map(complex, g[:, j])) for j in range(g.shape[1])]
    k = len(g_cols)
    cols = [list(c) for c in g_cols]
    ucols = identity_ucols(k)
    clll_core(cols, ucols)
    norms = [col_norm_sq(c) for c in cols]
    if sum(norms) > sum(col_norm_sq(c) for c in g_cols):
        ucols, fallback = identity_ucols(k), True
    else:
        order = sorted(
            range(k),
            key=lambda i: (norms[i], tuple(e[0] for e in ucols[i]), tuple(e[1] for e in ucols[i])),
        )
        ucols, fallback = [ucols[i] for i in order], False
    u = np.array(ucols, dtype=np.int64)  # (column, entry, re/im)
    return u[..., 0].T, u[..., 1].T, fallback


def column_scaled_generators(k, m, n, key):
    """(n, m, k) stack of B diag(exp(beta + j theta)), B i.i.d. Rayleigh, the
    diagonal drawn as the search draws its random starts."""
    rng = np.random.default_rng([key, k, m])
    b = (rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))) / np.sqrt(2.0)
    d = np.exp(rng.uniform(-1.5, 1.5, (n, k)) + 1j * rng.uniform(0.0, 2.0 * np.pi, (n, k)))
    return b * d[:, None, :]


def reduced_generators(k, m, n, key):
    """g U with U the LLL transform of each g of a column-scaled stack: bases
    that are LLL-reduced already."""
    gens = column_scaled_generators(k, m, n, key)
    return gens @ _lll(gens)


def is_identity(u):
    """Which members of a (N, K, K) transform stack are U = I."""
    return (u == np.eye(u.shape[-1])).all(axis=(-2, -1))


def reference_mismatches(gens):
    """Members on which the stacked reducer and the reference differ, and the
    number of identity fallbacks the reference took."""
    a, norms = sorted_reduction(gens)
    image = gens @ a
    assert np.allclose(norms, np.sum(np.abs(image) ** 2, axis=-2), rtol=1e-12)
    bad, fallbacks = [], 0
    for n, g in enumerate(gens):
        ref_re, ref_im, fallback = sorted_reduction_reference(g)
        fallbacks += fallback
        if not (np.array_equal(a[n].real, ref_re) and np.array_equal(a[n].imag, ref_im)):
            bad.append(n)
    return bad, fallbacks


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8])
def test_stacked_reduction_matches_column_list_reducer(k):
    """Same sorted U, identity fallback included, on 1000 generators per K:
    500 square and 500 with one more row than columns."""
    for m in (k, k + 1):
        bad, _ = reference_mismatches(column_scaled_generators(k, m, 500, key=21))
        assert bad == []


def test_identity_fallback_matches_reference():
    """The fallback is rare on random generators; this K = 3 draw takes it twice."""
    bad, fallbacks = reference_mismatches(column_scaled_generators(3, 3, 500, key=21))
    assert bad == [] and fallbacks >= 1


def test_norm_ties_broken_like_reference():
    """Exactly tied image norms are ordered lexicographically on U, real
    parts first, in rows with and without ties."""
    gens = np.array(
        [
            np.eye(3),
            np.diag([1j, -1.0, 1.0]),
            np.diag([2.0, 1.0, 1j]),
            [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            np.diag([3.0, 2.0, 1.0]),
        ],
        dtype=complex,
    )
    assert reference_mismatches(gens) == ([], 0)


def test_rank_deficient_member_raises():
    gens = column_scaled_generators(4, 4, 3, key=3)
    gens[1][:, 2] = (2.0 - 1.0j) * gens[1][:, 0]
    assert rank_deficient(gens).tolist() == [False, True, False]
    with pytest.raises(ValueError, match="rank deficient"):
        sorted_reduction(gens)
    sorted_reduction(gens[[0, 2]])


@pytest.mark.parametrize("k", range(2, 9))
def test_lll_matches_index_loop_on_every_member(k):
    """_lll, which runs the index loop only on members that are not reduced
    already, gives the U of the loop run on every member, and sorted_reduction
    the sorted U of the reference: on random stacks, on stacks of reduced
    bases and on the two shuffled together."""
    rand = column_scaled_generators(k, k + 1, 150, key=31)
    reduced = reduced_generators(k, k + 1, 150, key=32)
    mixed = np.concatenate([rand[:75], reduced[:75]])[np.random.default_rng(k).permutation(150)]
    for gens in (rand, reduced, mixed):
        u = _lll(gens)
        for n, g in enumerate(gens):
            ref_re, ref_im = lll_reference(g)
            assert np.array_equal(u[n].real, ref_re) and np.array_equal(u[n].imag, ref_im)
        assert reference_mismatches(gens)[0] == []
    assert is_identity(_lll(reduced)).all() and not is_identity(_lll(rand)).all()


def test_reduced_members_skip_the_index_loop(monkeypatch):
    """A stack of reduced bases never enters the per-lattice loop; an
    unreduced member added to it does, and only it."""
    reduced = reduced_generators(4, 4, 100, key=33)
    calls = []
    loop = reduction._lll_one
    monkeypatch.setattr(reduction, "_lll_one", lambda mu, q, k, kk: calls.append(len(mu)) or loop(mu, q, k, kk))
    assert is_identity(_lll(reduced)).all() and calls == []
    u = _lll(np.concatenate([reduced, column_scaled_generators(4, 4, 1, key=34)]))
    assert calls == [4] and is_identity(u).tolist() == [True] * 100 + [False]


def partly_reduced_generators(k, m, n, key):
    """Reduced bases, certified without the loop, whose last column is
    replaced by a random one: rows 1 .. K-2 pass the loop's tests, so a member
    that fails them fails first at row K-1."""
    reduced = reduced_generators(k, m, n, key)
    assert is_identity(_lll(reduced)).all()
    rng = np.random.default_rng([key, k])
    reduced[:, :, -1] = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) * 3.0
    return reduced


@pytest.mark.parametrize("k", range(3, 9))
def test_index_loop_starts_at_the_first_failing_row(k, monkeypatch):
    """Partly reduced bases shuffled with random ones: _lll equals the loop run
    from row 1 on every member, and each partly reduced member that enters
    the loop starts it at row K-1."""
    partly = partly_reduced_generators(k, k + 1, 60, key=35)
    rand = column_scaled_generators(k, k + 1, 60, key=36)
    order = np.random.default_rng(k).permutation(120)
    gens = np.concatenate([partly, rand])[order]
    qnorm = reduction._gram_schmidt(gens)[1].tolist()
    starts, loop = {}, reduction._lll_one

    def recording_loop(mu, q, k, kk):
        starts[qnorm.index(q)] = kk
        return loop(mu, q, k, kk)

    monkeypatch.setattr(reduction, "_lll_one", recording_loop)
    u = _lll(gens)
    for n, g in enumerate(gens):
        ref_re, ref_im = lll_reference(g)
        assert np.array_equal(u[n].real, ref_re) and np.array_equal(u[n].imag, ref_im)
    partly_rows = np.flatnonzero(order < 60)
    entered = [n for n in partly_rows if n in starts]
    assert {starts[n] for n in entered} == {k - 1}
    assert set(partly_rows[~is_identity(u[partly_rows])]) <= set(entered)
    assert len(entered) >= 30 and len(starts) > len(entered)


def test_mixed_stack_matches_reference_and_each_member_alone():
    """Certified, identity-fallback and reduced members in one call: the
    sorted U matches the reference, and each member's A and norms are those
    of the same call on that member alone."""
    draw = column_scaled_generators(3, 3, 500, key=21)
    fallback = [n for n, g in enumerate(draw) if sorted_reduction_reference(g)[2]]
    gens = np.concatenate([reduced_generators(3, 3, 20, key=37), draw[fallback], draw[:20]])
    gens = gens[np.random.default_rng(37).permutation(len(gens))]
    bad, fallbacks = reference_mismatches(gens)
    certified = is_identity(_lll(gens))  # a fallback member's LLL U is not I
    assert bad == [] and fallbacks >= 1 and certified.sum() >= 1 and (~certified).sum() - fallbacks >= 1
    a, norms = sorted_reduction(gens)
    for n in range(len(gens)):
        one, one_norms = sorted_reduction(gens[n : n + 1])
        assert np.array_equal(one[0], a[n])
        assert np.array_equal(one_norms[0], norms[n])
