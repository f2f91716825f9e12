"""Lattice reduction: unimodularity, basis identities, brute-force objective."""

import itertools
import math

import numpy as np
import pytest

from difprec.gaussint import IntegerCoeffMatrix
from difprec.reduction import clll_reduce, shortest_independent_columns

from oracles import reduction_objective


def rand_generator(rng, m, k):
    return (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)


def all_nonzero_vectors(bound):
    """All Gaussian-integer 2-vectors with |Re|,|Im| of entries <= bound."""
    span = range(-bound, bound + 1)
    out = []
    for r0, i0, r1, i1 in itertools.product(span, repeat=4):
        if r0 or i0 or r1 or i1:
            out.append((complex(r0, i0), complex(r1, i1)))
    return np.array(out)


def sivp_2d_oracle(g, bound=3):
    """Exact two-column shortest independent pair by greedy enumeration.

    For K = 2 the minimum of ||g c1||^2 + ||g c2||^2 over independent integer
    pairs is attained by the shortest nonzero vector plus the shortest vector
    independent of it.
    """
    cands = all_nonzero_vectors(bound)
    norms = np.sum(np.abs(cands @ g.T) ** 2, axis=1)
    order = np.argsort(norms, kind="stable")
    c1 = cands[order[0]]
    best1 = norms[order[0]]
    for idx in order[1:]:
        c2 = cands[idx]
        if abs(c1[0] * c2[1] - c1[1] * c2[0]) > 1e-9:
            return best1 + norms[idx]
    raise AssertionError("no independent pair found")


def test_identity_stays_identity():
    basis, u = clll_reduce(np.eye(3, dtype=complex))
    assert np.array_equal(basis, np.eye(3))
    assert u == IntegerCoeffMatrix.identity(3)


def test_hand_reduction_case():
    # columns e1 and e1 + 0.1 e2: second column reduces to 0.1 e2
    g = np.array([[1.0, 1.0], [0.0, 0.1]], dtype=complex)
    basis, u = clll_reduce(g)
    assert u.is_unimodular()
    norms = np.sort(np.sum(np.abs(basis) ** 2, axis=0))
    assert np.isclose(norms[0], 0.01)
    assert np.isclose(norms[1], 1.0)
    assert np.allclose(g @ u.to_complex(), basis, rtol=1e-10)


def test_reduction_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = rand_generator(rng, 2, 2)
        basis, u = clll_reduce(g)
        assert u.is_unimodular()
        assert np.allclose(g @ u.to_complex(), basis, rtol=1e-10, atol=1e-12)
        assert np.sum(np.abs(basis) ** 2) <= np.sum(np.abs(g) ** 2) + 1e-12


def test_reduction_size_condition():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = rand_generator(rng, 3, 3)
        basis, _ = clll_reduce(g)
        # recompute Gram-Schmidt and check both size-reduction components
        q, mu = np.zeros_like(basis), np.zeros((3, 3), dtype=complex)
        for i in range(3):
            v = basis[:, i].copy()
            for j in range(i):
                mu[i, j] = np.vdot(q[:, j], basis[:, i]) / np.vdot(q[:, j], q[:, j]).real
                v -= mu[i, j] * q[:, j]
            q[:, i] = v
        for i in range(3):
            for j in range(i):
                assert abs(mu[i, j].real) <= 0.5 + 1e-9
                assert abs(mu[i, j].imag) <= 0.5 + 1e-9


def test_rank_deficient_raises():
    g = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError):
        clll_reduce(g)


def test_shortest_columns_orthogonal_input():
    g = np.diag([1.0 + 0j, 1.0]).astype(complex)
    a = shortest_independent_columns(g)
    assert a.is_unimodular()
    assert np.isclose(reduction_objective(g, a.to_complex()), 2.0)


def test_shortest_columns_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rand_generator(rng, 3, 2)
        a1 = shortest_independent_columns(g)
        a2 = shortest_independent_columns(3.7 * g)
        assert a1 == a2


def test_shortest_columns_never_worse_than_identity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rand_generator(rng, 2, 2)
        a = shortest_independent_columns(g)
        assert a.is_full_rank()
        assert reduction_objective(g, a.to_complex()) <= reduction_objective(g, np.eye(2)) * (1 + 1e-12)


def test_shortest_columns_against_bruteforce():
    rng = np.random.default_rng(4)
    hits = 0
    trials = 40
    for _ in range(trials):
        g = rand_generator(rng, 2, 2)
        achieved = reduction_objective(g, shortest_independent_columns(g).to_complex())
        optimum = sivp_2d_oracle(g)
        assert achieved <= 1.5 * optimum + 1e-9
        if achieved <= optimum * (1 + 1e-9):
            hits += 1
    assert hits >= math.ceil(0.95 * trials)
