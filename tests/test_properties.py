"""Property tests over generated inputs: the message layer's exact round trip,
unimodular lattice reduction, and the two-user designs' power and gap bounds.

Every test runs under one deterministic profile (derandomized, no deadline, a
bounded number of examples, no example database), so a run is repeatable.
"""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from difprec import linalg
from difprec.baselines import design_rzf, design_zf
from difprec.designer import design_dif_2user
from difprec.gaussint import IntegerCoeffMatrix
from difprec.msgprecode import (
    MessageMatrix,
    ModPField,
    modp_inverse,
    modp_invertible,
    precode_messages,
    recover_message,
)
from difprec.rates import ChannelMatrix, dpc_sum_capacity
from difprec.reduction import shortest_independent_columns

PROFILE = settings(derandomize=True, deadline=None, max_examples=60, database=None)

entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def complex_matrices(rows, cols):
    parts = arrays(np.float64, (2, rows, cols), elements=entries)
    return parts.map(lambda x: x[0] + 1j * x[1])


@st.composite
def coefficient_problems(draw):
    """(field, A, W): A a K x K Gaussian-integer matrix, W a K x n message."""
    field = ModPField(draw(st.sampled_from([3, 7, 251, 2**31 - 1])))
    k = draw(st.integers(1, 6))
    parts = draw(arrays(np.int64, (2, k, k), elements=st.integers(-6, 6)))
    n = draw(st.integers(1, 4))
    w = draw(arrays(np.int64, (2, k, n), elements=st.integers(0, field.p - 1)))
    return field, IntegerCoeffMatrix(parts[0], parts[1]), MessageMatrix(field, w[0], w[1])


@PROFILE
@given(coefficient_problems())
def test_message_round_trip_and_inverse(problem):
    field, a, w = problem
    assume(modp_invertible(a, field))
    p, k = field.p, a.k
    atilde = modp_inverse(a, field)
    # Python-integer products: the check itself must not overflow at large p
    a_re, a_im = a.re.astype(object) % p, a.im.astype(object) % p
    t_re, t_im = atilde.re.astype(object), atilde.im.astype(object)
    assert ((a_re @ t_re - a_im @ t_im) % p == np.eye(k, dtype=np.int64)).all()
    assert ((a_re @ t_im + a_im @ t_re) % p == 0).all()
    w_prime = precode_messages(w, a)
    for i in range(k):
        assert recover_message(i, w_prime, a) == w.row(i)


@PROFILE
@given(st.integers(2, 6).flatmap(lambda k: complex_matrices(k, k)))
def test_shortest_independent_columns_is_unimodular(g):
    assume(linalg.det(g) != 0)
    assert shortest_independent_columns(g).is_unimodular()


@st.composite
def two_user_channels(draw):
    """2 x M channels, half of them with a second row z h_1 + 10^-e h_2 close
    to a multiple of the first, which drives cond(G) up to about 1e16."""
    h = draw(st.integers(2, 3).flatmap(lambda m: complex_matrices(2, m)))
    if draw(st.booleans()):
        z = draw(complex_matrices(1, 1))[0, 0]
        h[1] = z * h[0] + 10.0 ** -draw(st.floats(0.0, 8.0)) * h[1]
    return h


@PROFILE
@given(two_user_channels(), st.floats(-10.0, 60.0))
@example(np.array([[2 + 1e-5j, 1e-5 + 1e-5j], [1 + 1e-5j, 1e-5 + 1e-5j]]), 0.0)
@example(np.array([[1 + 1e-5j, 1e-5 + 1e-5j], [2 + 1e-5j, 1e-5 + 1e-5j]]), 0.0)
def test_two_user_designs_respect_power_and_capacity(h, snr_db):
    ch = ChannelMatrix(h, 10.0 ** (snr_db / 10.0))
    assume(linalg.det(ch.gram) != 0)
    capacity = dpc_sum_capacity(ch)
    designs = {
        "dif": design_dif_2user(ch, regularized=False),
        "rdif": design_dif_2user(ch, regularized=True),
        "zf": design_zf(ch),
        "rzf": design_rzf(ch),
    }
    for scheme, design in designs.items():
        assert capacity - design.rates.sum_rate >= -1e-9, scheme
        assert linalg.frob_norm_sq(design.t) <= 1.0 + 1e-9, scheme
    dif = designs["dif"]
    ht = ch.h @ dif.t
    target = dif.c * (dif.d0.d[:, None] * dif.a.to_complex())
    residual = math.sqrt(linalg.frob_norm_sq(ht - target) / linalg.frob_norm_sq(ht))
    # T is formed through M = G^-1, so forcing holds to about cond(G) eps: 1e-9
    # up to cond(G) = 1e6, and measured below 0.6 cond(G) eps beyond that
    assert residual <= max(1e-9, 100.0 * np.linalg.cond(ch.gram) * np.finfo(float).eps)
