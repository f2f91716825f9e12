"""Baseline precoders: symmetry cases, dominance orderings, power budgets."""

import math

import numpy as np

from difprec.baselines import design_rzf, design_zf, zfdp_rates
from difprec.designer import build_precoder, design_dif_2user
from difprec.gaussint import IntegerCoeffMatrix
from difprec.linalg import frob_norm_sq
from difprec.rates import ChannelMatrix, dpc_sum_capacity


def rand_channel(rng, k, m, snr):
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
    return ChannelMatrix(h, snr)


def test_zf_identity_channel_equal_split():
    h = ChannelMatrix(np.eye(2, dtype=complex), 6.0)
    design = design_zf(h)
    assert np.allclose(design.rates.per_user, math.log2(1 + 3.0), rtol=1e-12)
    assert abs(frob_norm_sq(design.t) - 1.0) <= 1e-9


def test_zf_single_user_matches_capacity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = rand_channel(rng, 1, 3, 7.5)
        assert np.isclose(design_zf(h).rates.sum_rate, dpc_sum_capacity(h), rtol=1e-10)


def test_zf_waterfilling_beats_equal_allocation():
    rng = np.random.default_rng(1)
    for _ in range(30):
        h = rand_channel(rng, 2, 2, float(10 ** rng.uniform(-0.5, 2)))
        design = design_zf(h)
        m_diag = np.real(np.diag(np.linalg.inv(h.h @ h.h.conj().T)))
        equal = sum(math.log2(1 + h.snr / (2 * mii)) for mii in m_diag)
        assert design.rates.sum_rate >= equal - 1e-9


def test_zf_waterfilling_drops_weak_user_at_low_snr():
    h = ChannelMatrix(np.array([[10.0, 0.0], [0.999, 0.0447]], dtype=complex), 0.01)
    design = design_zf(h)
    assert design.rates.per_user[1] == 0.0
    assert design.rates.per_user[0] > 0.0
    assert abs(frob_norm_sq(design.t) - 1.0) <= 1e-9


def test_zf_waterfilling_at_a_high_water_level():
    """Rows 0.01 apart at SNR 0.1 put the water level near 1e5: all power goes
    to the second user, whose floor is the lower one."""
    rows = np.array([[1.0, 0.0], [1.0, 0.01]], dtype=complex)
    design = design_zf(ChannelMatrix(rows, 0.1))
    powers = np.sum(np.abs(design.t) ** 2, axis=0)
    assert np.allclose(powers, [0.0, 1.0], rtol=0.0, atol=1e-9)
    m22 = np.real(np.linalg.inv(rows @ rows.conj().T))[1, 1]
    assert np.isclose(design.rates.sum_rate, math.log2(1 + 0.1 / m22), rtol=1e-9, atol=0.0)


def test_rzf_equals_zf_on_identity_channel():
    h = ChannelMatrix(np.eye(2, dtype=complex), 4.0)
    assert np.isclose(design_rzf(h).rates.sum_rate, design_zf(h).rates.sum_rate, rtol=1e-12)


def test_rzf_tends_to_uniform_zf_direction():
    rng = np.random.default_rng(2)
    eye = IntegerCoeffMatrix.identity(2)
    ones = np.ones(2, dtype=complex)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, 1e7)
        rzf = design_rzf(h)
        zf_dir = build_precoder(h, eye, ones, regularized=False)
        dist = np.sqrt(frob_norm_sq(rzf.t - zf_dir.t) / frob_norm_sq(zf_dir.t))
        assert dist < 1e-4


def test_rzf_is_regularized_design_with_identity_coefficients():
    rng = np.random.default_rng(3)
    eye = IntegerCoeffMatrix.identity(2)
    ones = np.ones(2, dtype=complex)
    for _ in range(10):
        h = rand_channel(rng, 2, 3, 12.0)
        a = design_rzf(h).rates.sum_rate
        b = build_precoder(h, eye, ones, regularized=True).rates.sum_rate
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_baselines_respect_capacity_and_power():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, float(10 ** rng.uniform(-1, 3)))
        cap = dpc_sum_capacity(h)
        zf, rzf = design_zf(h), design_rzf(h)
        assert zf.rates.sum_rate <= cap + 1e-6
        assert rzf.rates.sum_rate <= cap + 1e-6
        assert zfdp_rates(h).sum_rate <= cap + 1e-6
        assert frob_norm_sq(zf.t) <= 1 + 1e-9
        assert frob_norm_sq(rzf.t) <= 1 + 1e-9


def test_zfdp_identity_channel():
    h = ChannelMatrix(np.eye(2, dtype=complex), 6.0)
    assert np.isclose(zfdp_rates(h).sum_rate, 2 * math.log2(1 + 3.0), rtol=1e-12)


def test_zfdp_dominates_zf():
    rng = np.random.default_rng(5)
    for _ in range(30):
        h = rand_channel(rng, 2, 2, float(10 ** rng.uniform(-0.5, 3)))
        assert zfdp_rates(h).sum_rate >= design_zf(h).rates.sum_rate - 1e-9


def test_zf_gap_exceeds_dif_gap_at_high_snr():
    """Average high-SNR gap ordering: exact integer forcing beats plain ZF."""
    rng = np.random.default_rng(6)
    snr = 10**3.5
    zf_gaps, dif_gaps = [], []
    for _ in range(40):
        h = rand_channel(rng, 2, 2, snr)
        cap = dpc_sum_capacity(h)
        zf_gaps.append(cap - design_zf(h).rates.sum_rate)
        dif_gaps.append(cap - design_dif_2user(h).rates.sum_rate)
    assert np.mean(zf_gaps) > np.mean(dif_gaps)
