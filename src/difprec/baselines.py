"""Reference precoders: zero-forcing, regularized zero-forcing, and ZF-DP.

ZF water-fills per-user powers over the inverse-Gram diagonal (the water
level is closed form: sorted floors, largest feasible active set); RZF uses a
uniform diagonal with the usual (K/snr I + H H^H)^-1 regularizer; ZF-DP is
the successive-encoding bound obtained from an LQ triangularization of the
channel with water-filling over the diagonal gains.
"""

from __future__ import annotations

import numpy as np

from .designer import PrecoderDesign, PrecoderStack, precode
from .gaussint import IntegerCoeffMatrix
from .rates import ChannelMatrix, RateReport, _check_rates


def _waterfill(inv_gains: np.ndarray, budget) -> np.ndarray:
    """p_i = max(0, mu - inv_gains_i) with sum(p) = budget, in closed form,
    for each row of a (..., K) stack of floors, budget broadcast against (...).

    With the floors sorted, filling only the n smallest gives the level
    mu_n = (budget + their sum) / n; the active set is the largest n whose
    level lies above its own largest floor.  An infinite floor (a zero gain)
    gets no power, also when every floor is infinite.
    """
    floors = np.sort(inv_gains, axis=-1)
    n = floors.shape[-1]
    levels = (np.expand_dims(budget, -1) + np.cumsum(floors, axis=-1)) / np.arange(1, n + 1)
    active = n - 1 - np.argmax((levels > floors)[..., ::-1], axis=-1)
    mu = np.take_along_axis(levels, active[..., None], axis=-1)
    return np.maximum(np.minimum(mu, np.finfo(np.float64).max) - inv_gains, 0.0)


def zf_stack(h: ChannelMatrix) -> PrecoderStack:
    """Zero-forcing with water-filled power loading at every point of h.

    T = H^H (H H^H)^-1 D with |d_i|^2 = max(0, mu/M_ii - 1/snr) and
    sum_i M_ii |d_i|^2 = 1, so that c = 1 up to rounding; per-user rates are
    log2(1 + |d_i|^2 snr).
    """
    m_diag = np.diagonal(h.inv_gram(), axis1=-2, axis2=-1).real
    # substitute p_i = M_ii |d_i|^2: water-fill with floors M_ii/snr, budget 1
    p = _waterfill(m_diag / np.asarray(h.snr)[..., None], 1.0)
    d = np.sqrt(p / m_diag).astype(np.complex128)
    return precode(h, d, IntegerCoeffMatrix.identity(h.k), regularized=False)


def design_zf(h: ChannelMatrix) -> PrecoderDesign:
    """Zero-forcing with water-filled power loading (see zf_stack)."""
    return zf_stack(h).design(unit_det=False)


def rzf_stack(h: ChannelMatrix) -> PrecoderStack:
    """Regularized zero-forcing with uniform loading D = c I at every point
    of h.

    Identical to the regularized integer-forcing construction restricted to
    A = I and D0 = I; per-user rates treat residual interference as noise.
    """
    return precode(h, np.ones(h.k, dtype=np.complex128), IntegerCoeffMatrix.identity(h.k), regularized=True)


def design_rzf(h: ChannelMatrix) -> PrecoderDesign:
    """Regularized zero-forcing with uniform loading (see rzf_stack)."""
    return rzf_stack(h).design()


def zfdp_rates(h: ChannelMatrix) -> np.ndarray:
    """Zero-forcing dirty-paper per-user rates (..., K) at every point of h.

    H = L Q with L lower triangular and Q row-orthonormal (natural user
    order); powers water-fill over the gains |L_ii|^2 under sum p_i = snr; none to a zero gain.
    """
    _, r = np.linalg.qr(h.herm, mode="reduced")
    gains = np.abs(np.diagonal(r, axis1=-2, axis2=-1)) ** 2
    inv_gains = np.divide(1.0, gains, out=np.full_like(gains, np.inf), where=gains > 0.0)
    rates = np.log2(1.0 + gains * _waterfill(inv_gains, h.snr))
    _check_rates(rates)
    return rates


def design_zfdp(h: ChannelMatrix) -> RateReport:
    """Zero-forcing dirty-paper bound (see zfdp_rates)."""
    return RateReport(zfdp_rates(h))
