"""Reference precoders: zero-forcing, regularized zero-forcing, and ZF-DP.

ZF water-fills per-user powers over the inverse-Gram diagonal (the water
level is closed form: sorted floors, largest feasible active set); RZF uses a
uniform diagonal with the usual (K/snr I + H H^H)^-1 regularizer; ZF-DP is
the successive-encoding bound obtained from an LQ triangularization of the
channel with water-filling over the diagonal gains.
"""

from __future__ import annotations

import numpy as np

from .designer import PrecoderDesign, build_precoder
from .gaussint import IntegerCoeffMatrix
from .rates import ChannelMatrix, DiagonalScale, RateReport, if_sum_rate


def _waterfill(inv_gains: np.ndarray, budget: float) -> np.ndarray:
    """p_i = max(0, mu - inv_gains_i) with sum(p) = budget, in closed form.

    With the floors sorted, filling only the n smallest gives the level
    mu_n = (budget + their sum) / n; the active set is the largest n whose
    level lies above its own largest floor.
    """
    floors = np.sort(inv_gains)
    levels = (budget + np.cumsum(floors)) / np.arange(1, len(floors) + 1)
    mu = levels[np.flatnonzero(levels > floors)[-1]]
    return np.maximum(mu - inv_gains, 0.0)


def design_zf(h: ChannelMatrix) -> PrecoderDesign:
    """Zero-forcing with water-filled power loading.

    T = H^H (H H^H)^-1 D with |d_i|^2 = max(0, mu/M_ii - 1/snr) and
    sum_i M_ii |d_i|^2 = 1; per-user rates are log2(1 + |d_i|^2 snr).
    """
    m = h.inv_gram()
    m_diag = np.real(np.diag(m)).copy()
    # substitute p_i = M_ii |d_i|^2: water-fill with floors M_ii/snr, budget 1
    p = _waterfill(m_diag / h.snr, 1.0)
    d = np.sqrt(p / m_diag).astype(np.complex128)
    t = h.h.conj().T @ m @ np.diag(d)
    a = IntegerCoeffMatrix.identity(h.k)
    rates = if_sum_rate(h, t, a, scheme="zf")
    return PrecoderDesign(
        a=a,
        d0=DiagonalScale(d, c=1.0, unit_det=False),
        c=1.0,
        t=t,
        rates=rates,
        regularized=False,
    )


def design_rzf(h: ChannelMatrix) -> PrecoderDesign:
    """Regularized zero-forcing with uniform loading D = c I.

    Identical to the regularized integer-forcing construction restricted to
    A = I and D0 = I; per-user rates treat residual interference as noise.
    """
    a = IntegerCoeffMatrix.identity(h.k)
    d0 = DiagonalScale(np.ones(h.k, dtype=np.complex128), c=1.0, unit_det=True)
    design = build_precoder(h, a, d0, regularized=True, scheme="rzf")
    return design


def design_zfdp(h: ChannelMatrix) -> RateReport:
    """Zero-forcing dirty-paper bound via LQ triangularization.

    H = L Q with L lower triangular and Q row-orthonormal (natural user
    order); powers water-fill over the gains |L_ii|^2 under sum p_i = snr.
    """
    q, r = np.linalg.qr(h.h.conj().T, mode="reduced")
    gains = np.abs(np.diag(r)) ** 2
    p = _waterfill(1.0 / gains, h.snr)
    per_user = np.log2(1.0 + gains * p)
    return RateReport("zfdp", per_user)
