"""Achievable-rate and capacity formulas for the MIMO broadcast setup.

Rates are in bits per complex channel use (base-2 logs); SNR is the linear
total-power to unit-noise ratio.  The central quantity is the computation
rate of a (effective channel, integer coefficient vector) pair; everything
else is assembled from it or from the broadcast sum-capacity program, which
is closed form for two users and otherwise solved by pairwise Frank-Wolfe
steps until the Frank-Wolfe gap certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .gaussint import IntegerCoeffMatrix, det_exact

POWER_TOL = 1e-9
FW_GAP_BITS = 1e-9  # certified distance of every K != 2 capacity to the optimum
FW_MAX_STEPS = 1000  # random channels certify within 60 steps at K <= 8


@dataclass(frozen=True)
class ChannelMatrix:
    """K x M complex downlink channel, or a (T, K, M) stack of them, with its
    operating SNR (linear): one value or a 1-D array of S of them.

    Two-user formulas evaluate all points (channel, SNR) as stacks with
    leading axes (T, S), or (S,), and (T, 1) for what does not vary with SNR:
    rows is H so shaped and herm its H^H.  Most others take a single point.
    """

    h: np.ndarray
    snr: float | np.ndarray
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    herm: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.array(self.h, dtype=np.complex128)
        if h.ndim not in (2, 3) or not np.isfinite(h.view(np.float64)).all():
            raise ValueError("channel must be a finite K x M matrix or a stack of them")
        if h.shape[-2] > h.shape[-1]:
            raise ValueError("need at least as many transmit antennas as users")
        if np.ndim(self.snr):
            snr = np.array(self.snr, dtype=np.float64)
            snr.setflags(write=False)
            valid = snr.ndim == 1 and snr.size > 0 and bool(((snr > 0) & (snr < np.inf)).all())
        else:
            snr = float(self.snr)
            valid = 0.0 < snr < math.inf
        if not valid:
            raise ValueError("snr must be positive and finite")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "snr", snr)
        object.__setattr__(self, "rows", h[:, None] if h.ndim == 3 else h)
        object.__setattr__(self, "herm", self.rows.swapaxes(-1, -2).conj())

    @property
    def k(self) -> int:
        return self.h.shape[-2]

    @property
    def m(self) -> int:
        return self.h.shape[-1]

    @cached_property
    def gram(self) -> np.ndarray:
        """G = H H^H, shaped like rows, built once; read-only because it is shared."""
        g = linalg.gram(self.rows)
        g.setflags(write=False)
        return g

    def factor(self, regularized: bool = False) -> linalg.QRFactor:
        """The QR factor of H^H, or of [H^H; (K/snr)^1/2 I] when regularized,
        built at most once per flag and shared by every precoder on this
        channel: its b is H^H M, M = G^-1 or (K/snr I + G)^-1.  The plain
        factor is shaped like G; the regularized one at S SNR points is an
        (S, ...) or (T, S, ...) stack."""
        cache = self.__dict__.setdefault("_factors", {})
        if regularized not in cache:
            shift = np.sqrt(self.k / np.asarray(self.snr)) if regularized else None
            cache[regularized] = linalg.qr_factor(self.herm, shift)
        return cache[regularized]


@dataclass(frozen=True)
class RateReport:
    """Per-user achievable rates, one (K,) vector or a (..., K) stack, and
    their sum over the last axis.  Rates are finite and nonnegative, except
    that an all-NaN row is a point with no precoder (its channel's factor is
    singular, or H = 0) and sums to NaN."""

    per_user: np.ndarray
    sum_rate: np.ndarray = field(init=False)

    def __post_init__(self):
        per_user = np.asarray(self.per_user, dtype=np.float64)
        ok = (per_user >= 0) & (per_user < np.inf)
        if not per_user.ndim or not ok.all() and not (ok | np.isnan(per_user).all(axis=-1, keepdims=True)).all():
            raise ValueError("per-user rates must be finite and nonnegative")
        object.__setattr__(self, "per_user", per_user)
        object.__setattr__(self, "sum_rate", per_user.sum(axis=-1))


def comp_rates(h_eff: np.ndarray, a: np.ndarray, snr) -> np.ndarray:
    """Computation rates of (h', a) pairs given as rows (..., K), with snr
    broadcast against (...):

    log2+ [ (1 + ||h'||^2 snr) / (||a||^2 + (||a||^2 ||h'||^2 - |h' a^H|^2) snr) ].
    """
    a_sq = linalg.norm_sq(a)
    if (a_sq == 0).any():
        raise ValueError("coefficient vector must be nonzero")
    h_sq = linalg.norm_sq(h_eff)
    cross = linalg.norm_sq((a.conj() * h_eff).sum(axis=-1, keepdims=True))
    num = 1.0 + h_sq * snr
    den = a_sq + (a_sq * h_sq - cross) * snr
    return np.log2(np.maximum(num / den, 1.0))


def if_rates(h_eff: np.ndarray, a: IntegerCoeffMatrix, snr, power) -> RateReport:
    """The RateReport (..., K) of effective channels H_eff = H T with integer
    coefficient matrices A, both (..., K, K) stacks, at snr and beamformer
    power trace(T^H T) broadcast against (...).

    Every precoder passes the same checks here: the power bound, A full rank
    (exact integer determinant) and RateReport's.  A NaN power marks a point
    with no precoder; its rates stay NaN.
    """
    power = np.asarray(power)
    if (power > 1.0 + POWER_TOL).any():
        raise ValueError(f"power constraint violated: trace(T^H T) = {np.nanmax(power)}")
    d_re, d_im = det_exact(a.re, a.im)
    if np.any((d_re == 0) & (d_im == 0)):
        raise ValueError("coefficient matrix is rank deficient")
    return RateReport(comp_rates(h_eff, a.to_complex(), np.asarray(snr)[..., None]))


def if_sum_rate(h: ChannelMatrix, t: np.ndarray, a: IntegerCoeffMatrix) -> RateReport:
    """Sum of per-user computation rates for beamforming t and coefficients a."""
    t = linalg.cmatrix(t)
    if t.shape != (h.m, h.k):
        raise ValueError(f"beamforming matrix must be {h.m} x {h.k}")
    return if_rates(linalg.matmul(h.h, t), a, h.snr, linalg.frob_norm_sq(t))


def dpc_capacities(h: ChannelMatrix) -> np.ndarray:
    """Broadcast sum capacity at every point of h, (T, S) or shaped like h.snr:
    sup over diagonal Q, trace <= 1, of log2 det(I + snr H^H Q H).

    K = 2 is closed form: the trace constraint is active and
    det(I + snr diag(q, 1 - q) G) is a concave quadratic in the power split q,
    maximized at its vertex 1/2 + (G11 - G22)/(2 snr det G) clamped to [0, 1];
    when det G rounds to zero or below the quadratic term is gone and the
    stronger user's endpoint wins.  Every other K runs _dpc_pairwise, certified
    within FW_GAP_BITS of the optimum, or NaN where rounding prevents that.
    """
    if h.k != 2:
        return _dpc_pairwise(h)[0]
    g = h.gram
    snr = h.snr
    # [()] makes a single channel's 0-d arrays numpy scalars: fast arithmetic, slow np.where
    g11, g22, g12 = g[..., 0, 0].real[()], g[..., 1, 1].real[()], g[..., 0, 1][()]
    cross = np.hypot(g12.real, g12.imag) ** 2
    det_g = g11 * g22 - cross
    pos = np.heaviside(det_g, 0.0)  # pos x + (1 - pos) y selects exactly for finite x and y
    vertex = 0.5 + (g11 - g22) / (2.0 * snr * (pos * det_g + (1.0 - pos)))
    q = pos * np.minimum(np.maximum(vertex, 0.0), 1.0) + (1.0 - pos) * np.heaviside(g11 - g22, 1.0)
    return np.log2(
        (1.0 + snr * q * g11) * (1.0 + snr * (1.0 - q) * g22)
        - snr * snr * q * (1.0 - q) * cross
    )


def dpc_sum_capacity(h: ChannelMatrix) -> float:
    """Broadcast sum capacity of h at its single SNR (see dpc_capacities)."""
    return float(dpc_capacities(h))


def _dpc_pairwise(h: ChannelMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Sum capacity at every point of h, as one stack, and the dual-MAC
    powers q (..., K) that reach it: the maximum over the simplex of
    log2 det Z, Z = I + snr H^H diag(q) H, whose ln det has the gradient
    diag(S), S = snr H Z^-1 H^H.  Each pairwise Frank-Wolfe step
    (Lacoste-Julien and Jaggi, NeurIPS 2015) moves power from the powered
    user with the smallest s_jj to the one with the largest s_ii, by the
    clamped vertex of det Z along that line, a concave quadratic.  A point
    stops once its Frank-Wolfe gap (max_i s_ii - q.diag(S)) / ln 2, which
    bounds its distance to the optimum (Jaggi, ICML 2013), is at most
    FW_GAP_BITS; its value comes from det(I + snr Q^1/2 G Q^1/2), exact for
    one user.  Rounding in S grows like snr ||G|| eps: a point that has not
    certified after FW_MAX_STEPS steps (rank-deficient channels far above
    100 dB), or whose Z is singular by the factor rule, is NaN.  Z^-1 is
    R^-1 R^-H of the QR factor of [(snr q)^1/2 H; I].
    """
    shape = np.broadcast_shapes(h.rows.shape[:-2], np.shape(h.snr))
    h_all = np.broadcast_to(h.rows, shape + (h.k, h.m)).reshape(-1, h.k, h.m)
    snr_all = np.broadcast_to(h.snr, shape).reshape(-1)
    capacity = np.full(snr_all.shape, np.nan)
    q = np.full((snr_all.size, h.k), 1.0 / h.k)
    todo = np.arange(snr_all.size)
    for _ in range(FW_MAX_STEPS):
        snr_t = snr_all[todo][:, None, None]
        q_t, h_t = q[todo], h_all[todo]
        h_herm = h_t.swapaxes(-1, -2).conj()
        hr = h_t @ linalg.qr_factor(np.sqrt(snr_t * q_t[:, :, None]) * h_t, 1.0).r_inv
        a = snr_t * (hr @ hr.swapaxes(-1, -2).conj())
        s = a.diagonal(axis1=-2, axis2=-1).real
        done = s.max(axis=-1) - (s * q_t).sum(axis=-1) <= FW_GAP_BITS * math.log(2.0)
        q_pair = np.sqrt(q_t[done, :, None] * q_t[done, None, :])
        w = np.eye(h.k) + snr_t[done] * q_pair * (h_t[done] @ h_herm[done])
        capacity[todo[done]] = np.linalg.slogdet(w)[1] / math.log(2.0)
        live = ~done & ~np.isnan(s[:, 0])
        todo, a, s, q_t = todo[live], a[live], s[live], q_t[live]
        if not todo.size:
            break
        rows = np.arange(todo.size)
        i = s.argmax(axis=-1)
        j = np.where(q_t > 0, s, np.inf).argmin(axis=-1)
        s_i, s_j = s[rows, i], s[rows, j]
        curv = 2.0 * (s_i * s_j - np.abs(a[rows, i, j]) ** 2)
        step = np.divide(s_i - s_j, curv, out=np.full(todo.size, np.inf), where=curv > 0)
        step = np.minimum(step, q_t[rows, j])
        q[todo, i] += step
        q[todo, j] -= step
    return capacity.reshape(shape), q.reshape(shape + (h.k,))
