"""Construction of diagonally-scaled exact integer-forcing precoders.

The precoder family is T = c * H^H M D0 A with M = (H H^H)^-1 (plain) or
M = (K/snr I + H H^H)^-1 (regularized), D0 a unit-|det| diagonal and A a
full-rank Gaussian-integer matrix.  The plain variant forces H T = c D0 A
exactly; the regularized variant trades exactness for finite-SNR rate and
converges to the plain one as snr grows.

For two users everything is closed form: the channel correlation rho picks
the integer matrix off a quantization table (optimal_n/optimal_a_2user) and
the diagonal follows from a two-parameter minimization solved analytically
(optimal_d0_2user).  For more users, design_dif_generalk searches the
diagonal with a derivative-free coordinate method, letting lattice reduction
choose A for each candidate diagonal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .gaussint import (
    GaussInt,
    IntegerCoeffMatrix,
    ceil_norm_set,
    floor_norm_set,
    two_square_decomp,
)
from .rates import ChannelMatrix, DiagonalScale, RateReport, if_sum_rate, log2_pos
from .reduction import _sorted_reduction, shortest_independent_columns

# Numerically rank-deficient channels get their correlation clamped here so
# the u = rho/sqrt(1-rho^2) change of variables stays finite.
RHO_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class PrecoderDesign:
    """Everything a designer returns: coefficients, scaling, beamformer, rates."""

    a: IntegerCoeffMatrix
    d0: DiagonalScale
    c: float
    t: np.ndarray
    rates: RateReport
    regularized: bool
    rho: float = math.nan


def rho_of_channel(h: ChannelMatrix, regularized: bool = False) -> float:
    """Normalized correlation between the two channel rows, in [0, 1).

    Both variants are |X_12| / sqrt(X_11 X_22): the plain one with X = H H^H,
    the regularized one with X = M = (K/snr I + H H^H)^-1, which tends to the
    plain value at high SNR.  The plain variant never inverts, so a singular
    channel gets rho = RHO_MAX.
    """
    if h.k != 2:
        raise ValueError("rho is defined for two-user channels")
    x = h.inv_gram(True) if regularized else h.gram
    rho = abs(x[0, 1]) / math.sqrt(x[0, 0].real * x[1, 1].real)
    return min(rho, RHO_MAX)


def f_of_a(a: IntegerCoeffMatrix, rho: float) -> float:
    """||a_1|| ||a_2|| - rho |a_2 a_1^H|: the high-SNR design objective."""
    a1, a2 = a.row(0), a.row(1)
    return float(
        math.sqrt(np.vdot(a1, a1).real * np.vdot(a2, a2).real)
        - rho * abs(np.vdot(a1, a2))
    )


def optimal_n(rho: float) -> int:
    """Best |cross-correlation|^2 value N for correlation rho.

    N is the floor or ceiling of rho^2/(1-rho^2) in the two-squares set,
    whichever minimizes sqrt(N+1) - rho sqrt(N); ties go to the smaller N
    (smaller coefficient norms help at finite SNR).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    x = rho * rho / (1.0 - rho * rho)
    lo = floor_norm_set(x)
    hi = ceil_norm_set(x)
    f_lo = math.sqrt(lo + 1.0) - rho * math.sqrt(lo)
    f_hi = math.sqrt(hi + 1.0) - rho * math.sqrt(hi)
    return lo if f_lo <= f_hi else hi


def transition_rho(n: int) -> float:
    """Correlation at which the optimal N switches to n (0 by convention at 0)."""
    if n == 0:
        return 0.0
    if n < 0 or floor_norm_set(n) != n:
        raise ValueError(f"{n} is not a sum of two squares")
    n_minus = floor_norm_set(n - 1)
    return (math.sqrt(n + 1.0) - math.sqrt(n_minus + 1.0)) / (
        math.sqrt(n) - math.sqrt(n_minus)
    )


def optimal_a_2user(rho: float) -> IntegerCoeffMatrix:
    """Lower-triangular unimodular coefficient matrix minimizing f_of_a."""
    n = optimal_n(rho)
    a21 = two_square_decomp(n)
    return IntegerCoeffMatrix.from_rows(
        [[GaussInt(1, 0), GaussInt(0, 0)], [a21, GaussInt(1, 0)]]
    )


def optimal_a_2user_real(rho: float) -> IntegerCoeffMatrix:
    """Best coefficient matrix when restricted to real integers (N = k^2)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    u = rho / math.sqrt(1.0 - rho * rho)
    cands = sorted({math.floor(u), math.ceil(u)})
    k_best = min(cands, key=lambda k: (math.sqrt(k * k + 1.0) - rho * k, k))
    return IntegerCoeffMatrix.from_rows(
        [[GaussInt(1, 0), GaussInt(0, 0)], [GaussInt(k_best, 0), GaussInt(1, 0)]]
    )


def optimal_d0_2user(
    h: ChannelMatrix, a: IntegerCoeffMatrix, regularized: bool = False
) -> DiagonalScale:
    """Unit-|det| diagonal minimizing the scaling objective tr(A^H D0^H M D0 A).

    With M the (possibly regularized) inverse Gram of the channel, the
    optimal magnitude split is exp(2 beta) = ||a_2|| sqrt(M_22) /
    (||a_1|| sqrt(M_11)) and the optimal phase offset cancels the cross
    term: dtheta = -angle(-a_2 a_1^H M_12).  Unregularized, the objective
    is exactly trace(T0^H T0) of the exact-forcing beamformer.
    """
    if h.k != 2:
        raise ValueError("closed-form diagonal needs a two-user channel")
    if a.k != 2 or not a.is_full_rank():
        raise ValueError("need a full-rank 2 x 2 coefficient matrix")
    m = h.inv_gram(regularized)
    a1, a2 = a.row(0), a.row(1)
    n1 = math.sqrt(np.vdot(a1, a1).real)
    n2 = math.sqrt(np.vdot(a2, a2).real)
    beta = 0.5 * math.log(
        (n2 * math.sqrt(m[1, 1].real)) / (n1 * math.sqrt(m[0, 0].real))
    )
    cross = complex(np.vdot(a1, a2) * m[0, 1])
    dtheta = 0.0 if cross == 0 else -cmath.phase(-cross)
    d1 = math.exp(beta)
    d = np.array([d1, (1.0 / d1) * cmath.exp(1j * dtheta)])
    return DiagonalScale(d, c=1.0, unit_det=True)


def build_precoder(
    h: ChannelMatrix,
    a: IntegerCoeffMatrix,
    d0: DiagonalScale,
    regularized: bool = False,
    scheme: str | None = None,
) -> PrecoderDesign:
    """Assemble T = c H^H M D0 A with c saturating the unit power budget."""
    if not d0.unit_det:
        raise ValueError("build_precoder expects a unit-|det| diagonal")
    if scheme is None:
        scheme = "rdif" if regularized else "dif"
    t0 = h.h.conj().T @ h.inv_gram(regularized) @ (d0.d[:, None] * a.to_complex())
    c = 1.0 / math.sqrt(linalg.frob_norm_sq(t0))
    t = c * t0
    rates = if_sum_rate(h, t, a, scheme=scheme)
    return PrecoderDesign(
        a=a,
        d0=DiagonalScale(d0.d, c=c, unit_det=True),
        c=c,
        t=t,
        rates=rates,
        regularized=regularized,
    )


def hi_snr_rate_2user(h: ChannelMatrix, a: IntegerCoeffMatrix | None = None) -> float:
    """High-SNR rate of the exact-forcing two-user design:

    2 log2+ [ det(H H^H) snr / (2 ||h_1|| ||h_2|| f(A, rho)) ].
    """
    if h.k != 2:
        raise ValueError("two-user formula")
    rho = rho_of_channel(h)
    if a is None:
        a = optimal_a_2user(rho)
    g = h.gram
    det_g = linalg.det(g).real
    n1 = math.sqrt(g[0, 0].real)
    n2 = math.sqrt(g[1, 1].real)
    return 2.0 * log2_pos(det_g * h.snr / (2.0 * n1 * n2 * f_of_a(a, rho)))


def design_dif_2user(
    h: ChannelMatrix, regularized: bool = False, real_constraint: bool = False
) -> PrecoderDesign:
    """Closed-form two-user design: rho -> table lookup for A -> diagonal -> T."""
    rho = rho_of_channel(h)
    rho_design = rho_of_channel(h, True) if regularized else rho
    a = optimal_a_2user_real(rho_design) if real_constraint else optimal_a_2user(rho_design)
    d0 = optimal_d0_2user(h, a, regularized)
    scheme = ("rdif" if regularized else "dif") + ("_real" if real_constraint else "")
    return replace(build_precoder(h, a, d0, regularized, scheme=scheme), rho=rho)


def asymptotic_gap(rho: float, real_constraint: bool = False) -> float:
    """High-SNR shortfall (bits) of the two-user design below sum capacity:

    2 log2( f(A, rho) / sqrt(1 - rho^2) ), with A the optimal coefficient
    matrix, restricted to square N when only real integer coefficients are
    allowed.
    """
    a = optimal_a_2user_real(rho) if real_constraint else optimal_a_2user(rho)
    return 2.0 * math.log2(f_of_a(a, rho) / math.sqrt(1.0 - rho * rho))


def _golden_max(f, lo: float, hi: float, tol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def design_dif_generalk(
    h: ChannelMatrix,
    regularized: bool = False,
    restarts: int = 8,
    seed: int = 0,
) -> PrecoderDesign:
    """Search-based design for K >= 2 users.

    The diagonal is parameterized as d_i = exp(beta_i + j theta_i) with
    sum(beta) = 0 and theta_1 = 0; for every candidate diagonal, lattice
    reduction of H^H M D0 picks the coefficient matrix, and the achieved sum
    rate is the search objective.  Coordinate-wise golden-section sweeps run
    from a deterministic start at D0 = I plus `restarts` random starts (each
    keyed by (seed, restart index)); for K = 2 the closed-form design is also
    entered as a candidate, so the search never loses to it.
    """
    k = h.k
    if k < 2:
        raise ValueError("search-based design needs at least two users")
    scheme = "rdif" if regularized else "dif"
    b = h.h.conj().T @ h.inv_gram(regularized)
    snr = h.snr
    n_free = 2 * (k - 1)
    m = h.m
    b_cols = [list(map(complex, b[:, j])) for j in range(k)]
    h_rows = [list(map(complex, h.h[i])) for i in range(k)]

    def d0_from(x: np.ndarray) -> np.ndarray:
        beta = np.empty(k)
        beta[: k - 1] = x[: k - 1]
        beta[k - 1] = -x[: k - 1].sum()
        theta = np.zeros(k)
        theta[1:] = x[k - 1 :]
        return np.exp(beta + 1j * theta)

    best = {"rate": -math.inf, "x": None}

    def rate_of(x: np.ndarray) -> float:
        d0 = [complex(z) for z in d0_from(x)]
        g0_cols = [[d0[j] * v for v in b_cols[j]] for j in range(k)]
        t0_cols, a_cols, norms = _sorted_reduction(g0_cols)
        c_sq = 1.0 / sum(norms)
        rate = 0.0
        for i in range(k):
            h_i = h_rows[i]
            a_sq = 0.0
            h_sq = 0.0
            inner = 0j
            for j in range(k):
                a_re, a_im = a_cols[j][i]
                a_sq += a_re * a_re + a_im * a_im
                col = t0_cols[j]
                s = 0j
                for t in range(m):
                    s += h_i[t] * col[t]
                h_sq += s.real * s.real + s.imag * s.imag
                inner += s * complex(a_re, -a_im)
            h_sq *= c_sq
            cross = c_sq * (inner.real * inner.real + inner.imag * inner.imag)
            rate += log2_pos((1.0 + h_sq * snr) / (a_sq + (a_sq * h_sq - cross) * snr))
        if rate > best["rate"]:
            best["rate"] = rate
            best["x"] = x.copy()
        return rate

    def local_search(x0: np.ndarray):
        x = x0.copy()
        f_cur = rate_of(x)
        for _ in range(30):
            f_sweep_start = f_cur
            for i in range(n_free):
                half_width = 1.5 if i < k - 1 else math.pi

                def slice_rate(v, i=i):
                    x_try = x.copy()
                    x_try[i] = v
                    return rate_of(x_try)

                xi, fi = _golden_max(
                    slice_rate, x[i] - half_width, x[i] + half_width, 1e-6
                )
                if fi > f_cur:
                    x[i], f_cur = xi, fi
            if f_cur - f_sweep_start < 1e-6:
                break

    starts = [np.zeros(n_free)]
    analytic = None
    if k == 2:
        analytic = design_dif_2user(h, regularized)
        x0 = np.zeros(n_free)
        x0[0] = math.log(abs(analytic.d0.d[0]))
        x0[1] = cmath.phase(analytic.d0.d[1])
        starts.append(x0)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        x0 = np.empty(n_free)
        x0[: k - 1] = rng.uniform(-1.5, 1.5, k - 1)
        x0[k - 1 :] = rng.uniform(0.0, 2.0 * math.pi, k - 1)
        starts.append(x0)

    for x0 in starts:
        local_search(x0)

    d0 = DiagonalScale(d0_from(best["x"]), c=1.0, unit_det=True)
    a = shortest_independent_columns(b * d0.d[None, :])
    design = build_precoder(h, a, d0, regularized, scheme=scheme)
    if analytic is not None and analytic.rates.sum_rate > design.rates.sum_rate:
        design = analytic
    return replace(design, rho=rho_of_channel(h) if k == 2 else math.nan)
