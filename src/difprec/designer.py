"""Construction of diagonally-scaled exact integer-forcing precoders.

The precoder family is T = c * H^H M D0 A with M = (H H^H)^-1 (plain) or
M = (K/snr I + H H^H)^-1 (regularized), D0 a unit-|det| diagonal and A a
full-rank Gaussian-integer matrix.  The plain variant forces H T = c D0 A
exactly; the regularized variant trades exactness for finite-SNR rate and
converges to the plain one as snr grows.

For two users everything is closed form: the channel correlation rho picks
the integer matrix off a quantization table (optimal_n/optimal_a_2user) and
the diagonal follows from a two-parameter minimization solved analytically
(optimal_d0_2user).  For more users, design_dif_generalk_many searches the
diagonals of many channels with a derivative-free coordinate method, letting
lattice reduction choose A for each candidate diagonal; the starts of all its
designs step together as one stack of rows, reduced and scored per probe.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gaussint import (
    IntegerCoeffMatrix,
    ceil_norm_set,
    floor_norm_set,
    two_square_decomp,
)
from .rates import (
    ChannelMatrix,
    DiagonalScale,
    RateReport,
    _norm_sq,
    comp_rates,
    if_rates,
    log2_pos,
)
from .reduction import rank_deficient, sorted_reduction

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


@dataclass(frozen=True)
class PrecoderStack:
    """Precoders T = c H^H M D0 A at every point of a ChannelMatrix, as stacks.

    Leading axes are those of the points, (T, S) or (S,), and (T, 1) or none
    for what does not vary with SNR (see ChannelMatrix).
    a_re, a_im: integer parts of A (..., K, K); d: diagonal of D0 (..., K);
    c: power scale (...); y = c M D0 A (..., K, K), so that T = H^H y;
    rates: per-user rates (..., K), NaN at points whose M is singular.
    """

    a_re: np.ndarray
    a_im: np.ndarray
    d: np.ndarray
    c: np.ndarray
    y: np.ndarray
    rates: np.ndarray

    def design(
        self,
        h: ChannelMatrix,
        scheme: str,
        regularized: bool,
        unit_det: bool = True,
        rho: float = math.nan,
    ) -> PrecoderDesign:
        """The PrecoderDesign of a stack built for a channel at a single SNR."""
        c = float(self.c)
        return PrecoderDesign(
            a=IntegerCoeffMatrix(self.a_re, self.a_im),
            d0=DiagonalScale(self.d, c=c, unit_det=unit_det),
            c=c,
            t=h.herm @ self.y,
            rates=RateReport(scheme, self.rates),
            regularized=regularized,
            rho=rho,
        )


def precode(
    h: ChannelMatrix,
    d: np.ndarray,
    a_re: np.ndarray,
    a_im: np.ndarray,
    regularized: bool = False,
) -> PrecoderStack:
    """T = c H^H M D0 A at every point of h, with D0 = diag(d) and c
    saturating the unit power budget.

    The power and the effective channel H T are taken from T itself: formed
    through G = H H^H (as y^H G y and G y) they lose about cond(G) eps, enough
    on an ill-conditioned channel to overrun the budget or report a rate
    above capacity.
    """
    y = h.inv_gram(regularized) @ (d[..., :, None] * (a_re + 1j * a_im))
    t = h.herm @ y
    power = (t.conj() * t).real.sum(axis=(-2, -1))
    c = 1.0 / np.sqrt(power)
    y = c[..., None, None] * y
    rates = if_rates(h.rows @ (c[..., None, None] * t), a_re, a_im, h.snr, c * c * power)
    return PrecoderStack(a_re, a_im, d, c, y, rates)


def _rho(x: np.ndarray) -> np.ndarray:
    """|X_12| / sqrt(X_11 X_22) over a (..., 2, 2) stack, clamped to RHO_MAX."""
    x12 = x[..., 0, 1]
    rho = np.hypot(x12.real, x12.imag) / np.sqrt(x[..., 0, 0].real * x[..., 1, 1].real)
    return np.minimum(rho, RHO_MAX)


def rho_of_channel(h: ChannelMatrix, regularized: bool = False) -> float:
    """Normalized correlation between the two channel rows, in [0, 1).

    Both variants are |X_12| / sqrt(X_11 X_22): the plain one with X = H H^H,
    the regularized one with X = M = (K/snr I + H H^H)^-1, which tends to the
    plain value at high SNR.  The plain variant never inverts, so a singular
    channel gets rho = RHO_MAX.
    """
    if h.k != 2:
        raise ValueError("rho is defined for two-user channels")
    return float(_rho(h.inv_gram(True) if regularized else h.gram))


def _f_of_a(a_re: np.ndarray, a_im: np.ndarray, rho) -> np.ndarray:
    a = a_re + 1j * a_im
    a1, a2 = a[..., 0, :], a[..., 1, :]
    norms = _norm_sq(a1) * _norm_sq(a2)
    cross = (a1.conj() * a2).sum(axis=-1)
    return np.sqrt(norms) - rho * np.hypot(cross.real, cross.imag)


def f_of_a(a: IntegerCoeffMatrix, rho: float) -> float:
    """||a_1|| ||a_2|| - rho |a_2 a_1^H|: the high-SNR design objective."""
    return float(_f_of_a(a.re, a.im, rho))


def _check_rho(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=np.float64)
    if not ((0.0 <= rho) & (rho < 1.0)).all():
        raise ValueError("rho must lie in [0, 1)")
    return rho


def _closer(lo: np.ndarray, hi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Whichever candidate N minimizes sqrt(N+1) - rho sqrt(N); ties go to lo."""
    f_lo = np.sqrt(lo + 1.0) - rho * np.sqrt(lo)
    f_hi = np.sqrt(hi + 1.0) - rho * np.sqrt(hi)
    return np.where(f_lo <= f_hi, lo, hi).astype(np.int64)


def _optimal_n(rho) -> np.ndarray:
    rho = _check_rho(rho)
    x = rho * rho / (1.0 - rho * rho)
    xs = x.ravel().tolist()
    lo = np.array([floor_norm_set(v) for v in xs], dtype=np.float64).reshape(x.shape)
    hi = np.array([ceil_norm_set(v) for v in xs], dtype=np.float64).reshape(x.shape)
    return _closer(lo, hi, rho)


def optimal_n(rho: float) -> int:
    """Best |cross-correlation|^2 value N for correlation rho.

    N is the floor or ceiling of rho^2/(1-rho^2) in the two-squares set,
    whichever minimizes sqrt(N+1) - rho sqrt(N); ties go to the smaller N
    (smaller coefficient norms help at finite SNR).
    """
    return int(_optimal_n(rho))


def _lower_unimodular(a21_re, a21_im) -> tuple[np.ndarray, np.ndarray]:
    """Integer parts of [[1, 0], [a21, 1]] for each entry of an a21 stack."""
    shape = np.shape(a21_re)
    re = np.zeros(shape + (2, 2), dtype=np.int64)
    im = np.zeros(shape + (2, 2), dtype=np.int64)
    re[..., 0, 0] = re[..., 1, 1] = 1
    re[..., 1, 0] = a21_re
    im[..., 1, 0] = a21_im
    return re, im


def _optimal_a(rho) -> tuple[np.ndarray, np.ndarray]:
    n = _optimal_n(rho)
    a21 = np.array([two_square_decomp(v) for v in n.ravel().tolist()], dtype=np.int64)
    return _lower_unimodular(a21[:, 0].reshape(n.shape), a21[:, 1].reshape(n.shape))


def _optimal_a_real(rho) -> tuple[np.ndarray, np.ndarray]:
    # N = k^2 with k the floor or ceiling of u = rho / sqrt(1 - rho^2)
    rho = _check_rho(rho)
    u = rho / np.sqrt(1.0 - rho * rho)
    n = _closer(np.floor(u) ** 2, np.ceil(u) ** 2, rho)
    return _lower_unimodular(np.sqrt(n).astype(np.int64), 0)


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
    return IntegerCoeffMatrix(*_optimal_a(rho))


def optimal_a_2user_real(rho: float) -> IntegerCoeffMatrix:
    """Best coefficient matrix when restricted to real integers (N = k^2)."""
    return IntegerCoeffMatrix(*_optimal_a_real(rho))


def _optimal_d0(m: np.ndarray, a_re: np.ndarray, a_im: np.ndarray) -> np.ndarray:
    # exp(4 beta) = ||a_2||^2 M_22 / (||a_1||^2 M_11)
    v = (a_re**2 + a_im**2).sum(axis=-1) * np.diagonal(m, axis1=-2, axis2=-1).real
    d1 = np.sqrt(np.sqrt(v[..., 1] / v[..., 0]))
    a = a_re + 1j * a_im
    cross = (a[..., 0, :].conj() * a[..., 1, :]).sum(axis=-1) * m[..., 0, 1]
    dtheta = np.where(cross == 0, 0.0, -np.arctan2(-cross.imag, -cross.real))
    d = np.empty(np.shape(d1) + (2,), dtype=np.complex128)
    d[..., 0] = d1
    d[..., 1] = (1.0 / d1) * np.exp(1j * dtheta)
    return d


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
    return DiagonalScale(_optimal_d0(h.inv_gram(regularized), a.re, a.im), c=1.0, unit_det=True)


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
    return precode(h, d0.d, a.re, a.im, regularized).design(h, scheme, regularized)


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


def dif_2user_stack(
    h: ChannelMatrix, regularized: bool = False, real_constraint: bool = False
) -> PrecoderStack:
    """Closed-form two-user designs at every point of h: rho -> table
    lookup for A -> diagonal -> T.  The plain design does not depend on
    SNR; only its rates do.  A point whose M is singular gets NaN rates, and
    A = I where it is the regularized M.
    """
    if h.k != 2:
        raise ValueError("closed-form design needs a two-user channel")
    m = h.inv_gram(regularized)
    # fmax drops the NaN rho of a singular point (A = I there)
    rho = np.fmax(_rho(m) if regularized else _rho(h.gram), 0.0)
    a_re, a_im = _optimal_a_real(rho) if real_constraint else _optimal_a(rho)
    return precode(h, _optimal_d0(m, a_re, a_im), a_re, a_im, regularized)


def design_dif_2user(
    h: ChannelMatrix, regularized: bool = False, real_constraint: bool = False
) -> PrecoderDesign:
    """Closed-form two-user design at the single SNR of h (see dif_2user_stack)."""
    scheme = ("rdif" if regularized else "dif") + ("_real" if real_constraint else "")
    stack = dif_2user_stack(h, regularized, real_constraint)
    return stack.design(h, scheme, regularized, rho=rho_of_channel(h))


def asymptotic_gaps(rho, real_constraint: bool = False) -> np.ndarray:
    """High-SNR shortfall (bits) of the two-user design below sum capacity, for
    each correlation of a rho array:

    2 log2( f(A, rho) / sqrt(1 - rho^2) ), with A the optimal coefficient
    matrix, restricted to square N when only real integer coefficients are
    allowed.
    """
    a_re, a_im = _optimal_a_real(rho) if real_constraint else _optimal_a(rho)
    rho = np.asarray(rho, dtype=np.float64)
    return 2.0 * np.log2(_f_of_a(a_re, a_im, rho) / np.sqrt(1.0 - rho * rho))


def asymptotic_gap(rho: float, real_constraint: bool = False) -> float:
    """High-SNR shortfall (bits) of the two-user design at correlation rho
    (see asymptotic_gaps)."""
    return float(asymptotic_gaps(rho, real_constraint))


def _golden_max(f, x: np.ndarray, i: int, half_width: float, tol: float):
    """Golden-section maximum of f along coordinate i of every row of x, over
    [x_i - half_width, x_i + half_width].  f scores a stack of rows at once;
    every row has the same interval width, so all take the same probes.
    Returns the maximizing coordinates and their scores, one per row."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x = x.copy()
    a, b = x[:, i] - half_width, x[:, i] + half_width
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    x[:, i] = x1
    f1 = f(x)
    x[:, i] = x2
    f2 = f(x)
    while (b - a).max() > tol:
        up = f1 < f2
        a, b = np.where(up, x1, a), np.where(up, b, x2)
        x_kept, f_kept = np.where(up, x2, x1), np.where(up, f2, f1)
        x_new = np.where(up, a + invphi * (b - a), b - invphi * (b - a))
        x[:, i] = x_new
        f_new = f(x)
        x1, f1 = np.where(up, x_kept, x_new), np.where(up, f_kept, f_new)
        x2, f2 = np.where(up, x_new, x_kept), np.where(up, f_new, f_kept)
    return np.where(f1 >= f2, x1, x2), np.maximum(f1, f2)


def design_dif_generalk_many(
    channels: list[ChannelMatrix], seeds: list[int], regularized: bool = False, restarts: int = 8
) -> list[PrecoderDesign | None]:
    """Search-based designs for K >= 2 users, one per channel (at its single
    SNR, same shape for all) with its seed; None where M is singular or
    B = H^H M rank deficient.

    The diagonal is d_i = exp(beta_i + j theta_i), sum(beta) = 0, theta_1 = 0;
    lattice reduction of B D0 picks A, and the sum rate is the objective.  A
    design starts from D0 = I, `restarts` random diagonals keyed by (seed,
    restart index) and, for K = 2, the closed-form diagonal.  All starts of
    all designs are one stack of rows stepping through coordinate golden-
    section sweeps together.  A row leaves after a sweep that gains under
    1e-6 bits, or after 30 sweeps, so a design does not depend on the other
    channels.  It is the best diagonal scored, with its A; for K = 2 the
    closed-form design is also a candidate.
    """
    n, k = len(channels), channels[0].k
    if k < 2:
        raise ValueError("search-based design needs at least two users")
    b = np.full((n, channels[0].m, k), np.nan, dtype=np.complex128)
    for p, ch in enumerate(channels):
        with contextlib.suppress(linalg.SingularMatrixError):
            b[p] = ch.h.conj().T @ ch.inv_gram(regularized)
    feasible = np.flatnonzero(~np.isnan(b[:, 0, 0]))
    feasible = feasible[~rank_deficient(b[feasible])].tolist()
    designs = [None] * n
    if not feasible:
        return designs
    hb = np.array([ch.h for ch in channels]) @ b
    snr = np.array([float(ch.snr) for ch in channels])
    analytic, starts, design_of = {}, [], []
    for p in feasible:
        starts.append(np.zeros(2 * (k - 1)))
        if k == 2:
            analytic[p] = design_dif_2user(channels[p], regularized)
            d = analytic[p].d0.d
            starts.append([math.log(abs(d[0])), cmath.phase(d[1])])
        for r in range(restarts):
            rng = np.random.default_rng([seeds[p], r])
            starts.append(np.r_[rng.uniform(-1.5, 1.5, k - 1), rng.uniform(0.0, 2.0 * math.pi, k - 1)])
        design_of += [p] * (len(starts) - len(design_of))
    design_of = np.array(design_of)
    best_rate = np.full(n, -math.inf)
    best_d = np.zeros((n, k), dtype=np.complex128)
    best_a = np.zeros((n, 2, k, k), dtype=np.int64)

    def sum_rates(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        p = design_of[rows]
        beta = np.concatenate([x[:, : k - 1], -x[:, : k - 1].sum(axis=1, keepdims=True)], axis=1)
        theta = np.concatenate([np.zeros((len(x), 1)), x[:, k - 1 :]], axis=1)
        d = np.exp(beta + 1j * theta)
        a_re, a_im, norms = sorted_reduction(b[p] * d[:, None, :])
        a = a_re + 1j * a_im
        # H T0 / ||T0||_F with T0 = B D0 A, from the reduced column norms
        h_eff = (hb[p] * d[:, None, :]) @ a / np.sqrt(norms.sum(axis=1))[:, None, None]
        rates = comp_rates(h_eff, a, snr[p][:, None]).sum(axis=1)
        # per design, the first probe strictly better than its best wins, and
        # within a probe its lowest row (lexsort is stable; p is sorted)
        lead = np.lexsort((-rates, p))[np.flatnonzero(np.diff(p, prepend=-1))]
        r = lead[rates[lead] > best_rate[p[lead]]]
        q = p[r]
        best_rate[q], best_d[q], best_a[q, 0], best_a[q, 1] = rates[r], d[r], a_re[r], a_im[r]
        return rates

    x = np.array(starts, dtype=np.float64)
    live = np.arange(len(x))
    f = sum_rates(x, live)
    for _ in range(30):
        f_sweep_start = f[live]
        for i in range(2 * (k - 1)):
            score = functools.partial(sum_rates, rows=live)
            xi, fi = _golden_max(score, x[live], i, 1.5 if i < k - 1 else math.pi, 1e-6)
            x[live, i] = np.where(fi > f[live], xi, x[live, i])
            f[live] = np.maximum(fi, f[live])
        live = live[f[live] - f_sweep_start >= 1e-6]
        if not live.size:
            break

    for p in feasible:
        h, rho = channels[p], rho_of_channel(channels[p]) if k == 2 else math.nan
        stack = precode(h, best_d[p], best_a[p, 0], best_a[p, 1], regularized)
        designs[p] = stack.design(h, "rdif" if regularized else "dif", regularized, rho=rho)
        if p in analytic and analytic[p].rates.sum_rate > designs[p].rates.sum_rate:
            designs[p] = analytic[p]
    return designs


def design_dif_generalk(
    h: ChannelMatrix, regularized: bool = False, restarts: int = 8, seed: int = 0
) -> PrecoderDesign:
    """Search-based design for K >= 2 users (design_dif_generalk_many of one
    channel).  Raises linalg.SingularMatrixError if M is singular or H^H M
    rank deficient."""
    (design,) = design_dif_generalk_many([h], [seed], regularized, restarts)
    if design is None:
        raise linalg.SingularMatrixError()
    return design
