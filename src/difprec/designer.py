"""Construction of diagonally-scaled exact integer-forcing precoders.

The precoder family is T = c * H^H M D0 A with M = (H H^H)^-1 (plain) or
M = (K/snr I + H H^H)^-1 (regularized), H^H M from the channel's QR factor,
D0 a unit-|det| diagonal and A a full-rank Gaussian-integer matrix.  The
plain variant forces H T = c D0 A exactly; the regularized variant trades
exactness for finite-SNR rate and converges to the plain one as snr grows.

For two users everything is closed form: the channel correlation rho picks
the integer matrix off a quantization table (optimal_a_2user) and
the diagonal follows from a two-parameter minimization solved analytically
(optimal_d0_2user).  For more users, dif_generalk_stack searches the
diagonal at every point of a channel stack by coordinate golden sections,
letting lattice reduction, warm-started from each row's last A, choose A for
each candidate diagonal; all starts of all designs step as one stack of rows
until SEARCH_TOL, SWEEP_GAIN_BITS and MAX_SWEEPS stop them.
"""

from __future__ import annotations

import cmath
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
from .rates import ChannelMatrix, RateReport, comp_rates, if_rates
from .reduction import rank_deficient, sorted_reduction

# Numerically rank-deficient channels get their correlation clamped here so
# the u = rho/sqrt(1-rho^2) change of variables stays finite.
RHO_MAX = 1.0 - 1e-9

# the general-K search's stopping rule, set by measurement (see README.md)
SEARCH_TOL = 1e-3  # width at which a golden section stops
SWEEP_GAIN_BITS = 1e-4  # a start stops after a sweep gaining less than this,
MAX_SWEEPS = 30  # or after this many sweeps


@dataclass(frozen=True)
class PrecoderStack:
    """Precoders T = c H^H M D0 A at every point of a ChannelMatrix, as stacks.

    Leading axes are those of the points, (T, S) or (S,), and (T, 1) or none
    for what does not vary with SNR (see ChannelMatrix).
    a: A, a (..., K, K) IntegerCoeffMatrix; d: diagonal of D0 (..., K);
    c: power scale (...); t: T (..., M, K), the precoder the rates are of;
    rates: the RateReport (..., K), NaN where the factor (or, searched, H^H M) is singular or H = 0;
    regularized: whether M is the regularized inverse Gram matrix.
    A single-point designer returns the stack of its one point.
    """

    a: IntegerCoeffMatrix
    d: np.ndarray
    c: np.ndarray
    t: np.ndarray
    rates: RateReport
    regularized: bool


def _single(stack: PrecoderStack) -> PrecoderStack:
    """stack, as a single-point designer returns it: raises
    linalg.SingularMatrixError where its rates are NaN (no precoder)."""
    if np.isnan(stack.rates.per_user).any():
        raise linalg.SingularMatrixError()
    return stack


def precode(
    h: ChannelMatrix,
    d: np.ndarray,
    a: IntegerCoeffMatrix,
    regularized: bool = False,
) -> PrecoderStack:
    """T = c H^H M D0 A at every point of h, with D0 = diag(d) and c
    saturating the unit power budget: the one place a precoder is formed,
    normed and rated, so that if_sum_rate(h, T, A) gives its rates bit for bit.

    H^H M is the channel factor's Q1 R^-H, so the plain T forces H T = c D0 A
    to about cond(R) eps, where an inverse of G = H H^H would give cond(G)
    eps.  The power and H T are taken from T itself: formed through G they
    would lose as much.  A zero T (H = 0) has no c and NaN rates.
    """
    t = linalg.matmul(h.factor(regularized).b, d[..., :, None] * a.to_complex())
    power = linalg.frob_norm_sq(t)
    c = 1.0 / np.sqrt(np.where(power > 0.0, power, np.nan))
    t = c[..., None, None] * t
    rates = if_rates(linalg.matmul(h.rows, t), a, h.snr, c * c * power)
    return PrecoderStack(a, d, c, t, rates, regularized)


def _rho(x: np.ndarray) -> np.ndarray:
    """|X_12| / sqrt(X_11 X_22) over a (..., 2, 2) stack, clamped to RHO_MAX; 0 where X_11 X_22 = 0."""
    x12, scale = x[..., 0, 1], np.sqrt(x[..., 0, 0].real * x[..., 1, 1].real)
    rho = np.hypot(x12.real, x12.imag) / np.where(scale > 0.0, scale, np.inf)
    return np.minimum(rho, RHO_MAX)


def rho_of_channel(h: ChannelMatrix, regularized: bool = False) -> float:
    """Normalized correlation between the two channel rows, in [0, 1).

    Both variants are |X_12| / sqrt(X_11 X_22): the plain one with X = H H^H,
    the regularized one with X = M = (K/snr I + H H^H)^-1, which tends to the
    plain value at high SNR.  The plain variant reads G, so a singular
    channel gets rho = RHO_MAX, or 0 if a row is zero.
    """
    if h.k != 2:
        raise ValueError("rho is defined for two-user channels")
    return float(_rho(h.factor(True).m if regularized else h.gram))


def f_of_a(a: IntegerCoeffMatrix, rho):
    """||a_1|| ||a_2|| - rho |a_2 a_1^H|, the high-SNR design objective, per member of A (rho broadcast)."""
    a = a.to_complex()
    a1, a2 = a[..., 0, :], a[..., 1, :]
    norms = linalg.norm_sq(a1) * linalg.norm_sq(a2)
    cross = (a1.conj() * a2).sum(axis=-1)
    return np.sqrt(norms) - rho * np.hypot(cross.real, cross.imag)


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


def _each_distinct(f, n: np.ndarray) -> np.ndarray:
    """f(v) for each entry v of the integer array n, as an array (also for a 0-d
    or empty n) shaped n.shape + the shape of f's result; f runs once per
    distinct v, and on 0 for an empty n."""
    distinct = sorted(set(n.ravel().tolist())) or [0]
    return np.array(list(map(f, distinct)))[np.array(distinct).searchsorted(n), ...]


def _optimal_n(rho) -> np.ndarray:
    """Best |cross-correlation|^2 value N for each correlation of a rho array:
    the floor or ceiling of rho^2/(1-rho^2) in the two-squares set, whichever
    minimizes sqrt(N+1) - rho sqrt(N); ties go to the smaller N (smaller
    coefficient norms help at finite SNR)."""
    rho = _check_rho(rho)
    x = rho * rho / (1.0 - rho * rho)
    # each scan depends on the floor or the ceiling of x alone
    lo = _each_distinct(floor_norm_set, np.floor(x).astype(np.int64))
    return _closer(lo, _each_distinct(ceil_norm_set, np.ceil(x).astype(np.int64)), rho)


def _lower_unimodular(a21_re, a21_im) -> IntegerCoeffMatrix:
    """[[1, 0], [a21, 1]] for each entry of an a21 stack, as one stack."""
    shape = np.shape(a21_re)
    re = np.zeros(shape + (2, 2), dtype=np.int64)
    im = np.zeros(shape + (2, 2), dtype=np.int64)
    re[..., 0, 0] = re[..., 1, 1] = 1
    re[..., 1, 0] = a21_re
    im[..., 1, 0] = a21_im
    return IntegerCoeffMatrix(re, im)


def optimal_a_2user(rho) -> IntegerCoeffMatrix:
    """Lower-triangular unimodular coefficient matrix minimizing f_of_a, one per entry of rho."""
    a21 = _each_distinct(two_square_decomp, _optimal_n(rho))
    return _lower_unimodular(a21[..., 0], a21[..., 1])


def optimal_a_2user_real(rho) -> IntegerCoeffMatrix:
    """Best coefficient matrix when restricted to real integers (N = k^2), one per entry of rho."""
    # N = k^2 with k the floor or ceiling of u = rho / sqrt(1 - rho^2)
    rho = _check_rho(rho)
    u = rho / np.sqrt(1.0 - rho * rho)
    n = _closer(np.floor(u) ** 2, np.ceil(u) ** 2, rho)
    return _lower_unimodular(np.sqrt(n).astype(np.int64), 0)


def _optimal_d0(m: np.ndarray, a: IntegerCoeffMatrix) -> np.ndarray:
    # exp(4 beta) = ||a_2||^2 M_22 / (||a_1||^2 M_11)
    a = a.to_complex()
    v = linalg.norm_sq(a) * np.diagonal(m, axis1=-2, axis2=-1).real
    d1 = np.sqrt(np.sqrt(v[..., 1] / v[..., 0]))
    cross = (a[..., 0, :].conj() * a[..., 1, :]).sum(axis=-1) * m[..., 0, 1]
    dtheta = np.where(cross == 0, 0.0, -np.arctan2(-cross.imag, -cross.real))
    d = np.empty(np.shape(d1) + (2,), dtype=np.complex128)
    d[..., 0] = d1
    d[..., 1] = (1.0 / d1) * np.exp(1j * dtheta)
    return d


def optimal_d0_2user(
    h: ChannelMatrix, a: IntegerCoeffMatrix, regularized: bool = False
) -> np.ndarray:
    """Unit-|det| diagonal d of D0, shape (2,), minimizing the scaling
    objective tr(A^H D0^H M D0 A).

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
    return _optimal_d0(h.factor(regularized).m, a)


def build_precoder(
    h: ChannelMatrix, a: IntegerCoeffMatrix, d: np.ndarray, regularized: bool = False
) -> PrecoderStack:
    """Assemble T = c H^H M D0 A, D0 = diag(d), with c saturating the unit
    power budget.  d must be (K,) with |prod d_i| = 1 within 1e-12."""
    d = np.asarray(d, dtype=np.complex128)
    if d.shape != (h.k,) or not abs(float(np.abs(d).prod()) - 1.0) <= 1e-12:
        raise ValueError(f"build_precoder expects a unit-|det| diagonal of {h.k} entries")
    return _single(precode(h, d, a, regularized))


def dif_2user_stack(
    h: ChannelMatrix, regularized: bool = False, real_constraint: bool = False
) -> PrecoderStack:
    """Closed-form two-user designs at every point of h: rho -> table
    lookup for A -> diagonal -> T.  The plain design does not depend on
    SNR; only its rates do.  A point whose factor is singular gets NaN rates,
    and A = I where it is the regularized factor.
    """
    if h.k != 2:
        raise ValueError("closed-form design needs a two-user channel")
    m = h.factor(regularized).m
    # fmax drops the NaN rho of a singular point (A = I there)
    rho = np.fmax(_rho(m) if regularized else _rho(h.gram), 0.0)
    a = optimal_a_2user_real(rho) if real_constraint else optimal_a_2user(rho)
    return precode(h, _optimal_d0(m, a), a, regularized)


def design_dif_2user(
    h: ChannelMatrix, regularized: bool = False, real_constraint: bool = False
) -> PrecoderStack:
    """Closed-form two-user design at the single SNR of h (see dif_2user_stack)."""
    return _single(dif_2user_stack(h, regularized, real_constraint))


def asymptotic_gaps(rho, real_constraint: bool = False) -> np.ndarray:
    """High-SNR shortfall (bits) of the two-user design below sum capacity, for
    each correlation of a rho array:

    2 log2( f(A, rho) / sqrt(1 - rho^2) ), with A the optimal coefficient
    matrix, restricted to square N when only real integer coefficients are
    allowed.
    """
    a = optimal_a_2user_real(rho) if real_constraint else optimal_a_2user(rho)
    rho = np.asarray(rho, dtype=np.float64)
    return 2.0 * np.log2(f_of_a(a, rho) / np.sqrt(1.0 - rho * rho))


def _golden_max(f, x: np.ndarray, i: int, half_width: float):
    """Golden-section maximum of f along coordinate i of every row of x, over
    [x_i - half_width, x_i + half_width] narrowed to SEARCH_TOL.  f scores a
    stack of rows at once, all with the same interval and so the same probes.
    Returns the maximizing coordinates and their scores, one per row."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x = x.copy()
    a, b = x[:, i] - half_width, x[:, i] + half_width
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    x[:, i] = x1
    f1 = f(x)
    x[:, i] = x2
    f2 = f(x)
    while (b - a).max() > SEARCH_TOL:
        up = f1 < f2
        a, b, x_kept, f_kept = np.where(up, (x1, b, x2, f2), (a, x2, x1, f1))
        step = invphi * (b - a)
        x[:, i] = x_new = np.where(up, a + step, b - step)
        f_new = f(x)
        x1, f1, x2, f2 = np.where(up, (x_kept, f_kept, x_new, f_new), (x_new, f_new, x_kept, f_kept))
    return np.where(f1 >= f2, x1, x2), np.maximum(f1, f2)


def dif_generalk_stack(
    h: ChannelMatrix, seeds: list[int], regularized: bool = False, restarts: int = 8
) -> PrecoderStack:
    """Search-based designs for K >= 2 users at every point of h, with one
    seed per channel.  A point whose factor is singular or whose B = H^H M is rank
    deficient gets NaN rates and A = I (for K = 2, the closed-form design).

    The diagonal is d_i = exp(beta_i + j theta_i), sum(beta) = 0, theta_1 = 0;
    lattice reduction of B D0 A_last picks A = A_last U, with A_last the row's
    own previous A (I at its first; the identity fallback keeps it), and the
    sum rate is the objective.  A design starts from D0 = I, `restarts` random
    diagonals keyed by (seed, restart index) and, for K = 2, the closed-form
    diagonal.  All starts of all designs step through coordinate golden-section
    sweeps as one stack of rows; each stops by SEARCH_TOL, SWEEP_GAIN_BITS and
    MAX_SWEEPS on its own, so a design does not depend on the other points.
    It is the best diagonal scored, with its A; for K = 2 the closed-form
    design wins where its sum rate is higher.
    """
    k = h.k
    if k < 2:
        raise ValueError("search-based design needs at least two users")
    if len(seeds) != (h.h.shape[0] if h.h.ndim == 3 else 1):
        raise ValueError("need one seed per channel")
    b = h.factor(regularized).b
    shape = np.broadcast_shapes(b.shape[:-2], np.shape(h.snr))
    hb = np.broadcast_to(h.rows @ b, shape + (k, k)).reshape(-1, k, k)
    b = np.broadcast_to(b, shape + (h.m, k)).reshape(-1, h.m, k)
    snr = np.broadcast_to(h.snr, shape).reshape(-1)
    n = len(snr)
    feasible = np.flatnonzero(~np.isnan(b[:, 0, 0]))
    feasible = feasible[~rank_deficient(b[feasible])].tolist()
    if k == 2:
        analytic = dif_2user_stack(h, regularized)
        d2 = np.broadcast_to(analytic.d, shape + (2,)).reshape(-1, 2)
    starts, design_of = [], []
    for p in feasible:
        starts.append(np.zeros(2 * (k - 1)))
        if k == 2:
            starts.append([math.log(abs(d2[p, 0])), cmath.phase(d2[p, 1])])
        for r in range(restarts):
            rng = np.random.default_rng([seeds[p * len(seeds) // n], r])  # points are channel-major
            starts.append(np.r_[rng.uniform(-1.5, 1.5, k - 1), rng.uniform(0.0, 2.0 * math.pi, k - 1)])
        design_of += [p] * (len(starts) - len(design_of))
    design_of = np.array(design_of, dtype=np.intp)
    best_rate = np.full(n, -math.inf)
    best_d = np.full((n, k), np.nan, dtype=np.complex128)  # stays NaN where no start runs
    eye = [np.eye(k, dtype=np.int64), np.zeros((k, k), np.int64)]
    best_a, last_a = np.tile(eye, (n, 1, 1, 1)), np.tile(eye, (len(design_of), 1, 1, 1))

    def scorer(rows: np.ndarray):  # the objective on a sorted set of rows, gathered once
        p = design_of[rows]
        b_p, hb_p, snr_p = b[p], hb[p], snr[p][:, None]
        heads = np.flatnonzero(np.diff(p, prepend=-1))  # each design's first row
        def sum_rates(x: np.ndarray) -> np.ndarray:
            beta = np.concatenate([x[:, : k - 1], -x[:, : k - 1].sum(axis=1, keepdims=True)], axis=1)
            theta = np.concatenate([np.zeros((len(x), 1)), x[:, k - 1 :]], axis=1)
            d = np.exp(beta + 1j * theta)
            w = last_a[rows]  # warm start: A = A_last U, in integers
            u_re, u_im, norms = sorted_reduction((b_p * d[:, None, :]) @ (w[:, 0] + 1j * w[:, 1]))
            last_a[rows] = a = np.stack((w[:, 0] @ u_re - w[:, 1] @ u_im, w[:, 0] @ u_im + w[:, 1] @ u_re), axis=1)
            a_c = a[:, 0] + 1j * a[:, 1]
            # H T0 / ||T0||_F with T0 = B D0 A, from the reduced column norms
            h_eff = (hb_p * d[:, None, :]) @ a_c / np.sqrt(norms.sum(axis=1))[:, None, None]
            rates = comp_rates(h_eff, a_c, snr_p).sum(axis=1)
            # per design the first probe strictly better wins, within it the lowest row (stable lexsort)
            lead = np.lexsort((-rates, p))[heads]
            r = lead[rates[lead] > best_rate[p[heads]]]
            q = p[r]
            best_rate[q], best_d[q], best_a[q] = rates[r], d[r], a[r]
            return rates
        return sum_rates

    x = np.array(starts, dtype=np.float64).reshape(-1, 2 * (k - 1))
    live = np.arange(len(x))
    f = scorer(live)(x)
    for _ in range(MAX_SWEEPS):
        if not live.size:
            break
        f_sweep_start = f[live]
        score = scorer(live)
        for i in range(2 * (k - 1)):
            xi, fi = _golden_max(score, x[live], i, 1.5 if i < k - 1 else math.pi)
            x[live, i] = np.where(fi > f[live], xi, x[live, i])
            f[live] = np.maximum(fi, f[live])
        live = live[f[live] - f_sweep_start >= SWEEP_GAIN_BITS]

    best_a, d = best_a.reshape(shape + (2, k, k)), best_d.reshape(shape + (k,))
    a = IntegerCoeffMatrix(best_a[..., 0, :, :], best_a[..., 1, :, :])
    if k == 2:  # the closed-form design wherever it rates higher or the search has none
        searched = precode(h, d, a, regularized).rates.sum_rate
        won = np.isnan(searched) | (analytic.rates.sum_rate > searched)
        d = np.where(won[..., None], analytic.d, d)
        won = won[..., None, None]
        a = IntegerCoeffMatrix(np.where(won, analytic.a.re, a.re), np.where(won, analytic.a.im, a.im))
    return precode(h, d, a, regularized)


def design_dif_generalk(
    h: ChannelMatrix, regularized: bool = False, restarts: int = 8, seed: int = 0
) -> PrecoderStack:
    """Search-based design for K >= 2 users at the single SNR of h (see
    dif_generalk_stack)."""
    return _single(dif_generalk_stack(h, [seed], regularized, restarts))
