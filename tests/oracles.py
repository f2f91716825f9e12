"""The paper's reference formulas, written out once on plain arrays.

Each is the scheme's ground truth in its textbook form, one point at a time,
for the tests to check the engine against.  This module imports numpy and
the standard library only, never difprec, so that a mistake in the library
cannot hide by also being in its oracle.  A channel h is a K x M complex
array, snr a linear power ratio, and A a K x K complex array of Gaussian
integers; a row x times y^H is the inner product sum_k x_k conj(y_k).
"""

import math

import numpy as np


def log2_pos(x: float) -> float:
    """max(0, log2 x)."""
    return math.log2(x) if x > 1.0 else 0.0


def comp_rate(h_eff, a, snr: float) -> float:
    """Computation rate of the pair (h', a):

    log2+ [ (1 + ||h'||^2 snr) / (||a||^2 + (||a||^2 ||h'||^2 - |h' a^H|^2) snr) ].
    """
    a_sq = np.vdot(a, a).real
    h_sq = np.vdot(h_eff, h_eff).real
    cross = abs(np.vdot(a, h_eff)) ** 2
    return log2_pos((1.0 + h_sq * snr) / (a_sq + (a_sq * h_sq - cross) * snr))


def comp_rate_quadratic(h_eff, a, snr: float) -> float:
    """The computation rate as defined, by its quadratic form:

    log2+ 1 / (a (I - snr / (1 + snr ||h'||^2) h'^H h') a^H).
    """
    mat = np.eye(len(h_eff)) - (snr / (snr * np.vdot(h_eff, h_eff).real + 1.0)) * np.outer(np.conj(h_eff), h_eff)
    return log2_pos(1.0 / np.real(a @ mat @ np.conj(a)))


def optimal_alpha(h_eff, a, snr: float) -> complex:
    """The MMSE scalar minimizing the effective-noise variance:
    alpha = snr (a h'^H) / (1 + snr ||h'||^2)."""
    return complex(snr * np.vdot(h_eff, a) / (1.0 + snr * np.vdot(h_eff, h_eff).real))


def effective_noise_var(alpha: complex, h_eff, a, snr: float) -> float:
    """snr ||alpha h' - a||^2 + |alpha|^2."""
    diff = alpha * np.asarray(h_eff) - np.asarray(a)
    return float(snr * np.vdot(diff, diff).real + abs(alpha) ** 2)


def comp_rate_mmse(h_eff, a, snr: float) -> float:
    """The computation rate by its MMSE dual form: log2+ (snr / effective
    noise variance) at the optimal alpha."""
    return log2_pos(snr / effective_noise_var(optimal_alpha(h_eff, a, snr), h_eff, a, snr))


def dif_rate(a, d, snr: float) -> np.ndarray:
    """Per-user rates when the precoded channel is exactly diag(d) A:
    log2+ (1/||a_i||^2 + |d_i|^2 snr)."""
    return np.array([log2_pos(1.0 / np.vdot(row, row).real + abs(di) ** 2 * snr) for row, di in zip(a, d)])


def reduction_objective(g, a) -> float:
    """Sum of squared norms of the columns of g A."""
    return float(np.sum(np.abs(np.asarray(g) @ np.asarray(a)) ** 2))


def in_norm_set(n: int) -> bool:
    """Whether n >= 0 is a sum of two squares x^2 + y^2, by scanning x."""
    return any(math.isqrt(n - x * x) ** 2 == n - x * x for x in range(math.isqrt(n // 2) + 1))


def optimal_n(rho: float) -> int:
    """The best |a_2 a_1^H|^2 = N at correlation rho: of the two-squares
    members nearest x = rho^2 / (1 - rho^2) from below and from above, the
    one with the smaller sqrt(N + 1) - rho sqrt(N); ties to the lower."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    x = rho * rho / (1.0 - rho * rho)
    lo = math.floor(x)
    while not in_norm_set(lo):
        lo -= 1
    hi = math.ceil(x)
    while not in_norm_set(hi):
        hi += 1
    f_lo, f_hi = (math.sqrt(n + 1.0) - rho * math.sqrt(n) for n in (lo, hi))
    return lo if f_lo <= f_hi else hi


def transition_rho(n: int) -> float:
    """The correlation at which the optimal N switches to the member n from
    the member below it, n_-: where sqrt(n + 1) - rho sqrt(n) = sqrt(n_- + 1)
    - rho sqrt(n_-).  0 by convention at n = 0."""
    if n < 0 or not in_norm_set(n):
        raise ValueError(f"{n} is not a sum of two squares")
    if n == 0:
        return 0.0
    below = n - 1
    while not in_norm_set(below):
        below -= 1
    return (math.sqrt(n + 1.0) - math.sqrt(below + 1.0)) / (math.sqrt(n) - math.sqrt(below))


def hi_snr_sum_capacity(h, snr: float) -> float:
    """K log2(snr / K) + log2 det(H H^H): the high-SNR expansion of the
    broadcast sum capacity."""
    k = h.shape[0]
    return k * math.log2(snr / k) + math.log2(np.linalg.det(h @ h.conj().T).real)


def hi_snr_rate_2user(h, snr: float) -> float:
    """High-SNR sum rate of the exact-forcing two-user design with the optimal A:

    2 log2+ [ det(H H^H) snr / (2 ||h_1|| ||h_2|| f(A, rho)) ],

    where rho = |G_12| / sqrt(G_11 G_22), G = H H^H, and f(A, rho) =
    ||a_1|| ||a_2|| - rho |a_2 a_1^H| is sqrt(N + 1) - rho sqrt(N) for the
    optimal A = [[1, 0], [a_21, 1]], |a_21|^2 = N = optimal_n(rho).
    """
    g = h @ h.conj().T
    norms = math.sqrt(g[0, 0].real * g[1, 1].real)
    rho = abs(g[0, 1]) / norms
    n = optimal_n(rho)
    f = math.sqrt(n + 1.0) - rho * math.sqrt(n)
    return 2.0 * log2_pos(np.linalg.det(g).real * snr / (2.0 * norms * f))
