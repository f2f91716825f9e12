"""The lockstep general-K search against the sequential search it replaced.

`sequential_search` below runs the starts of `design_dif_generalk` one after
another, as the designer did before its starts stepped together as a stack of
rows: a scalar golden section per coordinate, and every candidate diagonal
scored on its own, the computation rate written out user by user.  As the
designer does, each start reduces B D0 A_last, with A_last the A of its own
previous candidate (A = I at its first), and takes A = A_last U; with
warm=False it reduces B D0 itself, as the designer did before its warm start.
It is kept here as the reference.  By default it stops as the designer does
(golden sections to SEARCH_TOL, a start ends after a sweep gaining under
SWEEP_GAIN_BITS or after MAX_SWEEPS sweeps), so both searches score the same
diagonals and their best sum rates agree to AGREEMENT_BITS.  Run cold at the
tolerances the designer used before (OLD_TOL), it also bounds how much rate
the designer's coarser stopping rule gives up.
"""

import math

import numpy as np
import pytest

from difprec.designer import (
    MAX_SWEEPS,
    SEARCH_TOL,
    SWEEP_GAIN_BITS,
    build_precoder,
    design_dif_generalk,
)
from difprec.rates import ChannelMatrix, DiagonalScale
from difprec.reduction import shortest_independent_columns

AGREEMENT_BITS = 1e-6
# The designer's golden-section width and sweep gain before its stopping rule
# was set by measurement, and how far a design may fall below that search.  At
# the measured rule the largest fall on these eight cases is 1.4e-3 bits; a
# golden width of 1e-2 falls 4.8e-3 bits on one of them.
OLD_TOL = 1e-6
FALL_BITS = 3e-3


def comp_rate(h_eff, a, snr):
    a_sq = np.vdot(a, a).real
    h_sq = np.vdot(h_eff, h_eff).real
    cross = abs(np.vdot(a, h_eff)) ** 2
    x = (1.0 + h_sq * snr) / (a_sq + (a_sq * h_sq - cross) * snr)
    return 0.0 if x <= 1.0 else math.log2(x)


def golden_max(f, lo, hi, tol):
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


def sequential_search(h, regularized, restarts, seed, tol=SEARCH_TOL, gain=SWEEP_GAIN_BITS, warm=True):
    """Best sum rate over every diagonal the sequential search scores, with
    golden sections to tol and a start ending after a sweep gaining under gain
    bits (or after MAX_SWEEPS sweeps); warm or cold lattice reductions."""
    k = h.k
    b = h.h.conj().T @ h.inv_gram(regularized)
    best = [-math.inf]
    last_a = [None]  # the running start's last A

    def rate_of(x):
        beta = np.append(x[: k - 1], -x[: k - 1].sum())
        theta = np.append(0.0, x[k - 1 :])
        g0 = b * np.exp(beta + 1j * theta)[None, :]
        a = last_a[0] @ shortest_independent_columns(g0 @ last_a[0]).to_complex()
        if warm:
            last_a[0] = a
        t0 = g0 @ a
        h_eff = h.h @ t0 / np.linalg.norm(t0)
        rate = sum(comp_rate(h_eff[i], a[i], h.snr) for i in range(k))
        best[0] = max(best[0], rate)
        return rate

    def local_search(x):
        last_a[0] = np.eye(k, dtype=complex)
        f_cur = rate_of(x)
        for _ in range(MAX_SWEEPS):
            f_sweep_start = f_cur
            for i in range(2 * (k - 1)):

                def slice_rate(v, i=i):
                    x_try = x.copy()
                    x_try[i] = v
                    return rate_of(x_try)

                half_width = 1.5 if i < k - 1 else math.pi
                xi, fi = golden_max(slice_rate, x[i] - half_width, x[i] + half_width, tol)
                if fi > f_cur:
                    x[i], f_cur = xi, fi
            if f_cur - f_sweep_start < gain:
                break

    local_search(np.zeros(2 * (k - 1)))
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        local_search(np.append(rng.uniform(-1.5, 1.5, k - 1), rng.uniform(0.0, 2.0 * math.pi, k - 1)))
    return best[0]


def fixed_channel(k, snr_db, key):
    rng = np.random.default_rng([key, k])
    h = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    return ChannelMatrix(h, 10.0 ** (snr_db / 10.0))


@pytest.mark.parametrize("k, snr_db", [(3, 20.0), (4, 30.0)])
@pytest.mark.parametrize("regularized", [False, True])
@pytest.mark.parametrize("key", [8, 9])
def test_search_matches_sequential_oracle(k, snr_db, regularized, key):
    """Same best sum rate as the sequential search, and, since D0 = I is one of
    the starts, no worse than D0 = I with the A lattice reduction picks for it
    (up to rounding in the rates)."""
    h = fixed_channel(k, snr_db, key)
    design = design_dif_generalk(h, regularized, restarts=2, seed=5)
    reference = sequential_search(h, regularized, restarts=2, seed=5)
    assert abs(design.rates.sum_rate - reference) <= AGREEMENT_BITS
    b = h.h.conj().T @ h.inv_gram(regularized)
    ones = DiagonalScale(np.ones(k, dtype=complex), c=1.0, unit_det=True)
    start = build_precoder(h, shortest_independent_columns(b), ones, regularized)
    assert design.rates.sum_rate >= start.rates.sum_rate - 1e-9


@pytest.mark.parametrize("k, snr_db", [(3, 20.0), (4, 30.0)])
@pytest.mark.parametrize("regularized", [False, True])
@pytest.mark.parametrize("key", [8, 9])
def test_search_gives_up_little_rate_to_the_old_tolerances(k, snr_db, regularized, key):
    """No design falls more than FALL_BITS below the best sum rate of the
    cold sequential search run at the old 1e-6 golden width and 1e-6-bit sweep
    gain."""
    h = fixed_channel(k, snr_db, key)
    design = design_dif_generalk(h, regularized, restarts=2, seed=5)
    reference = sequential_search(h, regularized, 2, 5, tol=OLD_TOL, gain=OLD_TOL, warm=False)
    assert design.rates.sum_rate >= reference - FALL_BITS
