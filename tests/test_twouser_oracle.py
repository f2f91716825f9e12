"""The batched two-user engine against the per-point scalar formulas it replaced.

`scalar_records` below evaluates every scheme one (SNR, scheme) pair at a
time with the scalar formulas the harness used before it evaluated each
scheme over all SNR points of a trial at once: beamformer T = c H^H M D0 A
built explicitly, H T for the effective channel, the computation rate row by
row, water-filling by sorted floors, the clamped DPC vertex.  Those formulas
are kept here, written out with numpy, as the reference.
"""

import math

import numpy as np
import pytest

from difprec import harness
from difprec.gaussint import ceil_norm_set, floor_norm_set, two_square_decomp
from difprec.harness import ALL_SCHEMES, ExperimentConfig, run_trials

RHO_MAX = 1.0 - 1e-9
SNR_DB = tuple(float(x) for x in np.arange(-10.0, 40.0 + 1e-9, 2.5))


class Singular(Exception):
    pass


def inverse(m):
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise Singular
    return np.linalg.inv(m)


def comp_rate(h_eff, a, snr):
    a_sq = np.vdot(a, a).real
    h_sq = np.vdot(h_eff, h_eff).real
    cross = abs(np.vdot(a, h_eff)) ** 2
    x = (1.0 + h_sq * snr) / (a_sq + (a_sq * h_sq - cross) * snr)
    return 0.0 if x <= 1.0 else math.log2(x)


def if_sum_rate(h, t, a, snr):
    assert np.sum(np.abs(t) ** 2) <= 1.0 + 1e-9
    assert a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0] != 0
    h_eff = h @ t
    return sum(comp_rate(h_eff[i], a[i], snr) for i in range(2))


def rho_of(x):
    return min(abs(x[0, 1]) / math.sqrt(x[0, 0].real * x[1, 1].real), RHO_MAX)


def optimal_a(rho):
    x = rho * rho / (1.0 - rho * rho)
    lo, hi = floor_norm_set(x), ceil_norm_set(x)
    f_lo = math.sqrt(lo + 1.0) - rho * math.sqrt(lo)
    f_hi = math.sqrt(hi + 1.0) - rho * math.sqrt(hi)
    a21 = two_square_decomp(lo if f_lo <= f_hi else hi)
    return np.array([[1, 0], [complex(a21.re, a21.im), 1]])


def optimal_a_real(rho):
    u = rho / math.sqrt(1.0 - rho * rho)
    k = min(sorted({math.floor(u), math.ceil(u)}), key=lambda k: (math.sqrt(k * k + 1.0) - rho * k, k))
    return np.array([[1, 0], [k, 1]], dtype=complex)


def optimal_d0(m, a):
    a1, a2 = a[0], a[1]
    n1 = math.sqrt(np.vdot(a1, a1).real)
    n2 = math.sqrt(np.vdot(a2, a2).real)
    beta = 0.5 * math.log((n2 * math.sqrt(m[1, 1].real)) / (n1 * math.sqrt(m[0, 0].real)))
    cross = complex(np.vdot(a1, a2) * m[0, 1])
    dtheta = 0.0 if cross == 0 else -np.angle(-cross)
    d1 = math.exp(beta)
    return np.array([d1, (1.0 / d1) * np.exp(1j * dtheta)])


def precoded_rate(h, m, d, a, snr):
    t0 = h.conj().T @ m @ (d[:, None] * a)
    t = t0 / math.sqrt(np.sum(np.abs(t0) ** 2))
    return if_sum_rate(h, t, a, snr)


def waterfill(inv_gains, budget):
    floors = np.sort(inv_gains)
    levels = (budget + np.cumsum(floors)) / np.arange(1, len(floors) + 1)
    mu = levels[np.flatnonzero(levels > floors)[-1]]
    return np.maximum(mu - inv_gains, 0.0)


def scheme_rate(scheme, h, g, snr):
    if scheme == "dpc":
        g11, g22, cross = g[0, 0].real, g[1, 1].real, abs(g[0, 1]) ** 2
        det_g = g11 * g22 - cross
        q = 0.5 + (g11 - g22) / (2.0 * snr * det_g) if det_g > 0 else float(g11 >= g22)
        q = min(max(q, 0.0), 1.0)
        return math.log2((1 + snr * q * g11) * (1 + snr * (1 - q) * g22) - snr * snr * q * (1 - q) * cross)
    if scheme == "zfdp":
        _, r = np.linalg.qr(h.conj().T, mode="reduced")
        gains = np.abs(np.diag(r)) ** 2
        return float(np.sum(np.log2(1.0 + gains * waterfill(1.0 / gains, snr))))
    regularized = scheme in ("rdif", "rzf")
    m = inverse(g + (2.0 / snr) * np.eye(2) if regularized else g)
    if scheme == "zf":
        m_diag = np.real(np.diag(m))
        d = np.sqrt(waterfill(m_diag / snr, 1.0) / m_diag)
        return if_sum_rate(h, h.conj().T @ m @ np.diag(d), np.eye(2), snr)
    if scheme == "rzf":
        return precoded_rate(h, m, np.ones(2), np.eye(2), snr)
    rho = rho_of(m if regularized else g)
    a = optimal_a_real(rho) if scheme == "dif_real" else optimal_a(rho)
    return precoded_rate(h, m, optimal_d0(m, a), a, snr)


def scalar_records(h, snrs_db=SNR_DB):
    """{(scheme, snr_db): (rho, sum rate, gap)}, NaN where M is singular."""
    g = h @ h.conj().T
    rho = rho_of(g)
    out = {}
    for snr_db in snrs_db:
        snr = 10.0 ** (snr_db / 10.0)
        capacity = scheme_rate("dpc", h, g, snr)
        for scheme in ALL_SCHEMES:
            try:
                rate = scheme_rate(scheme, h, g, snr)
            except Singular:
                rate = math.nan
            out[(scheme, snr_db)] = (rho, rate, capacity - rate)
    return out


def batched_records(cfg, trial):
    res = run_trials(cfg, [trial])
    return {
        (scheme, snr_db): (float(res.rho[0]), float(res.sum_rate[i, j, 0]), float(res.gap[i, j, 0]))
        for i, scheme in enumerate(res.schemes)
        for j, snr_db in enumerate(res.snr_db)
    }


@pytest.mark.parametrize("m", [2, 4])
def test_batched_records_match_scalar_formulas(m):
    cfg = ExperimentConfig(k=2, m=m, snr_db=SNR_DB, trials=200, seed=1, schemes=ALL_SCHEMES)
    worst = 0.0
    for trial in range(cfg.trials):
        h = harness.draw_channel(harness.trial_rng(cfg.seed, trial), 2, m)
        want = scalar_records(h)
        got = batched_records(cfg, trial)
        assert got.keys() == want.keys()
        for key, (rho, rate, gap) in want.items():
            assert got[key][0] == rho
            worst = max(worst, abs(got[key][1] - rate), abs(got[key][2] - gap))
    assert worst <= 1e-9


def test_singular_channel_nan_pattern_matches_scalar_formulas(monkeypatch):
    """Rows 1e-7 apart: the plain M is singular at every SNR point, the
    regularized one only far above the reference range (130 and 150 dB); the
    same records are NaN."""
    rows = np.array([[1.0, 0.5j], [1.0 + 1e-7, 0.5j]])
    monkeypatch.setattr(harness, "draw_channel", lambda rng, k, m: rows)
    snrs_db = SNR_DB + (130.0, 150.0)
    cfg = ExperimentConfig(snr_db=snrs_db, trials=1, seed=1, schemes=ALL_SCHEMES)
    want = scalar_records(rows, snrs_db)
    got = batched_records(cfg, 0)
    nan_keys = {k for k, v in want.items() if math.isnan(v[1])}
    assert {k for k, v in got.items() if math.isnan(v[1])} == nan_keys
    assert {k for k in nan_keys if k[0] in ("rdif", "rzf")} == {
        (s, x) for s in ("rdif", "rzf") for x in (130.0, 150.0)
    }
    assert {k for k in nan_keys if k[0] in ("dif", "dif_real", "zf")} == {
        (s, x) for s in ("dif", "dif_real", "zf") for x in snrs_db
    }
    for key, (rho, rate, gap) in want.items():
        if not math.isnan(rate):
            assert abs(got[key][1] - rate) <= 1e-9 and abs(got[key][2] - gap) <= 1e-9
