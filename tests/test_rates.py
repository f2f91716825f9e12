"""Rate formulas: dual-form identities, grid oracles, capacity solver checks."""

import math
import warnings

import numpy as np
import pytest

from difprec.designer import build_precoder, design_dif_2user
from difprec.gaussint import GaussInt, IntegerCoeffMatrix
from difprec.harness import ExperimentConfig, draw_channel, run_trials, trial_rng
from difprec.linalg import SingularMatrixError
from difprec.rates import (
    FW_GAP_BITS,
    ChannelMatrix,
    RateReport,
    _dpc_pairwise,
    comp_rates,
    dpc_capacities,
    dpc_sum_capacity,
    if_sum_rate,
)

import oracles


def engine_rate(h_eff, a, snr):
    """The engine's computation rate of one (h', a) pair."""
    return float(comp_rates(np.asarray(h_eff, dtype=complex), np.asarray(a, dtype=complex), snr))


def rand_vec(rng, k):
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def rand_channel(rng, k, m, snr):
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
    return ChannelMatrix(h, snr)


def test_optimal_alpha_limits():
    e1 = np.array([1.0, 0.0])
    # matched vectors: alpha -> 1 as snr grows
    assert abs(oracles.optimal_alpha(e1, e1, 1e12) - 1.0) < 1e-9
    # orthogonal vectors: zero cross-correlation
    assert oracles.optimal_alpha(e1, np.array([0.0, 1.0]), 10.0) == 0


def test_optimal_alpha_is_the_grid_minimizer():
    rng = np.random.default_rng(0)
    for _ in range(10):
        h_eff = rand_vec(rng, 3)
        a = np.round(rng.standard_normal(3) * 2) + 1j * np.round(rng.standard_normal(3) * 2)
        if np.all(a == 0):
            a = np.array([1.0 + 0j, 0, 0])
        snr = float(rng.uniform(0.5, 50))
        alpha = oracles.optimal_alpha(h_eff, a, snr)
        best = oracles.effective_noise_var(alpha, h_eff, a, snr)
        # dense local grid around the claimed optimum plus a global sweep
        for re in np.linspace(alpha.real - 0.5, alpha.real + 0.5, 41):
            for im in np.linspace(alpha.imag - 0.5, alpha.imag + 0.5, 41):
                assert best <= oracles.effective_noise_var(re + 1j * im, h_eff, a, snr) + 1e-12


def test_effective_noise_trivials():
    e1 = np.array([1.0 + 0j, 0.0])
    assert oracles.effective_noise_var(1.0, e1, e1, 123.0) == 1.0
    a = np.array([2.0 + 0j, 1.0])
    assert np.isclose(oracles.effective_noise_var(0.0, e1, a, 7.0), 7.0 * 5.0)


def test_effective_noise_route_matches_comp_rate():
    rng = np.random.default_rng(1)
    for _ in range(200):
        h_eff = rand_vec(rng, 2)
        a = np.array([complex(rng.integers(-3, 4), rng.integers(-3, 4)) for _ in range(2)])
        if np.all(a == 0):
            continue
        snr = float(rng.uniform(0.1, 1e4))
        via_noise = oracles.comp_rate_mmse(h_eff, a, snr)
        direct = engine_rate(h_eff, a, snr)
        assert abs(via_noise - direct) <= 1e-10 * max(1.0, direct)


def test_comp_rate_trivials():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert engine_rate(e1, e1, 1.0) == 1.0
    assert engine_rate(e1, e2, 123.0) == 0.0
    with pytest.raises(ValueError):
        engine_rate(e1, np.zeros(2), 1.0)


def test_comp_rate_matches_quadratic_form():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        k = int(rng.integers(2, 5))
        h_eff = rand_vec(rng, k)
        a = np.array(
            [complex(rng.integers(-3, 4), rng.integers(-3, 4)) for _ in range(k)]
        )
        if np.all(a == 0):
            continue
        snr = float(rng.uniform(0.01, 1e5))
        r1 = engine_rate(h_eff, a, snr)
        r2 = oracles.comp_rate_quadratic(h_eff, a, snr)
        assert abs(r1 - r2) <= 1e-10 * max(1.0, r1)
        checked += 1


def test_comp_rate_matched_direction_closed_form():
    """h' = d a collapses the computation rate to log2+(1/||a||^2 + |d|^2 snr)."""
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        a = np.array([complex(rng.integers(-3, 4), rng.integers(-3, 4)) for _ in range(k)])
        if np.all(a == 0):
            continue
        d = complex(rng.standard_normal(), rng.standard_normal())
        snr = float(10 ** rng.uniform(-1, 4))
        expected = oracles.dif_rate([a], [d], snr)[0]
        got = engine_rate(d * a, a, snr)
        assert abs(got - expected) <= 1e-10 * max(1.0, expected)


def test_cauchy_schwarz_coefficient_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(500):
        k = int(rng.integers(1, 5))
        h_eff = rand_vec(rng, k)
        a = rand_vec(rng, k)
        coeff = (
            np.vdot(a, a).real * np.vdot(h_eff, h_eff).real
            - abs(np.vdot(a, h_eff)) ** 2
        )
        assert coeff >= -1e-12


def test_if_sum_rate_zero_precoder():
    h = rand_channel(np.random.default_rng(4), 2, 2, 10.0)
    report = if_sum_rate(h, np.zeros((2, 2)), IntegerCoeffMatrix.identity(2))
    assert report.sum_rate == 0.0


def test_if_sum_rate_validations():
    rng = np.random.default_rng(5)
    h = rand_channel(rng, 2, 2, 10.0)
    with pytest.raises(ValueError):
        if_sum_rate(h, np.eye(2) * 0.9, IntegerCoeffMatrix.identity(2))  # power 1.62
    sing = IntegerCoeffMatrix(np.ones((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        if_sum_rate(h, np.eye(2) * 0.5, sing)


def test_if_sum_rate_identity_coefficients_is_tin_rate():
    """With A = I the per-user computation rate is the usual SINR rate."""
    rng = np.random.default_rng(6)
    from difprec.baselines import design_rzf

    for _ in range(20):
        h = rand_channel(rng, 2, 3, float(rng.uniform(1, 100)))
        design = design_rzf(h)
        h_eff = h.h @ design.t
        for i in range(2):
            signal = h.snr * abs(h_eff[i, i]) ** 2
            interference = h.snr * (np.sum(np.abs(h_eff[i]) ** 2) - abs(h_eff[i, i]) ** 2)
            sinr_rate = math.log2(1.0 + signal / (1.0 + interference))
            assert np.isclose(design.rates.per_user[i], sinr_rate, rtol=1e-10, atol=1e-12)


def test_dif_rate_examples():
    """The closed form on examples; the engine refuses a D0 with a zero entry."""
    a = IntegerCoeffMatrix.identity(2)
    d = np.array([1.0 + 0j, 1.0])
    assert oracles.dif_rate(a.to_complex(), d, 3.0).sum() == 4.0
    # below-one arguments clamp to zero rate
    a2 = IntegerCoeffMatrix.from_rows(
        [[GaussInt(2, 0), GaussInt(0, 0)], [GaussInt(0, 0), GaussInt(2, 0)]]
    )
    assert oracles.dif_rate(a2.to_complex(), d, 1e-9).sum() == 0.0
    with pytest.raises(ValueError):
        build_precoder(ChannelMatrix(np.eye(2, dtype=complex), 1.0), a, np.array([0j, 1.0 + 0j]))


def test_dif_rate_crosschecks_if_sum_rate():
    """Closed form equals the generic rate on exact-forcing designs."""
    from difprec.designer import optimal_a_2user, optimal_d0_2user, rho_of_channel

    rng = np.random.default_rng(7)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, float(rng.uniform(1, 1e3)))
        a = optimal_a_2user(rho_of_channel(h))
        design = build_precoder(h, a, optimal_d0_2user(h, a), regularized=False)
        closed = oracles.dif_rate(a.to_complex(), design.c * design.d, h.snr)
        assert np.allclose(closed, design.rates.per_user, rtol=1e-9, atol=1e-12)


SNR_GRID = 10.0 ** (np.arange(-10.0, 40.0 + 1e-9, 2.5) / 10.0)


def test_dpc_symmetric_and_single_user():
    h = ChannelMatrix(np.eye(2, dtype=complex), 2.0)
    assert abs(dpc_sum_capacity(h) - 2.0) < 1e-9
    rng = np.random.default_rng(8)
    h1 = rand_channel(rng, 1, 3, 5.0)
    expected = math.log2(1.0 + 5.0 * np.sum(np.abs(h1.h) ** 2))
    assert abs(dpc_sum_capacity(h1) - expected) < 1e-12
    expected = np.log2(1.0 + SNR_GRID * np.sum(np.abs(h1.h) ** 2))
    assert np.abs(dpc_capacities(ChannelMatrix(h1.h, SNR_GRID)) - expected).max() < 1e-12


def test_dpc_matches_grid_search():
    rng = np.random.default_rng(9)
    for _ in range(5):
        h = rand_channel(rng, 2, 2, float(rng.uniform(0.5, 200)))
        g = h.h @ h.h.conj().T
        best = -np.inf
        for q1 in np.linspace(0.0, 1.0, 10**4):
            q2 = 1.0 - q1
            d = (1 + h.snr * q1 * g[0, 0].real) * (1 + h.snr * q2 * g[1, 1].real) - (
                h.snr**2 * q1 * q2 * abs(g[0, 1]) ** 2
            )
            best = max(best, math.log2(d))
        assert abs(dpc_sum_capacity(h) - best) < 1e-5


def test_dpc_general_k_agrees_with_2user_solver():
    """The general-K solver on a 3-user channel against a fine grid over the
    2-simplex."""
    rng = np.random.default_rng(10)
    h = rand_channel(rng, 3, 3, 20.0)
    g = h.h @ h.h.conj().T
    best = -np.inf
    steps = 120
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            q = np.array([i, j, steps - i - j]) / steps
            d = np.linalg.det(np.eye(3) + h.snr * (q[:, None] * g))
            best = max(best, math.log2(abs(d)))
    assert dpc_sum_capacity(h) >= best - 1e-9
    assert dpc_sum_capacity(h) <= best + 5e-3  # grid resolution slack


def dpc_value_oracle(g, snr, q):
    """log2 det(I + snr diag(q) G) for a stack of power vectors q (..., K),
    through the K x K form of the objective."""
    k = g.shape[0]
    return np.log2(np.abs(np.linalg.det(np.eye(k) + snr * q[..., :, None] * g)))


def dpc_brute_force_3user(g, snr, levels=8, width=12):
    """Best objective over nested grids on the 2-simplex: each level puts a
    (2 width + 1)^2 grid, ten times finer than the last, around the best
    point so far; points off the simplex are clipped onto it."""
    step = 1.0 / width
    best_q, best = np.full(3, 1.0 / 3.0), -np.inf
    offsets = np.arange(-width, width + 1) * 1.0
    for _ in range(levels):
        q1, q2 = np.meshgrid(best_q[0] + step * offsets, best_q[1] + step * offsets)
        q = np.stack([q1.ravel(), q2.ravel(), 1.0 - q1.ravel() - q2.ravel()], axis=-1)
        q = np.maximum(q, 0.0)
        q /= q.sum(axis=-1, keepdims=True)
        values = dpc_value_oracle(g, snr, q)
        if values.max() > best:
            best_q, best = q[values.argmax()], values.max()
        step /= 10.0
    return best


def fw_gap_bits_oracle(g, snr, q):
    """Frank-Wolfe gap of the powers q at one SNR, from the K x K form of the
    gradient, the diagonal of snr (I + snr G diag(q))^-1 G."""
    k = g.shape[0]
    grad = snr * np.linalg.solve(np.eye(k) + snr * g * q, g).diagonal().real
    return (grad.max() - grad @ q) / math.log(2.0)


def edge_channels():
    rng = np.random.default_rng(5)
    zero_row = rand_channel(rng, 3, 3, 1.0).h
    zero_row[1] = 0.0
    close_rows = rand_channel(rng, 3, 3, 1.0).h
    close_rows[2] = close_rows[1] + 1e-7
    return {"zero_row": zero_row, "all_zero": np.zeros((3, 3)), "close_rows": close_rows}


def test_dpc_3user_brute_force_oracle():
    """Within the 1e-9-bit certificate of the best point of refined simplex
    grids, on either side (the finest grid's own error is far smaller)."""
    rng = np.random.default_rng(15)
    channels = [rand_channel(rng, 3, 3, 1.0).h for _ in range(6)]
    channels += [rand_channel(rng, 3, 4, 1.0).h, edge_channels()["close_rows"]]
    for h in channels:
        for snr_db in (-10.0, 10.0, 30.0):
            ch = ChannelMatrix(h, 10.0 ** (snr_db / 10.0))
            brute = dpc_brute_force_3user(ch.gram, ch.snr)
            capacity = dpc_sum_capacity(ch)
            assert brute - 1e-9 <= capacity <= brute + 1e-9


@pytest.mark.parametrize("k", [3, 4, 6, 8])
def test_dpc_stacked_over_snr_is_certified(k):
    """All 21 SNR points as one stack give the single-SNR values, and the
    returned powers satisfy the Frank-Wolfe certificate."""
    rng = np.random.default_rng(16 + k)
    for _ in range(10):
        h = rand_channel(rng, k, k + 1, 1.0).h
        g = h @ h.conj().T
        capacity, q = _dpc_pairwise(ChannelMatrix(h, SNR_GRID))
        single = [dpc_sum_capacity(ChannelMatrix(h, snr)) for snr in SNR_GRID]
        assert np.abs(capacity - single).max() <= 1e-12
        assert (q >= 0).all() and np.abs(q.sum(axis=-1) - 1.0).max() <= 1e-12
        for snr, cap, qs in zip(SNR_GRID, capacity, q):
            assert fw_gap_bits_oracle(g, snr, qs) <= FW_GAP_BITS + 1e-12
            assert abs(cap - dpc_value_oracle(g, snr, qs)) <= 1e-10


def test_dpc_edge_channels():
    """A user with a zero row adds nothing: the capacity is the two-user
    closed form of the other rows.  An all-zero channel has capacity 0, and
    rows 1e-7 apart give a finite, certified capacity up to 40 dB.  Far
    above that, rounding can keep such a channel from certifying; the call
    still returns, with NaN for those points."""
    channels = edge_channels()
    zero_row = dpc_capacities(ChannelMatrix(channels["zero_row"], SNR_GRID))
    two_user = dpc_capacities(ChannelMatrix(channels["zero_row"][[0, 2]], SNR_GRID))
    assert np.abs(zero_row - two_user).max() <= 1e-9
    assert (dpc_capacities(ChannelMatrix(channels["all_zero"], SNR_GRID)) == 0.0).all()
    h = channels["close_rows"]
    g = h @ h.conj().T
    capacity, q = _dpc_pairwise(ChannelMatrix(h, SNR_GRID))
    assert np.isfinite(capacity).all()
    assert np.abs(capacity - dpc_value_oracle(g, SNR_GRID[:, None, None], q)).max() <= 1e-10
    for snr, qs in zip(SNR_GRID, q):
        assert fw_gap_bits_oracle(g, snr, qs) <= FW_GAP_BITS + 1e-12
    extreme = dpc_capacities(ChannelMatrix(h, 10.0 ** np.arange(10.0, 16.0)))
    assert np.isfinite(extreme[:2]).all()
    assert (np.isfinite(extreme) | np.isnan(extreme)).all()


def test_dpc_singular_z_is_nan_and_spares_the_stack():
    """A rank-one channel at 200 dB makes Z singular in floating point, which
    used to make the stacked solve raise; that point is NaN, and the 100 dB
    point of the same stack keeps its single-SNR value bit for bit."""
    h = np.ones((3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        capacity = dpc_capacities(ChannelMatrix(h, np.array([1e10, 1e20])))
    assert math.isnan(capacity[1])
    assert capacity[0] == dpc_sum_capacity(ChannelMatrix(h, 1e10))
    assert abs(capacity[0] - math.log2(1.0 + 3e10)) <= 1e-9


def test_dpc_monotone_in_snr():
    rng = np.random.default_rng(11)
    h = rand_channel(rng, 2, 2, 1.0)
    values = [dpc_sum_capacity(ChannelMatrix(h.h, s)) for s in (0.1, 1.0, 10.0, 100.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_hi_snr_sum_capacity():
    eye = np.eye(2, dtype=complex)
    assert oracles.hi_snr_sum_capacity(eye, 2.0) == 0.0
    assert abs(oracles.hi_snr_sum_capacity(eye, 200.0) - 2 * math.log2(100)) < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(5):
        hr = rand_channel(rng, 2, 2, 1e6)
        assert abs(dpc_sum_capacity(hr) - oracles.hi_snr_sum_capacity(hr.h, hr.snr)) <= 0.01


def test_hi_snr_sum_capacity_of_a_singular_channel():
    """Rows 1e-7 apart: H H^H is singular at working precision, where the
    expansion is minus infinity.  The engine's rule refuses the channel by
    name: its factor is singular and the two-user design raises."""
    h = ChannelMatrix(np.array([[1.0, 0.5j], [1.0 + 1e-7, 0.5j]]), 1e3)
    assert h.factor().singular
    with pytest.raises(SingularMatrixError):
        design_dif_2user(h)


def test_gap_to_capacity():
    """A record's gap is its channel's sum capacity minus its sum rate, and 0
    for dpc."""
    cfg = ExperimentConfig(k=2, m=2, snr_db=(17.0,), trials=1, seed=13, schemes=("zf", "dpc"))
    res = run_trials(cfg, [0])
    c = dpc_sum_capacity(ChannelMatrix(draw_channel(trial_rng(13, 0), 2, 2), 10.0 ** 1.7))
    dpc, zf = res.schemes.index("dpc"), res.schemes.index("zf")
    assert abs(res.gap[dpc, 0, 0]) < 1e-12
    assert np.isclose(res.gap[zf, 0, 0] + res.sum_rate[zf, 0, 0], c)


def test_achievability_never_exceeds_capacity():
    from difprec.baselines import design_rzf, design_zf

    rng = np.random.default_rng(14)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, float(10 ** rng.uniform(-1, 4)))
        cap = dpc_sum_capacity(h)
        for design in (design_zf(h), design_rzf(h), design_dif_2user(h), design_dif_2user(h, True)):
            assert design.rates.sum_rate <= cap + 1e-6


def test_rate_report_invariants():
    r = RateReport(np.array([1.0, 2.5]))
    assert r.sum_rate == 3.5
    with pytest.raises(ValueError):
        RateReport(np.array([-0.1, 1.0]))
    with pytest.raises(ValueError):
        RateReport(np.array([np.inf, 1.0]))
    # a (3, 2, K) stack: an all-NaN row is a point with no precoder and sums to NaN
    per_user = np.arange(18.0).reshape(3, 2, 3)
    per_user[1, 0] = np.nan
    stack = RateReport(per_user)
    assert np.array_equal(stack.sum_rate, per_user.sum(axis=-1), equal_nan=True)
    assert stack.sum_rate.shape == (3, 2) and np.isnan(stack.sum_rate).sum() == 1
    for bad in (np.nan, -0.1, np.inf):  # a partly-NaN row, a negative entry, an infinite one
        refused = per_user.copy()
        refused[2, 1, 0] = bad
        with pytest.raises(ValueError):
            RateReport(refused)


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelMatrix(np.ones((3, 2), dtype=complex), 1.0)  # K > M
    with pytest.raises(ValueError):
        ChannelMatrix(np.eye(2, dtype=complex), -1.0)
