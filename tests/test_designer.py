"""Designer checks: table values, grid oracles, exactness and limit behavior."""

import cmath
import itertools
import math

import numpy as np
import pytest

from difprec.baselines import design_rzf, design_zf, rzf_stack, zf_stack
from difprec.designer import (
    RHO_MAX,
    PrecoderStack,
    _optimal_n,
    asymptotic_gaps,
    build_precoder,
    design_dif_2user,
    design_dif_generalk,
    dif_2user_stack,
    dif_generalk_stack,
    f_of_a,
    optimal_a_2user,
    optimal_a_2user_real,
    optimal_d0_2user,
    precode,
    rho_of_channel,
)
from difprec.gaussint import GaussInt, IntegerCoeffMatrix, in_norm_set, two_square_decomp
from difprec.linalg import SingularMatrixError, frob_norm_sq
from difprec.rates import ChannelMatrix, RateReport, dpc_sum_capacity, if_sum_rate

import oracles
from oracles import optimal_n, transition_rho


def rand_channel(rng, k, m, snr):
    h = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2)
    return ChannelMatrix(h, snr)


def brute_force_f(rho, bound):
    """Minimum of f over full-rank pairs with entry components up to bound.

    Enumerates all (|a1|^2 |a2|^2, |a1 a2^H|^2) integer pairs reachable with
    linearly independent rows; unit multiples of a row change nothing, so the
    first row is restricted to a canonical unit class.
    """
    span = range(-bound, bound + 1)
    vecs = np.array(
        [
            (complex(r0, i0), complex(r1, i1))
            for r0, i0, r1, i1 in itertools.product(span, repeat=4)
            if (r0, i0, r1, i1) != (0, 0, 0, 0)
        ]
    )
    norms = np.sum(np.abs(vecs) ** 2, axis=1).astype(np.int64)

    def canonical_unit(v):
        lead = v[0] if v[0] != 0 else v[1]
        return lead.real > 0 and lead.imag >= 0 or (lead.real > 0 and lead.imag == 0)

    best = math.inf
    conj_vecs = np.conj(vecs)
    for v, nv in zip(vecs, norms):
        if not canonical_unit(v):
            continue
        inner = conj_vecs @ np.array(v)  # a2 a1^H for all candidate a2
        nsq = np.round(np.abs(inner) ** 2).astype(np.int64)
        prod = nv * norms
        indep = nsq < prod  # Cauchy-Schwarz equality iff dependent
        f_vals = np.sqrt(prod[indep].astype(float)) - rho * np.sqrt(
            nsq[indep].astype(float)
        )
        best = min(best, float(f_vals.min()))
    return best


def test_rho_plain_examples():
    h = ChannelMatrix(np.eye(2, dtype=complex), 10.0)
    assert rho_of_channel(h) == 0.0
    eps = 1e-4
    near = ChannelMatrix(np.array([[1.0, 0.0], [1.0, eps]], dtype=complex), 10.0)
    assert rho_of_channel(near) > 0.999
    with pytest.raises(ValueError):
        rho_of_channel(ChannelMatrix(np.eye(3, dtype=complex), 1.0))


def test_rho_regularized_tends_to_plain():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, 1e6)
        assert abs(rho_of_channel(h, True) - rho_of_channel(h, False)) < 1e-5


def test_f_of_a_values():
    eye = IntegerCoeffMatrix.identity(2)
    assert f_of_a(eye, 0.3) == 1.0
    a1 = IntegerCoeffMatrix.from_rows(
        [[GaussInt(1, 0), GaussInt(0, 0)], [GaussInt(1, 0), GaussInt(1, 0)]]
    )
    assert np.isclose(f_of_a(a1, 0.5), math.sqrt(2) - 0.5)
    a2 = IntegerCoeffMatrix.from_rows(
        [[GaussInt(1, 0), GaussInt(0, 0)], [GaussInt(2, 1), GaussInt(1, 0)]]
    )
    assert np.isclose(f_of_a(a2, 0.9), math.sqrt(6) - 0.9 * math.sqrt(5))


def test_optimal_n_table_intervals():
    assert optimal_n(0.2) == 0
    assert optimal_n(0.5) == 1
    assert optimal_n(0.9) == 4  # just below the switch to N = 5 at 0.9041
    assert optimal_n(0.91) == 5
    with pytest.raises(ValueError):
        optimal_n(1.0)


def test_transition_rho_table_values():
    assert transition_rho(0) == 0.0
    assert np.isclose(transition_rho(1), math.sqrt(2) - 1, atol=5e-5)
    assert np.isclose(transition_rho(2), 0.7673, atol=5e-5)
    assert np.isclose(transition_rho(4), 0.8604, atol=5e-5)
    assert np.isclose(transition_rho(5), 0.9041, atol=5e-5)
    assert np.isclose(transition_rho(8), 0.9294, atol=5e-5)
    assert np.isclose(transition_rho(9), 0.9458, atol=5e-5)
    with pytest.raises(ValueError):
        transition_rho(3)


def test_optimal_n_is_piecewise_on_transitions():
    """Every member N is optimal exactly on [rho_N, rho_N+]."""
    for n in (1, 2, 4, 5, 8, 9, 10):
        lo = transition_rho(n)
        mid = lo + 1e-6
        assert optimal_n(mid) == n


def test_stacked_optimal_n_and_a_equal_scalar_calls():
    """A (T, S) stack of correlations, with repeats, 0, RHO_MAX and every
    transition of the first 50 members of the two-squares set with its
    neighbours one ulp either side: at each point the stacked N equals the
    definition's and the stacked A the scalar call's."""
    members = [n for n in range(1, 200) if in_norm_set(n)][:50]
    transitions = [transition_rho(n) for n in members]
    edges = [r for t in transitions for r in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))]
    rng = np.random.default_rng(17)
    values = np.concatenate([[0.0, RHO_MAX], edges, rng.uniform(0.0, 0.99, 40)])
    rho = rng.permutation(np.concatenate([values, values[::3]])).reshape(16, 16)
    n = _optimal_n(rho)
    a = optimal_a_2user(rho)
    a_re, a_im = a.re, a.im
    assert n.shape == rho.shape and a_re.shape == a_im.shape == rho.shape + (2, 2)
    for i, j in np.ndindex(rho.shape):
        r = float(rho[i, j])
        assert n[i, j] == _optimal_n(r) == optimal_n(r)
        assert IntegerCoeffMatrix(a_re[i, j], a_im[i, j]) == optimal_a_2user(r)
        g = two_square_decomp(int(n[i, j]))
        assert np.array_equal(a_re[i, j], [[1, 0], [g.re, 1]])
        assert np.array_equal(a_im[i, j], [[0, 0], [g.im, 0]])


def test_stacked_f_of_a_and_real_table_equal_scalar_calls():
    """On a (T, S) stack of correlations, optimal_a_2user_real and f_of_a
    (of the table's A and of random integer A) equal the scalar calls at
    every point; the scalar calls return one 2 x 2 matrix and a float."""
    rng = np.random.default_rng(18)
    rho = np.concatenate([[0.0, RHO_MAX, 0.5], rng.uniform(0.0, 0.99, 21)]).reshape(4, 6)
    table = optimal_a_2user_real(rho)
    rand = IntegerCoeffMatrix(rng.integers(-3, 4, (4, 6, 2, 2)), rng.integers(-3, 4, (4, 6, 2, 2)))
    f_table, f_rand, f_complex = f_of_a(table, rho), f_of_a(rand, rho), f_of_a(optimal_a_2user(rho), rho)
    assert table.re.shape == rho.shape + (2, 2) and f_table.shape == f_rand.shape == rho.shape
    for i, j in np.ndindex(rho.shape):
        r = float(rho[i, j])
        member = IntegerCoeffMatrix(rand.re[i, j], rand.im[i, j])
        assert IntegerCoeffMatrix(table.re[i, j], table.im[i, j]) == optimal_a_2user_real(r)
        assert f_table[i, j] == f_of_a(optimal_a_2user_real(r), r)
        assert f_complex[i, j] == f_of_a(optimal_a_2user(r), r)
        assert f_rand[i, j] == f_of_a(member, r)
    for one in (optimal_a_2user(0.3), optimal_a_2user_real(0.3)):
        assert one.re.shape == (2, 2) and isinstance(f_of_a(one, 0.3), float)


def test_precode_with_a_stacked_a_equals_build_precoder_per_point():
    """precode on a channel stack with one A and one unit-|det| D0 per
    (trial, SNR) point gives, at every point, the T and rates of
    build_precoder on that point alone, bit for bit."""
    rng = np.random.default_rng(19)
    snr = 10 ** (np.array([-10.0, 5.0, 30.0]) / 10)
    for k in (2, 3):
        h = (rng.standard_normal((4, k, k + 1)) + 1j * rng.standard_normal((4, k, k + 1))) / np.sqrt(2)
        re, im = rng.integers(-3, 4, (2, 4, 3, k, k))
        singular = np.abs(np.linalg.det(re + 1j * im)) < 0.5  # det is a Gaussian integer
        re[singular], im[singular] = np.eye(k, dtype=np.int64), 0
        a = IntegerCoeffMatrix(re, im)
        beta = rng.uniform(-1.0, 1.0, (4, 3, k))
        d = np.exp(beta - beta.mean(axis=-1, keepdims=True) + 1j * rng.uniform(0.0, 2 * np.pi, (4, 3, k)))
        for regularized in (False, True):
            stack = precode(ChannelMatrix(h, snr), d, a, regularized)
            assert stack.a is a and stack.t.shape == (4, 3, k + 1, k)
            for t, s in np.ndindex(4, 3):
                one = build_precoder(
                    ChannelMatrix(h[t], snr[s]),
                    IntegerCoeffMatrix(re[t, s], im[t, s]),
                    d[t, s],
                    regularized,
                )
                assert np.array_equal(one.t, stack.t[t, s])
                assert np.array_equal(one.rates.per_user, stack.rates.per_user[t, s])


def test_optimal_a_2user_examples():
    assert optimal_a_2user(0.0) == IntegerCoeffMatrix.identity(2)
    a = optimal_a_2user(0.5)
    assert np.array_equal(a.re, [[1, 0], [1, 1]]) and np.array_equal(a.im, np.zeros((2, 2)))
    a95 = optimal_a_2user(0.95)
    n = abs(complex(a95.re[1, 0], a95.im[1, 0])) ** 2
    assert round(n) in (9, 10)


def test_two_user_tables_take_an_empty_stack():
    """An empty rho array gives empty stacks of the right shape."""
    for rho in (np.empty(0), np.empty((3, 0))):
        for a in (optimal_a_2user(rho), optimal_a_2user_real(rho)):
            assert a.re.shape == a.im.shape == rho.shape + (2, 2)
        for real in (False, True):
            assert asymptotic_gaps(rho, real).shape == rho.shape


def test_optimal_a_2user_matches_bruteforce():
    rng = np.random.default_rng(1)
    for rho in rng.uniform(0.0, 0.95, 12):
        a = optimal_a_2user(rho)
        assert abs(f_of_a(a, rho) - brute_force_f(rho, 3)) <= 1e-12


def test_optimal_a_integer_identity():
    """Optimal pairs satisfy ||a1||^2 ||a2||^2 - |a1 a2^H|^2 = 1 exactly."""
    for rho in np.linspace(0.0, 0.949, 100):
        a = optimal_a_2user(rho)
        a1, a2 = a.row(0), a.row(1)
        lhs = round(np.vdot(a1, a1).real * np.vdot(a2, a2).real - abs(np.vdot(a2, a1)) ** 2)
        assert lhs == 1


def test_optimal_a_2user_real():
    assert optimal_a_2user_real(0.0) == IntegerCoeffMatrix.identity(2)
    a = optimal_a_2user_real(0.5)
    assert np.array_equal(a.re, [[1, 0], [1, 1]])  # sqrt(2) - 0.5 < 1
    assert np.array_equal(a.im, np.zeros((2, 2)))


def test_real_thresholds_bracket_integers():
    """Consecutive real thresholds bracket each integer: ceil(u_k) = floor(u_{k+1}) = k."""

    def u_k(k):
        r = math.sqrt(k * k + 1.0) - math.sqrt((k - 1) * (k - 1) + 1.0)
        return r / math.sqrt(1.0 - r * r)

    for k in range(1, 51):
        assert math.ceil(u_k(k)) == k
        assert math.floor(u_k(k + 1)) == k


def test_optimal_d0_identity_channel():
    h = ChannelMatrix(np.eye(2, dtype=complex), 10.0)
    d0 = optimal_d0_2user(h, IntegerCoeffMatrix.identity(2))
    assert np.allclose(d0, np.ones(2))


def test_optimal_d0_beats_grid():
    """The closed-form diagonal minimizes the scaling objective.

    Unregularized, the objective is trace(T0^H T0) of the physical beamformer
    (checked by building T0 directly); regularized, it is the same quadratic
    form with the regularized inverse Gram substituted.
    """
    rng = np.random.default_rng(2)
    betas = np.linspace(-3.0, 3.0, 120)
    thetas = np.linspace(0.0, 2 * math.pi, 120, endpoint=False)
    bb, tt = np.meshgrid(betas, thetas, indexing="ij")
    d1 = np.exp(bb).ravel()
    d2 = np.exp(-bb).ravel() * np.exp(1j * tt.ravel())
    d_grid = np.stack([d1, d2], axis=1)  # G x 2
    for _ in range(5):
        h = rand_channel(rng, 2, 2, 25.0)
        for regularized in (False, True):
            rho = rho_of_channel(h, regularized)
            a = optimal_a_2user(rho)
            d0 = optimal_d0_2user(h, a, regularized)
            mine = _scaling_objective(h, a, d0[None, :], regularized)[0]
            grid = _scaling_objective(h, a, d_grid, regularized)
            assert mine <= grid.min() + 1e-6
            if not regularized:
                t0 = _t0_of(h, a, d0, regularized)
                assert np.isclose(frob_norm_sq(t0), mine, rtol=1e-12)


def _t0_of(h, a, d, regularized):
    return h.factor(regularized).b @ (np.asarray(d)[:, None] * a.to_complex())


def _scaling_objective(h, a, d_grid, regularized):
    """tr(A^H D0^H M D0 A) evaluated directly for a batch of diagonals."""
    m = h.factor(regularized).m
    a_c = a.to_complex()
    x = d_grid[:, :, None] * a_c[None, :, :]  # G x 2 x 2, rows scaled by d
    return np.real(np.einsum("gij,il,glj->g", np.conj(x), m, x))


def test_optimal_d0_relabel_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = rand_channel(rng, 2, 3, 10.0)
        a = optimal_a_2user(rho_of_channel(h))
        d0 = optimal_d0_2user(h, a)
        h_sw = ChannelMatrix(h.h[::-1].copy(), h.snr)
        a_sw = IntegerCoeffMatrix(a.re[::-1, ::-1].copy(), a.im[::-1, ::-1].copy())
        d0_sw = optimal_d0_2user(h_sw, a_sw)
        assert np.allclose(np.abs(d0_sw), np.abs(d0)[::-1], rtol=1e-12)
        t0 = _t0_of(h, a, d0, False)
        t0_sw = _t0_of(h_sw, a_sw, d0_sw, False)
        assert np.isclose(frob_norm_sq(t0), frob_norm_sq(t0_sw), rtol=1e-10)


def test_build_precoder_exact_forcing():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = rand_channel(rng, 2, 3, 30.0)
        a = optimal_a_2user(rho_of_channel(h))
        design = build_precoder(h, a, optimal_d0_2user(h, a), regularized=False)
        ht = h.h @ design.t
        target = design.c * (design.d[:, None] * a.to_complex())
        assert np.sqrt(frob_norm_sq(ht - target)) <= 1e-9 * np.sqrt(frob_norm_sq(ht))
        assert abs(frob_norm_sq(design.t) - 1.0) <= 1e-9


def test_build_precoder_identity_channel():
    h = ChannelMatrix(np.eye(2, dtype=complex), 8.0)
    eye = IntegerCoeffMatrix.identity(2)
    design = build_precoder(h, eye, np.ones(2, dtype=complex))
    assert np.allclose(design.t, np.eye(2) / math.sqrt(2))
    assert np.allclose(design.rates.per_user, math.log2(1 + 8.0 / 2))
    for bad in (np.array([2.0, 1.0 + 0j]), np.ones(3, dtype=complex)):
        with pytest.raises(ValueError):
            build_precoder(h, eye, bad)


def test_regularized_tends_to_plain_at_high_snr():
    from difprec.harness import draw_channel, trial_rng

    for trial in range(20):
        h = ChannelMatrix(draw_channel(trial_rng(0, trial), 2, 2), 1e6)
        plain = design_dif_2user(h, regularized=False)
        reg = design_dif_2user(h, regularized=True)
        dist = np.sqrt(frob_norm_sq(plain.t - reg.t) / frob_norm_sq(plain.t))
        assert dist < 1e-4


def test_design_dif_2user_orthogonal_channel():
    h = ChannelMatrix(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex), 10.0)
    design = design_dif_2user(h)
    assert design.a == IntegerCoeffMatrix.identity(2)
    assert rho_of_channel(h) == 0.0


def test_design_hi_snr_rate_identity():
    """K log2(snr c^2) from the built design reproduces the closed-form rate."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, 1e5)
        design = design_dif_2user(h)
        via_c = 2.0 * math.log2(h.snr * design.c**2)
        assert abs(via_c - oracles.hi_snr_rate_2user(h.h, h.snr)) <= 1e-9 * max(1.0, abs(via_c))


def test_asymptotic_gap_identity_with_capacity_expansion():
    """hi-SNR capacity minus hi-SNR rate equals 2 log2(f/sqrt(1-rho^2))."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = rand_channel(rng, 2, 2, 1e7)
        rho = rho_of_channel(h)
        delta = oracles.hi_snr_sum_capacity(h.h, h.snr) - oracles.hi_snr_rate_2user(h.h, h.snr)
        assert abs(delta - asymptotic_gaps(rho)) <= 1e-9


def test_gap_at_high_snr_within_bound():
    rng = np.random.default_rng(8)
    for _ in range(50):
        h = rand_channel(rng, 2, 2, 1e5)
        design = design_dif_2user(h)
        gap = dpc_sum_capacity(h) - design.rates.sum_rate
        assert 0.0 <= gap <= 0.28


def test_asymptotic_gap_shape():
    assert asymptotic_gaps(0.0) == 0.0
    peak = asymptotic_gaps(math.sqrt(2) - 1)
    assert abs(peak - math.log2((1 + math.sqrt(2)) / 2)) < 1e-9
    assert asymptotic_gaps(0.999) < 0.01
    bound = math.log2((1 + math.sqrt(2)) / 2)
    assert (asymptotic_gaps(np.linspace(0, 0.9999, 2000)) <= bound + 1e-12).all()
    with pytest.raises(ValueError):
        asymptotic_gaps(1.0)


def test_gap_curve_peaks_at_transition_correlations():
    """The high-SNR gap has its local maxima exactly at the switch points."""
    for n in (1, 2, 4, 5, 8):
        rho_n = transition_rho(n)
        peak = asymptotic_gaps(rho_n)
        assert peak >= asymptotic_gaps(rho_n - 1e-3)
        assert peak >= asymptotic_gaps(rho_n + 1e-3)


def test_real_gap_dominates_complex():
    rho = np.linspace(0, 0.995, 500)
    assert (asymptotic_gaps(rho, True) >= asymptotic_gaps(rho, False) - 1e-12).all()


def test_gap_curve_interior_maxima_decrease():
    """The per-piece peak values Delta_k(u_k) decrease from k = 1 on."""

    def u_k(k):
        r = math.sqrt(k * k + 1.0) - math.sqrt((k - 1) * (k - 1) + 1.0)
        return r / math.sqrt(1.0 - r * r)

    def peak(k):
        u = u_k(k)
        return math.sqrt(u * u + 1.0) * math.sqrt(k * k + 1.0) - u * k

    peaks = [peak(k) for k in (1, 2, 3)]
    assert peaks[0] >= peaks[1] >= peaks[2]
    assert np.isclose(peaks[0], math.sqrt((1 + math.sqrt(2)) / 2), rtol=1e-12)


def test_generalk_dominates_analytic_for_two_users():
    rng = np.random.default_rng(9)
    for trial in range(5):
        h = rand_channel(rng, 2, 2, float(10 ** rng.uniform(0, 3)))
        for regularized in (False, True):
            searched = design_dif_generalk(h, regularized, restarts=2, seed=trial)
            analytic = design_dif_2user(h, regularized)
            assert searched.rates.sum_rate >= analytic.rates.sum_rate - 1e-6


def test_generalk_identity_channel_symmetric_optimum():
    h = ChannelMatrix(np.eye(4, dtype=complex), 100.0)
    design = design_dif_generalk(h, restarts=2, seed=0)
    expected = 4 * math.log2(1 + 100.0 / 4)
    assert abs(design.rates.sum_rate - expected) <= 1e-4
    assert abs(frob_norm_sq(design.t) - 1.0) <= 1e-9


def test_generalk_deterministic():
    rng = np.random.default_rng(10)
    h = rand_channel(rng, 3, 3, 50.0)
    d1 = design_dif_generalk(h, True, restarts=3, seed=42)
    d2 = design_dif_generalk(h, True, restarts=3, seed=42)
    assert d1.rates.sum_rate == d2.rates.sum_rate
    assert np.array_equal(d1.t, d2.t)


def test_generalk_validations():
    with pytest.raises(ValueError):
        design_dif_generalk(ChannelMatrix(np.ones((1, 2), dtype=complex), 1.0))


def test_d0_global_phase_invariance():
    """Multiplying D0 by a unit-modulus scalar leaves the sum rate unchanged."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = rand_channel(rng, 2, 2, 100.0)
        a = optimal_a_2user(rho_of_channel(h))
        d0 = optimal_d0_2user(h, a)
        rate0 = build_precoder(h, a, d0).rates.sum_rate
        phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        d0_rot = d0 * phase
        rate1 = build_precoder(h, a, d0_rot).rates.sum_rate
        assert abs(rate0 - rate1) <= 1e-10 * max(1.0, rate0)


def one_path_designs(seed):
    """Closed-form, baseline and searched designs on random channels at random SNRs:
    K = 2 (the search's designs merge the closed form in) and K = 3."""
    rng = np.random.default_rng(seed)
    for trial in range(6):
        h = rand_channel(rng, 2, 2, float(10 ** rng.uniform(-1, 4)))
        yield h, design_zf(h)
        yield h, design_rzf(h)
        for regularized in (False, True):
            yield h, design_dif_2user(h, regularized)
            yield h, design_dif_generalk(h, regularized, restarts=2, seed=trial)
        yield h, design_dif_2user(h, real_constraint=True)
    for trial in range(3):
        h = rand_channel(rng, 3, 3, float(10 ** rng.uniform(-1, 4)))
        for regularized in (False, True):
            yield h, design_dif_generalk(h, regularized, restarts=2, seed=trial)



def two_user_search_points(regularized):
    """(channel at one point, its design) for every point of a stacked K = 2
    search, and the points where the search kept its closed-form design."""
    rng = np.random.default_rng(12)
    h = (rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))) / np.sqrt(2)
    snr = 10 ** (np.array([-10.0, 0.0, 10.0, 30.0]) / 10)
    stack = dif_generalk_stack(ChannelMatrix(h, snr), list(range(8)), regularized, restarts=2)
    analytic = dif_2user_stack(ChannelMatrix(h, snr), regularized)
    won = (np.broadcast_to(analytic.d, stack.d.shape) == stack.d).all(axis=-1)
    arrays = {name: x for name, x in vars(stack).items() if name not in ("a", "rates", "regularized")}

    def point(t, s):
        a = IntegerCoeffMatrix(stack.a.re[t, s], stack.a.im[t, s])
        rates = RateReport(stack.rates.per_user[t, s])
        return PrecoderStack(a, **{name: x[t, s] for name, x in arrays.items()}, rates=rates, regularized=regularized)

    points = [(ChannelMatrix(h[t], snr[s]), point(t, s)) for t, s in np.ndindex(won.shape)]
    return points, won


def test_a_design_rates_the_t_it_returns():
    """Re-rating a design's own T and A gives its rates bit for bit: the
    designers form, norm and rate a precoder in one place."""
    for regularized in (False, True):
        points, won = two_user_search_points(regularized)
        assert won.any() and not won.all()  # both the closed form and the search win somewhere
        for h, design in list(one_path_designs(13)) + points:
            assert np.array_equal(if_sum_rate(h, design.t, design.a).per_user, design.rates.per_user)


def test_build_precoder_rebuilds_a_design_bit_for_bit():
    """build_precoder on a design's own A and D0 gives its T and rates, also
    for the merged designs of the K = 2 search."""
    points = two_user_search_points(False)[0] + two_user_search_points(True)[0]
    for h, design in list(one_path_designs(14)) + points:
        if abs(np.prod(np.abs(design.d)) - 1.0) > 1e-12:
            continue  # ZF's water-filled diagonal is not a unit-|det| D0
        rebuilt = build_precoder(h, design.a, design.d, design.regularized)
        assert np.array_equal(rebuilt.t, design.t)
        assert np.array_equal(rebuilt.rates.per_user, design.rates.per_user)


def test_a_design_reports_its_own_variant():
    """A stack records whether its M is regularized, and every design carries
    the variant it was built as."""
    rng = np.random.default_rng(15)
    h2, h3 = rand_channel(rng, 2, 2, 10.0), rand_channel(rng, 3, 3, 10.0)
    eye = IntegerCoeffMatrix.identity(2)
    assert design_zf(h2).regularized is False
    assert design_rzf(h2).regularized is True
    assert design_dif_2user(h2, real_constraint=True).regularized is False
    for r in (False, True):
        assert precode(h2, np.ones(2, dtype=complex), eye, regularized=r).regularized is r
        assert design_dif_2user(h2, r).regularized is r
        for h in (h2, h3):
            assert design_dif_generalk(h, r, restarts=1).regularized is r
        assert build_precoder(h2, eye, optimal_d0_2user(h2, eye, r), r).regularized is r


def test_a_single_point_designer_is_its_stack_at_that_point():
    """Each single-point designer returns what its stack function gives at
    that point, bit for bit, and raises SingularMatrixError exactly where the
    stack's rates are NaN.  The channels are those of
    test_a_design_reports_its_own_variant, stacked with a copy whose second
    row is zero, at the SNRs of two_user_search_points."""
    rng = np.random.default_rng(15)
    h2, h3 = rand_channel(rng, 2, 2, 10.0).h, rand_channel(rng, 3, 3, 10.0).h
    snr = 10 ** (np.array([-10.0, 0.0, 10.0, 30.0]) / 10)
    eye = IntegerCoeffMatrix.identity(2)
    d0 = optimal_d0_2user(ChannelMatrix(h2, 10.0), eye)  # the plain D0 does not depend on SNR
    designers = {
        "zf": (design_zf, zf_stack),
        "rzf": (design_rzf, rzf_stack),
        "dif": (design_dif_2user, dif_2user_stack),
        "rdif": (lambda h: design_dif_2user(h, True), lambda ch: dif_2user_stack(ch, True)),
        "dif_real": (
            lambda h: design_dif_2user(h, real_constraint=True),
            lambda ch: dif_2user_stack(ch, real_constraint=True),
        ),
        "build_precoder": (lambda h: build_precoder(h, eye, d0), lambda ch: precode(ch, d0, eye)),
        "rbuild_precoder": (lambda h: build_precoder(h, eye, d0, True), lambda ch: precode(ch, d0, eye, True)),
    }
    searches = {
        "search": (
            lambda h: design_dif_generalk(h, restarts=1, seed=5),
            lambda ch: dif_generalk_stack(ch, [5, 5], restarts=1),
        ),
        "rsearch": (
            lambda h: design_dif_generalk(h, True, restarts=1, seed=5),
            lambda ch: dif_generalk_stack(ch, [5, 5], True, restarts=1),
        ),
    }
    raised = set()
    for h, cases in ((h2, designers), (h3, searches)):
        zero_row = h.copy()
        zero_row[1] = 0
        channels = np.stack([h, zero_row])
        for name, (single, stacked) in cases.items():
            stack = stacked(ChannelMatrix(channels, snr))
            lead = stack.rates.sum_rate.shape
            fields = {"re": (stack.a.re, 2), "im": (stack.a.im, 2), "d": (stack.d, 1), "c": (stack.c, 0)}
            fields.update(t=(stack.t, 2), rates=(stack.rates.per_user, 1))
            for t, s in np.ndindex(lead):
                point = ChannelMatrix(channels[t], snr[s])
                if np.isnan(stack.rates.per_user[t, s]).any():
                    with pytest.raises(SingularMatrixError):
                        single(point)
                    raised.add(name)
                    continue
                one = single(point)
                got = {"re": one.a.re, "im": one.a.im, "d": one.d, "c": one.c, "t": one.t, "rates": one.rates.per_user}
                for field, (x, tail) in fields.items():
                    want = np.broadcast_to(x, lead + x.shape[x.ndim - tail :])[t, s]
                    assert np.array_equal(got[field], want), (name, field, t, s)
    assert raised == {"zf", "dif", "dif_real", "build_precoder", "search", "rsearch"}
