"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Budgets are wall-clock; the two Monte-Carlo criteria use both cores.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from difprec.baselines import design_rzf, design_zf
from difprec.designer import (
    asymptotic_gap,
    build_precoder,
    design_dif_2user,
    design_dif_generalk,
    f_of_a,
    optimal_a_2user,
    optimal_d0_2user,
    rho_of_channel,
)
from difprec.gaussint import IntegerCoeffMatrix
from difprec.harness import (
    ExperimentConfig,
    draw_channel,
    run_experiment,
    trial_rng,
    write_aggregate_csv,
    write_trials_csv,
)
from difprec.linalg import frob_norm_sq
from difprec.msgprecode import (
    MessageMatrix,
    ModPField,
    modp_inverse,
    modp_invertible,
    precode_messages,
    recover_message,
)
from difprec.rates import (
    ChannelMatrix,
    DiagonalScale,
    comp_rate,
    dif_rate,
    dpc_sum_capacity,
    effective_noise_var,
    if_sum_rate,
    optimal_alpha,
)
from difprec.reduction import reduction_objective, shortest_independent_columns


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    state = {"ok": False, "detail": ""}
    start = time.perf_counter()
    try:
        yield state
        state["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if state["ok"] and elapsed < budget_s else "FAIL"
        print(
            f"criterion {number:02d} [{verdict}] {label}: {state['detail']}"
            f" ({elapsed:.1f}s / budget {budget_s:.0f}s)"
        )
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def seeded_channel(seed: int, trial: int, k: int, m: int, snr: float) -> ChannelMatrix:
    return ChannelMatrix(draw_channel(trial_rng(seed, trial), k, m), snr)


# --- brute-force helpers -----------------------------------------------------

def gauss_vectors_int(bound: int):
    """All nonzero Gaussian 2-vectors with |Re|,|Im| of entries <= bound, as
    integer component arrays (re, im) of shape (n, 2)."""
    span = np.arange(-bound, bound + 1)
    grid = np.array(np.meshgrid(span, span, span, span, indexing="ij"))
    flat = grid.reshape(4, -1).T  # columns: r0 i0 r1 i1
    flat = flat[np.any(flat != 0, axis=1)]
    return flat[:, [0, 2]].astype(np.int64), flat[:, [1, 3]].astype(np.int64)


def feasible_norm_pairs(bound: int):
    """All achievable (||a1||^2 ||a2||^2, |a1 a2^H|^2) pairs over linearly
    independent Gaussian-integer 2-vector pairs with entries bounded as above.

    Exact integer arithmetic; one row is restricted to a canonical unit class
    (unit multiples change neither norms nor the cross term).
    """
    re, im = gauss_vectors_int(bound)
    norms = (re**2 + im**2).sum(axis=1)
    first_nonzero_in_0 = (re[:, 0] != 0) | (im[:, 0] != 0)
    lead_re = np.where(first_nonzero_in_0, re[:, 0], re[:, 1])
    lead_im = np.where(first_nonzero_in_0, im[:, 0], im[:, 1])
    canonical = (lead_re > 0) & (lead_im >= 0)

    pairs = set()
    for idx in np.flatnonzero(canonical):
        wr, wi = re[idx], im[idx]
        nw = int(norms[idx])
        cr = re @ wr + im @ wi
        ci = im @ wr - re @ wi
        nsq = cr * cr + ci * ci
        prod = norms * nw
        indep = nsq < prod
        pairs.update(zip(prod[indep].tolist(), nsq[indep].tolist()))
    arr = np.array(sorted(pairs), dtype=np.int64)
    return arr[:, 0], arr[:, 1]  # products, cross norms


def sivp_2d_objective_oracle(g: np.ndarray, bound: int = 3) -> float:
    """Exact minimum of sum ||g c_i||^2 over independent integer column pairs."""
    span = range(-bound, bound + 1)
    cands = np.array(
        [
            (complex(r0, i0), complex(r1, i1))
            for r0, i0, r1, i1 in itertools.product(span, repeat=4)
            if (r0, i0, r1, i1) != (0, 0, 0, 0)
        ]
    )
    norms = np.sum(np.abs(cands @ g.T) ** 2, axis=1)
    order = np.argsort(norms, kind="stable")
    c1 = cands[order[0]]
    for idx in order[1:]:
        c2 = cands[idx]
        if abs(c1[0] * c2[1] - c1[1] * c2[0]) > 1e-9:
            return float(norms[order[0]] + norms[idx])
    raise AssertionError("no independent pair found")


# --- criteria ----------------------------------------------------------------

def test_criterion_01_gap_curve():
    with criterion(1, "high-SNR gap curve peak and endpoints", 1.0) as state:
        rhos = np.linspace(0.0, 0.999, 10**4)
        gaps = np.array([asymptotic_gap(r) for r in rhos])
        peak_idx = int(np.argmax(gaps))
        peak_rho, peak_gap = rhos[peak_idx], gaps[peak_idx]
        assert abs(peak_gap - 0.27155) <= 1e-3
        assert abs(peak_rho - (math.sqrt(2) - 1)) <= 1e-3
        assert asymptotic_gap(0.0) == 0.0
        assert asymptotic_gap(0.999) < 0.01
        state["detail"] = f"peak {peak_gap:.5f} bits at rho {peak_rho:.5f}"


def test_criterion_02_integer_matrix_oracle():
    with criterion(2, "table-lookup A matches bounded brute force", 30.0) as state:
        products, cross = feasible_norm_pairs(bound=5)
        sqrt_prod = np.sqrt(products.astype(float))
        sqrt_cross = np.sqrt(cross.astype(float))
        rng = np.random.default_rng(2025)
        worst = 0.0
        for rho in rng.uniform(0.0, 0.95, 100):
            mine = f_of_a(optimal_a_2user(rho), rho)
            brute = float(np.min(sqrt_prod - rho * sqrt_cross))
            worst = max(worst, abs(mine - brute))
            assert abs(mine - brute) <= 1e-12
        state["detail"] = f"100 rho values, max |f - brute| = {worst:.2e}"


def test_criterion_03_diagonal_oracle():
    """The returned diagonal minimizes the scaling objective tr(A^H D0^H M D0 A)
    over the (beta, dtheta) grid; unregularized this is exactly trace(T0^H T0)
    of the exact-forcing beamformer (cross-checked by building T0)."""
    with criterion(3, "closed-form diagonal beats 200x200 grid", 30.0) as state:
        betas = np.linspace(-3.0, 3.0, 200)
        thetas = np.linspace(0.0, 2 * math.pi, 200, endpoint=False)
        bb, tt = np.meshgrid(betas, thetas, indexing="ij")
        d_grid = np.stack(
            [np.exp(bb).ravel(), np.exp(-bb).ravel() * np.exp(1j * tt.ravel())], axis=1
        )
        worst = -np.inf
        for t in range(50):
            h = seeded_channel(30, t, 2, 2, 31.62)
            for regularized in (False, True):
                rho = rho_of_channel(h, regularized)
                a = optimal_a_2user(rho)
                d0 = optimal_d0_2user(h, a, regularized)
                m = h.inv_gram(regularized)
                a_c = a.to_complex()
                x_mine = d0.d[:, None] * a_c
                mine = float(np.real(np.trace(np.conj(x_mine.T) @ m @ x_mine)))
                x = d_grid[:, :, None] * a_c[None, :, :]
                grid_min = float(
                    np.min(np.real(np.einsum("gij,il,glj->g", np.conj(x), m, x)))
                )
                if not regularized:
                    t0 = h.h.conj().T @ m @ x_mine
                    assert abs(frob_norm_sq(t0) - mine) <= 1e-12 * mine
                worst = max(worst, mine - grid_min)
                assert mine <= grid_min + 1e-6
        state["detail"] = f"50 channels, both variants, max excess {worst:.2e}"


def test_criterion_04_per_trial_gap_bound():
    with criterion(4, "per-realization gap at 50 dB within 0.28 bits", 60.0) as state:
        snr = 10.0**5
        worst = -np.inf
        for t in range(1000):
            h = seeded_channel(2, t, 2, 2, snr)
            gap = dpc_sum_capacity(h) - design_dif_2user(h).rates.sum_rate
            worst = max(worst, gap)
            assert 0.0 <= gap <= 0.28
        state["detail"] = f"1000 trials, worst gap {worst:.4f} bits"


def test_criterion_05_formula_identities():
    with criterion(5, "rate-formula identities", 60.0) as state:
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 5))
            h_eff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            a = rng.integers(-3, 4, k) + 1j * rng.integers(-3, 4, k)
            if np.all(a == 0):
                continue
            snr = float(10 ** rng.uniform(-2, 5))
            # original quadratic form
            mat = np.eye(k) - (snr / (snr * np.vdot(h_eff, h_eff).real + 1)) * np.outer(
                np.conj(h_eff), h_eff
            )
            q = np.real(a @ mat @ np.conj(a))
            quad = max(0.0, math.log2(1.0 / q))
            direct = comp_rate(h_eff, a, snr)
            assert abs(quad - direct) <= 1e-10 * max(1.0, direct)
            # effective-noise route at the optimal scalar
            alpha = optimal_alpha(h_eff, a, snr)
            via_noise = max(
                0.0, math.log2(snr / effective_noise_var(alpha, h_eff, a, snr))
            )
            assert abs(via_noise - direct) <= 1e-10 * max(1.0, direct)
            checked += 1
        # closed-form exact-forcing rate vs generic sum rate
        for t in range(100):
            h = seeded_channel(55, t, 2, 2, float(10 ** (t % 7 - 1)))
            design = design_dif_2user(h)
            closed = dif_rate(design.a, design.d0, h.snr)
            assert np.allclose(
                closed.per_user, design.rates.per_user, rtol=1e-9, atol=1e-12
            )
        state["detail"] = "1000 random instances + 100 exact-forcing designs"


def test_criterion_06_normalization_and_exactness():
    with criterion(6, "unit power and exact forcing on emitted designs", 60.0) as state:
        worst_pow, worst_exact = 0.0, 0.0
        for t in range(25):
            h = seeded_channel(6, t, 2, 2, float(10 ** ((t % 6) - 1)))
            designs = [
                design_dif_2user(h, False),
                design_dif_2user(h, True),
                design_dif_2user(h, False, real_constraint=True),
                design_zf(h),
                design_rzf(h),
            ]
            for d in designs:
                worst_pow = max(worst_pow, abs(frob_norm_sq(d.t) - 1.0))
                assert abs(frob_norm_sq(d.t) - 1.0) <= 1e-9
                if not d.regularized:
                    ht = h.h @ d.t
                    target = d.c * (d.d0.d[:, None] * d.a.to_complex())
                    rel = math.sqrt(frob_norm_sq(ht - target) / frob_norm_sq(ht))
                    worst_exact = max(worst_exact, rel)
                    assert rel <= 1e-9
        for t in range(5):
            h = seeded_channel(66, t, 3, 3, 100.0)
            for reg in (False, True):
                d = design_dif_generalk(h, reg, restarts=2, seed=t)
                assert abs(frob_norm_sq(d.t) - 1.0) <= 1e-9
                if not reg:
                    ht = h.h @ d.t
                    target = d.c * (d.d0.d[:, None] * d.a.to_complex())
                    assert math.sqrt(frob_norm_sq(ht - target) / frob_norm_sq(ht)) <= 1e-9
        state["detail"] = (
            f"power off by <= {worst_pow:.1e}, forcing residual <= {worst_exact:.1e}"
        )


def test_criterion_07_regularization_vanishes_at_high_snr():
    with criterion(7, "regularized precoders approach plain ones at 60 dB", 60.0) as state:
        snr = 10.0**6
        eye = IntegerCoeffMatrix.identity(2)
        ones = DiagonalScale(np.ones(2, dtype=complex), c=1.0, unit_det=True)
        worst_dif, worst_zf = 0.0, 0.0
        for t in range(100):
            h = seeded_channel(0, t, 2, 2, snr)
            plain = design_dif_2user(h, False)
            reg = design_dif_2user(h, True)
            d1 = math.sqrt(frob_norm_sq(plain.t - reg.t) / frob_norm_sq(plain.t))
            zf_dir = build_precoder(h, eye, ones, regularized=False)
            rzf = design_rzf(h)
            d2 = math.sqrt(frob_norm_sq(zf_dir.t - rzf.t) / frob_norm_sq(zf_dir.t))
            worst_dif, worst_zf = max(worst_dif, d1), max(worst_zf, d2)
            assert d1 < 1e-4 and d2 < 1e-4
        state["detail"] = f"max distances: dif {worst_dif:.1e}, zf {worst_zf:.1e}"


def test_criterion_08_message_round_trip():
    with criterion(8, "finite-field message round trips", 60.0) as state:
        f7 = ModPField(7)
        a_example = IntegerCoeffMatrix(
            np.array([[1, 0], [2, 1]]), np.zeros((2, 2), dtype=np.int64)
        )
        atilde = modp_inverse(a_example, f7)
        assert np.array_equal(atilde.re, [[1, 0], [5, 1]])
        assert np.array_equal(atilde.im, np.zeros((2, 2), dtype=np.int64))

        rng = np.random.default_rng(8)
        fields = [ModPField(p) for p in (7, 11, 19)]
        for case in range(1000):
            field = fields[case % 3]
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 9))
            w = MessageMatrix.random(field, k, n, rng)
            while True:
                a = IntegerCoeffMatrix(
                    rng.integers(-6, 7, (k, k)), rng.integers(-6, 7, (k, k))
                )
                if modp_invertible(a, field):
                    break
            wp = precode_messages(w, a)
            for i in range(k):
                assert recover_message(i, wp, a) == w.row(i)
        state["detail"] = "1000 cases over p in {7, 11, 19}, exact equality"


MC_CFG = ExperimentConfig(
    k=2,
    m=2,
    snr_db=tuple(np.arange(-10.0, 40.0 + 1e-9, 2.5)),
    trials=1000,
    seed=1,
    schemes=("dif", "rdif", "zf", "rzf", "zfdp", "dpc"),
)


def crossing_db(snr_db, means, level):
    for i in range(len(means) - 1):
        if means[i] <= level <= means[i + 1]:
            frac = (level - means[i]) / (means[i + 1] - means[i])
            return snr_db[i] + frac * (snr_db[i + 1] - snr_db[i])
    raise AssertionError("rate level never crossed")


def test_criterion_09_monte_carlo_orderings():
    with criterion(9, "two-user Monte-Carlo gap orderings and crossings", 300.0) as state:
        records, aggregate = run_experiment(MC_CFG, jobs=2)
        mean_gap = {(row[0], row[1]): row[3] for row in aggregate}
        mean_sum = {(row[0], row[1]): row[2] for row in aggregate}
        for snr_db in MC_CFG.snr_db:
            if snr_db >= 10.0:
                assert mean_gap[("rdif", snr_db)] < mean_gap[("zf", snr_db)]
                assert mean_gap[("rdif", snr_db)] < mean_gap[("rzf", snr_db)]
            if snr_db >= 35.0:
                assert mean_gap[("dif", snr_db)] <= 0.27
                assert mean_gap[("rdif", snr_db)] <= 0.27
        snrs = list(MC_CFG.snr_db)
        rdif_cross = crossing_db(snrs, [mean_sum[("rdif", s)] for s in snrs], 6.0)
        dpc_cross = crossing_db(snrs, [mean_sum[("dpc", s)] for s in snrs], 6.0)
        offset = rdif_cross - dpc_cross
        assert abs(offset) <= 0.3
        state["detail"] = (
            f"rdif gap at 40 dB {mean_gap[('rdif', 40.0)]:.3f} bits, "
            f"6-bit crossing offset {offset:.3f} dB"
        )


def test_criterion_10_four_user_potential():
    with criterion(10, "four-user search beats ZF and RZF at 30 dB", 600.0) as state:
        cfg = ExperimentConfig(
            k=4,
            m=4,
            snr_db=(30.0,),
            trials=200,
            seed=1,
            schemes=("rdif", "zf", "rzf"),
            restarts=8,
        )
        _, aggregate = run_experiment(cfg, jobs=2)
        gap = {row[0]: row[3] for row in aggregate}
        assert gap["rdif"] < gap["zf"]
        assert gap["rdif"] < gap["rzf"]
        state["detail"] = (
            f"mean gaps: rdif {gap['rdif']:.2f}, zf {gap['zf']:.2f}, rzf {gap['rzf']:.2f} bits"
        )


def test_criterion_11_lattice_reduction_oracle():
    with criterion(11, "reduction objective vs exact two-column enumeration", 60.0) as state:
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(100):
            g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
            a = shortest_independent_columns(g)
            assert a.is_unimodular()
            achieved = reduction_objective(g, a)
            optimum = sivp_2d_objective_oracle(g)
            assert achieved <= 1.5 * optimum + 1e-9
            if achieved <= optimum * (1 + 1e-9):
                hits += 1
        assert hits >= 95
        state["detail"] = f"exact optimum in {hits}/100 trials, never above 1.5x"


def test_criterion_12_deterministic_output(tmp_path):
    with criterion(12, "byte-identical CSV across runs and job counts", 120.0) as state:
        cfg = ExperimentConfig(
            k=2,
            m=2,
            snr_db=(0.0, 17.5, 35.0),
            trials=30,
            seed=12,
            schemes=("dif", "rdif", "zf", "rzf", "zfdp", "dpc"),
        )
        trial_texts, agg_texts = [], []
        for run, jobs in enumerate((1, 2, 1)):
            records, aggregate = run_experiment(cfg, jobs=jobs)
            tp, ap = tmp_path / f"t{run}.csv", tmp_path / f"a{run}.csv"
            write_trials_csv(tp, records)
            write_aggregate_csv(ap, aggregate)
            trial_texts.append(tp.read_text())
            agg_texts.append(ap.read_text())
        # wall_ms is measured time and is the one run-dependent column
        stripped = [
            "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
            for text in trial_texts
        ]
        assert stripped[0] == stripped[1] == stripped[2]
        assert agg_texts[0] == agg_texts[1] == agg_texts[2]
        state["detail"] = "3 runs (jobs 1/2/1) agree on all scientific columns"
