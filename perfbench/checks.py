"""Output checks, computed with numpy apart from difprec.

Every function here re-derives a quantity from its textbook definition (or
checks a property the method must have) and returns a list of failure
messages; an empty list means the outputs passed.  Nothing in this module
imports difprec, so a fault in the library cannot hide itself by also being
in its checker.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

RATE_TOL = 1e-9  # bits; recomputed rates and capacities must agree this closely
GAP_TOL = 1e-9  # bits; a gap counts as negative only below -GAP_TOL
GAP_BOUND = 0.27  # bits; the paper's high-SNR DIF/RDIF gap bound, rounded down
RHO_MAX = 1.0 - 1e-9  # the library clamps rho here for nearly collinear rows


# ----------------------------------------------------------------------------
# Independent formulas


def draw_channel(seed: int, trial: int, k: int, m: int) -> np.ndarray:
    """The documented draw: default_rng([seed, trial]), (g1 + j g2)/sqrt(2)."""
    rng = np.random.default_rng([seed, trial])
    g1 = rng.standard_normal((k, m))
    g2 = rng.standard_normal((k, m))
    return (g1 + 1j * g2) / math.sqrt(2.0)


def row_correlation(h: np.ndarray) -> float:
    h1, h2 = h[0], h[1]
    rho = abs(np.vdot(h2, h1)) / (np.linalg.norm(h1) * np.linalg.norm(h2))
    return min(float(rho), RHO_MAX)


def dpc_2user(h: np.ndarray, snr: float) -> float:
    """Two-user sum capacity from the clamped vertex of the power-split quadratic.

    det(I + snr diag(q, 1 - q) G) is a concave quadratic in q; its maximizer on
    [0, 1] is the vertex 1/2 + (G11 - G22) / (2 snr det G), clamped.
    """
    g = h @ h.conj().T
    g11, g22 = g[0, 0].real, g[1, 1].real
    det_g = g11 * g22 - abs(g[0, 1]) ** 2
    q = 0.5 + (g11 - g22) / (2.0 * snr * det_g) if det_g > 0 else (1.0 if g11 >= g22 else 0.0)
    q = min(max(q, 0.0), 1.0)
    value = (1 + snr * q * g11) * (1 + snr * (1 - q) * g22) - snr**2 * q * (1 - q) * abs(g[0, 1]) ** 2
    return math.log2(value)


def water_level(floors: np.ndarray, budget: float = 1.0) -> float:
    """Level mu with sum_i max(0, mu - f_i) = budget, in closed form: for the n
    smallest floors it is (budget + their sum) / n, and the active set is the
    largest n whose level lies above its largest floor."""
    f = np.sort(np.asarray(floors, dtype=np.float64))
    for n in range(len(f), 0, -1):
        level = (budget + f[:n].sum()) / n
        if level > f[n - 1]:
            return float(level)
    raise ValueError("water-filling found no active set")


def waterfill_rate(floors: np.ndarray) -> float:
    """max sum_i log2(1 + p_i / f_i) over p >= 0, sum p = 1."""
    f = np.asarray(floors, dtype=np.float64)
    level = water_level(f)
    return float(np.sum(np.log2(np.maximum(level / f, 1.0))))


def zf_rate(h: np.ndarray, snr: float) -> float:
    """Zero forcing with water-filled powers: user i sees gain snr / [(H H^H)^-1]_ii."""
    m_diag = np.real(np.diag(np.linalg.inv(h @ h.conj().T)))
    return waterfill_rate(m_diag / snr)


def zfdp_rate_2user(h: np.ndarray, snr: float) -> float:
    """ZF-DP: gains |L_11|^2 = ||h_1||^2, |L_22|^2 = det(G) / ||h_1||^2, water-filled."""
    g = h @ h.conj().T
    g11 = g[0, 0].real
    gains = np.array([g11, (g11 * g[1, 1].real - abs(g[0, 1]) ** 2) / g11])
    return waterfill_rate(1.0 / (snr * gains))


def comp_rates(h: np.ndarray, t: np.ndarray, a: np.ndarray, snr: float) -> np.ndarray:
    """Per-user computation rates of H T against integer rows a (bits, clamped at 0):

    log2+ [(1 + ||h'||^2 snr) / (||a||^2 + (||a||^2 ||h'||^2 - |h' a^H|^2) snr)].
    """
    h_eff = h @ t
    a_sq = np.sum(np.abs(a) ** 2, axis=1)
    h_sq = np.sum(np.abs(h_eff) ** 2, axis=1)
    cross = np.abs(np.sum(h_eff * a.conj(), axis=1)) ** 2
    ratio = (1.0 + h_sq * snr) / (a_sq + (a_sq * h_sq - cross) * snr)
    return np.log2(np.maximum(ratio, 1.0))


def rzf_rate(h: np.ndarray, snr: float) -> float:
    """Regularized ZF, uniform loading: T ~ H^H (K/snr I + H H^H)^-1, ||T||_F = 1."""
    k = h.shape[0]
    t = h.conj().T @ np.linalg.inv((k / snr) * np.eye(k) + h @ h.conj().T)
    t /= np.linalg.norm(t)
    return float(comp_rates(h, t, np.eye(k), snr).sum())


def dpc_spiw(h: np.ndarray, snr: float, tol: float = 1e-10, max_iter: int = 20000):
    """Sum capacity by sum-power iterative water-filling on the dual MAC.

    Jindal et al., IEEE Trans. IT 51(4), 2005, the averaged update.  Returns
    (lower, upper): the objective at the final powers and that value plus the
    Frank-Wolfe gap max_k grad_k - grad . q, which bounds the true optimum of
    this concave program over the simplex from above.
    """
    k, m = h.shape
    q = np.full(k, 1.0 / k)
    outer = np.einsum("ki,kj->kij", h.conj(), h)  # h_k^H h_k
    eye = np.eye(m)
    for _ in range(max_iter):
        z = eye + snr * np.einsum("k,kij->ij", q, outer)
        z_inv = np.linalg.inv(z)
        quad = np.real(np.einsum("ki,ij,kj->k", h, z_inv, h.conj()))  # h_k Z^-1 h_k^H
        grad = snr * quad / math.log(2.0)
        lower = math.log2(abs(np.linalg.det(z)))
        if grad.max() - grad @ q <= tol:
            break
        # effective gain of user k with the others' powers fixed
        gains = snr * quad / (1.0 - snr * q * quad)
        floors = 1.0 / gains
        order = np.sort(floors)
        for n in range(k, 0, -1):
            level = (1.0 + order[:n].sum()) / n
            if level > order[n - 1]:
                break
        q = q * (k - 1) / k + np.maximum(level - floors, 0.0) / k
    return lower, lower + float(grad.max() - grad @ q)


def gauss_det_2x2(re: np.ndarray, im: np.ndarray) -> tuple[int, int]:
    """Exact determinant of a 2 x 2 Gaussian-integer matrix, as (re, im)."""
    a = [[complex(int(re[i, j]), int(im[i, j])) for j in range(2)] for i in range(2)]
    d = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return int(d.real), int(d.imag)


# ----------------------------------------------------------------------------
# Workload checks


def parse_trials_csv(text: str) -> list[tuple]:
    """(scheme, snr_db, trial, rho, sum_rate, gap) per row; wall_ms is dropped."""
    rows = []
    lines = text.splitlines()
    if not lines or lines[0] != "scheme,snr_db,trial,rho,sum_rate_bits,gap_bits,wall_ms":
        raise ValueError("trials.csv header changed")
    for line in lines[1:]:
        scheme, snr, trial, rho, rate, gap, _ = line.split(",")
        rows.append((scheme, float(snr), int(trial), float(rho), float(rate), float(gap)))
    return rows


def parse_aggregate_csv(text: str) -> list[tuple]:
    lines = text.splitlines()
    if not lines or lines[0] != "scheme,snr_db,mean_sum_rate_bits,mean_gap_bits,stderr_gap_bits":
        raise ValueError("aggregate.csv header changed")
    out = []
    for line in lines[1:]:
        scheme, snr, mean_rate, mean_gap, stderr = line.split(",")
        out.append((scheme, float(snr), float(mean_rate), float(mean_gap), float(stderr)))
    return out


def check_records(rows, aggregate, schemes, snrs, trials) -> list[str]:
    """Properties every CLI run must have: a complete grid, finite values,
    nonnegative gaps, one capacity per (SNR, trial) shared by every scheme, and
    an aggregate file that matches the records it summarizes."""
    fails = []
    keys = [(s, snr, t) for s, snr, t, *_ in rows]
    expected = {(s, snr, t) for s in schemes for snr in snrs for t in range(trials)}
    if len(keys) != len(expected) or set(keys) != expected:
        missing = len(expected - set(keys))
        fails.append(f"record grid: {len(keys)} rows, {missing} of {len(expected)} keys missing")
    capacity = defaultdict(list)
    for s, snr, t, rho, rate, gap in rows:
        if not (math.isfinite(rate) and math.isfinite(gap)):
            fails.append(f"non-finite record {s} {snr} dB trial {t}")
            continue
        if gap < -GAP_TOL:
            fails.append(f"negative gap {gap:.3e} for {s} at {snr} dB trial {t}")
        capacity[(snr, t)].append(rate + gap)
    for (snr, t), caps in capacity.items():
        if max(caps) - min(caps) > RATE_TOL:
            fails.append(f"schemes disagree on the capacity at {snr} dB trial {t}")
    by_cell = defaultdict(list)
    for s, snr, t, rho, rate, gap in rows:
        by_cell[(s, snr)].append((rate, gap))
    agg_keys = [(s, snr) for s, snr, *_ in aggregate]
    if sorted(agg_keys) != sorted((s, snr) for s in schemes for snr in snrs):
        fails.append("aggregate grid incomplete")
    for s, snr, mean_rate, mean_gap, stderr in aggregate:
        vals = np.array(by_cell.get((s, snr), [(math.nan, math.nan)]))
        gaps = vals[:, 1]
        ref_stderr = gaps.std(ddof=1) / math.sqrt(len(gaps)) if len(gaps) > 1 else 0.0
        for label, got, ref in (
            ("mean rate", mean_rate, vals[:, 0].mean()),
            ("mean gap", mean_gap, gaps.mean()),
            ("stderr", stderr, ref_stderr),
        ):
            if not abs(got - ref) <= RATE_TOL:
                fails.append(f"aggregate {label} for {s} at {snr} dB: {got} vs {ref}")
    return fails


def check_sweep(rows, aggregate, seed, schemes, snrs, trials) -> list[str]:
    """The K = 2 sweep: record properties, every (trial, SNR) pair recomputed,
    and the paper's orderings on the means."""
    fails = check_records(rows, aggregate, schemes, snrs, trials)
    channels = [draw_channel(seed, t, 2, 2) for t in range(trials)]
    rhos = [row_correlation(h) for h in channels]
    for s, snr, t, rho, *_ in rows:
        if t < trials and not abs(rho - rhos[t]) <= RATE_TOL:
            fails.append(f"rho of {s} at {snr} dB trial {t}: {rho!r} vs {rhos[t]!r}")
    rates = {(s, snr, t): rate for s, snr, t, _, rate, _ in rows}
    recompute = {"dpc": dpc_2user, "zf": zf_rate, "zfdp": zfdp_rate_2user, "rzf": rzf_rate}
    for t, h in enumerate(channels):
        for snr_db in snrs:
            snr = 10.0 ** (snr_db / 10.0)
            for scheme, formula in recompute.items():
                if (scheme, snr_db, t) not in rates:
                    continue
                got, ref = rates[(scheme, snr_db, t)], formula(h, snr)
                if not abs(got - ref) <= RATE_TOL:
                    fails.append(f"{scheme} rate at {snr_db} dB trial {t}: {got!r} vs {ref!r}")
    mean_gap = {(s, snr): g for s, snr, _, g, _ in aggregate}
    for snr in snrs:
        if snr >= 10.0:
            for base in ("zf", "rzf"):
                if not mean_gap.get(("rdif", snr), math.inf) < mean_gap.get((base, snr), -math.inf):
                    fails.append(f"mean rdif gap not below {base} at {snr} dB")
        if snr >= 35.0:
            for s in ("dif", "rdif"):
                if not mean_gap.get((s, snr), math.inf) <= GAP_BOUND:
                    fails.append(f"mean {s} gap above {GAP_BOUND} bits at {snr} dB")
    return fails


def check_search(rows, aggregate, seed, schemes, snrs, trials, k) -> list[str]:
    """The K > 2 search: record properties, the capacity against SPIW, ZF and
    RZF recomputed, and RDIF ahead of ZF and RZF on every channel."""
    fails = check_records(rows, aggregate, schemes, snrs, trials)
    table = {(s, snr, t): (rate, gap) for s, snr, t, _, rate, gap in rows}
    for t in range(trials):
        h = draw_channel(seed, t, k, k)
        for snr_db in snrs:
            snr = 10.0 ** (snr_db / 10.0)
            cells = {s: table[(s, snr_db, t)] for s in schemes if (s, snr_db, t) in table}
            if not cells:
                continue
            rate, gap = next(iter(cells.values()))
            lower, upper = dpc_spiw(h, snr)
            if not (lower - RATE_TOL <= rate + gap <= upper + RATE_TOL):
                fails.append(
                    f"capacity at {snr_db} dB trial {t}: {rate + gap!r} outside SPIW [{lower!r}, {upper!r}]"
                )
            for scheme, formula in (("zf", zf_rate), ("rzf", rzf_rate)):
                if scheme in cells and not abs(cells[scheme][0] - formula(h, snr)) <= RATE_TOL:
                    fails.append(f"{scheme} rate at {snr_db} dB trial {t}: {cells[scheme][0]!r}")
            if "rdif" in cells:
                for base in ("zf", "rzf"):
                    if base in cells and not cells["rdif"][1] < cells[base][1]:
                        fails.append(f"rdif gap not below {base} at {snr_db} dB trial {t}")
    return fails


def check_link(inputs, results) -> list[str]:
    """Per-channel calls: messages recovered exactly, unit-power T, unimodular
    A, the sum rate recomputed from T and A, the capacity recomputed, gap >= 0."""
    fails = []
    if len(results) != len(inputs):
        fails.append(f"{len(results)} results for {len(inputs)} channels")
    for idx, ((h, snr, w_re, w_im), res) in enumerate(zip(inputs, results)):
        if res is None:
            continue
        for i, (rec_re, rec_im) in enumerate(res.recovered):
            if not (np.array_equal(rec_re, w_re[i : i + 1]) and np.array_equal(rec_im, w_im[i : i + 1])):
                fails.append(f"channel {idx}: message row {i} not recovered")
        power = float(np.sum(np.abs(res.t) ** 2))
        if not abs(power - 1.0) <= RATE_TOL:
            fails.append(f"channel {idx}: ||T||_F^2 = {power!r}")
        dr, di = gauss_det_2x2(res.a_re, res.a_im)
        if dr * dr + di * di != 1:
            fails.append(f"channel {idx}: A is not unimodular (det {dr}{di:+d}j)")
        a = res.a_re.astype(np.float64) + 1j * res.a_im.astype(np.float64)
        ref_rate = float(comp_rates(h, res.t, a, snr).sum())
        if not abs(res.sum_rate - ref_rate) <= RATE_TOL:
            fails.append(f"channel {idx}: sum rate {res.sum_rate!r} vs {ref_rate!r}")
        ref_cap = dpc_2user(h, snr)
        if not abs(res.capacity - ref_cap) <= RATE_TOL:
            fails.append(f"channel {idx}: capacity {res.capacity!r} vs {ref_cap!r}")
        if res.capacity - res.sum_rate < -GAP_TOL:
            fails.append(f"channel {idx}: negative gap {res.capacity - res.sum_rate:.3e}")
    return fails
