"""Monte-Carlo harness: Rayleigh trials, per-scheme rates, CSV emission.

One channel is drawn per trial (keyed by (seed, trial), so trials parallelize
deterministically) and shared across every SNR point and scheme: the paired
design makes per-trial gap comparisons meaningful.  Records are kept as arrays
indexed [scheme, snr, trial] and written in that order, so output does not
depend on the number of worker processes.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import rzf_stack, zf_stack, zfdp_rates
from .designer import MAX_RESTARTS, _rho, asymptotic_gaps, dif_2user_stack, dif_generalk_stack
from .linalg import SingularMatrixError
from .rates import ChannelMatrix, dpc_capacities

ALL_SCHEMES = ("dif", "rdif", "zf", "rzf", "zfdp", "dpc", "dif_real")

# trials per stacked pass of a scheme; a K > 2 search holds every start of its
# block at once, about 4-5 KB each at K = 4 (2 vCPUs), so its memory grows as
# BLOCK_TRIALS x SNR points x (restarts + 1), which this alone does not bound
BLOCK_TRIALS = 256
# values an SNR range, a gap curve or a trial count may have
MAX_POINTS = 10**6
# (trial, SNR) points a run may have: a K = 2 trial at 21 SNRs and all 7
# schemes takes about 6 KB and 0.2 ms (2 vCPUs), so 6 GB and 4 minutes here
MAX_RECORDS = 21 * MAX_POINTS
# users and antennas: a block of BLOCK_TRIALS trials at 21 SNRs, K = 12 and M = 16
# takes 68 s and 0.5 GB for zf, rzf and dpc (2 vCPUs); det_exact, checking each A
# on all 2^K column sets, costs 4-5 times more for two more users (8 s and 0.55 GB
# alone at K = 14), and a K != 2 capacity factors an M x M matrix per point
MAX_USERS, MAX_ANTENNAS = 12, 16

TRIALS_HEADER = "scheme,snr_db,trial,rho,sum_rate_bits,gap_bits,wall_ms"
AGGREGATE_HEADER = "scheme,snr_db,mean_sum_rate_bits,mean_gap_bits,stderr_gap_bits"


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 2
    m: int | None = None  # k when not given
    snr_db: tuple[float, ...] = tuple(np.arange(-10.0, 40.0 + 1e-9, 2.5))
    trials: int | None = None  # when not given: 1000 at k = 2, else 200
    seed: int = 1
    schemes: tuple[str, ...] = ("dif", "rdif", "zf", "rzf", "zfdp", "dpc")
    restarts: int = 8

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", self.k)
        if self.trials is None:
            object.__setattr__(self, "trials", 1000 if self.k == 2 else 200)
        if not 1 <= self.k <= self.m or self.k > MAX_USERS or self.m > MAX_ANTENNAS:
            raise ValueError(f"need 1 <= k <= m, k <= {MAX_USERS} and m <= {MAX_ANTENNAS}")
        if len(self.snr_db) == 0:
            raise ValueError("snr list must be nonempty")
        if not 1 <= self.trials <= min(MAX_POINTS, MAX_RECORDS // len(self.snr_db)):
            raise ValueError(f"need 1 to {MAX_POINTS} trials, and at most {MAX_RECORDS} trials x SNR points")
        with np.errstate(over="ignore"):
            linear = 10.0 ** (np.asarray(self.snr_db, dtype=np.float64) / 10.0)
        if not np.all((linear > 0.0) & np.isfinite(linear)):
            raise ValueError("every SNR must be finite and positive on the linear scale")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must lie in 0 to {MAX_RESTARTS}")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        if len(self.schemes) == 0:
            raise ValueError("scheme list must be nonempty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("schemes must not repeat")
        if self.k == 1 and {"dif", "rdif", "dif_real"} & set(self.schemes):
            raise ValueError("dif, rdif and dif_real need at least two users")
        printed = {f"{s:.12g}" for s in self.snr_db}  # as the CSVs print them
        if not len(set(self.snr_db)) == len(printed) == len(self.snr_db):
            raise ValueError("SNR values must not repeat, also in their 12 printed digits")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        object.__setattr__(self, "schemes", tuple(self.schemes))


def draw_channel(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """K x M matrix with i.i.d. entries (g1 + j g2)/sqrt(2), unit variance."""
    return (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / math.sqrt(2.0)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream keyed by (master seed, trial index)."""
    return np.random.default_rng([seed, trial])


def _design_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, trial, 0x5EED]).generate_state(1)[0])


@dataclass(frozen=True)
class Results:
    """A run's records as arrays: sum_rate and gap [scheme, snr, trial], rho
    [trial] and wall_ms [scheme, trial], each axis sorted."""

    schemes: tuple[str, ...]
    snr_db: tuple[float, ...]
    trials: np.ndarray
    rho: np.ndarray
    sum_rate: np.ndarray
    gap: np.ndarray
    wall_ms: np.ndarray


# the RateReport of each scheme at every point of a stack of channels; for
# K > 2, run_trials searches dif and rdif instead; dif_real is NaN for K != 2
_STACKED_RATES = {
    "zf": lambda ch: zf_stack(ch).rates,
    "rzf": lambda ch: rzf_stack(ch).rates,
    "zfdp": zfdp_rates,
    "dif": lambda ch: dif_2user_stack(ch).rates,
    "rdif": lambda ch: dif_2user_stack(ch, regularized=True).rates,
    "dif_real": lambda ch: dif_2user_stack(ch, real_constraint=True).rates,
}


def run_trials(cfg: ExperimentConfig, trials) -> Results:
    """The records of a chunk of trials.  Each scheme, the K > 2 searches
    included, runs once per block of BLOCK_TRIALS stacked channels, over all
    SNR points.  A scheme's time on the chunk, the capacity's for dpc, is
    split evenly over its records."""
    schemes, snr_db = tuple(sorted(cfg.schemes)), tuple(sorted(cfg.snr_db))
    snr = 10.0 ** (np.array(snr_db) / 10.0)
    h = np.array([draw_channel(trial_rng(cfg.seed, t), cfg.k, cfg.m) for t in trials])
    capacity = np.empty((len(snr), len(h)))
    rates = np.full((len(schemes),) + capacity.shape, math.nan)
    rho = np.full(len(h), math.nan)
    seconds = dict.fromkeys(ALL_SCHEMES, 0.0)
    stacked = [s for s in cfg.schemes if s in _STACKED_RATES and (cfg.k == 2 or s != "dif_real")]
    for lo in range(0, len(h), BLOCK_TRIALS):
        block = slice(lo, lo + BLOCK_TRIALS)
        ch = ChannelMatrix(h[block], snr)
        start = time.perf_counter()
        capacity[:, block] = dpc_capacities(ch).T
        seconds["dpc"] += time.perf_counter() - start
        if cfg.k == 2:
            rho[block] = _rho(ch.gram)[:, 0]
        for scheme in stacked:
            start = time.perf_counter()
            if scheme in ("dif", "rdif") and cfg.k > 2:
                seeds = [_design_seed(cfg.seed, t) for t in trials[block]]
                report = dif_generalk_stack(ch, seeds, scheme == "rdif", cfg.restarts).rates
            else:
                report = _STACKED_RATES[scheme](ch)
            rates[schemes.index(scheme), :, block] = report.sum_rate.T
            seconds[scheme] += time.perf_counter() - start
    if "dpc" in schemes:
        rates[schemes.index("dpc")] = capacity
    wall_ms = np.array([[seconds[s] * 1e3 / capacity.size] * len(h) for s in schemes])
    return Results(schemes, snr_db, np.array(trials), rho, rates, capacity - rates, wall_ms)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[Results, list[tuple]]:
    """Run all trials; returns (results, aggregate rows).

    The trials are split into min(jobs, trials) contiguous chunks, run by at
    most os.cpu_count() worker processes and joined along the trial axis.
    Aggregate rows are (scheme, snr_db, mean sum rate, mean gap, stderr of
    the gap) over the trial axis, in sorted scheme and configured SNR order.
    The scientific content depends only on cfg.  Each scheme with NaN records
    gets one warning line on stderr with their count.
    """
    sections = max(min(jobs, cfg.trials), 1)
    chunks = [c.tolist() for c in np.array_split(np.arange(cfg.trials), sections)]
    if len(chunks) == 1:
        parts = [run_trials(cfg, chunks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, which only a pool needs

        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(run_trials, [cfg] * len(chunks), chunks))
    columns = ("trials", "rho", "sum_rate", "gap", "wall_ms")
    joined = (np.concatenate([getattr(p, c) for p in parts], axis=-1) for c in columns)
    res = Results(parts[0].schemes, parts[0].snr_db, *joined)
    means, mean_gaps = res.sum_rate.mean(axis=-1), res.gap.mean(axis=-1)
    n = cfg.trials
    stderr = res.gap.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean_gaps)
    aggregate = [
        (scheme, snr_db, float(means[i, j]), float(mean_gaps[i, j]), float(stderr[i, j]))
        for i, scheme in enumerate(res.schemes)
        for snr_db, j in zip(cfg.snr_db, map(res.snr_db.index, cfg.snr_db))
    ]
    for scheme in cfg.schemes:
        if n_nan := int(np.isnan(res.sum_rate[res.schemes.index(scheme)]).sum()):
            wrong_k = scheme == "dif_real" and cfg.k != 2
            reason = "dif_real needs exactly two users" if wrong_k else SingularMatrixError()
            print(
                f"warning: {scheme} infeasible for K={cfg.k} in {n_nan} records: {reason}",
                file=sys.stderr,
            )
    return res, aggregate


def write_trials_csv(path, results: Results) -> None:
    """trials.csv from the arrays of results, in their C order, each float as
    %.12g (the bytes of f"{x:.12g}"): a template per scheme holds each line's
    trial, rho and wall_ms, and each SNR fills in its prefix and, by one %, its
    rates: one chunk per (scheme, SNR), written to the open file."""
    trial_rho = [f"{t},{r:.12g}" for t, r in zip(results.trials.tolist(), results.rho.tolist())]
    with open(path, "w") as f:
        f.write(TRIALS_HEADER + "\n")
        for i, scheme in enumerate(results.schemes):
            walls = results.wall_ms[i].tolist()
            body = "".join(f"@,{tr},%.12g,%.12g,{w:.12g}\n" for tr, w in zip(trial_rho, walls))
            sum_gap = np.stack((results.sum_rate[i], results.gap[i]), axis=-1)
            for snr_db, values in zip(results.snr_db, sum_gap):
                f.write(body.replace("@", f"{scheme},{snr_db:.12g}") % tuple(values.ravel().tolist()))


def write_aggregate_csv(path, aggregate) -> None:
    lines = [AGGREGATE_HEADER] + ["%s,%.12g,%.12g,%.12g,%.12g" % row for row in aggregate]
    Path(path).write_text("\n".join(lines) + "\n")


def gap_curve(resolution: int, real_constraint: bool = False) -> np.ndarray:
    """(rho, gap) samples of the high-SNR gap on a uniform grid over [0, 0.999],
    with 2 to MAX_POINTS points."""
    if not 2 <= resolution <= MAX_POINTS:
        raise ValueError(f"gap curve needs 2 to {MAX_POINTS} grid points")
    rhos = np.linspace(0.0, 0.999, resolution)
    return np.column_stack([rhos, asymptotic_gaps(rhos, real_constraint)])
