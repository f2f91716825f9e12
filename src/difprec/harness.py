"""Monte-Carlo harness: Rayleigh trials, per-scheme rates, CSV emission.

One channel is drawn per trial (keyed by (seed, trial), so trials parallelize
deterministically) and shared across every SNR point and scheme: the paired
design makes per-trial gap comparisons meaningful.  Records are kept as arrays
indexed [scheme, snr, trial] and written in that order, so output does not
depend on the number of worker processes.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import rzf_stack, zf_stack, zfdp_rates
from .designer import _rho, asymptotic_gaps, design_dif_generalk_many, dif_2user_stack
from .linalg import SingularMatrixError
from .rates import ChannelMatrix, dpc_capacities

ALL_SCHEMES = ("dif", "rdif", "zf", "rzf", "zfdp", "dpc", "dif_real")

# trials per stacked pass of a scheme: bounds a worker's working memory
BLOCK_TRIALS = 256

TRIALS_HEADER = "scheme,snr_db,trial,rho,sum_rate_bits,gap_bits,wall_ms"
AGGREGATE_HEADER = "scheme,snr_db,mean_sum_rate_bits,mean_gap_bits,stderr_gap_bits"


@dataclass(frozen=True)
class ExperimentConfig:
    k: int = 2
    m: int = 2
    snr_db: tuple[float, ...] = tuple(np.arange(-10.0, 40.0 + 1e-9, 2.5))
    trials: int = 1000
    seed: int = 1
    schemes: tuple[str, ...] = ("dif", "rdif", "zf", "rzf", "zfdp", "dpc")
    restarts: int = 8

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise ValueError("need 1 <= k <= m")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if len(self.snr_db) == 0:
            raise ValueError("snr list must be nonempty")
        with np.errstate(over="ignore"):
            linear = 10.0 ** (np.asarray(self.snr_db, dtype=np.float64) / 10.0)
        if not np.all((linear > 0.0) & np.isfinite(linear)):
            raise ValueError("every SNR must be finite and positive on the linear scale")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")
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


@dataclass(frozen=True, slots=True)
class TrialRecord:
    scheme: str
    snr_db: float
    trial: int
    rho: float
    sum_rate_bits: float
    gap_bits: float
    wall_ms: float


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
    [trial] and wall_ms [scheme, trial], each axis sorted.  Iterating yields
    the records in that (C) order as TrialRecords."""

    schemes: tuple[str, ...]
    snr_db: tuple[float, ...]
    trials: np.ndarray
    rho: np.ndarray
    sum_rate: np.ndarray
    gap: np.ndarray
    wall_ms: np.ndarray

    def __iter__(self):
        for i, scheme in enumerate(self.schemes):
            for j, snr_db in enumerate(self.snr_db):
                columns = (self.rho, self.sum_rate[i, j], self.gap[i, j], self.wall_ms[i])
                for values in zip(self.trials.tolist(), *(c.tolist() for c in columns)):
                    yield TrialRecord(scheme, snr_db, *values)


# per-user rates of each scheme that runs on a stack of channels, at every point
_STACKED_RATES = {
    "zf": lambda ch: zf_stack(ch).rates,
    "rzf": lambda ch: rzf_stack(ch).rates,
    "zfdp": zfdp_rates,
    "dif": lambda ch: dif_2user_stack(ch).rates,
    "rdif": lambda ch: dif_2user_stack(ch, regularized=True).rates,
    "dif_real": lambda ch: dif_2user_stack(ch, real_constraint=True).rates,
}


def run_trials(cfg: ExperimentConfig, trials) -> Results:
    """The records of a chunk of trials.  Each scheme runs once per block of
    BLOCK_TRIALS stacked channels, over all SNR points; for K > 2 each search
    (dif, rdif) is one design_dif_generalk_many call over the chunk.  A
    scheme's time on the chunk, the capacity's for dpc, is split evenly over
    its records."""
    schemes, snr_db = tuple(sorted(cfg.schemes)), tuple(sorted(cfg.snr_db))
    snr = 10.0 ** (np.array(snr_db) / 10.0)
    h = np.array([draw_channel(trial_rng(cfg.seed, t), cfg.k, cfg.m) for t in trials])
    capacity = np.empty((len(snr), len(h)))
    rates = np.full((len(schemes),) + capacity.shape, math.nan)
    rho = np.full(len(h), math.nan)
    seconds = dict.fromkeys(ALL_SCHEMES, 0.0)
    # for K != 2, dif and rdif are searched below and dif_real stays NaN
    stacked = [s for s in cfg.schemes if s in _STACKED_RATES and (cfg.k == 2 or "dif" not in s)]
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
            rates[schemes.index(scheme), :, block] = _STACKED_RATES[scheme](ch).sum(axis=-1).T
            seconds[scheme] += time.perf_counter() - start
    for scheme in sorted({"dif", "rdif"} & set(schemes)) if cfg.k > 2 else []:
        start = time.perf_counter()
        points = [ChannelMatrix(h_t, s) for h_t in h for s in snr]
        seeds = [_design_seed(cfg.seed, t) for t in trials for _ in snr]
        designs = design_dif_generalk_many(points, seeds, scheme == "rdif", cfg.restarts)
        sums = [math.nan if d is None else d.rates.sum_rate for d in designs]
        rates[schemes.index(scheme)] = np.reshape(sums, (len(h), len(snr))).T
        seconds[scheme] += time.perf_counter() - start
    if "dpc" in schemes:
        rates[schemes.index("dpc")] = capacity
    wall_ms = np.array([[seconds[s] * 1e3 / capacity.size] * len(h) for s in schemes])
    return Results(schemes, snr_db, np.array(trials), rho, rates, capacity - rates, wall_ms)


def run_trial(cfg: ExperimentConfig, trial: int) -> Results:
    """All (scheme, snr) records of one trial: its chunk of one."""
    return run_trials(cfg, [trial])


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> tuple[Results, list[tuple]]:
    """Run all trials; returns (results, aggregate rows).

    Each of `jobs` workers runs one contiguous chunk of the trials, joined
    along the trial axis.  Aggregate rows are (scheme, snr_db, mean sum rate,
    mean gap, stderr of the gap) over the trial axis, in sorted scheme and
    configured SNR order.  The scientific content depends only on cfg.  Each
    scheme with NaN records gets one warning line on stderr with their count.
    """
    chunks = [c.tolist() for c in np.array_split(np.arange(cfg.trials), max(jobs, 1)) if c.size]
    if len(chunks) == 1:
        parts = [run_trials(cfg, chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
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
    """trials.csv from the arrays of results, in their C order.  Each float
    is formatted once, as %.12g (the bytes of f"{x:.12g}")."""
    lines = [TRIALS_HEADER]
    trial_rho = [f"{t},{r:.12g}" for t, r in zip(results.trials.tolist(), results.rho.tolist())]
    for i, scheme in enumerate(results.schemes):
        walls = [f"{w:.12g}" for w in results.wall_ms[i].tolist()]
        for j, snr_db in enumerate(results.snr_db):
            sums, gaps = results.sum_rate[i, j].tolist(), results.gap[i, j].tolist()
            line = f"{scheme},{snr_db:.12g},%s,%.12g,%.12g,%s".__mod__
            lines += map(line, zip(trial_rho, sums, gaps, walls))
    Path(path).write_text("\n".join(lines) + "\n")


def write_aggregate_csv(path, aggregate) -> None:
    lines = [AGGREGATE_HEADER] + ["%s,%.12g,%.12g,%.12g,%.12g" % row for row in aggregate]
    Path(path).write_text("\n".join(lines) + "\n")


def gap_curve(resolution: int, real_constraint: bool = False) -> np.ndarray:
    """(rho, gap) samples of the high-SNR gap on a uniform grid over [0, 0.999]."""
    if resolution < 2:
        raise ValueError("need at least two grid points")
    rhos = np.linspace(0.0, 0.999, resolution)
    return np.column_stack([rhos, asymptotic_gaps(rhos, real_constraint)])
