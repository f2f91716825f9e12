"""Monte-Carlo harness: Rayleigh trials, per-scheme rates, CSV emission.

One channel is drawn per trial (keyed by (seed, trial), so trials parallelize
deterministically) and shared across every SNR point and scheme: the paired
design makes per-trial gap comparisons meaningful.  Records are normalized to
(scheme, snr, trial) order before writing, so output does not depend on the
number of worker processes.
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
from .designer import asymptotic_gaps, design_dif_generalk, dif_2user_stack, rho_of_channel
from .linalg import SingularMatrixError
from .rates import ChannelMatrix, dpc_capacities

ALL_SCHEMES = ("dif", "rdif", "zf", "rzf", "zfdp", "dpc", "dif_real")

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
        if len(set(self.snr_db)) != len(self.snr_db):
            raise ValueError("SNR values must not repeat")
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


def _infeasible_reason(scheme: str, k: int) -> str:
    """Why a record is NaN: dif_real is a two-user design; any other NaN
    record comes from a singular inverse Gram matrix."""
    if scheme == "dif_real" and k != 2:
        return "dif_real needs exactly two users"
    return str(SingularMatrixError())


def _scheme_sum_rates(
    scheme: str, ch: ChannelMatrix, cfg: ExperimentConfig, trial: int, capacity: np.ndarray
) -> np.ndarray:
    """Sum rates of one scheme at every SNR point of ch, NaN where infeasible."""
    if scheme == "dpc":
        return capacity
    if scheme == "zf":
        return zf_stack(ch).rates.sum(axis=-1)
    if scheme == "rzf":
        return rzf_stack(ch).rates.sum(axis=-1)
    if scheme == "zfdp":
        return zfdp_rates(ch).sum(axis=-1)
    regularized = scheme == "rdif"
    if ch.k == 2:
        stack = dif_2user_stack(ch, regularized, real_constraint=scheme == "dif_real")
        return stack.rates.sum(axis=-1)
    if scheme == "dif_real":
        return np.full(len(ch.snr), math.nan)
    seed = _design_seed(cfg.seed, trial)
    rates = []
    for snr in ch.snr:
        try:
            design = design_dif_generalk(
                ch.with_snr(snr), regularized, restarts=cfg.restarts, seed=seed
            )
            rates.append(design.rates.sum_rate)
        except SingularMatrixError:
            rates.append(math.nan)
    return np.array(rates)


def run_trial(cfg: ExperimentConfig, trial: int) -> list[TrialRecord]:
    """All (snr, scheme) records for one channel realization.

    Each scheme runs once over all SNR points; its time is split evenly over
    its records, and the dpc records share the capacity's time too.  A scheme
    whose inverse Gram matrix is singular gets NaN records.
    """
    h = draw_channel(trial_rng(cfg.seed, trial), cfg.k, cfg.m)
    ch = ChannelMatrix(h, 10.0 ** (np.array(cfg.snr_db) / 10.0))
    n_snr = len(cfg.snr_db)
    start = time.perf_counter()
    capacity = dpc_capacities(ch)
    dpc_ms = (time.perf_counter() - start) * 1e3
    rho = rho_of_channel(ch) if cfg.k == 2 else math.nan
    records = []
    for scheme in cfg.schemes:
        start = time.perf_counter()
        try:
            sum_rates = _scheme_sum_rates(scheme, ch, cfg, trial, capacity)
        except SingularMatrixError:
            sum_rates = np.full(n_snr, math.nan)
        gaps = capacity - sum_rates
        wall_ms = (time.perf_counter() - start) * 1e3 + (dpc_ms if scheme == "dpc" else 0.0)
        wall_ms /= n_snr
        for snr_db, sum_rate, gap in zip(cfg.snr_db, sum_rates.tolist(), gaps.tolist()):
            records.append(TrialRecord(scheme, snr_db, trial, rho, sum_rate, gap, wall_ms))
    return records


def _run_trial_args(args) -> list[TrialRecord]:
    return run_trial(*args)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1):
    """Run all trials; returns (records, aggregate rows).

    Records are sorted by (scheme, snr_db, trial); aggregate rows are
    (scheme, snr_db, mean sum rate, mean gap, stderr of the gap).  The
    scientific content depends only on cfg, not on the job count.  Each
    scheme with NaN records gets one warning line on stderr with their count.
    """
    if jobs <= 1:
        per_trial = [run_trial(cfg, t) for t in range(cfg.trials)]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(
                pool.map(_run_trial_args, [(cfg, t) for t in range(cfg.trials)])
            )
    records = [rec for batch in per_trial for rec in batch]
    records.sort(key=lambda r: (r.scheme, r.snr_db, r.trial))
    groups: dict[tuple[str, float], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.scheme, r.snr_db), []).append(r)
    aggregate = []
    infeasible = dict.fromkeys(cfg.schemes, 0)
    for scheme in sorted(cfg.schemes):
        for snr_db in cfg.snr_db:
            rows = groups[(scheme, snr_db)]
            sums = np.array([r.sum_rate_bits for r in rows])
            gaps = np.array([r.gap_bits for r in rows])
            stderr = float(gaps.std(ddof=1) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
            aggregate.append(
                (scheme, snr_db, float(sums.mean()), float(gaps.mean()), stderr)
            )
            infeasible[scheme] += int(np.count_nonzero(np.isnan(sums)))
    for scheme, n in infeasible.items():
        if n:
            reason = _infeasible_reason(scheme, cfg.k)
            print(
                f"warning: {scheme} infeasible for K={cfg.k} in {n} records: {reason}",
                file=sys.stderr,
            )
    return records, aggregate


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_trials_csv(path, records) -> None:
    lines = [TRIALS_HEADER]
    for r in records:
        lines.append(
            f"{r.scheme},{_fmt(r.snr_db)},{r.trial},{_fmt(r.rho)},"
            f"{_fmt(r.sum_rate_bits)},{_fmt(r.gap_bits)},{_fmt(r.wall_ms)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_aggregate_csv(path, aggregate) -> None:
    lines = [AGGREGATE_HEADER]
    for scheme, snr_db, mean_sum, mean_gap, stderr in aggregate:
        lines.append(
            f"{scheme},{_fmt(snr_db)},{_fmt(mean_sum)},{_fmt(mean_gap)},{_fmt(stderr)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def gap_curve(resolution: int, real_constraint: bool = False) -> np.ndarray:
    """(rho, gap) samples of the high-SNR gap on a uniform grid over [0, 0.999]."""
    if resolution < 2:
        raise ValueError("need at least two grid points")
    rhos = np.linspace(0.0, 0.999, resolution)
    return np.column_stack([rhos, asymptotic_gaps(rhos, real_constraint)])
