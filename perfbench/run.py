"""difprec benchmark: one workload per process, a fixed round of work repeated
for --seconds, outputs checked, metrics printed as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload k2-sweep --seed 1 --seconds 30 --trace 0

Workloads: k2-sweep (two-user CLI sweep), k4-search (four-user CLI search),
k2-link (per-channel library calls).  With --trace 0 the JSON holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
that alternates traced and untraced rounds (see tracing.py and README.md).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import env
from tracing import Tracer

WORKLOADS = ("k2-sweep", "k4-search", "k2-link")
END_TO_END = {"setup_s": "s", "trials_per_s": "1/s", "mean_gap_bits": "bits", "peak_rss_mb": "MB"}
PROBES_AT_EDGES = 4  # set-up probes before the first round and after the last
PROBE_EVERY = 0.2  # and one between rounds per this share of --seconds
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


class SetupProbes:
    """Seconds to first result, each in a fresh process (setup_probe.py).

    The machine's speed drifts over tens of seconds, so the probes are spread
    over the run rather than taken in one burst."""

    def __init__(self, name: str, seed: int, skip_stalls: bool):
        probe = Path(__file__).with_name("setup_probe.py")
        self.argv = [sys.executable, str(probe), name, str(seed), str(int(skip_stalls))]
        self.times = []

    def take(self, n: int) -> None:
        for _ in range(n):
            proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=env.ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"perfbench: set-up probe {self.argv[2:]} failed")
            self.times.append(float(proc.stdout.split()[-1]))


class Tally:
    """What a sequence of rounds did: timed seconds, counts, latencies."""

    def __init__(self):
        self.rounds = 0
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.done = 0  # channel realizations fully processed in the timed part
        self.latencies = array("d")

    def add(self, rnd, probe_failed=None) -> None:
        self.rounds += 1
        self.seconds += rnd.seconds
        self.attempted += rnd.attempted + (probe_failed is not None)
        self.failed += rnd.failed + bool(probe_failed)
        self.done += rnd.attempted - rnd.failed
        if rnd.latencies:
            self.latencies.extend(rnd.latencies)

    def merge(self, other: "Tally") -> None:
        for name in ("rounds", "attempted", "failed", "done"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def trials_per_s(self) -> float:
        return self.done / self.seconds


class Runner:
    """Runs rounds of one workload and keeps the first good outputs."""

    def __init__(self, wl, difprec):
        self.wl = wl
        self.difprec = difprec
        self.reference = None
        self.reference_digest = None
        self.mismatches = 0

    def round(self, tally: Tally, tracer=None):
        """One round, traced if a tracer is given, then the workload's fault
        probe (untraced and untimed), if it has one."""
        if tracer is not None:
            tracer.install(self.difprec)
        try:
            rnd = self.wl.run_round(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        tally.add(rnd, self.wl.fault_probe() if self.wl.fault_probe else None)
        if rnd.outputs is not None:
            digest = self.wl.digest(rnd.outputs)
            if self.reference is None:
                self.reference, self.reference_digest = rnd.outputs, digest
            elif digest != self.reference_digest:
                self.mismatches += 1
        return rnd

    def failures(self) -> list[str]:
        if self.reference is None:
            return ["no round completed"]
        fails = self.wl.check(self.reference)
        if self.mismatches:
            fails.append(f"{self.mismatches} rounds differ from the first round")
        return fails


def run_plain(runner: Runner, seconds: float, probes: SetupProbes) -> Tally:
    """Rounds until their timed parts add up to `seconds`, with set-up probes
    before, between and after them."""
    tally = Tally()
    probes.take(PROBES_AT_EDGES)
    next_probe = seconds * PROBE_EVERY
    while tally.rounds == 0 or tally.seconds < seconds:
        runner.round(tally)
        if next_probe <= tally.seconds < seconds:
            probes.take(1)
            next_probe = tally.seconds + seconds * PROBE_EVERY
    probes.take(PROBES_AT_EDGES)
    return tally


def run_traced(runner: Runner, seconds: float, difprec):
    """Alternate traced and untraced rounds, traced first, until `seconds` have
    passed and both kinds have run.  The first traced round starts from cold
    caches, as a fresh CLI call does; it gives the cache hit ratio and is left
    out of the overhead figure whenever a later traced round exists."""
    tracer = Tracer()
    traced, plain = [], Tally()
    tally = Tally()  # traced rounds
    cache = getattr(difprec.gaussint.in_norm_set, "cache_info", None)
    hit_ratio = None
    start = time.perf_counter()
    while not (traced and plain.rounds) or time.perf_counter() - start < seconds:
        if len(traced) <= plain.rounds:
            before = cache() if cache else None
            traced.append(runner.round(tally, tracer))
            if cache and hit_ratio is None:
                after = cache()
                lookups = (after.hits - before.hits) + (after.misses - before.misses)
                hit_ratio = (after.hits - before.hits) / lookups if lookups else 0.0
        else:
            runner.round(plain)
    if cache is None:
        tracer.absent.append("gaussint.in_norm_set.cache_info")
    warm = traced[1:] or traced
    traced_rate = sum(r.attempted - r.failed for r in warm) / sum(r.seconds for r in warm)
    overhead_pct = (plain.trials_per_s() / traced_rate - 1.0) * 100.0
    return tracer, tally, plain, hit_ratio or 0.0, overhead_pct


def layer_metrics(tracer, n_trials: int, hit_ratio: float, overhead_pct: float) -> dict:
    """Per-layer metrics, per channel realization (trial or link call)."""
    g = tracer.get

    def per_trial_calls(*names):
        return sum(g(x).calls for x in names) / n_trials

    def per_trial_ms(*names, self_time=False):
        total = sum(g(x).self_seconds if self_time else g(x).seconds for x in names)
        return total * 1e3 / n_trials

    searches = g("designer.design_dif_generalk").calls
    b = tracer.bytes_written
    count, ms = "count/trial", "ms/trial"
    return {
        "reduction.lll_calls": (per_trial_calls("reduction.lll_search", "reduction.lll_final"), count),
        "reduction.gso_rebuilds": (per_trial_calls("reduction.gso"), count),
        "reduction.lll_ms": (per_trial_ms("reduction.lll_search", "reduction.lll_final"), ms),
        "reduction.gso_ms": (per_trial_ms("reduction.gso"), ms),
        "designer.objective_evals": (
            g("reduction.lll_search").calls / searches if searches else 0.0,
            "count/design",
        ),
        "designer.search_self_ms": (per_trial_ms("designer.design_dif_generalk", self_time=True), ms),
        "designer.dif2_calls": (per_trial_calls("designer.design_dif_2user"), count),
        "designer.dif2_self_ms": (per_trial_ms("designer.design_dif_2user", self_time=True), ms),
        "designer.build_precoder_calls": (per_trial_calls("designer.build_precoder"), count),
        "designer.build_precoder_self_ms": (per_trial_ms("designer.build_precoder", self_time=True), ms),
        "rates.dpc_calls": (per_trial_calls("rates.dpc_sum_capacity"), count),
        "rates.dpc_ms": (per_trial_ms("rates.dpc_sum_capacity"), ms),
        "rates.if_sum_rate_ms": (per_trial_ms("rates.if_sum_rate"), ms),
        "gaussint.det_exact_calls": (per_trial_calls("gaussint.det_exact"), count),
        "gaussint.det_exact_ms": (per_trial_ms("gaussint.det_exact"), ms),
        "gaussint.floor_norm_set_calls": (per_trial_calls("gaussint.floor_norm_set"), count),
        "gaussint.ceil_norm_set_calls": (per_trial_calls("gaussint.ceil_norm_set"), count),
        "gaussint.in_norm_set_hit_ratio": (hit_ratio, "ratio"),
        "linalg.inverse_calls": (per_trial_calls("linalg.inverse"), count),
        "linalg.inverse_ms": (per_trial_ms("linalg.inverse"), ms),
        "linalg.det_calls": (per_trial_calls("linalg.det"), count),
        "linalg.det_ms": (per_trial_ms("linalg.det"), ms),
        "linalg.gram_calls": (per_trial_calls("linalg.gram"), count),
        "linalg.gram_ms": (per_trial_ms("linalg.gram"), ms),
        "baselines.zf_ms": (per_trial_ms("baselines.design_zf"), ms),
        "baselines.rzf_ms": (per_trial_ms("baselines.design_rzf"), ms),
        "baselines.zfdp_ms": (per_trial_ms("baselines.design_zfdp"), ms),
        "msgprecode.precode_ms": (per_trial_ms("msgprecode.precode_messages"), ms),
        "msgprecode.modp_inverse_ms": (per_trial_ms("msgprecode.modp_inverse"), ms),
        "msgprecode.recover_ms": (per_trial_ms("msgprecode.recover_message"), ms),
        "harness.run_trial_ms": (per_trial_ms("harness.run_trial"), ms),
        "harness.run_experiment_self_ms": (per_trial_ms("harness.run_experiment", self_time=True), ms),
        "harness.write_trials_csv_ms": (per_trial_ms("harness.write_trials_csv"), ms),
        "harness.write_trials_csv_bytes": (b.get("harness.write_trials_csv", 0) / n_trials, "B/trial"),
        "harness.write_aggregate_csv_ms": (per_trial_ms("harness.write_aggregate_csv"), ms),
        "harness.write_aggregate_csv_bytes": (b.get("harness.write_aggregate_csv", 0) / n_trials, "B/trial"),
        "cli.main_self_ms": (per_trial_ms("cli.main", self_time=True), ms),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def percentile_line(latencies) -> str:
    """Median and p99 of per-call latency, p99 only with ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    p50 = statistics.median(lat) * 1e3
    line = f"call latency: n={n} p50={p50:.4f} ms"
    if n >= 1000:
        p99 = statistics.quantiles(lat, n=100)[98] * 1e3
        line += f" p99={p99:.4f} ms ({sum(1 for x in lat if x * 1e3 > p99)} calls beyond)"
    return line


def main(argv=None) -> int:
    args = parse_args(argv)
    difprec = env.import_difprec()

    import workloads  # imports difprec, so only after env.import_difprec()

    out_dir = env.OUT / f"{args.workload}-seed{args.seed}"
    wl = workloads.make(args.workload, args.seed, out_dir)
    runner = Runner(wl, difprec)
    probes = SetupProbes(args.workload, args.seed, getattr(wl, "skip_stalls", False))
    print(
        f"env: {env.describe()} difprec={difprec.__version__} workload={args.workload} "
        f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"inputs: {wl.describe()}")
    if args.trace:
        tracer, traced, plain, hit_ratio, overhead_pct = run_traced(runner, args.seconds, difprec)
        metrics = layer_metrics(tracer, traced.done, hit_ratio, overhead_pct)
        trace_path = env.OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        n_spans = tracer.write_spans(trace_path)
        print(
            f"trace: {n_spans} spans in {trace_path}; overhead {overhead_pct:.2f}% "
            f"({traced.rounds} traced rounds, {plain.rounds} untraced)"
        )
        if tracer.absent:
            print(f"trace: absent boundaries (their metrics read 0): {', '.join(tracer.absent)}")
        unreached = sorted(name for name, (value, _) in metrics.items() if value == 0)
        print(f"trace: not reached by {args.workload}: {', '.join(unreached) or 'none'}")
        tally = plain
        tally.merge(traced)
    else:
        tally = run_plain(runner, args.seconds, probes)
        values = {  # peak memory first: reading outputs back for the checks is not the program's
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(probes.times),
            "trials_per_s": tally.trials_per_s(),
            "mean_gap_bits": wl.mean_gap(runner.reference) if runner.reference else float("nan"),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    if tally.latencies:
        print(percentile_line(tally.latencies))
    failures = runner.failures()
    probe_times = ",".join(f"{t:.4f}" for t in probes.times) or "none"
    print(
        f"work: rounds={tally.rounds} attempted={tally.attempted} failed={tally.failed} "
        f"setup_probes_s={probe_times}"
    )
    for msg in failures[:20]:
        print(f"check failed: {msg}")
    print(f"checks: {'ok' if not failures else f'{len(failures)} failed'}")
    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
