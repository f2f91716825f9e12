"""Command-line front end for the Monte-Carlo harness.

SNR values are given in dB (converted to linear power ratios internally);
everything else mirrors the library defaults.  A config file with
`key = value` lines can preset any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ALL_SCHEMES,
    ExperimentConfig,
    gap_curve,
    run_experiment,
    write_aggregate_csv,
    write_trials_csv,
)


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """Parse '0,5,10' or 'start:step:stop' (stop inclusive) into dB values."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("range spec must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("range spec needs step > 0 and stop >= start")
        return tuple(np.arange(start, stop + step * 1e-9, step))
    return tuple(float(p) for p in spec.split(","))


def load_config_file(path: str) -> dict[str, str]:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (need key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difprec",
        description="Integer-forcing precoding Monte-Carlo harness (rates in bits/use, SNR in dB).",
    )
    parser.add_argument("--config", help="config file with key = value lines (flags win)")
    parser.add_argument("--k", type=int, help="number of single-antenna users (default 2)")
    parser.add_argument("--m", type=int, help="transmit antennas (default k)")
    parser.add_argument("--snr-db", help="comma list '0,5,10' or range 'start:step:stop'")
    parser.add_argument("--trials", type=int, help="channel realizations (default 1000; 200 when k > 2)")
    parser.add_argument("--seed", type=int, help="master seed (default 1)")
    parser.add_argument("--schemes", help=f"comma subset of {','.join(ALL_SCHEMES)}")
    parser.add_argument("--restarts", type=int, help="random restarts for the k > 2 search (default 8)")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument(
        "--gap-curve",
        type=int,
        metavar="RESOLUTION",
        help="write gap_curve.csv with the high-SNR gap on a RESOLUTION-point rho grid and exit",
    )
    parser.add_argument(
        "--real-integers",
        action="store_true",
        help="also run the real-integer-constrained two-user variant (scheme dif_real)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        file_values = load_config_file(args.config) if args.config else {}

        def pick(name: str, cast, default):
            cli_value = getattr(args, name)
            if cli_value is not None and cli_value is not False:
                return cli_value
            if name in file_values:
                return cast(file_values[name])
            return default

        out_dir = Path(pick("out", str, "."))
        out_dir.mkdir(parents=True, exist_ok=True)

        resolution = pick("gap_curve", int, None)
        real = bool(pick("real_integers", lambda s: s.lower() in ("1", "true", "yes"), False))
        if resolution is not None:
            complex_curve = gap_curve(resolution, real_constraint=False)
            real_curve = gap_curve(resolution, real_constraint=True)
            lines = ["rho,gap_complex_bits,gap_real_bits"]
            for (rho, gc), (_, gr) in zip(complex_curve, real_curve):
                lines.append(f"{rho:.12g},{gc:.12g},{gr:.12g}")
            (out_dir / "gap_curve.csv").write_text("\n".join(lines) + "\n")
            print(f"wrote {out_dir / 'gap_curve.csv'}")
            return 0

        defaults = ExperimentConfig()
        k = pick("k", int, defaults.k)
        m = pick("m", int, k)
        trials = pick("trials", int, defaults.trials if k == 2 else 200)
        schemes_spec = pick("schemes", str, None)
        if schemes_spec is None:
            schemes = list(defaults.schemes)
            if real and k == 2:
                schemes.append("dif_real")
        else:
            schemes = [s.strip() for s in schemes_spec.split(",") if s.strip()]
        snr_spec = pick("snr_db", str, None)
        snr_db = parse_snr_spec(snr_spec) if isinstance(snr_spec, str) else (snr_spec or defaults.snr_db)

        cfg = ExperimentConfig(
            k=k,
            m=m,
            snr_db=snr_db,
            trials=trials,
            seed=pick("seed", int, defaults.seed),
            schemes=tuple(schemes),
            restarts=pick("restarts", int, defaults.restarts),
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records, aggregate = run_experiment(cfg, jobs=args.jobs)
    write_trials_csv(out_dir / "trials.csv", records)
    write_aggregate_csv(out_dir / "aggregate.csv", aggregate)
    print(f"wrote {out_dir / 'trials.csv'} and {out_dir / 'aggregate.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
