"""Command-line front end for the Monte-Carlo harness.

SNR values are given in dB (converted to linear power ratios internally);
everything else mirrors the library defaults.  A config file's `key = value`
lines are read as `--key=value` flags placed before the command line's own,
so each value is checked as its flag is and explicit flags win; a key that
names no flag, or names --config, is an error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ALL_SCHEMES,
    MAX_POINTS as MAX_SNR_POINTS,  # values a range spec may give
    ExperimentConfig,
    gap_curve,
    run_experiment,
    write_aggregate_csv,
    write_trials_csv,
)


def parse_snr_spec(spec: str) -> tuple[float, ...]:
    """Parse '0,5,10' or 'start:step:stop' (stop inclusive, counted before it is built) into dB values."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("range spec must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError("range spec needs step > 0 and stop >= start")
        if not (stop - start) / step < MAX_SNR_POINTS:
            raise ValueError(f"range spec gives more than {MAX_SNR_POINTS} SNR values")
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


def _yes_no(value: str) -> bool:
    for answer, words in ((True, ("1", "true", "yes")), (False, ("0", "false", "no"))):
        if value.lower() in words:
            return answer
    raise argparse.ArgumentTypeError(f"expected yes/no, true/false or 1/0, got {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difprec",
        description="Integer-forcing precoding Monte-Carlo harness (rates in bits/use, SNR in dB).",
    )
    parser.add_argument("--config", help="config file with key = value lines (flags win)")
    parser.add_argument("--k", type=int, help="number of single-antenna users (default 2)")
    parser.add_argument("--m", type=int, help="transmit antennas (default k)")
    parser.add_argument("--snr-db", help="comma list '0,5,10' or range 'start:step:stop'")
    parser.add_argument("--trials", type=int, help="channel realizations (default 1000 at k = 2, else 200)")
    parser.add_argument("--seed", type=int, help="master seed (default 1)")
    parser.add_argument("--schemes", help=f"comma subset of {','.join(ALL_SCHEMES)}")
    parser.add_argument("--restarts", type=int, help="random restarts for the k > 2 search (default 8)")
    parser.add_argument("--out", default=".", help="output directory (default .)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument(
        "--gap-curve",
        type=int,
        metavar="RESOLUTION",
        help="write gap_curve.csv with the high-SNR gap on a RESOLUTION-point rho grid and exit",
    )
    parser.add_argument(
        "--real-integers",
        type=_yes_no,
        nargs="?",
        const=True,
        default=False,
        metavar="yes|no",
        help="also run the real-integer-constrained two-user variant (scheme dif_real)",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)

    try:
        file_values = load_config_file(args.config) if args.config else {}
        unknown = [key for key in file_values if key == "config" or key not in vars(args)]
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        file_flags = [f"--{key.replace('_', '-')}={value}" for key, value in file_values.items()]
        args = parser.parse_args(file_flags + argv)  # a later flag wins

        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        out_dir = Path(args.out)

        if args.gap_curve is not None:
            complex_curve = gap_curve(args.gap_curve, real_constraint=False)
            real_curve = gap_curve(args.gap_curve, real_constraint=True)
            out_dir.mkdir(parents=True, exist_ok=True)
            lines = ["rho,gap_complex_bits,gap_real_bits"]
            for (rho, gc), (_, gr) in zip(complex_curve, real_curve):
                lines.append(f"{rho:.12g},{gc:.12g},{gr:.12g}")
            (out_dir / "gap_curve.csv").write_text("\n".join(lines) + "\n")
            print(f"wrote {out_dir / 'gap_curve.csv'}")
            return 0

        given = ("k", "m", "trials", "seed", "restarts")
        settings = {name: getattr(args, name) for name in given if getattr(args, name) is not None}
        if args.snr_db is not None:
            settings["snr_db"] = parse_snr_spec(args.snr_db)
        if args.schemes is not None:
            settings["schemes"] = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        elif args.real_integers and settings.get("k", ExperimentConfig.k) == 2:
            settings["schemes"] = ExperimentConfig.schemes + ("dif_real",)
        cfg = ExperimentConfig(**settings)
        out_dir.mkdir(parents=True, exist_ok=True)
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
