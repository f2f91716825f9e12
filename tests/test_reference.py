"""Reference outputs: four CLI runs rerun and compared, value by value, with
the files under tests/reference/.

The two-user run keeps the records of its first TRIALS_KEPT trials and its
whole aggregate.csv; the three-, four- and six-user searches keep
everything (at K = 6 the lattice reduction's index loop runs deepest).
Every scientific value (rho, sum rate, gap and the aggregate means and
standard errors) must lie within TOL_BITS of its reference, and a NaN must
stay NaN; wall_ms is measured time and is not compared.

TOL_BITS is set by measurement.  Scaling the inverse Gram matrix by
1 + 2^-52, a last-bit change, moved two-user records by at most 1.0e-10 bits
(the 12 printed digits of a value near 30 bits) and aggregates by 1e-13.
Doubling SEARCH_TOL, one change of design, moved search records by up to
1.0e-2 bits and every changed aggregate by at least 6e-5.  The search itself
is not stable under rounding: the same last-bit change moved a K = 3 rdif
record by 3.9e-2 bits, so any change of the search's arithmetic regenerates
its files (run this module as a script) and reports the moves.
"""

import csv
import math
import sys
from pathlib import Path

import pytest

from difprec import cli

TOL_BITS = 1e-9
TRIALS_KEPT = 20
REFERENCE = Path(__file__).parent / "reference"

RUNS = {
    "k2": ["--k", "2", "--m", "2", "--snr-db=-10:2.5:40", "--trials", "1000", "--seed", "1", "--real-integers"],
    "k4": ["--k", "4", "--m", "4", "--snr-db", "30", "--trials", "4", "--seed", "1"],
    "k3": ["--k", "3", "--m", "3", "--snr-db=-10,0,10,20", "--trials", "4", "--seed", "2", "--restarts", "3"],
    "k6": ["--k", "6", "--m", "6", "--snr-db=10,30", "--trials", "2", "--seed", "3", "--restarts", "2"],
}


def run(name: str, out: Path) -> None:
    """One reference run into out, its trials.csv cut to the kept trials."""
    assert cli.main([*RUNS[name], "--out", str(out)]) == 0
    trials = out / "trials.csv"
    lines = trials.read_text().splitlines(keepends=True)
    trials.write_text("".join(lines[:1] + [x for x in lines[1:] if int(x.split(",")[2]) < TRIALS_KEPT]))


def records(path: Path, keys: int, values: int) -> dict:
    """Rows of a CSV as {key columns: value columns as floats}."""
    with path.open() as f:
        rows = list(csv.reader(f))[1:]
    return {tuple(r[:keys]): [float(x) for x in r[keys : keys + values]] for r in rows}


@pytest.mark.parametrize("name", RUNS)
def test_reference_run_is_reproduced(name, tmp_path):
    run(name, tmp_path)
    for file, keys in (("trials.csv", 3), ("aggregate.csv", 2)):
        got, want = records(tmp_path / file, keys, 3), records(REFERENCE / name / file, keys, 3)
        assert got.keys() == want.keys(), file
        for key, expected in want.items():
            for x, y in zip(got[key], expected):
                assert math.isnan(x) == math.isnan(y) and not abs(x - y) > TOL_BITS, (file, key, x, y)


if __name__ == "__main__":  # regenerate: python tests/test_reference.py [run ...]
    for name in sys.argv[1:] or RUNS:
        run(name, REFERENCE / name)
