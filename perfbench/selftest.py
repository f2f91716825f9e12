"""Self-test of the benchmark's own checks, at toy size (a few seconds).

Runs each workload once on tiny inputs, requires the checks to pass on the
real outputs, then corrupts those outputs one way at a time (a gap shifted by
1e-6 bits, a message symbol flipped, a record dropped, ...) and requires the
checks to reject every corrupted copy.  It also requires BENCHMARK.json to
name exactly the workloads and metrics (with units) run.py prints.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

import env

env.import_difprec()

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from difprec import baselines  # noqa: E402
from tracing import Tracer  # noqa: E402


def edit_field(text: str, line_no: int, field: int, delta: float) -> str:
    lines = text.splitlines()
    parts = lines[line_no].split(",")
    parts[field] = repr(float(parts[field]) + delta)
    lines[line_no] = ",".join(parts)
    return "\n".join(lines) + "\n"


def drop_line(text: str, line_no: int) -> str:
    lines = text.splitlines()
    del lines[line_no]
    return "\n".join(lines) + "\n"


def find_line(text: str, prefix: str) -> int:
    return next(i for i, line in enumerate(text.splitlines()) if line.startswith(prefix))


def shift_capacity(text: str, trial: int, delta: float) -> str:
    """Move one (SNR, trial) capacity by delta and every gap with it, so the
    schemes still agree with each other and only a recomputation can tell."""
    lines = text.splitlines()
    first_snr = None
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if int(parts[2]) != trial or parts[1] != (first_snr or parts[1]):
            continue
        first_snr = parts[1]
        field = 4 if parts[0] == "dpc" else 5
        parts[field] = repr(float(parts[field]) + delta)
        lines[i] = ",".join(parts)
    return "\n".join(lines) + "\n"


def cli_cases(outputs):
    """(corrupted (trials.csv, aggregate.csv), a phrase the rejection must contain);
    trials.csv field 3 = rho, 4 = rate, 5 = gap."""
    trials, aggregate = outputs
    rdif = find_line(trials, "rdif,")
    zf = find_line(trials, "zf,")
    k2 = "dpc," in trials
    cases = {
        "rdif gap shifted by 1e-6": ((edit_field(trials, rdif, 5, 1e-6), aggregate), "disagree on the capacity"),
        "zf rate and gap shifted together by 1e-6": (
            (edit_field(edit_field(trials, zf, 4, 1e-6), zf, 5, -1e-6), aggregate),
            "zf rate at",
        ),
        "capacity and every gap shifted by 1e-6": (
            (shift_capacity(trials, 0, 1e-6), aggregate),
            "dpc rate at" if k2 else "outside SPIW",
        ),
        "record dropped": ((drop_line(trials, rdif), aggregate), "record grid"),
        "aggregate mean gap shifted by 1e-6": ((trials, edit_field(aggregate, 1, 3, 1e-6)), "aggregate mean gap"),
    }
    if k2:
        cases["rho shifted by 1e-6"] = ((edit_field(trials, rdif, 3, 1e-6), aggregate), "rho of rdif")
    return cases


def link_cases(results):
    def corrupt(fn):
        copied = copy.deepcopy(results)
        fn(copied)
        return copied

    def flip_symbol(r):
        re, im = r[3].recovered[1]
        re = re.copy()
        re[0, 5] = (re[0, 5] + 1) % workloads.LINK_P
        r[3].recovered[1] = (re, im)

    def shift(attr):
        def fn(r):
            setattr(r[4], attr, getattr(r[4], attr) + 1e-6)

        return fn

    return {
        "message symbol flipped": (corrupt(flip_symbol), "not recovered"),
        "gap shifted by 1e-6 (capacity)": (corrupt(shift("capacity")), "capacity"),
        "gap shifted by 1e-6 (sum rate)": (corrupt(shift("sum_rate")), "sum rate"),
        "result dropped": (corrupt(lambda r: r.pop(2)), "results for"),
        "beamformer power off by 1e-6": (corrupt(lambda r: setattr(r[0], "t", r[0].t * (1 + 5e-7))), "||T||_F^2"),
        "coefficient matrix not unimodular": (
            corrupt(lambda r: setattr(r[1], "a_re", r[1].a_re * 2)),
            "not unimodular",
        ),
    }


def main() -> int:
    bad = []

    def expect(label: str, fails: list[str], should_fail: bool, phrase: str = "") -> None:
        """Require rejection (with a message containing phrase) or acceptance."""
        hits = [f for f in fails if phrase in f]
        ok = bool(hits) if should_fail else not fails
        verdict = "rejected" if fails else "accepted"
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {verdict}" + (f" ({(hits or fails)[0]})" if fails else ""))
        if not ok:
            bad.append(label)

    out = env.OUT / "selftest"
    for wl in (workloads.sweep(7, out / "k2-sweep", trials=3), workloads.search(7, out / "k4-search", trials=1)):
        rnd = wl.run_round()
        expect(f"{wl.name} clean outputs", wl.check(rnd.outputs), should_fail=False)
        same = wl.digest(wl.run_round().outputs) == wl.digest(rnd.outputs)
        expect(f"{wl.name} second round identical", [] if same else ["digest differs"], False)
        for label, (corrupted, phrase) in cli_cases(wl.read(rnd.outputs)).items():
            expect(f"{wl.name} {label}", wl.check_texts(corrupted), True, phrase)

    link = workloads.LinkWorkload(7, n=20)
    rnd = link.run_round()
    expect("k2-link clean outputs", link.check(rnd.outputs), should_fail=False)
    for label, (corrupted, phrase) in link_cases(rnd.outputs).items():
        expect(f"k2-link {label}", link.check(corrupted), True, phrase)

    # The ZF stall probe must pass once water-filling ends and is right, and
    # fail when it ends with powers moved between the users; the library's own
    # _waterfill is put back afterwards, whatever it does.
    original = baselines._waterfill

    def closed_form(inv_gains, budget, tol=None, moved=0.0):
        p = np.maximum(checks.water_level(inv_gains, budget) - inv_gains, 0.0)
        return p + np.array([moved, -moved])

    try:
        baselines._waterfill = closed_form
        expect("ZF stall probe, water-filling fixed", ["failed"] if workloads.zf_stalls() else [], False)
        baselines._waterfill = lambda g, b, tol=None: closed_form(g, b, moved=1e-6)
        expect("ZF stall probe, wrong powers", ["failed"] if workloads.zf_stalls() else [], True)
    finally:
        baselines._waterfill = original

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": sorted((m["name"], m["unit"]) for m in spec["end_to_end"]),
        "per_layer": sorted((m["name"], m["unit"]) for m in spec["per_layer"]),
    }
    printed = {
        "workloads": list(run.WORKLOADS),
        "end_to_end": sorted(run.END_TO_END.items()),
        "per_layer": sorted((name, unit) for name, (_, unit) in run.layer_metrics(Tracer(), 1, 0.0, 0.0).items()),
    }
    for key in declared:
        diff = set(declared[key]) ^ set(printed[key])
        expect(f"BENCHMARK.json {key} match run.py", [f"differ: {sorted(diff)}"] if diff else [], False)

    print(f"selftest: {'ok' if not bad else f'{len(bad)} failed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
