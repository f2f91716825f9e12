"""One set-up measurement, run in a fresh process by run.py.

Times, from the first line of this script, importing difprec (numpy
included), building the workload's seeded inputs and producing its first
result, then prints the seconds.  The first result is a one-trial CLI call
for the CLI workloads (K = 4 without the search, plus one LLL reduction, since
one search design alone takes seconds) and the first channel's call for
k2-link.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SKIP_STALLS

SKIP_STALLS (0 or 1) is whether the k2-sweep CLI seed skips channels that
stall ZF water-filling, as the run itself decided (workloads.sweep).
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import env  # noqa: E402

difprec = env.import_difprec()

import workloads  # noqa: E402


def first_result(name: str, seed: int, skip_stalls: bool) -> None:
    out_dir = env.OUT / f"probe-{name}"
    if name == "k2-sweep":
        wl = workloads.sweep(seed, out_dir, trials=1, skip_stalls=skip_stalls)
    elif name == "k4-search":
        wl = workloads.search(seed, out_dir, trials=1)
        wl.argv[wl.argv.index("rdif,zf,rzf")] = "zf,rzf"
        h = workloads.checks.draw_channel(workloads.SEARCH_SEED, 0, 4, 4)
        difprec.clll_reduce(h.conj().T)
    else:
        wl = workloads.LinkWorkload(seed, n=1)
        h, snr, _, _ = wl.inputs[0]
        workloads.link_call(h, snr, wl.messages[0])
        return
    if wl.run_round().failed:
        sys.exit(f"setup probe: first {name} round failed")


if __name__ == "__main__":
    first_result(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
    print(time.perf_counter() - _START)
