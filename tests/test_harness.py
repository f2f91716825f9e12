"""Harness: channel statistics, determinism, CSV contracts, CLI round trip."""

import concurrent.futures
import dataclasses
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from difprec import cli, harness, linalg
from difprec.cli import load_config_file, main, parse_snr_spec
from difprec.designer import design_dif_generalk, rho_of_channel
from difprec.rates import ChannelMatrix
from difprec.harness import (
    AGGREGATE_HEADER,
    TRIALS_HEADER,
    ExperimentConfig,
    draw_channel,
    gap_curve,
    run_experiment,
    run_trials,
    trial_rng,
    write_aggregate_csv,
    write_trials_csv,
)


def strip_wall_column(text: str) -> str:
    """Timing is wall-clock and inherently run-dependent; everything else is not."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def record_rows(res):
    """(scheme, snr_db, trial, rho, sum rate, gap, wall_ms) of each record, in
    the C order of the [scheme, snr, trial] arrays."""
    trials, rho = res.trials.tolist(), res.rho.tolist()
    return [
        (scheme, snr_db, t, r, rate, gap, wall)
        for i, scheme in enumerate(res.schemes)
        for j, snr_db in enumerate(res.snr_db)
        for t, r, rate, gap, wall in zip(
            trials, rho, res.sum_rate[i, j].tolist(), res.gap[i, j].tolist(), res.wall_ms[i].tolist()
        )
    ]


def test_draw_channel_moments():
    samples = []
    for t in range(30000):
        samples.append(draw_channel(trial_rng(123, t), 2, 2))
    entries = np.concatenate([s.ravel() for s in samples])
    assert abs(np.mean(entries)) <= 0.01
    assert abs(np.mean(np.abs(entries) ** 2) - 1.0) <= 0.02


def test_draw_channel_deterministic():
    a = draw_channel(trial_rng(7, 3), 2, 4)
    b = draw_channel(trial_rng(7, 3), 2, 4)
    assert np.array_equal(a, b)
    c = draw_channel(trial_rng(7, 4), 2, 4)
    assert not np.array_equal(a, c)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(k=3, m=2)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db=())
    with pytest.raises(ValueError):
        ExperimentConfig(schemes=("dif", "qam"))
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(restarts=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(schemes=())
    with pytest.raises(ValueError):
        ExperimentConfig(schemes=("zf", "zf"))
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db=(10.0, 10.0))
    # distinct values that print alike would give duplicate CSV rows
    with pytest.raises(ValueError):
        ExperimentConfig(snr_db=(10.0, 10.0000000000001))
    for scheme in ("dif", "rdif", "dif_real"):
        with pytest.raises(ValueError, match="at least two users"):
            ExperimentConfig(k=1, schemes=(scheme, "dpc"))
    # dB values whose linear SNR is not finite and positive
    for snr_db in (math.nan, math.inf, 4000.0, -4000.0):
        with pytest.raises(ValueError):
            ExperimentConfig(snr_db=(10.0, snr_db))


def test_dpc_only_run_has_zero_gaps():
    cfg = ExperimentConfig(snr_db=(0.0, 10.0), trials=5, schemes=("dpc",), seed=3)
    res, aggregate = run_experiment(cfg)
    assert res.gap.shape == (1, 2, 5) and (res.gap == 0.0).all()
    assert all(row[3] == 0.0 for row in aggregate)


def test_records_respect_capacity_and_pairing():
    cfg = ExperimentConfig(
        snr_db=(5.0, 15.0), trials=6, schemes=("dif", "rdif", "zf", "rzf", "zfdp", "dpc"), seed=9
    )
    res, _ = run_experiment(cfg)
    dpc = res.sum_rate[res.schemes.index("dpc")]
    assert (0.0 <= res.sum_rate).all() and (res.sum_rate <= dpc + 1e-6).all()
    assert (res.gap >= -1e-6).all()
    # paired sampling: every scheme and SNR of a trial sees its one channel,
    # whose correlation is the trial's rho
    for t, rho in zip(res.trials.tolist(), res.rho.tolist()):
        h = draw_channel(trial_rng(cfg.seed, t), cfg.k, cfg.m)
        assert rho == rho_of_channel(ChannelMatrix(h, 1.0))


def test_infeasible_scheme_reports_nan_and_continues(capsys):
    cfg = ExperimentConfig(k=3, m=3, snr_db=(10.0,), trials=2, schemes=("dif_real", "dpc"), seed=1)
    res, _ = run_experiment(cfg)
    assert res.schemes == ("dif_real", "dpc") and res.sum_rate.shape == (2, 1, 2)
    assert np.isnan(res.sum_rate[0]).all() and np.isfinite(res.sum_rate[1]).all()


def test_singular_channel_reports_nan_and_continues(monkeypatch, capsys):
    """Rows 1e-7 apart, at an angle of 4e-8, make the channel's plain factor singular."""
    rows = np.array([[1.0, 0.5j], [1.0 + 1e-7, 0.5j]])
    monkeypatch.setattr(harness, "draw_channel", lambda rng, k, m: rows)
    cfg = ExperimentConfig(snr_db=(10.0, 30.0), trials=2, schemes=("dif", "rdif", "dpc"), seed=1)
    res, aggregate = run_experiment(cfg)
    assert res.schemes == ("dif", "dpc", "rdif") and res.sum_rate.shape == (3, 2, 2)
    assert np.isnan(res.sum_rate[0]).all() and np.isfinite(res.sum_rate[1:]).all()
    assert len(aggregate) == 3 * 2
    assert "warning: dif" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_warning_line_per_scheme_and_reason(monkeypatch, capfd, jobs):
    """The parent prints one line per (scheme, reason) with its record count."""
    rows = np.array([[1.0, 0.5j], [1.0 + 1e-7, 0.5j]])
    monkeypatch.setattr(harness, "draw_channel", lambda rng, k, m: rows)
    cfg = ExperimentConfig(snr_db=(0.0, 10.0, 20.0), trials=2, schemes=("dif", "zf", "rdif"), seed=1)
    run_experiment(cfg, jobs=jobs)
    lines = capfd.readouterr().err.splitlines()
    assert lines == [
        f"warning: {scheme} infeasible for K=2 in 6 records: matrix is singular to working precision"
        for scheme in ("dif", "zf")
    ]


def test_dpc_rows_are_charged_the_capacity_time(monkeypatch):
    """The capacity of all (trial, SNR) points of a chunk is one batch; its
    time is split over the chunk's dpc rows."""
    capacities = harness.dpc_capacities

    def slow_capacities(ch):
        time.sleep(0.005)
        return capacities(ch)

    monkeypatch.setattr(harness, "dpc_capacities", slow_capacities)
    cfg = ExperimentConfig(snr_db=(0.0, 10.0, 20.0), trials=2, schemes=("zf", "dpc"), seed=5)
    res, _ = run_experiment(cfg)
    dpc_rows = [r for r in record_rows(res) if r[0] == "dpc"]
    assert len(dpc_rows) == 6 and sum(r[6] for r in dpc_rows) >= 5.0


def _count_gram_and_factor(monkeypatch, cfg, trials=(0,)):
    """Calls of linalg.gram, and the distinct channel factors built."""
    calls, factors = {"gram": 0}, []
    gram, factor = linalg.gram, ChannelMatrix.factor

    def counted_gram(m):
        calls["gram"] += 1
        return gram(m)

    def counted_factor(self, regularized=False):
        f = factor(self, regularized)
        factors.extend([] if any(f is g for g in factors) else [f])
        return f

    monkeypatch.setattr(linalg, "gram", counted_gram)
    monkeypatch.setattr(ChannelMatrix, "factor", counted_factor)
    harness.run_trials(cfg, trials)
    return {**calls, "factor": len(factors)}


def test_one_snr_point_builds_the_gram_once(monkeypatch):
    """All seven schemes at one (trial, SNR) share the channel's G and both factors."""
    cfg = ExperimentConfig(snr_db=(10.0,), trials=1, schemes=harness.ALL_SCHEMES, seed=3)
    calls = _count_gram_and_factor(monkeypatch, cfg)
    assert calls["gram"] == 1 and calls["factor"] <= 2


def test_one_trial_builds_the_gram_once_for_all_snr_points(monkeypatch):
    """One G, one plain factor and one stacked factor for the regularized Ms of
    all 21 SNR points (the per-point engine made 21 Grams and 42 inverses)."""
    cfg = ExperimentConfig(trials=1, schemes=harness.ALL_SCHEMES, seed=3)
    assert len(cfg.snr_db) == 21
    calls = _count_gram_and_factor(monkeypatch, cfg)
    assert calls["gram"] == 1 and calls["factor"] <= 2


def test_one_chunk_builds_the_gram_once_for_all_trials(monkeypatch):
    """A worker's chunk of trials is one stack of channels: one G, one plain
    factor and one stacked regularized factor (per-trial stacks made 50 and 100)."""
    cfg = ExperimentConfig(trials=50, schemes=harness.ALL_SCHEMES, seed=3)
    assert harness.BLOCK_TRIALS >= cfg.trials
    calls = _count_gram_and_factor(monkeypatch, cfg, range(cfg.trials))
    assert calls["gram"] == 1 and calls["factor"] <= 2


def test_general_k_chunk_builds_the_gram_once(monkeypatch):
    """The K = 3 searches read B and H B off the chunk's shared factors, as zf
    and rzf do: one plain factor and one stacked regularized factor for the
    whole chunk, and no G, which only the two-user formulas read (a
    ChannelMatrix per (trial, SNR) point made one G and one M per point and
    scheme)."""
    cfg = ExperimentConfig(
        k=3, m=3, snr_db=(10.0, 25.0), trials=3, schemes=("dif", "rdif", "zf", "rzf", "dpc"),
        restarts=1, seed=6,
    )
    calls = _count_gram_and_factor(monkeypatch, cfg, range(cfg.trials))
    assert calls["gram"] == 0 and calls["factor"] <= 2


def test_two_user_output_does_not_depend_on_the_chunking(tmp_path, monkeypatch):
    """Blocks of 3 trials put block boundaries inside the chunks of --jobs 1
    and 2; the scientific columns of both CSVs do not change with the jobs,
    and every record is bit for bit that of its trial's batch-of-one run."""
    monkeypatch.setattr(harness, "BLOCK_TRIALS", 3)
    cfg = ExperimentConfig(snr_db=(-10.0, 7.5, 40.0, 0.0), trials=20, schemes=harness.ALL_SCHEMES, seed=8)
    texts = []
    for jobs in (1, 2, 7):
        res, aggregate = run_experiment(cfg, jobs=jobs)
        tp, ap = tmp_path / f"t{jobs}.csv", tmp_path / f"a{jobs}.csv"
        write_trials_csv(tp, res)
        write_aggregate_csv(ap, aggregate)
        texts.append((strip_wall_column(tp.read_text()), ap.read_text()))
    assert texts[0] == texts[1] == texts[2]
    for t in range(cfg.trials):
        solo = run_trials(cfg, [t])
        assert solo.rho[0] == res.rho[t]
        np.testing.assert_array_equal(solo.sum_rate[..., 0], res.sum_rate[..., t], strict=True)
        np.testing.assert_array_equal(solo.gap[..., 0], res.gap[..., t], strict=True)


def test_two_user_records_do_not_depend_on_the_snr_grid():
    """Every scheme's record at an SNR run alone is bit for bit that SNR's
    column in a run of the same trials over several SNRs, and that of its
    (trial, SNR) point run alone: stacks of 300, 60 and 1 points."""
    cfg = ExperimentConfig(
        snr_db=(-10.0, -2.5, 7.5, 22.5, 40.0), trials=60, schemes=harness.ALL_SCHEMES, seed=9
    )
    trials = list(range(cfg.trials))
    res = run_trials(cfg, trials)
    for j, snr_db in enumerate(res.snr_db):
        one_snr = dataclasses.replace(cfg, snr_db=(snr_db,))
        solo = run_trials(one_snr, trials)
        np.testing.assert_array_equal(solo.rho, res.rho, strict=True)
        np.testing.assert_array_equal(solo.sum_rate[:, 0], res.sum_rate[:, j], strict=True)
        np.testing.assert_array_equal(solo.gap[:, 0], res.gap[:, j], strict=True)
        point = run_trials(one_snr, [7 * j])
        np.testing.assert_array_equal(point.sum_rate[:, 0, 0], res.sum_rate[:, j, 7 * j], strict=True)


def reference_write_trials_csv(path, rows) -> None:
    """The per-record f-string writer that write_trials_csv replaced, on the
    (scheme, snr_db, trial, rho, sum rate, gap, wall_ms) rows of record_rows."""
    lines = [TRIALS_HEADER]
    for scheme, snr_db, trial, rho, rate, gap, wall in rows:
        lines.append(f"{scheme},{snr_db:.12g},{trial},{rho:.12g},{rate:.12g},{gap:.12g},{wall:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")


def test_trials_csv_matches_the_per_record_writer(tmp_path):
    special = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 3.0, -2.0, 0.1, 2.0 / 3.0]
    rng = np.random.default_rng(4)
    grid = lambda: rng.permutation(special * 3)[:24].reshape(2, 3, 4)  # noqa: E731
    synthetic = harness.Results(
        schemes=("dif", "zf"),
        snr_db=(-10.0, 0.0, 12.5),
        trials=np.array([5, 6, 7, 8]),
        rho=np.array([0.0, -0.0, 0.999999999, 1e-300]),
        sum_rate=grid(),
        gap=grid(),
        wall_ms=np.array([[0.25, 1.0, math.inf, 1e-300], [3.0, 3.0, 2.0 / 3.0, 0.0]]),
    )
    k3 = ExperimentConfig(k=3, m=3, snr_db=(10.0, 0.0), trials=3, schemes=("zf", "dpc", "dif_real"))
    for name, results in (("synthetic", synthetic), ("k3", run_experiment(k3)[0])):
        new, old = tmp_path / f"{name}_new.csv", tmp_path / f"{name}_old.csv"
        write_trials_csv(new, results)
        reference_write_trials_csv(old, record_rows(results))
        assert new.read_bytes() == old.read_bytes()
    fields = set((tmp_path / "synthetic_new.csv").read_text().replace("\n", ",").split(","))
    assert {"nan", "inf", "-inf", "-0", "1e-300", "1e+300", "3", "0.666666666667"} <= fields


def test_trials_csv_is_streamed(tmp_path):
    """Writing the records of a 600-trial, 21-SNR, 7-scheme run peaks below a
    quarter of the size of the file it writes (Python and numpy allocations)."""
    rng = np.random.default_rng(5)
    shape = (len(harness.ALL_SCHEMES), 21, 600)
    results = harness.Results(
        schemes=tuple(sorted(harness.ALL_SCHEMES)),
        snr_db=tuple(np.arange(-10.0, 40.0 + 1e-9, 2.5).tolist()),
        trials=np.arange(shape[2]),
        rho=rng.random(shape[2]),
        sum_rate=20.0 * rng.random(shape),
        gap=rng.random(shape),
        wall_ms=1e-3 * rng.random(shape[::2]),
    )
    path = tmp_path / "trials.csv"
    tracemalloc.start()
    try:
        write_trials_csv(path, results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path.read_text().splitlines()) == 1 + results.sum_rate.size
    assert peak < path.stat().st_size / 4


def test_csv_headers_and_determinism(tmp_path):
    cfg = ExperimentConfig(
        snr_db=(0.0, 20.0), trials=8, schemes=("dif", "rdif", "zf", "dpc"), seed=77
    )
    paths = []
    for run, jobs in enumerate((1, 2, 1)):
        res, aggregate = run_experiment(cfg, jobs=jobs)
        tp, ap = tmp_path / f"t{run}.csv", tmp_path / f"a{run}.csv"
        write_trials_csv(tp, res)
        write_aggregate_csv(ap, aggregate)
        paths.append((tp, ap))
    t_texts = [p[0].read_text() for p in paths]
    a_texts = [p[1].read_text() for p in paths]
    assert t_texts[0].splitlines()[0] == TRIALS_HEADER
    assert a_texts[0].splitlines()[0] == AGGREGATE_HEADER
    assert strip_wall_column(t_texts[0]) == strip_wall_column(t_texts[1]) == strip_wall_column(t_texts[2])
    assert a_texts[0] == a_texts[1] == a_texts[2]


def test_scheme_order_does_not_change_output(tmp_path):
    base = dict(snr_db=(10.0,), trials=4, seed=21)
    cfg_a = ExperimentConfig(schemes=("dif", "zf", "dpc"), **base)
    cfg_b = ExperimentConfig(schemes=("dpc", "dif", "zf"), **base)
    out = []
    for run, cfg in enumerate((cfg_a, cfg_b)):
        res, aggregate = run_experiment(cfg)
        tp = tmp_path / f"o{run}.csv"
        write_trials_csv(tp, res)
        out.append(strip_wall_column(tp.read_text()))
    assert out[0] == out[1]


def test_general_k_path_and_rectangular_channels():
    cfg = ExperimentConfig(
        k=3, m=4, snr_db=(20.0,), trials=2, schemes=("dif", "rdif", "zf", "dpc"), restarts=2, seed=2
    )
    res, _ = run_experiment(cfg)
    assert np.isnan(res.rho).all()  # rho is a two-user statistic
    dpc = res.sum_rate[res.schemes.index("dpc")]
    assert (0.0 <= res.sum_rate).all() and (res.sum_rate <= dpc + 1e-6).all()


def test_general_k_output_does_not_depend_on_the_chunking(tmp_path, monkeypatch):
    """Each worker searches its chunk of trials one block at a time; with the
    default blocks and with blocks of 2 trials (a boundary inside the chunk of
    --jobs 1), the scientific columns are those of --jobs 1, and every
    searched record is the sum rate of a batch-of-one design of its trial."""
    cfg = ExperimentConfig(
        k=3, m=3, snr_db=(10.0, 25.0), trials=4, schemes=("dif", "rdif", "zf"), restarts=2, seed=6
    )
    texts, runs = [], []
    for block_trials in (harness.BLOCK_TRIALS, 2):
        monkeypatch.setattr(harness, "BLOCK_TRIALS", block_trials)
        for jobs in (1, 2):
            res, aggregate = run_experiment(cfg, jobs=jobs)
            tp, ap = tmp_path / f"t{jobs}.csv", tmp_path / f"a{jobs}.csv"
            write_trials_csv(tp, res)
            write_aggregate_csv(ap, aggregate)
            texts.append((strip_wall_column(tp.read_text()), ap.read_text()))
            runs.append(res)
    assert texts[0] == texts[1] == texts[2] == texts[3]
    snr = 10.0 ** (np.array(res.snr_db) / 10.0)  # as run_trials computes it
    for scheme in ("dif", "rdif"):
        i = res.schemes.index(scheme)
        for j in range(len(snr)):
            for t in range(cfg.trials):
                h = draw_channel(trial_rng(cfg.seed, t), cfg.k, cfg.m)
                design = design_dif_generalk(
                    ChannelMatrix(h, snr[j]),
                    scheme == "rdif",
                    restarts=cfg.restarts,
                    seed=harness._design_seed(cfg.seed, t),
                )
                assert all(design.rates.sum_rate == run.sum_rate[i, j, t] for run in runs)


@pytest.mark.parametrize("scheme", ["dif", "rdif"])
def test_singular_channel_spares_the_rest_of_its_chunk(monkeypatch, capfd, scheme):
    """Trial 1 of a K = 3 chunk gets two equal rows: its plain M is singular
    and its regularized B = H^H M rank deficient.  Only its records are NaN."""
    cfg = ExperimentConfig(k=3, m=3, snr_db=(10.0, 30.0), trials=3, schemes=(scheme,), restarts=1, seed=2)
    clean = run_experiment(cfg)[0].sum_rate
    h1 = draw_channel(trial_rng(cfg.seed, 1), 3, 3)
    singular = np.vstack([h1[:2], h1[:1]])
    monkeypatch.setattr(harness, "trial_rng", lambda seed, trial: (seed, trial))
    monkeypatch.setattr(
        harness,
        "draw_channel",
        lambda key, k, m: singular if key[1] == 1 else draw_channel(trial_rng(*key), k, m),
    )
    capfd.readouterr()
    rates = run_experiment(cfg)[0].sum_rate
    assert np.isnan(rates[..., 1]).all()
    assert np.array_equal(rates[..., [0, 2]], clean[..., [0, 2]])
    assert capfd.readouterr().err.splitlines() == [
        f"warning: {scheme} infeasible for K=3 in 2 records: matrix is singular to working precision"
    ]


def test_gap_curve_samples():
    curve = gap_curve(2001)
    assert curve.shape == (2001, 2)
    assert curve[0, 0] == 0.0 and curve[0, 1] == 0.0
    peak_idx = int(np.argmax(curve[:, 1]))
    assert abs(curve[peak_idx, 0] - (math.sqrt(2) - 1)) < 1e-3
    assert abs(curve[peak_idx, 1] - math.log2((1 + math.sqrt(2)) / 2)) < 1e-3
    real_curve = gap_curve(501, real_constraint=True)
    assert np.all(real_curve[:, 1] >= gap_curve(501)[:, 1] - 1e-12)
    with pytest.raises(ValueError):
        gap_curve(1)
    with pytest.raises(ValueError, match="grid points"):
        gap_curve(10**6 + 1)


def test_parse_snr_spec():
    assert parse_snr_spec("0,5,10") == (0.0, 5.0, 10.0)
    assert parse_snr_spec("-10:2.5:-5") == (-10.0, -7.5, -5.0)
    assert parse_snr_spec("0:2.5:5") == (0.0, 2.5, 5.0)
    with pytest.raises(ValueError):
        parse_snr_spec("0:1")
    with pytest.raises(ValueError):
        parse_snr_spec("5:0:10")


def test_config_file_and_cli_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = 2\ntrials = 3\nsnr-db = 0,10\nseed = 5\nschemes = zf,dpc\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg_file), "--trials", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "trials.csv").read_text().splitlines()
    assert lines[0] == TRIALS_HEADER
    assert len(lines) == 1 + 2 * 2 * 2  # schemes x snrs x trials
    assert (out / "aggregate.csv").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    """A key that names no flag, such as a typo or `config` itself, is an
    error (exit 2) instead of being dropped."""
    for i, line in enumerate(("trails = 3", "config = other.cfg")):
        cfg_file = tmp_path / f"bad{i}.cfg"
        cfg_file.write_text(f"trials = 1\n{line}\n")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / f"out{i}")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split()[0] in err


def test_config_file_sets_jobs_and_flag_wins(tmp_path, monkeypatch):
    seen = []

    def fake_run_experiment(cfg, jobs):
        seen.append(jobs)
        return run_experiment(cfg)

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("trials = 1\njobs = 2\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    assert main(["--config", str(cfg_file), "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert seen == [2, 1]


def test_cli_gap_curve_and_errors(tmp_path, monkeypatch, capsys):
    out = tmp_path / "gc"
    rc = main(["--gap-curve", "64", "--out", str(out)])
    assert rc == 0
    lines = (out / "gap_curve.csv").read_text().splitlines()
    assert lines[0] == "rho,gap_complex_bits,gap_real_bits"
    assert len(lines) == 65
    assert main(["--k", "3", "--m", "2", "--out", str(tmp_path / "bad")]) == 2
    assert main(["--snr-db", "5:0:10", "--out", str(tmp_path / "bad2")]) == 2
    assert main(["--seed", "-1", "--out", str(tmp_path / "bad3")]) == 2
    assert main(["--restarts", "-1", "--out", str(tmp_path / "bad4")]) == 2
    assert main(["--jobs", "0", "--out", str(tmp_path / "bad5")]) == 2
    assert main(["--schemes", "", "--out", str(tmp_path / "bad6")]) == 2
    assert main(["--schemes", "zf,zf", "--out", str(tmp_path / "bad7")]) == 2
    assert main(["--snr-db", "10,10", "--out", str(tmp_path / "bad8")]) == 2
    assert main(["--snr-db", "10,10.0000000000001", "--out", str(tmp_path / "bad9")]) == 2
    for i, spec in enumerate(("nan", "inf", "4000", "-4000")):
        assert main([f"--snr-db={spec}", "--out", str(tmp_path / f"bad_snr{i}")]) == 2
    # an oversized curve is refused before any array is built, and leaves no --out
    assert main(["--gap-curve", "1000000000000", "--out", str(tmp_path / "bad_curve")]) == 2
    assert "error: gap curve needs" in capsys.readouterr().err
    assert not (tmp_path / "bad_curve").exists()
    # so are an oversized run's trials and restarts; should the check not fire, no run starts
    def refuse(cfg, jobs):
        raise AssertionError("an oversized run started")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    too_many = {"trials": "1000000000000", "restarts": str(harness.MAX_RESTARTS + 1)}
    for name, value in too_many.items():
        assert main(["--k", "4", f"--{name}", value, "--out", str(tmp_path / f"big_{name}")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / f"big_{name}").exists()
    ExperimentConfig(trials=harness.MAX_POINTS, restarts=harness.MAX_RESTARTS)  # the bounds are inclusive


def test_cli_single_user(tmp_path, capsys):
    """K = 1 with the default schemes is a configuration error (exit 2, no
    traceback); without the search-based schemes it runs, and its capacity
    is log2(1 + snr ||h||^2)."""
    args = ["--k", "1", "--m", "2", "--trials", "1", "--snr-db", "10"]
    assert main(args + ["--out", str(tmp_path / "bad")]) == 2
    assert "at least two users" in capsys.readouterr().err
    out = tmp_path / "k1"
    args = ["--k", "1", "--m", "2", "--trials", "2", "--snr-db", "0,10", "--seed", "4"]
    assert main(args + ["--schemes", "zf,rzf,zfdp,dpc", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "trials.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4 * 2 * 2
    for scheme, snr_db, trial, _, rate, gap, _ in rows:
        h = draw_channel(trial_rng(4, int(trial)), 1, 2)
        capacity = math.log2(1.0 + 10.0 ** (float(snr_db) / 10.0) * np.sum(np.abs(h) ** 2))
        assert abs(float(rate) + float(gap) - capacity) <= 1e-10  # 12 printed digits
        if scheme == "dpc":
            assert float(gap) == 0.0


def test_one_trial_chunk_matches_run_experiment():
    cfg = ExperimentConfig(snr_db=(10.0,), trials=3, schemes=("dif", "dpc"), seed=11)
    res, _ = run_experiment(cfg)
    solo = run_trials(cfg, [1])
    assert solo.sum_rate.shape == (2, 1, 1)
    assert np.array_equal(solo.sum_rate[..., 0], res.sum_rate[..., 1])


def test_worker_pool_is_bounded_by_the_cpu_count(monkeypatch):
    """One chunk per job, but no more worker processes than CPUs.  The
    stand-in executor maps in this process, so the test starts none."""
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    cfg = ExperimentConfig(snr_db=(0.0, 10.0), trials=5, schemes=("dif", "zf", "dpc"), seed=2)
    alone, aggregate = run_experiment(cfg)
    for jobs in (2, 5, 500):
        res, rows = run_experiment(cfg, jobs=jobs)
        assert np.array_equal(res.sum_rate, alone.sum_rate) and rows == aggregate
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    run_experiment(cfg, jobs=2)
    assert seen == [2, 3, 3, 1]


def test_cli_singular_dpc_point_is_a_nan_record(tmp_path, capsys):
    """At 300 dB one of these K = 4 channels makes the capacity's Z singular in
    floating point: its dpc record is NaN with one warning line, and the run
    exits 0 instead of aborting."""
    args = ["--k", "4", "--m", "8", "--trials", "20", "--snr-db", "300"]
    assert main(args + ["--schemes", "zf,dpc", "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(lines) == 1 and lines[0].startswith("warning: dpc infeasible")


@pytest.mark.parametrize("spec", ["0:0.5:1e9", "0:1:1e18"])
def test_snr_range_too_long_to_build_exits_2(tmp_path, monkeypatch, capsys, spec):
    """A range of 2e9 or 1e18 values is refused before any array is built,
    from the flag and from a config file."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.arange called")

    monkeypatch.setattr(np, "arange", refuse)
    assert main([f"--snr-db={spec}", "--out", str(tmp_path / "flag")]) == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"snr-db = {spec}\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "file")]) == 2
    assert capsys.readouterr().err.count(f"more than {cli.MAX_SNR_POINTS} SNR values") == 2


def test_snr_range_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "MAX_SNR_POINTS", 3)
    assert parse_snr_spec("0:1:2") == (0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="more than 3 SNR values"):
        parse_snr_spec("0:1:3")


def test_jobs_above_the_trial_count_split_one_chunk_per_trial(monkeypatch):
    """--jobs beyond the trial count asks array_split for no more sections
    than trials, so a huge value builds no huge list of empty chunks."""
    sections = []
    real_split = np.array_split

    def spy(array, n):
        sections.append(n)
        assert n <= len(array), "more sections than trials"
        return real_split(array, n)

    monkeypatch.setattr(harness.np, "array_split", spy)
    cfg = ExperimentConfig(snr_db=(10.0,), trials=1, schemes=("zf", "dpc"), seed=3)
    res, rows = run_experiment(cfg, jobs=10**9)
    alone, aggregate = run_experiment(cfg)
    assert sections == [1, 1]
    assert np.array_equal(res.sum_rate, alone.sum_rate) and rows == aggregate


def test_cli_defaults_trials_and_m_by_k(tmp_path, monkeypatch):
    """--trials defaults to 1000 at K = 2 and to 200 at every other K, K = 1
    included; --m defaults to K."""
    class Captured(Exception):
        pass

    seen = []

    def capture(cfg, jobs):
        seen.append(cfg)
        raise Captured  # stop before any trial runs

    monkeypatch.setattr(cli, "run_experiment", capture)
    for k in (1, 2, 3):
        with pytest.raises(Captured):
            main(["--k", str(k), "--schemes", "zf,dpc", "--out", str(tmp_path)])
    assert [(cfg.k, cfg.m, cfg.trials) for cfg in seen] == [(1, 1, 200), (2, 2, 1000), (3, 3, 200)]


def test_config_file_booleans_are_checked_as_the_flag(tmp_path, capsys):
    """real_integers takes yes or no in a file; any other value is an error
    (exit 2), not a silent no."""
    schemes = {}
    for value in ("no", "yes", "maybe"):
        cfg_file = tmp_path / f"{value}.cfg"
        cfg_file.write_text(f"trials = 1\nsnr-db = 10\nreal_integers = {value}\n")
        out = tmp_path / value
        if value == "maybe":
            with pytest.raises(SystemExit) as stop:
                main(["--config", str(cfg_file), "--out", str(out)])
            assert stop.value.code == 2 and "--real-integers" in capsys.readouterr().err
            continue
        assert main(["--config", str(cfg_file), "--out", str(out)]) == 0
        schemes[value] = {line.split(",")[0] for line in (out / "trials.csv").read_text().splitlines()[1:]}
    assert "dif_real" not in schemes["no"] and schemes["yes"] == schemes["no"] | {"dif_real"}


def test_config_defaults_m_and_trials_by_k():
    """ExperimentConfig's own defaults: m = k, and 1000 trials at k = 2, else 200."""
    assert [(cfg.k, cfg.m, cfg.trials) for cfg in (ExperimentConfig(), ExperimentConfig(k=3))] == [
        (2, 2, 1000),
        (3, 3, 200),
    ]
    given = ExperimentConfig(k=3, m=4, trials=7)
    assert (given.m, given.trials) == (4, 7)


def test_refused_run_leaves_no_out_directory(tmp_path, capsys):
    """Settings and a gap-curve resolution are checked before --out is made."""
    for argv, message in (
        (["--k", "3", "--m", "2"], "need 1 <= k <= m"),
        (["--gap-curve", "1"], "error:"),
    ):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_badly_typed_value_exits_2_from_a_file_and_a_flag(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = two\n")
    for argv in (["--config", str(cfg_file)], ["--k", "two"]):
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--out", str(tmp_path)])
        assert stop.value.code == 2


def test_config_file_run_equals_the_same_flags(tmp_path):
    settings = {"k": "2", "m": "3", "snr-db": "-5:5:10", "trials": "3", "seed": "7",
                "schemes": "dif,rzf,zfdp,dpc", "restarts": "2", "jobs": "1"}
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "file")]) == 0
    flags = [f"--{key}={value}" for key, value in settings.items()]
    assert main(flags + ["--out", str(tmp_path / "flags")]) == 0
    for name, strip in (("trials.csv", strip_wall_column), ("aggregate.csv", str)):
        texts = [strip((tmp_path / run / name).read_text()) for run in ("file", "flags")]
        assert texts[0] == texts[1]
