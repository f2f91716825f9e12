"""Harness: channel statistics, determinism, CSV contracts, CLI round trip."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from difprec import harness, linalg
from difprec.cli import load_config_file, main, parse_snr_spec
from difprec.harness import (
    AGGREGATE_HEADER,
    TRIALS_HEADER,
    ExperimentConfig,
    draw_channel,
    gap_curve,
    run_experiment,
    run_trial,
    trial_rng,
    write_aggregate_csv,
    write_trials_csv,
)


def strip_wall_column(text: str) -> str:
    """Timing is wall-clock and inherently run-dependent; everything else is not."""
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


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
    for scheme in ("dif", "rdif", "dif_real"):
        with pytest.raises(ValueError, match="at least two users"):
            ExperimentConfig(k=1, schemes=(scheme, "dpc"))
    # dB values whose linear SNR is not finite and positive
    for snr_db in (math.nan, math.inf, 4000.0, -4000.0):
        with pytest.raises(ValueError):
            ExperimentConfig(snr_db=(10.0, snr_db))


def test_dpc_only_run_has_zero_gaps():
    cfg = ExperimentConfig(snr_db=(0.0, 10.0), trials=5, schemes=("dpc",), seed=3)
    records, aggregate = run_experiment(cfg)
    assert all(r.gap_bits == 0.0 for r in records)
    assert all(row[3] == 0.0 for row in aggregate)


def test_records_respect_capacity_and_pairing():
    cfg = ExperimentConfig(
        snr_db=(5.0, 15.0), trials=6, schemes=("dif", "rdif", "zf", "rzf", "zfdp", "dpc"), seed=9
    )
    records, _ = run_experiment(cfg)
    dpc = {
        (r.snr_db, r.trial): r.sum_rate_bits for r in records if r.scheme == "dpc"
    }
    for r in records:
        assert 0.0 <= r.sum_rate_bits <= dpc[(r.snr_db, r.trial)] + 1e-6
        assert r.gap_bits >= -1e-6
    # paired sampling: rho is a per-trial channel statistic, equal across schemes/SNRs
    by_trial = {}
    for r in records:
        by_trial.setdefault(r.trial, set()).add(r.rho)
    assert all(len(v) == 1 for v in by_trial.values())


def test_infeasible_scheme_reports_nan_and_continues(capsys):
    cfg = ExperimentConfig(k=3, m=3, snr_db=(10.0,), trials=2, schemes=("dif_real", "dpc"), seed=1)
    records, _ = run_experiment(cfg)
    real_rows = [r for r in records if r.scheme == "dif_real"]
    assert len(real_rows) == 2 and all(math.isnan(r.sum_rate_bits) for r in real_rows)
    dpc_rows = [r for r in records if r.scheme == "dpc"]
    assert len(dpc_rows) == 2 and all(np.isfinite(r.sum_rate_bits) for r in dpc_rows)


def test_singular_channel_reports_nan_and_continues(monkeypatch, capsys):
    """Rows 1e-7 apart make the plain inverse Gram singular to working precision."""
    rows = np.array([[1.0, 0.5j], [1.0 + 1e-7, 0.5j]])
    monkeypatch.setattr(harness, "draw_channel", lambda rng, k, m: rows)
    cfg = ExperimentConfig(snr_db=(10.0, 30.0), trials=2, schemes=("dif", "rdif", "dpc"), seed=1)
    records, aggregate = run_experiment(cfg)
    dif_rows = [r for r in records if r.scheme == "dif"]
    assert len(dif_rows) == 4 and all(math.isnan(r.sum_rate_bits) for r in dif_rows)
    assert all(np.isfinite(r.sum_rate_bits) for r in records if r.scheme != "dif")
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
    """The capacity of all SNR points of a trial is one batch; its time is
    split over that trial's dpc rows."""
    capacities = harness.dpc_capacities

    def slow_capacities(ch):
        time.sleep(0.005)
        return capacities(ch)

    monkeypatch.setattr(harness, "dpc_capacities", slow_capacities)
    cfg = ExperimentConfig(snr_db=(0.0, 10.0, 20.0), trials=2, schemes=("zf", "dpc"), seed=5)
    records, _ = run_experiment(cfg)
    for trial in range(2):
        dpc_rows = [r for r in records if r.scheme == "dpc" and r.trial == trial]
        assert len(dpc_rows) == 3 and sum(r.wall_ms for r in dpc_rows) >= 5.0


def _count_gram_and_inverse(monkeypatch, cfg):
    calls = {"gram": 0, "inverse": 0}

    def counted(name):
        fn = getattr(linalg, name)

        def wrapper(m):
            calls[name] += 1
            return fn(m)

        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    run_trial(cfg, 0)
    return calls


def test_one_snr_point_builds_the_gram_once(monkeypatch):
    """All seven schemes at one (trial, SNR) share the channel's G and both Ms."""
    cfg = ExperimentConfig(snr_db=(10.0,), trials=1, schemes=harness.ALL_SCHEMES, seed=3)
    calls = _count_gram_and_inverse(monkeypatch, cfg)
    assert calls["gram"] == 1 and calls["inverse"] <= 2


def test_one_trial_builds_the_gram_once_for_all_snr_points(monkeypatch):
    """One G, one plain M and one stacked inverse for the regularized Ms of all
    21 SNR points (the per-point engine made 21 Grams and 42 inverses)."""
    cfg = ExperimentConfig(trials=1, schemes=harness.ALL_SCHEMES, seed=3)
    assert len(cfg.snr_db) == 21
    calls = _count_gram_and_inverse(monkeypatch, cfg)
    assert calls["gram"] == 1 and calls["inverse"] <= 2


def test_csv_headers_and_determinism(tmp_path):
    cfg = ExperimentConfig(
        snr_db=(0.0, 20.0), trials=8, schemes=("dif", "rdif", "zf", "dpc"), seed=77
    )
    paths = []
    for run, jobs in enumerate((1, 2, 1)):
        records, aggregate = run_experiment(cfg, jobs=jobs)
        tp, ap = tmp_path / f"t{run}.csv", tmp_path / f"a{run}.csv"
        write_trials_csv(tp, records)
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
        records, aggregate = run_experiment(cfg)
        tp = tmp_path / f"o{run}.csv"
        write_trials_csv(tp, records)
        out.append(strip_wall_column(tp.read_text()))
    assert out[0] == out[1]


def test_general_k_path_and_rectangular_channels():
    cfg = ExperimentConfig(
        k=3, m=4, snr_db=(20.0,), trials=2, schemes=("dif", "rdif", "zf", "dpc"), restarts=2, seed=2
    )
    records, _ = run_experiment(cfg)
    dpc = {r.trial: r.sum_rate_bits for r in records if r.scheme == "dpc"}
    for r in records:
        assert math.isnan(r.rho)  # rho is a two-user statistic
        assert 0.0 <= r.sum_rate_bits <= dpc[r.trial] + 1e-6


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


def test_cli_gap_curve_and_errors(tmp_path):
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
    for i, spec in enumerate(("nan", "inf", "4000", "-4000")):
        assert main([f"--snr-db={spec}", "--out", str(tmp_path / f"bad_snr{i}")]) == 2


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


def test_run_trial_matches_run_experiment():
    cfg = ExperimentConfig(snr_db=(10.0,), trials=3, schemes=("dif", "dpc"), seed=11)
    records, _ = run_experiment(cfg)
    solo = run_trial(cfg, 1)
    by_key = {(r.scheme, r.snr_db): r for r in solo}
    for r in records:
        if r.trial == 1:
            assert by_key[(r.scheme, r.snr_db)].sum_rate_bits == r.sum_rate_bits
