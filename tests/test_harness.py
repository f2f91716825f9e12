"""Harness: channel statistics, determinism, CSV contracts, CLI round trip."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from difprec import cli, harness, linalg
from difprec.cli import load_config_file, main, parse_snr_spec
from difprec.designer import design_dif_generalk
from difprec.rates import ChannelMatrix
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
    """The capacity of all (trial, SNR) points of a chunk is one batch; its
    time is split over the chunk's dpc rows."""
    capacities = harness.dpc_capacities

    def slow_capacities(ch):
        time.sleep(0.005)
        return capacities(ch)

    monkeypatch.setattr(harness, "dpc_capacities", slow_capacities)
    cfg = ExperimentConfig(snr_db=(0.0, 10.0, 20.0), trials=2, schemes=("zf", "dpc"), seed=5)
    records, _ = run_experiment(cfg)
    dpc_rows = [r for r in records if r.scheme == "dpc"]
    assert len(dpc_rows) == 6 and sum(r.wall_ms for r in dpc_rows) >= 5.0


def _count_gram_and_inverse(monkeypatch, cfg, trials=(0,)):
    calls = {"gram": 0, "inverse": 0}

    def counted(name):
        fn = getattr(linalg, name)

        def wrapper(m):
            calls[name] += 1
            return fn(m)

        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name))
    harness.run_trials(cfg, trials)
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


def test_one_chunk_builds_the_gram_once_for_all_trials(monkeypatch):
    """A worker's chunk of trials is one stack of channels: one G, one plain M
    and one stacked regularized M (per-trial stacks made 50 and 100)."""
    cfg = ExperimentConfig(trials=50, schemes=harness.ALL_SCHEMES, seed=3)
    assert harness.BLOCK_TRIALS >= cfg.trials
    calls = _count_gram_and_inverse(monkeypatch, cfg, range(cfg.trials))
    assert calls["gram"] == 1 and calls["inverse"] <= 2


def test_two_user_output_does_not_depend_on_the_chunking(tmp_path, monkeypatch):
    """Blocks of 3 trials put block boundaries inside the chunks of --jobs 1
    and 2; the scientific columns of both CSVs do not change with the jobs,
    and every record is bit for bit that of its trial's batch-of-one run."""
    monkeypatch.setattr(harness, "BLOCK_TRIALS", 3)
    cfg = ExperimentConfig(snr_db=(-10.0, 7.5, 40.0, 0.0), trials=20, schemes=harness.ALL_SCHEMES, seed=8)
    texts = []
    for jobs in (1, 2, 7):
        records, aggregate = run_experiment(cfg, jobs=jobs)
        tp, ap = tmp_path / f"t{jobs}.csv", tmp_path / f"a{jobs}.csv"
        write_trials_csv(tp, records)
        write_aggregate_csv(ap, aggregate)
        texts.append((strip_wall_column(tp.read_text()), ap.read_text()))
    assert texts[0] == texts[1] == texts[2]
    key = lambda r: (r.scheme, r.snr_db, r.trial, r.rho, r.sum_rate_bits, r.gap_bits)  # noqa: E731
    solo = sorted(key(r) for t in range(cfg.trials) for r in run_trial(cfg, t))
    assert [key(r) for r in records] == solo


def reference_write_trials_csv(path, records) -> None:
    """The per-record f-string writer that write_trials_csv replaced."""
    lines = [TRIALS_HEADER]
    for r in records:
        lines.append(
            f"{r.scheme},{r.snr_db:.12g},{r.trial},{r.rho:.12g},"
            f"{r.sum_rate_bits:.12g},{r.gap_bits:.12g},{r.wall_ms:.12g}"
        )
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
        reference_write_trials_csv(old, list(results))
        assert new.read_bytes() == old.read_bytes()
    fields = set((tmp_path / "synthetic_new.csv").read_text().replace("\n", ",").split(","))
    assert {"nan", "inf", "-inf", "-0", "1e-300", "1e+300", "3", "0.666666666667"} <= fields


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


def test_general_k_output_does_not_depend_on_the_chunking(tmp_path):
    """Each worker designs its chunk of trials in one search; the scientific
    columns are those of --jobs 1, and every searched record is the sum rate
    of a batch-of-one design of its trial."""
    cfg = ExperimentConfig(
        k=3, m=3, snr_db=(10.0, 25.0), trials=4, schemes=("dif", "rdif", "zf"), restarts=2, seed=6
    )
    texts = []
    for jobs in (1, 2):
        records, aggregate = run_experiment(cfg, jobs=jobs)
        tp, ap = tmp_path / f"t{jobs}.csv", tmp_path / f"a{jobs}.csv"
        write_trials_csv(tp, records)
        write_aggregate_csv(ap, aggregate)
        texts.append((strip_wall_column(tp.read_text()), ap.read_text()))
    assert texts[0] == texts[1]
    snr = 10.0 ** (np.array(cfg.snr_db) / 10.0)
    for r in records:
        if r.scheme in ("dif", "rdif"):
            h = draw_channel(trial_rng(cfg.seed, r.trial), cfg.k, cfg.m)
            design = design_dif_generalk(
                ChannelMatrix(h, snr[cfg.snr_db.index(r.snr_db)]),
                r.scheme == "rdif",
                restarts=cfg.restarts,
                seed=harness._design_seed(cfg.seed, r.trial),
            )
            assert design.rates.sum_rate == r.sum_rate_bits


@pytest.mark.parametrize("scheme", ["dif", "rdif"])
def test_singular_channel_spares_the_rest_of_its_chunk(monkeypatch, capfd, scheme):
    """Trial 1 of a K = 3 chunk gets two equal rows: its plain M is singular
    and its regularized B = H^H M rank deficient.  Only its records are NaN."""
    cfg = ExperimentConfig(k=3, m=3, snr_db=(10.0, 30.0), trials=3, schemes=(scheme,), restarts=1, seed=2)
    clean, _ = run_experiment(cfg)
    h1 = draw_channel(trial_rng(cfg.seed, 1), 3, 3)
    singular = np.vstack([h1[:2], h1[:1]])
    monkeypatch.setattr(harness, "trial_rng", lambda seed, trial: (seed, trial))
    monkeypatch.setattr(
        harness,
        "draw_channel",
        lambda key, k, m: singular if key[1] == 1 else draw_channel(trial_rng(*key), k, m),
    )
    capfd.readouterr()
    records, _ = run_experiment(cfg)
    for r, c in zip(records, clean):
        if r.trial == 1:
            assert math.isnan(r.sum_rate_bits)
        else:
            assert r.sum_rate_bits == c.sum_rate_bits
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
    assert main(["--snr-db", "10,10.0000000000001", "--out", str(tmp_path / "bad9")]) == 2
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


def test_cli_singular_dpc_point_is_a_nan_record(tmp_path, capsys):
    """At 300 dB one of these K = 4 channels makes the capacity's Z singular in
    floating point: its dpc record is NaN with one warning line, and the run
    exits 0 instead of aborting."""
    args = ["--k", "4", "--m", "8", "--trials", "20", "--snr-db", "300"]
    assert main(args + ["--schemes", "zf,dpc", "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(lines) == 1 and lines[0].startswith("warning: dpc infeasible")
