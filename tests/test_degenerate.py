"""Degenerate channels: an all-zero channel and one with a zero row, for
K = 2 and K = 3, through the scalar designers, the stacks and the harness.
Every call is free of RuntimeWarnings (the suite makes them errors)."""

import math

import numpy as np
import pytest

from difprec import harness
from difprec.baselines import design_rzf, design_zf, rzf_stack, zf_stack, zfdp_rates
from difprec.designer import (
    design_dif_2user,
    design_dif_generalk,
    dif_2user_stack,
    dif_generalk_stack,
    rho_of_channel,
)
from difprec.harness import ExperimentConfig, draw_channel, run_experiment, trial_rng
from difprec.linalg import SingularMatrixError
from difprec.rates import ChannelMatrix, dpc_capacities

SNR = 10.0


def degenerate(kind: str, k: int) -> np.ndarray:
    """The all-zero K x K channel, or a random one whose second row is zero."""
    if kind == "zero":
        return np.zeros((k, k), dtype=complex)
    h = draw_channel(np.random.default_rng(k), k, k)
    h[1] = 0
    return h


def scalar_designers(k: int) -> dict:
    designers = {"zf": design_zf, "rzf": design_rzf, "zfdp": zfdp_rates}
    if k == 2:
        designers.update(
            dif=design_dif_2user,
            rdif=lambda h: design_dif_2user(h, regularized=True),
            dif_real=lambda h: design_dif_2user(h, real_constraint=True),
        )
    designers["dif_search"] = lambda h: design_dif_generalk(h, restarts=1)
    designers["rdif_search"] = lambda h: design_dif_generalk(h, regularized=True, restarts=1)
    return designers


def feasible(kind: str, k: int) -> set:
    """The designs that exist: a zero row leaves RZF and, for K = 2, the
    closed-form RDIF a design, and the K = 2 regularized search falls back on
    the latter; everything else needs a regular G, or a full-rank H^H M."""
    if kind == "zero":
        return {"zfdp"}
    return {"zfdp", "rzf"} | ({"rdif", "rdif_search"} if k == 2 else set())


@pytest.mark.parametrize("kind", ["zero", "row"])
@pytest.mark.parametrize("k", [2, 3])
def test_scalar_designers_raise_singular_or_give_zero_rates(kind, k):
    """A scalar designer raises SingularMatrixError where its stack leaves the
    point NaN; the designs that exist give the zero row's user rate 0."""
    h = ChannelMatrix(degenerate(kind, k), SNR)
    for name, design in scalar_designers(k).items():
        if name in feasible(kind, k):
            report = design(h)
            rates = getattr(report, "rates", report).per_user
            assert np.isfinite(rates).all() and (rates >= 0).all(), name
            assert rates[1] == 0.0, name
            assert (rates == 0).all() == (kind == "zero"), name
        else:
            with pytest.raises(SingularMatrixError):
                design(h)
    if k == 2:
        for regularized in (False, True):
            rho = rho_of_channel(h, regularized)
            assert 0.0 <= rho < 1.0
        assert rho_of_channel(h) == 0.0


@pytest.mark.parametrize("kind", ["zero", "row"])
@pytest.mark.parametrize("k", [2, 3])
def test_stacks_leave_degenerate_points_nan_and_spare_the_rest(kind, k):
    """In a stack of a random channel and a degenerate one over three SNRs,
    the degenerate point's rates are NaN where no design exists, and the
    random channel's records have the bits they have alone."""
    rng = np.random.default_rng(20 + k)
    good = draw_channel(rng, k, k)
    snr = np.array([0.1, SNR, 1e3])
    both, alone = ChannelMatrix(np.stack([good, degenerate(kind, k)]), snr), ChannelMatrix(good[None], snr)
    stacks = {
        "zf": lambda ch: zf_stack(ch).rates.per_user,
        "rzf": lambda ch: rzf_stack(ch).rates.per_user,
        "zfdp": lambda ch: zfdp_rates(ch).per_user,
        "dpc": lambda ch: dpc_capacities(ch)[..., None],
    }
    if k == 2:
        stacks.update(
            dif=lambda ch: dif_2user_stack(ch).rates.per_user,
            rdif=lambda ch: dif_2user_stack(ch, regularized=True).rates.per_user,
        )
    stacks["dif_search"] = lambda ch: dif_generalk_stack(ch, [1] * len(ch.h), restarts=1).rates.per_user
    stacks["rdif_search"] = lambda ch: dif_generalk_stack(ch, [1] * len(ch.h), True, restarts=1).rates.per_user
    for name, rates_of in stacks.items():
        rates = rates_of(both)
        assert np.array_equal(rates[:1], rates_of(alone)), name
        if name in feasible(kind, k) | {"dpc"}:
            assert np.isfinite(rates[1]).all() and (rates[1] >= 0).all(), name
            if kind == "zero":
                assert (rates[1] == 0).all(), name
        else:
            assert np.isnan(rates[1]).all(), name


@pytest.mark.parametrize("kind", ["zero", "row"])
@pytest.mark.parametrize("k", [2, 3])
def test_a_degenerate_trial_is_recorded_and_spares_the_run(monkeypatch, kind, k):
    """Trial 1 of a run draws the degenerate channel: the run finishes, its
    records are NaN where no design exists, and the other trials keep their bits."""
    schemes = harness.ALL_SCHEMES if k == 2 else ("dif", "rdif", "zf", "rzf", "zfdp", "dpc")
    cfg = ExperimentConfig(k=k, m=k, snr_db=(0.0, 20.0), trials=3, schemes=schemes, restarts=1, seed=3)
    clean = run_experiment(cfg)[0]
    monkeypatch.setattr(harness, "trial_rng", lambda seed, trial: (seed, trial))
    monkeypatch.setattr(
        harness,
        "draw_channel",
        lambda key, k, m: degenerate(kind, k) if key[1] == 1 else draw_channel(trial_rng(*key), k, m),
    )
    res = run_experiment(cfg)[0]
    assert np.array_equal(res.sum_rate[..., [0, 2]], clean.sum_rate[..., [0, 2]], equal_nan=True)
    designs = feasible(kind, k) | {"dpc"}
    for i, scheme in enumerate(res.schemes):
        assert np.isnan(res.sum_rate[i, :, 1]).all() != (scheme in designs), scheme
    if k == 2:
        assert res.rho[1] == 0.0
    assert math.isnan(res.rho[0]) == (k != 2)
