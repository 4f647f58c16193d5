"""Physics invariants of the curve engine, as properties over random sweeps.

The suite elsewhere pins points; these tests state how the answer must move.
A hotter bath entangles less and for a shorter time, and a stronger common
coupling the opposite; without coupling nothing is entangled, and the sign of
the squeeze cannot matter. Every sweep runs on one grid, t in [0, 60] with
dt = 0.01. Each assertion is non-strict: max E to 1e-12, and the grid
readings of the first and last entangled times within one grid step.
"""

from __future__ import annotations

import numpy as np
import pytest

from mesospin.experiments import (
    LIFETIME_THRESHOLD,
    ExperimentConfig,
    sweep_gamma,
    sweep_temperature,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

GRID = {"t_max": 60.0, "t_steps": 6001}
VALUES = 12
SQUEEZES = st.sampled_from([s * r for r in (0.1, 0.3, 1.0, 2.0, 4.0) for s in (1.0, -1.0)])
TEMPERATURE = st.floats(0.03, 0.6)
GAMMA = st.floats(0.0, 0.5)


@st.composite
def temperature_lists(draw):
    """12 sorted temperatures in [0.03, 0.6], each at least 1% above the one before."""
    low, span = np.log(0.03), np.log(0.6 / 0.03)
    gaps = draw(st.lists(st.floats(np.log(1.01), span / (VALUES - 1)), min_size=VALUES - 1,
                         max_size=VALUES - 1))
    start = draw(st.floats(0.0, 1.0)) * (span - sum(gaps))
    return tuple(np.exp(low + start + np.concatenate([[0.0], np.cumsum(gaps)])).tolist())


@st.composite
def gamma_lists(draw):
    """12 sorted couplings in [0, 0.5], each at least 0.005 above the one before."""
    gaps = draw(st.lists(st.floats(0.005, 0.5 / (VALUES - 1)), min_size=VALUES - 1,
                         max_size=VALUES - 1))
    start = draw(st.floats(0.0, 1.0)) * (0.5 - sum(gaps))
    # the running sum may round one ulp past gamma = 1/2, which is refused
    return tuple(np.minimum(start + np.concatenate([[0.0], np.cumsum(gaps)]), 0.5).tolist())


def _readings(sweep):
    """Per curve: max E, and the grid indices of the last and first entangled times.

    A curve never entangled has last index 0 and first index len(times): it
    is born after the grid ends.
    """
    times = sweep.curves[0].times
    peak = np.array([c.max_log_negativity for c in sweep.curves])
    last = np.searchsorted(times, [c.lifetime() for c in sweep.curves])
    alive = np.array([c.log_negativity > LIFETIME_THRESHOLD for c in sweep.curves])
    first = np.where(alive.any(axis=1), alive.argmax(axis=1), len(times))
    return peak, last, first


@settings(max_examples=40, deadline=None, derandomize=True)
@given(temperatures=temperature_lists(), gamma=GAMMA, squeeze_r=SQUEEZES)
def test_a_hotter_bath_entangles_less_later_and_shorter(temperatures, gamma, squeeze_r):
    config = ExperimentConfig(
        gamma=gamma, squeeze_r=squeeze_r, temperature_list=temperatures, **GRID
    )
    peak, last, first = _readings(sweep_temperature(config))
    assert np.all(np.diff(peak) <= 1e-12), peak
    assert np.all(np.diff(last) <= 1), last
    assert np.all(np.diff(first) >= -1), first


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gammas=gamma_lists(), temperature=TEMPERATURE, squeeze_r=SQUEEZES)
def test_a_stronger_coupling_entangles_more_sooner_and_longer(gammas, temperature, squeeze_r):
    config = ExperimentConfig(
        temperature=temperature, squeeze_r=squeeze_r, gamma_list=gammas, **GRID
    )
    sweep = sweep_gamma(config)
    peak, last, first = _readings(sweep)
    assert np.all(np.diff(peak) >= -1e-12), peak
    assert np.all(np.diff(last) >= -1), last
    assert np.all(np.diff(first) <= 1), first
    # the state reads r only through |r|, to the last bit
    flipped = sweep_gamma(ExperimentConfig(
        temperature=temperature, squeeze_r=-squeeze_r, gamma_list=gammas, **GRID
    ))
    for curve, mirror in zip(sweep.curves, flipped.curves):
        assert curve.nu_min.tobytes() == mirror.nu_min.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(temperatures=temperature_lists(), squeeze_r=SQUEEZES)
def test_no_coupling_no_entanglement(temperatures, squeeze_r):
    config = ExperimentConfig(
        gamma=0.0, squeeze_r=squeeze_r, temperature_list=temperatures, **GRID
    )
    for curve in sweep_temperature(config).curves:
        assert np.all(curve.log_negativity == 0.0)
