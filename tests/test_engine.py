"""The closed-form curve engine against the 8x8 reference and a 50-digit one."""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mesospin.experiments as experiments
from mesospin.errors import SPECTRAL_TOL, ConfigError, ContractViolation, NumericError
from mesospin.experiments import (
    SQUEEZE_R_MAX,
    ExperimentConfig,
    run_curve,
    sweep_gamma,
    sweep_temperature,
)
from mesospin.modes import initial_state, propagate
from mesospin.negativity import negativity, symplectic_eigenvalues
from mesospin.sites import ModelParams

pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("mesospin_mp_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


nu_min_reference = _load_reference().nu_min_reference


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    temperature=st.floats(0.05, 5.0),
    gamma=st.floats(0.0, 0.5),
    squeeze_r=st.floats(-SQUEEZE_R_MAX, SQUEEZE_R_MAX),
    t_max=st.floats(1e-6, 20.0),
)
def test_engine_matches_the_50_digit_reference(temperature, gamma, squeeze_r, t_max):
    config = ExperimentConfig(
        temperature=temperature, gamma=gamma, squeeze_r=squeeze_r, t_max=t_max, t_steps=3
    )
    curve = run_curve(config)
    for t, nu in zip(curve.times, curve.nu_min):
        want = float(nu_min_reference(1.0, temperature, gamma, squeeze_r, t))
        assert abs(nu - want) <= 1e-9 * want, (t, nu, want)


@pytest.mark.parametrize("temperature,gamma", [(0.1, 0.5), (0.5, 0.3)])
def test_reference_path_is_accurate_at_strong_squeezing(temperature, gamma):
    # The 8x8 reference against the 50-digit one at r = 6, where the
    # variances span e^{24}.
    params = ModelParams(1.0, temperature, gamma)
    times = np.linspace(0.0, 12.0, 25)
    got = negativity(propagate(initial_state(params, 6.0), params, times))
    for t, nu in zip(times, got.nu_min):
        want = float(nu_min_reference(1.0, temperature, gamma, 6.0, t))
        assert abs(nu - want) <= 1e-10 * want, (t, nu, want)


@pytest.mark.parametrize(
    "temperature,gamma,squeeze_r",
    [(0.1, 0.5, 1.0), (0.05, 0.37, 2.0), (0.5, 0.2, -0.7), (2.0, 0.5, 1.6), (0.3, 0.0, 2.0)],
)
def test_engine_matches_the_moment_matrix_path(temperature, gamma, squeeze_r):
    config = ExperimentConfig(
        temperature=temperature, gamma=gamma, squeeze_r=squeeze_r, t_max=12.0, t_steps=400
    )
    curve = run_curve(config)
    params = ModelParams(1.0, temperature, gamma)
    start = initial_state(params, squeeze_r)
    for k in (0, 1, 7, 50, 123, 250, 399):
        want = negativity(propagate(start, params, curve.times[k]))
        assert abs(curve.nu_min[k] - want.nu_min) <= 1e-12 * want.nu_min
        assert abs(curve.log_negativity[k] - want.log_negativity) <= 1e-12


def test_strong_squeeze_curve_is_returned_and_accurate():
    # The 8x8 reference path refuses this grid ("routes disagree") at
    # t = 0.05, where nu ~ 613: there its square-root route is 4.6e-9 off and
    # its Cholesky route 1.2e-11.
    config = ExperimentConfig(temperature=0.1, gamma=0.5, squeeze_r=8.0, t_steps=100)
    curve = run_curve(config)
    want = float(nu_min_reference(1.0, 0.1, 0.5, 8.0, curve.times[1]))
    assert abs(curve.nu_min[1] - want) <= 1e-12 * want


def _tamper_p_minus(monkeypatch, factor, from_index):
    """Scale P- (row sigma = -) by factor from grid index from_index on."""
    honest = experiments._normal_mode_variances

    def tampered(params, squeeze_r, times):
        x, p = honest(params, squeeze_r, times)
        p[..., 1, from_index:] *= factor
        return x, p

    monkeypatch.setattr(experiments, "_normal_mode_variances", tampered)


def test_mis_scaled_squeezed_variance_is_refused(monkeypatch):
    # Physical at every point (x p >= 1 still holds), but nu comes back 2.5%
    # wrong: only the exact start and the relaxation envelope can see it.
    _tamper_p_minus(monkeypatch, 1.05, 0)
    with pytest.raises(NumericError, match="leave the relaxation .* at t = 0.0:"):
        run_curve(ExperimentConfig(t_steps=20))


def test_broken_uncertainty_bound_names_the_first_bad_time(monkeypatch):
    config = ExperimentConfig(t_steps=20)
    times = np.linspace(0.0, config.t_max, config.t_steps)
    x, p = experiments._normal_mode_variances(ModelParams(1.0, 0.1, 0.5), 1.0, times)
    first_bad = 1 + int(np.argmax(0.9 * x[1, 1:] * p[1, 1:] < 1.0 - SPECTRAL_TOL))
    assert first_bad > 1  # the bound breaks later than the tamper begins
    _tamper_p_minus(monkeypatch, 0.9, 1)
    with pytest.raises(NumericError, match=f"x p >= 1 at t = {float(times[first_bad])!r}:"):
        run_curve(config)


@pytest.mark.parametrize(
    "tampers,check",
    [
        ({0.3: (1.05, 0)}, "leave the relaxation"),
        # The first failing value decides, whatever check the later one fails.
        ({0.3: (1.05, 0), 0.4: (0.9, 1)}, "leave the relaxation"),
        ({0.2: (0.9, 1), 0.3: (1.05, 0)}, "uncertainty bound"),
    ],
)
def test_a_sweep_raises_what_its_first_failing_value_raises(monkeypatch, tampers, check):
    honest = experiments._normal_mode_variances

    def tampered(params, squeeze_r, times):
        x, p = honest(params, squeeze_r, times)
        # params.gamma is a float for one curve and an array over a gamma sweep
        gamma = np.asarray(params.gamma)
        for value, (factor, from_index) in tampers.items():
            p[..., 1, from_index:] *= np.where(gamma == value, factor, 1.0)[..., None]
        return x, p

    monkeypatch.setattr(experiments, "_normal_mode_variances", tampered)
    config = ExperimentConfig(t_steps=20, gamma_list=(0.1, 0.2, 0.3, 0.4, 0.5))
    with pytest.raises(NumericError) as alone:
        run_curve(replace(config, gamma=min(tampers)))
    with pytest.raises(NumericError) as swept:
        sweep_gamma(config)
    assert check in str(alone.value)
    assert str(swept.value) == str(alone.value)


def test_curves_need_no_spectral_route(monkeypatch):
    # The engine shares no code with the 8x8 reference path.
    def refuse(*args):
        raise AssertionError("curves must not take the 8x8 reference route")

    for module in ("mesospin.modes", "mesospin.negativity", "mesospin.experiments"):
        for name in ("propagate", "min_symplectic_pt", "symplectic_eigenvalues"):
            monkeypatch.setattr(importlib.import_module(module), name, refuse, raising=False)
    config = ExperimentConfig(t_steps=2000)
    assert len(run_curve(config).nu_min) == 2000
    for sweep in (sweep_gamma, sweep_temperature):
        assert all(len(curve.nu_min) == 2000 for curve in sweep(config).curves)


def test_grid_checks_positivity_and_definiteness(monkeypatch):
    config = ExperimentConfig(t_max=1.0, t_steps=2)
    ones = np.ones((2, 2))
    for x, p, error, match in (
        (ones, np.array([[1.0, 0.0], [1.0, 0.0]]), ContractViolation, "t = 1.0"),
        # NaN fails the first check, not the envelope.
        (ones, np.full((2, 2), np.nan), ContractViolation, "nu_min must be positive"),
        # nu_min comes out positive, but the variances are negative.
        (-ones, -ones, NumericError, "uncertainty bound x p >= 1 at t = 0.0"),
    ):
        monkeypatch.setattr(experiments, "_normal_mode_variances", lambda *_, x=x, p=p: (x, p))
        with pytest.raises(error, match=match):
            run_curve(config)


def test_symplectic_eigenvalues_of_a_stack_match_one_by_one():
    rng = np.random.default_rng(3)
    stack = []
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        stack.append(a @ a.T + 4.0 * np.eye(4))
    stack = np.array(stack).reshape(5, 1, 4, 4)
    values = symplectic_eigenvalues(stack)
    assert values.shape == (5, 1, 2)
    for k in range(5):
        assert np.array_equal(values[k, 0], symplectic_eigenvalues(stack[k, 0]))


def test_normal_mode_variances_anchors():
    params = ModelParams(1.0, 0.2, 0.4)
    times = np.array([0.0, 1e3])
    x, p = experiments._normal_mode_variances(params, -1.5, times)
    # t = 0 is the squeezed start, late times the thermal fixed point 1/eta.
    assert np.allclose(x[:, 0], np.exp(3.0) / params.eta, rtol=1e-15, atol=0.0)
    assert np.allclose(p[:, 0], np.exp(-3.0) / params.eta, rtol=1e-15, atol=0.0)
    assert np.allclose(x[:, 1], 1.0 / params.eta, rtol=1e-15, atol=0.0)
    assert np.allclose(p[:, 1], 1.0 / params.eta, rtol=1e-15, atol=0.0)
    with pytest.raises(ContractViolation):
        experiments._normal_mode_variances(params, 1.0, np.array([-1.0]))


def test_accepted_squeeze_range():
    for r in (0.0, 8.0, SQUEEZE_R_MAX, -SQUEEZE_R_MAX):
        assert ExperimentConfig(squeeze_r=r).squeeze_r == r
    with pytest.raises(ConfigError, match="squeeze_r"):
        ExperimentConfig(squeeze_r=np.nextafter(SQUEEZE_R_MAX, np.inf))
