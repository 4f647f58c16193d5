"""Experiment configuration, curves, sweeps, and CSV determinism."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mesospin.errors import ConfigError, ContractViolation
from mesospin.experiments import (
    ExperimentConfig,
    NegativityCurve,
    curve_csv_text,
    format_float,
    run_curve,
    summary_csv_text,
    sweep_gamma,
    sweep_temperature,
    write_text,
)
from mesospin.sites import ModelParams


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.epsilon == 1.0
    assert cfg.temperature == 0.1
    assert cfg.gamma == 0.5
    assert cfg.squeeze_r == 1.0
    assert cfg.t_max == 5.0
    assert cfg.t_steps == 500
    assert cfg.gamma_list == (0.1, 0.2, 0.3, 0.4, 0.5)
    assert cfg.temperature_list == (0.1, 0.5, 1.0)


_SWEPT = {sweep_gamma: "gamma", sweep_temperature: "temperature"}


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"epsilon": -1.0}, "epsilon"),
        ({"temperature": 0.0}, "temperature"),
        ({"gamma": 0.7}, "gamma"),
        ({"gamma": float("nan")}, "gamma"),
        ({"t_max": 0.0}, "t_max"),
        ({"t_steps": 1}, "t_steps"),
        ({"t_steps": 2.5}, "t_steps"),
        # explicit ids keep each case's test name stable
        pytest.param({"gamma_list": ()}, "gamma_list", id="kwargs8-gamma_list"),
        pytest.param({"squeeze_r": float("inf")}, "squeeze_r", id="kwargs10-squeeze_r"),
        pytest.param({"squeeze_r": 400.0}, "squeeze_r", id="kwargs11-squeeze_r"),
    ],
)
def test_invalid_config_names_the_field(kwargs, field):
    if field in ("epsilon", "temperature", "gamma"):
        # A base value, finite or not, is checked alike by each command that reads it.
        cfg = ExperimentConfig.from_dict({**kwargs, "t_steps": 20})
        with pytest.raises(ConfigError) as excinfo:
            run_curve(cfg)
        for sweep, swept in _SWEPT.items():
            if field == swept:
                assert sweep(cfg).curves
            else:
                with pytest.raises(ConfigError) as refused:
                    sweep(cfg)
                assert str(refused.value) == str(excinfo.value)
    else:
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict(kwargs)
    assert field in str(excinfo.value)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        pytest.param(
            {"gamma_list": (0.1, 0.6)},
            "gamma must lie in [0, 0.5] for complete positivity, got 0.6",
            id="gamma-above-window",
        ),
        pytest.param(
            {"temperature_list": (0.5, -1.0)},
            "temperature must be positive, got -1.0; at zero temperature the thermal "
            "fluctuation structure contracts (eta -> 1) and the model is undefined",
            id="negative-temperature",
        ),
        pytest.param(
            {"gamma_list": (0.1, -0.1)},
            "gamma must lie in [0, 0.5] for complete positivity, got -0.1",
            id="gamma-below-window",
        ),
        pytest.param(
            {"temperature_list": (0.001,)},
            "tanh(epsilon*beta/2) = 1.0 must lie strictly in (0, 1); "
            "the temperature is too low for finite-precision thermal structure",
            id="eta-rounds-to-one",
        ),
        pytest.param(
            {"temperature_list": (float("inf"),)},
            "temperature must be finite, got inf",
            id="infinite-temperature",
        ),
        pytest.param(
            {"gamma_list": (0.1, 0.1000000000001)},
            "0.1 and 0.1000000000001 both print as 0.1 and would write the same curve file",
            id="gamma-values-print-alike",
        ),
        pytest.param(
            {"gamma_list": (0.2, 0.3, 0.2)},
            "0.2 and 0.2 both print as 0.2 and would write the same curve file",
            id="gamma-repeated",
        ),
        pytest.param(
            {"temperature_list": (0.5, 0.50000000000004)},
            "0.5 and 0.50000000000004 both print as 0.5 and would write the same curve file",
            id="temperatures-print-alike",
        ),
        # a bad value is refused as such, before any clash of the file names
        pytest.param(
            {"temperature_list": (-1, -1.0)},
            "temperature must be positive, got -1.0; at zero temperature the thermal "
            "fluctuation structure contracts (eta -> 1) and the model is undefined",
            id="bad-temperatures-print-alike",
        ),
        # -0.0 is stored as 0.0, so it names the same curve file as 0
        pytest.param(
            {"gamma_list": (0.0, -0.0)},
            "0.0 and 0.0 both print as 0 and would write the same curve file",
            id="gamma-signed-zero",
        ),
        # a list reports its first bad value, not the last or the first one
        pytest.param(
            {"gamma_list": (0.1, 0.6, 0.7)},
            "gamma must lie in [0, 0.5] for complete positivity, got 0.6",
            id="gamma-first-bad-value",
        ),
    ],
)
def test_only_the_sweep_that_reads_a_list_refuses_its_values(kwargs, message):
    cfg = ExperimentConfig.from_dict({**kwargs, "t_steps": 20})
    (name,) = kwargs
    reads, ignores = sweep_gamma, sweep_temperature
    if name == "temperature_list":
        reads, ignores = ignores, reads
    with pytest.raises(ConfigError) as excinfo:
        reads(cfg)
    assert str(excinfo.value) == f"{name}: {message}"
    # the curve and the other sweep never read the list
    assert len(run_curve(cfg).times) == 20
    assert ignores(cfg).curves


def test_unknown_field_is_rejected():
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig.from_dict({"couplings": [0.1]})
    assert "couplings" in str(excinfo.value)


def test_signed_zero_is_stored_as_zero():
    cfg = ExperimentConfig(gamma=-0.0, squeeze_r=-0.0, gamma_list=(-0.0, 0.1))
    for value in (cfg.gamma, cfg.squeeze_r, cfg.gamma_list[0]):
        assert value == 0.0 and np.copysign(1.0, value) == 1.0


def test_from_dict_coerces_integral_step_counts():
    cfg = ExperimentConfig.from_dict({"t_steps": 100.0, "gamma_list": [0.1, 0.5]})
    assert cfg.t_steps == 100
    assert cfg.gamma_list == (0.1, 0.5)


def test_curve_of_the_default_configuration():
    cfg = ExperimentConfig.from_dict({"t_steps": 120})
    curve = run_curve(cfg)
    assert len(curve.times) == 120
    assert curve.times[0] == 0.0
    assert curve.times[-1] == 5.0
    assert np.all(np.diff(curve.times) > 0)
    assert curve.log_negativity[0] == 0.0
    assert curve.max_log_negativity > 0.07
    assert curve.meta["gamma"] == 0.5


def test_zero_coupling_and_zero_squeeze_curves_stay_separable():
    quiet = run_curve(ExperimentConfig.from_dict({"gamma": 0.0, "t_steps": 60}))
    assert quiet.max_log_negativity == 0.0
    flat = run_curve(ExperimentConfig.from_dict({"squeeze_r": 0.0, "t_steps": 60}))
    assert flat.max_log_negativity == 0.0
    assert np.abs(flat.nu_min - flat.nu_min[0]).max() < 1e-12


def test_curve_validation():
    with pytest.raises(ContractViolation):
        NegativityCurve(
            times=np.array([0.0, 1.0, 1.0]),
            nu_min=np.ones(3),
            log_negativity=np.zeros(3),
            meta={},
        )


def test_lifetime_semantics():
    curve = NegativityCurve(
        times=np.array([0.0, 1.0, 2.0]),
        nu_min=np.array([1.0, 0.9, 1.0]),
        log_negativity=np.array([0.0, 1e-3, 1e-13]),
        meta={},
    )
    assert curve.lifetime() == 1.0
    dead = NegativityCurve(
        times=np.array([0.0, 1.0]),
        nu_min=np.array([1.1, 1.2]),
        log_negativity=np.zeros(2),
        meta={},
    )
    assert dead.lifetime() == 0.0


def test_gamma_sweep_summary():
    cfg = ExperimentConfig.from_dict({"t_steps": 80, "gamma_list": [0.0, 0.2, 0.5]})
    sweep = sweep_gamma(cfg)
    assert sweep.parameter == "gamma"
    assert sweep.values == (0.0, 0.2, 0.5)
    max_es = [row[1] for row in sweep.summary]
    assert max_es[0] == 0.0
    assert all(a <= b + 1e-15 for a, b in zip(max_es, max_es[1:]))
    assert max_es[-1] > 0.07


def test_temperature_sweep_rows_are_complete_and_finite():
    cfg = ExperimentConfig.from_dict({"t_steps": 80})
    sweep = sweep_temperature(cfg)
    assert sweep.parameter == "temperature"
    assert sweep.values == (0.1, 0.5, 1.0)
    assert len(sweep.curves) == 3
    for _, max_e, life in sweep.summary:
        assert np.isfinite(max_e) and max_e >= 0.0
        assert np.isfinite(life) and life >= 0.0


def test_float_formatting_is_twelve_significant_digits():
    assert format_float(1.0 / 3.0) == "0.333333333333"
    assert format_float(0.0) == "0"
    assert format_float(5.0) == "5"


def test_csv_text_layout_and_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict({"t_steps": 25})
    curve = run_curve(cfg)
    text = curve_csv_text(curve)
    lines = text.split("\n")
    assert lines[0].startswith("#")
    header_index = lines.index("t,nu_min,E")
    assert len(lines) == header_index + 1 + 25 + 1  # rows plus trailing newline
    assert text == curve_csv_text(run_curve(cfg))
    assert "\r" not in text

    path = tmp_path / "curve.csv"
    write_text(str(path), text)
    assert path.read_bytes() == text.encode("ascii")

    # Rows are the documented format_float format, also where the squeeze
    # pushes nu_min over many decades.
    strong = run_curve(ExperimentConfig(squeeze_r=-9.5, t_steps=300))
    rows = curve_csv_text(strong).split("\n")[-301:-1]
    assert rows == [
        ",".join(format_float(v) for v in row)
        for row in zip(strong.times, strong.nu_min, strong.log_negativity)
    ]


def test_summary_csv_layout():
    cfg = ExperimentConfig.from_dict({"t_steps": 40, "gamma_list": [0.1, 0.5]})
    text = summary_csv_text(sweep_gamma(cfg))
    lines = text.strip().split("\n")
    assert "gamma,max_E,lifetime" in lines
    assert lines[-1].count(",") == 2
    assert any("# swept = gamma" == line for line in lines)


def test_csv_texts_and_curve_file_names_are_pinned():
    # Every byte of both tables and every curve file name, as readers of the output see them.
    assert curve_csv_text(run_curve(ExperimentConfig(t_steps=3))) == (
        "# negativity curve\n# epsilon = 1\n# temperature = 0.1\n# gamma = 0.5\n"
        "# squeeze_r = 1\n# t_max = 5\n# t_steps = 3\nt,nu_min,E\n"
        "0,1.00009080398,0\n2.5,0.965652873393,0.0349508536626\n"
        "5,0.997174502312,0.00282949694123\n"
    )
    sweep = sweep_gamma(ExperimentConfig(t_steps=3, gamma_list=(0.1, 0.5)))
    assert summary_csv_text(sweep) == (
        "# sweep summary\n# epsilon = 1\n# temperature = 0.1\n# squeeze_r = 1\n"
        "# t_max = 5\n# t_steps = 3\n# swept = gamma\ngamma,max_E,lifetime\n"
        "0.1,0,0\n0.5,0.0349508536626,5\n"
    )
    assert sweep.curve_files == ("curve_gamma_0.1.csv", "curve_gamma_0.5.csv")
    assert sweep_temperature(ExperimentConfig(t_steps=3)).curve_files == (
        "curve_temperature_0.1.csv",
        "curve_temperature_0.5.csv",
        "curve_temperature_1.csv",
    )


@pytest.mark.parametrize("squeeze_r", [0.0, 2.0, -9.5])
@pytest.mark.parametrize("t_steps", [2, 100])
@pytest.mark.parametrize(
    "sweep,parameter", [(sweep_gamma, "gamma"), (sweep_temperature, "temperature")]
)
def test_sweep_curves_equal_their_own_runs(sweep, parameter, squeeze_r, t_steps):
    cfg = ExperimentConfig(
        squeeze_r=squeeze_r,
        t_steps=t_steps,
        gamma_list=(0.0, 0.13, 0.31, 0.5),
        temperature_list=(0.05, 0.1, 0.27, 1.0, 4.0),
    )
    result = sweep(cfg)
    assert len(result.curves) == len(result.values)
    for value, curve in zip(result.values, result.curves):
        alone = run_curve(replace(cfg, **{parameter: value}))
        assert np.array_equal(curve.times, alone.times)
        assert np.array_equal(curve.nu_min, alone.nu_min)
        assert np.array_equal(curve.log_negativity, alone.log_negativity)
        assert curve.meta == alone.meta
        assert list(curve.meta) == list(alone.meta)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_curves_depend_on_epsilon_and_temperature_only_through_their_ratio(gamma):
    # The closed form reads (epsilon, T) only as beta*epsilon = 10 here, so
    # scaling both by the same factor leaves every nu_min unchanged, bit for bit.
    curves = [
        run_curve(
            ExperimentConfig(
                epsilon=eps, temperature=temp, gamma=gamma, squeeze_r=1.0, t_max=10.0, t_steps=200
            )
        ).nu_min
        for eps, temp in ((1.0, 0.1), (2.0, 0.2), (0.5, 0.05), (3.0, 0.3), (0.25, 0.025))
    ]
    for nu in curves[1:]:
        assert np.array_equal(nu, curves[0])


@pytest.mark.parametrize("sweep,values", [(sweep_gamma, 4), (sweep_temperature, 3)])
def test_a_sweep_validates_its_config_once(monkeypatch, sweep, values):
    cfg = ExperimentConfig(t_steps=20, gamma_list=(0.1, 0.2, 0.3, 0.5))
    built = Counter()
    shapes = []

    def counting(cls):
        check = cls.__post_init__

        def post_init(self):
            built[cls.__name__] += 1
            check(self)
            if cls is ModelParams:
                shapes.append(np.shape(self.eta))

        monkeypatch.setattr(cls, "__post_init__", post_init)

    counting(ExperimentConfig)
    counting(ModelParams)
    sweep(cfg)
    # no config per value, and one parameter set per value in one ModelParams
    assert built["ExperimentConfig"] == 0
    assert built["ModelParams"] == 1
    assert shapes == [(values,)]
