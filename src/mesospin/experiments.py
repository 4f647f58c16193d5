"""Negativity curves, parameter sweeps, and their deterministic CSV output.

A run is fully specified by an ExperimentConfig; all defaults live on the
dataclass so the CLI, the config file, and library callers agree. A curve is
one batched, closed-form evaluation over a uniform time grid: the normal-mode
variances of the first modes (modes.normal_mode_variances) and nu_min from
them (negativity.min_symplectic_pt_grid), every point held to checks a wrong
state fails. The 8x8 moment-matrix path (modes.propagate plus
negativity.negativity) is the independent reference that the tests and
`mesospin verify` compare curves against. The engine is certified to
SPECTRAL_TOL against a 50-digit reference for |squeeze_r| <= SQUEEZE_R_MAX;
larger squeezes are refused. A sweep is validated once, as its config, and
evaluates all of its curves in the same batched pass, from one ModelParams
whose swept field is the array of swept values; run_curve is the one-value
case of that pass.
CSV files are written with fixed 12-significant-digit formatting and '\\n'
line endings, so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, NumericError
from .modes import normal_mode_variances
from .negativity import log_negativity, min_symplectic_pt_grid
from .sites import ModelParams

LIFETIME_THRESHOLD = 1e-12
# Largest |squeeze_r| accepted: the range of the 50-digit property test in
# tests/test_engine.py. Beyond it the closed form is untested.
SQUEEZE_R_MAX = 10.0
# The closed form stays within about 3 ulps of its start and envelope over
# T in [0.027, 5], gamma in [0, 1/2], |r| <= 10 and t in [0, 200].
_ENVELOPE_RTOL = 16 * np.finfo(float).eps

_SCALAR_FIELDS = ("epsilon", "temperature", "gamma", "squeeze_r", "t_max")
_LIST_FIELDS = ("gamma_list", "temperature_list")


def format_float(value: float) -> str:
    """Canonical CSV number format: 12 significant digits, '.' decimal."""
    return f"{float(value):.12g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a negativity run and of the two standard sweeps.

    The defaults reproduce the strongest entangling case: coldest default
    temperature, maximal CP-allowed coupling, unit squeeze. gamma_list and
    temperature_list only drive the corresponding sweep commands.
    """

    epsilon: float = 1.0
    temperature: float = 0.1
    gamma: float = 0.5
    squeeze_r: float = 1.0
    t_max: float = 5.0
    t_steps: int = 500
    gamma_list: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    temperature_list: tuple[float, ...] = (0.1, 0.5, 1.0)

    def __post_init__(self) -> None:
        for name in _SCALAR_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name}: expected a number, got {value!r}")
            object.__setattr__(self, name, float(value))
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name}: must be finite, got {value!r}")
        if isinstance(self.t_steps, bool) or not isinstance(self.t_steps, int):
            raise ConfigError(f"t_steps: expected an integer, got {self.t_steps!r}")
        if self.t_steps < 2:
            raise ConfigError(f"t_steps: need at least 2 samples, got {self.t_steps}")
        if self.t_max <= 0:
            raise ConfigError(f"t_max: must be positive, got {self.t_max}")
        if abs(self.squeeze_r) > SQUEEZE_R_MAX:
            raise ConfigError(
                f"squeeze_r: |{format_float(self.squeeze_r)}| exceeds "
                f"{format_float(SQUEEZE_R_MAX)}, the largest squeeze at which "
                "curves are certified"
            )
        for name in _LIST_FIELDS:
            raw = getattr(self, name)
            if isinstance(raw, (str, bytes)) or not isinstance(raw, Iterable):
                raise ConfigError(f"{name}: expected a list of numbers, got {raw!r}")
            values = tuple(raw)
            if not values:
                raise ConfigError(f"{name}: must not be empty")
            for v in values:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"{name}: expected a number, got {v!r}")
            values = tuple(float(v) for v in values)
            # A sweep names each curve file by the value's CSV format.
            if len(set(map(format_float, values))) < len(values):
                printed = [format_float(v) for v in values]
                k = next(k for k, text in enumerate(printed) if text in printed[:k])
                first = values[printed.index(printed[k])]
                raise ConfigError(
                    f"{name}: {first!r} and {values[k]!r} both print as {printed[k]} "
                    "and would write the same curve file"
                )
            object.__setattr__(self, name, values)
        # ModelParams owns the physical domain. Build it for every parameter
        # set a run can use, one row at a time, so a bad value surfaces now,
        # with the config field that carried it named, rather than later inside
        # the numerics. ModelParams's own messages name the scalar field at
        # fault and the first failing value of a list.
        rows = (
            ("", self.temperature, self.gamma),
            ("gamma_list: ", self.temperature, self.gamma_list),
            ("temperature_list: ", self.temperature_list, self.gamma),
        )
        for prefix, temperature, gamma in rows:
            try:
                ModelParams(self.epsilon, temperature, gamma)
            except ContractViolation as exc:
                raise ConfigError(f"{prefix}{exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown configuration field '{unknown[0]}'")
        cleaned = dict(data)
        # JSON has one number type: accept 100.0 as a step count.
        steps = cleaned.get("t_steps")
        if isinstance(steps, float) and steps.is_integer():
            cleaned["t_steps"] = int(steps)
        return cls(**cleaned)

    def meta(self) -> dict[str, float | int]:
        return {name: getattr(self, name) for name in (*_SCALAR_FIELDS, "t_steps")}


@dataclass(frozen=True)
class NegativityCurve:
    """Sampled negativity curve with the configuration that produced it."""

    times: np.ndarray
    nu_min: np.ndarray
    log_negativity: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) != len(self.nu_min) or len(t) != len(
            self.log_negativity
        ):
            raise ContractViolation("curve arrays must be one-dimensional and aligned")
        if not np.all(np.diff(t) > 0):
            raise ContractViolation("curve times must be strictly increasing")

    @property
    def max_log_negativity(self) -> float:
        return float(self.log_negativity.max())

    def lifetime(self) -> float:
        """Largest sampled time with E above LIFETIME_THRESHOLD; 0.0 if none."""
        alive = np.nonzero(self.log_negativity > LIFETIME_THRESHOLD)[0]
        if len(alive) == 0:
            return 0.0
        return float(self.times[alive[-1]])


def _curves(
    config: ExperimentConfig, params: ModelParams, metas: Sequence[dict]
) -> tuple[NegativityCurve, ...]:
    """Negativity of the squeezed thermal state, one curve per set of params, in flat order.

    Every curve is evaluated on the config's time grid in one batched pass.
    The variances must start at t = 0 in the exact squeezed state (np.exp, not
    expm1) and stay between it and 1/eta; else NumericError names the first t.
    A failure raises what the first failing set raises on its own: the nu_min
    and uncertainty checks of min_symplectic_pt_grid come before this one.
    """
    times = np.linspace(0.0, config.t_max, config.t_steps)
    x, p = normal_mode_variances(params, config.squeeze_r, times)
    x, p = x.reshape(-1, 2, len(times)), p.reshape(-1, 2, len(times))
    thermal = 1.0 / np.reshape(params.eta, (-1, 1, 1))
    r = abs(config.squeeze_r)
    x0, p0 = thermal * np.exp(2.0 * r), thermal * np.exp(-2.0 * r)
    lo, hi = 1.0 - _ENVELOPE_RTOL, 1.0 + _ENVELOPE_RTOL
    inside = (x >= lo * thermal) & (x <= hi * x0) & (p >= lo * p0) & (p <= hi * thermal)
    inside[..., 0] &= (x[..., 0] >= lo * x0[..., 0]) & (p[..., 0] <= hi * p0[..., 0])
    if not inside.all():
        # Raise what the first failing set raises on its own: its own nu_min
        # and uncertainty checks, and those of every set before it, come first.
        escaped = ~inside.all(axis=-2)
        v = int(np.argmax(escaped.any(axis=-1)))
        min_symplectic_pt_grid(x[: v + 1], p[: v + 1], times)
        k = int(np.argmax(escaped[v]))
        raise NumericError(
            f"normal-mode variances leave the relaxation from x = {x0[v, 0, 0].item()!r}, "
            f"p = {p0[v, 0, 0].item()!r} toward {thermal[v, 0, 0].item()!r} "
            f"at t = {float(times[k])!r}: "
            f"x = {x[v][:, k].tolist()}, p = {p[v][:, k].tolist()}"
        )
    nu = min_symplectic_pt_grid(x, p, times)
    energy = log_negativity(nu)
    return tuple(NegativityCurve(times, nu[v], energy[v], meta) for v, meta in enumerate(metas))


def run_curve(config: ExperimentConfig) -> NegativityCurve:
    """The negativity curve of one configuration: a sweep of one value."""
    params = ModelParams(config.epsilon, config.temperature, config.gamma)
    return _curves(config, params, (config.meta(),))[0]


@dataclass(frozen=True)
class SweepResult:
    """Curves and (value, max E, lifetime) summary rows for one swept field."""

    parameter: str
    values: tuple[float, ...]
    curves: tuple[NegativityCurve, ...]
    summary: tuple[tuple[float, float, float], ...]
    meta: dict


def _sweep(config: ExperimentConfig, parameter: str, values: Sequence[float]) -> SweepResult:
    # The config validated every value already: build the curves' parameters
    # directly, the swept field an array of the values, rather than a new
    # config per value.
    base = config.meta()
    fixed = {name: base[name] for name in ("epsilon", "temperature", "gamma")}
    params = ModelParams(**{**fixed, parameter: np.array(values, dtype=float)})
    metas = tuple({**base, parameter: float(v)} for v in values)
    curves = _curves(config, params, metas)
    summary = tuple(
        (float(v), c.max_log_negativity, c.lifetime())
        for v, c in zip(values, curves)
    )
    meta = dict(base)
    meta.pop(parameter, None)
    meta["swept"] = parameter
    return SweepResult(
        parameter=parameter,
        values=tuple(float(v) for v in values),
        curves=curves,
        summary=summary,
        meta=meta,
    )


def sweep_gamma(config: ExperimentConfig) -> SweepResult:
    """One curve per coupling in gamma_list, at the configured temperature."""
    return _sweep(config, "gamma", config.gamma_list)


def sweep_temperature(config: ExperimentConfig) -> SweepResult:
    """One curve per temperature in temperature_list, at the configured gamma."""
    return _sweep(config, "temperature", config.temperature_list)


def _header_lines(title: str, meta: dict) -> list[str]:
    lines = [f"# {title}"]
    for key, value in meta.items():
        if isinstance(value, str):
            lines.append(f"# {key} = {value}")
        else:
            lines.append(f"# {key} = {format_float(value)}")
    return lines


def curve_csv_text(curve: NegativityCurve) -> str:
    lines = _header_lines("negativity curve", curve.meta)
    lines.append("t,nu_min,E")
    # "%.12g" is format_float's format, applied in one call to every row.
    flat = np.column_stack((curve.times, curve.nu_min, curve.log_negativity)).ravel()
    rows = ("%.12g,%.12g,%.12g\n" * len(curve.times)) % tuple(flat.tolist())
    return "\n".join(lines) + "\n" + rows


def summary_csv_text(sweep: SweepResult) -> str:
    lines = _header_lines("sweep summary", sweep.meta)
    lines.append(f"{sweep.parameter},max_E,lifetime")
    for value, max_e, life in sweep.summary:
        lines.append(
            f"{format_float(value)},{format_float(max_e)},{format_float(life)}"
        )
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(text)
