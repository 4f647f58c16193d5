"""Negativity curves, parameter sweeps, and their deterministic CSV output.

A run is fully specified by an ExperimentConfig; all defaults live on the
dataclass so the CLI, the config file, and library callers agree.

This module is the curve engine, and the only code that computes the first
modes in closed form. A curve is one batched evaluation over a uniform time
grid: the (x, p) variances of the normal modes (a1 +/- b1)/sqrt(2), and from
them nu_min = sqrt(min(x_+ p_-, x_- p_+)), the smallest symplectic eigenvalue
of the partially transposed (a1, b1) state (Simon, PRL 84, 2726 (2000)).
One check pass then holds every point to three checks, in this order: nu_min
is finite and positive (ContractViolation); each normal mode keeps the
uncertainty bound x p >= 1 (NumericError); the variances start at the exact
squeezed state and stay in its relaxation envelope (NumericError). The 8x8
covariance path (modes.propagate plus negativity.negativity) is the
independent reference that the tests and `mesospin verify` compare curves
against; the one function it shares with the engine is
negativity.log_negativity. The engine is certified to SPECTRAL_TOL against a
50-digit reference for |squeeze_r| <= SQUEEZE_R_MAX; larger squeezes are
refused. A sweep evaluates all of its curves in the same batched pass, from
one ModelParams whose swept field is the array of swept values; run_curve is
the one-value case of that pass. A sweep also names each curve file, where it
checks that no two names clash. Every CSV table is written by one writer,
with fixed 12-significant-digit formatting and '\\n' line endings, so
repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import SPECTRAL_TOL, ConfigError, ContractViolation, NumericError
from .negativity import log_negativity
from .sites import ModelParams

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
    temperature, maximal CP-allowed coupling, unit squeeze. Construction
    checks every field's type, stores -0.0 as 0.0, so that no header or file
    name reads "-0", and checks t_max, t_steps and squeeze_r in full. The
    domain of epsilon, temperature and gamma, finiteness included, and of
    the lists is checked by ModelParams in the command that reads a value:
    run_curve checks the base point (epsilon, temperature, gamma), a sweep
    the base fields it reads and its own list, then its curve file names. So
    a sweep ignores the base value of its swept field, and run_curve both
    lists.
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
            object.__setattr__(self, name, float(value) + 0.0)
            if name in ("squeeze_r", "t_max") and not np.isfinite(getattr(self, name)):
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
            object.__setattr__(self, name, tuple(float(v) + 0.0 for v in values))

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
        """Largest sampled time with nu_min < 1, that is E > 0; 0.0 if none.

        It and max_log_negativity are read off the sampled grid, so a curve
        still entangled at t_max reports t_max: the default curve reports 5.0,
        against a closed-form death time of 8.468292.
        """
        alive = np.nonzero(self.nu_min < 1.0)[0]
        if len(alive) == 0:
            return 0.0
        return float(self.times[alive[-1]])


def _normal_mode_variances(
    params: ModelParams, squeeze_r: float, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature variances of the modes (a1 +/- b1)/sqrt(2) over a time grid.

    K^2 = I puts exp(tM) in closed form, and only its (a1, b1) block
    e^{-(1+i*eps)t} [[c, -eta*s], [-eta*s, c]] (c = cosh gamma*t,
    s = sinh gamma*t) reaches the first modes. The phase e^{-i*eps*t} turns
    both modes alike, a local passive rotation that no entanglement measure
    sees, so it is dropped. The real remainder is diagonal on a1 +/- b1 with
    damping q_+/- = e^{-t}(c -/+ eta*s), and each quadrature of each normal
    mode relaxes toward the thermal variance: V(t) = q^2 V(0) + (1 - q^2)/eta.
    1 - q is summed from expm1 terms of one sign and 1 - eta is the delta
    that params carries, so no difference cancels at any r, t or temperature.

    Returns (x, p), each of shape S + (2, len(times)) with rows sigma = +, -:
    x starts anti-squeezed at e^{2|r|}/eta, p squeezed at e^{-2|r|}/eta.
    Every parameter set gets one curve on the shared grid; the arithmetic is
    elementwise, so each curve is bit for bit what its own call returns. The
    state depends on r only through |r|.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ContractViolation("propagation times must be finite and nonnegative")
    r = abs(float(squeeze_r))
    eta = np.asarray(params.eta)[..., None, None]
    gamma = np.asarray(params.gamma)[..., None]
    low = 0.5 * np.asarray(params.delta)[..., None]  # (1 - eta)/2
    high = 0.5 * (1.0 + np.asarray(params.eta))[..., None]
    slow = -(1.0 - gamma) * t
    fast = -(1.0 + gamma) * t
    # Row sigma = + weighs the slow rate 1 - gamma by (1 - eta)/2, row - by (1 + eta)/2.
    def rows(at_slow: np.ndarray, at_fast: np.ndarray) -> np.ndarray:
        return np.stack([low * at_slow + high * at_fast, high * at_slow + low * at_fast], axis=-2)

    q = rows(np.exp(slow), np.exp(fast))
    one_minus_q = -rows(np.expm1(slow), np.expm1(fast))
    w = q * q
    one_minus_w = one_minus_q * (1.0 + q)
    x = (1.0 + np.expm1(2.0 * r) * w) / eta
    p = (one_minus_w + np.exp(-2.0 * r) * w) / eta
    return x, p


def _curves(
    config: ExperimentConfig, params: ModelParams, metas: Sequence[dict]
) -> tuple[NegativityCurve, ...]:
    """Negativity of the squeezed thermal state, one curve per set of params, in flat order.

    Every curve is evaluated on the config's time grid in one batched pass.
    Flipping p of b1 swaps p_+ and p_-, so the partial transpose pairs x_+
    with p_- and x_- with p_+. One pass holds every point to the three checks
    of the module, in order: the uncertainty bound also asks x > 0 and p > 0
    and allows SPECTRAL_TOL, and the start is the exact squeezed state
    (np.exp, not expm1). A failure raises, for the first failing curve, its
    first failing check at that check's first bad time: what that curve
    raises on its own.
    """
    times = np.linspace(0.0, config.t_max, config.t_steps)
    x, p = _normal_mode_variances(params, config.squeeze_r, times)
    x, p = x.reshape(-1, 2, len(times)), p.reshape(-1, 2, len(times))
    nu = np.sqrt(np.minimum(x[:, 0] * p[:, 1], x[:, 1] * p[:, 0]))
    thermal = 1.0 / np.reshape(params.eta, (-1, 1, 1))
    r = abs(config.squeeze_r)
    x0, p0 = thermal * np.exp(2.0 * r), thermal * np.exp(-2.0 * r)
    lo, hi = 1.0 - _ENVELOPE_RTOL, 1.0 + _ENVELOPE_RTOL
    inside = (x >= lo * thermal) & (x <= hi * x0) & (p >= lo * p0) & (p <= hi * thermal)
    inside[..., 0] &= (x[..., 0] >= lo * x0[..., 0]) & (p[..., 0] <= hi * p0[..., 0])
    physical = (x > 0.0) & (p > 0.0) & (x * p >= 1.0 - SPECTRAL_TOL)
    # check, curve, time
    bad = np.stack((~(np.isfinite(nu) & (nu > 0.0)), ~physical.all(axis=1), ~inside.all(axis=1)))
    if bad.any():
        v = int(np.argmax(bad.any(axis=(0, 2))))
        check = int(np.argmax(bad[:, v].any(axis=-1)))
        k = int(np.argmax(bad[check, v]))
        at = f"at t = {float(times[k])!r}: "
        point = f"x = {x[v][:, k].tolist()}, p = {p[v][:, k].tolist()}"
        state = f"nu_min = {float(nu[v, k])!r}, {point}"
        if check == 0:
            raise ContractViolation(f"nu_min must be positive {at}{state}")
        if check == 1:
            raise NumericError(f"normal modes break the uncertainty bound x p >= 1 {at}{state}")
        raise NumericError(
            f"normal-mode variances leave the relaxation from x = {x0[v, 0, 0].item()!r}, "
            f"p = {p0[v, 0, 0].item()!r} toward {thermal[v, 0, 0].item()!r} {at}{point}"
        )
    energy = log_negativity(nu)
    return tuple(NegativityCurve(times, nu[v], energy[v], meta) for v, meta in enumerate(metas))


def _model_params(config: ExperimentConfig, **swept: np.ndarray) -> ModelParams:
    """The base point's ModelParams, with a swept field's values for its base value.

    ModelParams owns the physical domain, and its message names the value at
    fault; a refusal of a swept field is prefixed by its list's name.
    """
    base = {"epsilon": config.epsilon, "temperature": config.temperature, "gamma": config.gamma}
    try:
        return ModelParams(**{**base, **swept})
    except ContractViolation as exc:
        prefix = f"{exc.field}_list: " if exc.field in swept else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def run_curve(config: ExperimentConfig) -> NegativityCurve:
    """The negativity curve of one configuration: a sweep of one value."""
    return _curves(config, _model_params(config), (config.meta(),))[0]


@dataclass(frozen=True)
class SweepResult:
    """Curves, their CSV file names and (value, max E, lifetime) rows of one swept field."""

    parameter: str
    values: tuple[float, ...]
    curves: tuple[NegativityCurve, ...]
    curve_files: tuple[str, ...]
    summary: tuple[tuple[float, float, float], ...]
    meta: dict


def _sweep(config: ExperimentConfig, parameter: str) -> SweepResult:
    """One curve per value of the parameter's list, the one place that list is validated."""
    name = f"{parameter}_list"
    values = getattr(config, name)
    # The values are checked before their curve files are named, so a bad value
    # is refused as such, not as a clash of its name.
    params = _model_params(config, **{parameter: np.array(values, dtype=float)})
    # Each value's curve file is named by its CSV format, so no two may print alike.
    files = {}
    for v in values:
        text = format_float(v)
        file = f"curve_{parameter}_{text}.csv"
        if file in files:
            raise ConfigError(
                f"{name}: {files[file]!r} and {v!r} both print as {text} "
                "and would write the same curve file"
            )
        files[file] = v
    base = config.meta()
    metas = tuple({**base, parameter: v} for v in values)
    curves = _curves(config, params, metas)
    summary = tuple((v, c.max_log_negativity, c.lifetime()) for v, c in zip(values, curves))
    meta = dict(base)
    meta.pop(parameter, None)
    meta["swept"] = parameter
    return SweepResult(parameter, values, curves, tuple(files), summary, meta)


def sweep_gamma(config: ExperimentConfig) -> SweepResult:
    """One curve per coupling in gamma_list, at the configured temperature."""
    return _sweep(config, "gamma")


def sweep_temperature(config: ExperimentConfig) -> SweepResult:
    """One curve per temperature in temperature_list, at the configured gamma."""
    return _sweep(config, "temperature")


def _csv_text(title: str, meta: dict, columns: str, table: np.ndarray) -> str:
    """The one CSV layout: '# title', a '# key = value' line per meta entry, columns, rows.

    A string value is written verbatim and a number through format_float. The
    rows of the 2-D table are formatted in one call with format_float's "%.12g".
    """
    lines = [f"# {title}"]
    lines += [f"# {k} = {v if isinstance(v, str) else format_float(v)}" for k, v in meta.items()]
    lines.append(columns)
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return "\n".join(lines) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def curve_csv_text(curve: NegativityCurve) -> str:
    table = np.column_stack((curve.times, curve.nu_min, curve.log_negativity))
    return _csv_text("negativity curve", curve.meta, "t,nu_min,E", table)


def summary_csv_text(sweep: SweepResult) -> str:
    columns = f"{sweep.parameter},max_E,lifetime"
    return _csv_text("sweep summary", sweep.meta, columns, np.array(sweep.summary, dtype=float))


def write_text(path: str, text: str) -> None:
    """Write one output file; an OSError names the path, even one from write or close."""
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        exc.filename = exc.filename or path
        raise
