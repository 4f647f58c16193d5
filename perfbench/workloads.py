"""Seeded operations of the three workloads, and the checks on their outputs.

An operation is one `mesospin` CLI command. Each workload cycles through a
fixed list of distinct commands built from the seed, so that every command
runs at least twice in a run and its repeats can be compared byte for byte.

- curve: `mesospin curve`, 2000 points to t_max = 12 (past the default
  case's sudden death near t = 8.46), T in [0.05, 0.3], gamma in
  [0.1, 0.5], r stratified over [0.25, 2] plus one curve at r = 2.
  Per-point work in modes and negativity is nearly all the time, and every
  point is well conditioned.
- sweep: `sweep-gamma` and `sweep-temp`, 12 swept values on 100-point
  grids to t_max = 5 with `--workers 2`, at ten squeeze levels spanning
  r in [0, 8]. Per-command overhead (validation, set-up, one CSV per curve)
  weighs most here. From r = 7 up the float path is known to lose digits or
  raise; those commands are the known strong-squeeze limit (see
  STRONG_SQUEEZE_R) and show in ops_ok_frac and nu_digits.
- verify: `mesospin verify --level full`, the only path through the oracle
  and the checks module. It takes no input, so the seed changes nothing.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

# The package's own tolerance for spectral quantities (SPECTRAL_TOL in
# mesospin.linalg), repeated here so the benchmark survives that module's
# removal.
SPECTRAL_TOL = 1e-9
# Every CSV value is printed with 12 significant digits.
CSV_RTOL = 1e-11

# From this squeeze up the float path is known to miss SPECTRAL_TOL or to
# refuse with "routes disagree" (the error of nu_min grows like e^(4r) ulps).
# A refusal or an accuracy miss there is what the sweep workload measures, in
# ops_ok_frac and nu_digits, not a failed operation. Below it, either is a
# failure.
STRONG_SQUEEZE_R = 7.0

CURVE_CONFIGS = 6
SWEEP_LEVELS = 10
SWEEP_VALUES = 12



@dataclass(frozen=True)
class Op:
    """One distinct CLI command and what the benchmark knows about it."""

    key: int
    argv: tuple[str, ...]
    # ExperimentConfig fields, or None for verify.
    fields: dict | None
    # (curve index, time index) of the nu_min values checked against mpmath.
    samples: tuple[tuple[int, int], ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def strong(self) -> bool:
        """Whether the command lies in the known strong-squeeze limit."""
        return self.fields is not None and self.fields["squeeze_r"] >= STRONG_SQUEEZE_R

    def curve_params(self, index: int) -> tuple[float, float, float, float]:
        """(epsilon, temperature, gamma, squeeze_r) of the index-th curve."""
        f = dict(self.fields)
        if self.command == "sweep-gamma":
            f["gamma"] = f["gamma_list"][index]
        elif self.command == "sweep-temp":
            f["temperature"] = f["temperature_list"][index]
        return f["epsilon"], f["temperature"], f["gamma"], f["squeeze_r"]

    def run_argv(self, out_dir: str, workers: int = 2) -> list[str]:
        argv = list(self.argv)
        if self.command == "curve":
            argv += ["--output", os.path.join(out_dir, "curve.csv")]
        elif self.command.startswith("sweep-"):
            argv += ["--output-dir", out_dir, "--workers", str(workers)]
        return argv


def _num(x: float) -> str:
    return repr(float(x))


def _config_argv(command: str, fields: dict) -> tuple[str, ...]:
    argv = [command]
    for name in ("epsilon", "temperature", "gamma", "squeeze_r", "t_max"):
        argv += ["--" + name.replace("_", "-"), _num(fields[name])]
    argv += ["--t-steps", str(fields["t_steps"])]
    for name in ("gamma_list", "temperature_list"):
        if name in fields:
            argv += ["--" + name.replace("_", "-"), ",".join(_num(v) for v in fields[name])]
    return tuple(argv)


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    values = [round(lo + (hi - lo) * (k + rng.random()) / n, 4) for k in range(n)]
    rng.shuffle(values)
    return values


# The accuracy probe of the verify workload, which computes no nu_min of its
# own: the package's default curve, evaluated once per run through the
# library, outside every timing. It is never run as an operation.
_PROBE_FIELDS = dict(epsilon=1.0, temperature=0.1, gamma=0.5, squeeze_r=1.0,
                     t_max=5.0, t_steps=500)
PROBE = Op(-1, _config_argv("curve", _PROBE_FIELDS), _PROBE_FIELDS, ((0, 1), (0, 50), (0, 250)))


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [Op(0, ("verify", "--level", "full"), None, ())]
    ops = []
    if workload == "curve":
        steps = 2000
        # The largest squeeze, where the error is largest, is always present.
        squeezes = _stratified(rng, 0.25, 2.0, CURVE_CONFIGS - 1) + [2.0]
        for key, r in enumerate(squeezes):
            fields = dict(epsilon=1.0, temperature=round(rng.uniform(0.05, 0.3), 4),
                          gamma=round(rng.uniform(0.1, 0.5), 4), squeeze_r=r,
                          t_max=12.0, t_steps=steps)
            samples = ((0, 1), (0, rng.randrange(2, steps)), (0, rng.randrange(2, steps)))
            ops.append(Op(key, _config_argv("curve", fields), fields, samples))
        return ops
    if workload == "sweep":
        steps = 100
        # Both sweep kinds at each of SWEEP_LEVELS squeeze levels spanning
        # [0, 8]. Every coupling sweep ends at the bound gamma = 0.5 and every
        # temperature sweep starts at T = 0.05. The top level, r = 8, runs
        # the coupling sweep at T = 0.1 and the temperature sweep at
        # gamma = 0.5: there the float path raises "routes disagree" on these
        # grids, so the defect is shown, not trimmed.
        for level in range(SWEEP_LEVELS):
            r = round(8.0 * level / (SWEEP_LEVELS - 1), 4)
            top = level == SWEEP_LEVELS - 1
            for command in ("sweep-gamma", "sweep-temp"):
                fields = dict(epsilon=1.0, temperature=round(rng.uniform(0.05, 0.3), 4),
                              gamma=round(rng.uniform(0.1, 0.5), 4), squeeze_r=r,
                              t_max=5.0, t_steps=steps)
                if command == "sweep-gamma":
                    fields["gamma_list"] = tuple(
                        sorted(_stratified(rng, 0.0, 0.48, SWEEP_VALUES - 1))) + (0.5,)
                    if top:
                        fields["temperature"] = 0.1
                else:
                    fields["temperature_list"] = (0.05,) + tuple(
                        sorted(_stratified(rng, 0.06, 0.3, SWEEP_VALUES - 1)))
                    if top:
                        fields["gamma"] = 0.5
                # The earliest non-zero time of every curve, where the error
                # peaks, and one more point anywhere in the command's output.
                samples = tuple((j, 1) for j in range(SWEEP_VALUES)) + (
                    (rng.randrange(SWEEP_VALUES), rng.randrange(2, steps)),)
                ops.append(Op(len(ops), _config_argv(command, fields), fields, samples))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class LibraryResult:
    """What the library API returns for an operation's configuration."""

    # One (times, nu_min, log_negativity) array triple per curve.
    curves: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    # Sweep summary rows (value, max E, lifetime), or None for one curve.
    summary: np.ndarray | None
    error: BaseException | None = None


def library_result(mesospin, fields: dict, command: str) -> LibraryResult:
    """Compute an operation's arrays through the public library API."""
    config = mesospin.ExperimentConfig(**fields)
    try:
        if command == "curve":
            curve = mesospin.run_curve(config)
            return LibraryResult([(curve.times, curve.nu_min, curve.log_negativity)], None)
        sweep = (mesospin.sweep_gamma if command == "sweep-gamma"
                 else mesospin.sweep_temperature)(config)
    except Exception as exc:  # the operation itself will meet the same error
        return LibraryResult([], None, exc)
    return LibraryResult(
        [(c.times, c.nu_min, c.log_negativity) for c in sweep.curves],
        np.array(sweep.summary, dtype=float),
    )


def parse_csv(path: str) -> np.ndarray:
    """Numeric rows of a mesospin CSV file; comment and header lines skipped."""
    rows = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            try:
                rows.append([float(x) for x in line.strip().split(",")])
            except ValueError:
                continue
    return np.array(rows, dtype=float)


def _agrees(rows: np.ndarray, expected: np.ndarray) -> bool:
    return rows.shape == expected.shape and bool(
        np.all(np.abs(rows - expected) <= CSV_RTOL * np.abs(expected)))


def check_csv_files(out_dir: str, lib: LibraryResult) -> tuple[list[str], dict[int, np.ndarray]]:
    """Match every CSV in out_dir to exactly one library curve or summary.

    Returns (problems, parsed curve rows by curve index). Matching goes by
    content, so file names and header lines are free to change.
    """
    expected = {i: np.column_stack(c) for i, c in enumerate(lib.curves)}
    if lib.summary is not None:
        expected["summary"] = lib.summary
    problems, parsed = [], {}
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))
    for name in names:
        rows = parse_csv(os.path.join(out_dir, name))
        match = next((k for k, v in expected.items() if _agrees(rows, v)), None)
        if match is None:
            problems.append(f"{name}: {len(rows)} rows match no library array "
                            f"to 12 significant digits")
            continue
        del expected[match]
        if match != "summary":
            parsed[match] = rows
    problems += [f"no CSV file holds library array {k}" for k in expected]
    return problems, parsed


def read_tree(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            out[name] = handle.read()
    return out
