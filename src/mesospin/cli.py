"""Command line interface.

Subcommands: curve (one negativity curve), sweep-gamma and sweep-temp (one
curve per swept value plus a summary), verify (self-check suite), clt
(central-limit convergence table). Options may come from a flat JSON config
file, from flags, or both; flags win. Exit codes: 0 success, 1 verification
failure, 2 configuration error or an output that cannot be written (a closed
stdout included, which ends the command without a message).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import os
import sys
from decimal import Decimal, InvalidOperation

from .checks import format_report, run_checks
from .errors import ConfigError, ContractViolation
from .experiments import (
    ExperimentConfig,
    SweepResult,
    curve_csv_text,
    format_float,
    run_curve,
    summary_csv_text,
    sweep_gamma,
    sweep_temperature,
    write_text,
)
from .oracle import clt_table
from .sites import ModelParams, thermal_state

_WORKERS_HELP = "accepted for compatibility; no effect, a sweep computes its curves in one pass"
_LEVEL_HELP = "accepted for compatibility; no effect, verify runs its one full suite"


def _parse_number_list(text: str, field: str, parse=float) -> tuple[float, ...]:
    try:
        values = tuple(parse(part) for part in text.split(",") if part.strip())
    except (ValueError, InvalidOperation) as exc:
        raise ConfigError(f"{field}: could not parse '{text}' as numbers") from exc
    if not values:
        raise ConfigError(f"{field}: must not be empty")
    return values


def _site_count(part: str) -> Decimal:
    """One --sites entry, exactly as typed: float() reads 1e23 as 99999999999999991611392.

    clt_table refuses every count that is not a positive integer, such as
    100.0000000000000001; a signalling NaN, which no comparison takes, is junk.
    """
    exact = Decimal(part)
    if exact.is_snan():
        raise ValueError(part)
    return exact


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"config: cannot read '{path}': {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: '{path}' is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: top level must be a JSON object")
        data.update(loaded)
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            is_list = isinstance(f.default, tuple)
            data[f.name] = _parse_number_list(value, f.name) if is_list else value
    return ExperimentConfig.from_dict(data)


def _add_config_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON file with configuration fields")
    # ExperimentConfig owns the fields: each scalar field is one flag of its
    # default's type; a list field (tuple default) has its sweep's own flag.
    for f in dataclasses.fields(ExperimentConfig):
        if not isinstance(f.default, tuple):
            flag = "--" + f.name.replace("_", "-")
            sub.add_argument(flag, type=type(f.default), default=None, help=f"override {f.name}")


def _plot_script_text(csv_names: list[str], labels: list[str]) -> str:
    lines = [
        "# gnuplot script generated by mesospin",
        "set datafile separator ','",
        "set xlabel 't'",
        "set ylabel 'E(t)'",
        "set key top right",
    ]
    # gnuplot reads '' as one ' inside a single-quoted string
    quoted = ([text.replace("'", "''") for text in pair] for pair in zip(csv_names, labels))
    plots = [f"'{name}' using 1:3 with lines title '{label}'" for name, label in quoted]
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"


def _require_parent_dirs(*paths: str) -> None:
    """Refuse, before anything is written, an output whose directory is missing."""
    for path in paths:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _cmd_curve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    curve = run_curve(config)
    _require_parent_dirs(*filter(None, (args.output, args.plot_script)))
    write_text(args.output, curve_csv_text(curve))
    print(
        f"wrote {args.output} (max E = {format_float(curve.max_log_negativity)}, "
        f"lifetime = {format_float(curve.lifetime())})"
    )
    if args.plot_script:
        label = f"gamma = {format_float(config.gamma)}"
        write_text(
            args.plot_script,
            _plot_script_text([os.path.basename(args.output)], [label]),
        )
        print(f"wrote {args.plot_script}")
    return 0


def _write_sweep(sweep: SweepResult, out_dir: str, plot_script: str | None) -> int:
    # The CSV files go into out_dir itself, which is made below; a plot
    # script with a directory part needs that directory to exist already.
    if plot_script and os.path.dirname(plot_script):
        _require_parent_dirs(os.path.join(out_dir, plot_script))
    os.makedirs(out_dir, exist_ok=True)
    for name, curve in zip(sweep.curve_files, sweep.curves):
        write_text(os.path.join(out_dir, name), curve_csv_text(curve))
    summary_name = f"{sweep.parameter}_summary.csv"
    write_text(os.path.join(out_dir, summary_name), summary_csv_text(sweep))
    for (value, max_e, life), name in zip(sweep.summary, sweep.curve_files):
        print(
            f"{sweep.parameter} = {format_float(value)}: "
            f"max E = {format_float(max_e)}, lifetime = {format_float(life)} "
            f"-> {name}"
        )
    print(f"wrote {summary_name} in {out_dir}")
    if plot_script:
        labels = [
            f"{sweep.parameter} = {format_float(v)}" for v in sweep.values
        ]
        write_text(
            os.path.join(out_dir, plot_script),
            _plot_script_text(list(sweep.curve_files), labels),
        )
        print(f"wrote {plot_script} in {out_dir}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    # Chosen per call by name, not stored in the cached parser, so that a later
    # rebinding of sweep_gamma or sweep_temperature in this module is used.
    sweep = sweep_gamma if args.command == "sweep-gamma" else sweep_temperature
    return _write_sweep(sweep(config), args.output_dir, args.plot_script)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks()
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_clt(args: argparse.Namespace) -> int:
    sites = _parse_number_list(args.sites, "sites", _site_count)
    try:
        params = ModelParams(args.epsilon, args.temperature, 0.0)
    except ContractViolation as exc:
        raise ConfigError(str(exc)) from exc
    try:
        table = clt_table(thermal_state(params), sites)
    except ContractViolation as exc:
        raise ConfigError(f"sites: {exc}") from exc
    print(f"{'observable':<12}{'sites':>8}  {'finite':>16}  {'limit':>16}  {'|error|':>12}")
    for index, (limit, finite, errors, _) in enumerate(table):
        for n, value, err in zip(sites, finite, errors):
            print(
                f"{'x' + str(index + 1):<12}{int(n):>8}  {value.real:>16.12f}  "
                f"{limit:>16.12f}  {err:>12.6e}"
            )
    all_monotone = all(monotone for *_, monotone in table)
    print(f"monotone convergence for every observable: {'yes' if all_monotone else 'NO'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: built on the first call, then shared and never changed."""
    parser = argparse.ArgumentParser(
        prog="mesospin",
        description=(
            "Dissipative fluctuation dynamics of two spin chains in a common "
            "bath: negativity curves, parameter sweeps, and self-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="compute one negativity curve")
    _add_config_options(curve)
    curve.add_argument("--output", default="curve.csv", help="CSV output path")
    curve.add_argument("--plot-script", default=None, help="write a gnuplot script")
    curve.set_defaults(func=_cmd_curve)

    for name, help_text, list_flag, list_help in (
        ("sweep-gamma", "one curve per coupling in gamma_list",
         "--gamma-list", "comma-separated couplings"),
        ("sweep-temp", "one curve per temperature in temperature_list",
         "--temperature-list", "comma-separated temperatures"),
    ):
        sweep = sub.add_parser(name, help=help_text)
        _add_config_options(sweep)
        sweep.add_argument(list_flag, default=None, help=list_help)
        sweep.add_argument("--output-dir", default=".", help="directory for CSV output")
        sweep.add_argument("--plot-script", default=None, help="gnuplot script filename")
        sweep.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
        sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the self-check suite")
    verify.add_argument("--level", choices=("fast", "full"), default=None, help=_LEVEL_HELP)
    verify.set_defaults(func=_cmd_verify)

    clt = sub.add_parser("clt", help="central-limit convergence table")
    clt.add_argument("--epsilon", type=float, default=1.0)
    clt.add_argument("--temperature", type=float, default=1.0)
    clt.add_argument("--sites", default="100,1000,10000", help="site counts")
    clt.set_defaults(func=_cmd_clt)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; safe to call repeatedly."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone, as in `mesospin clt | head -3`: stop
        # quietly, with stdout on devnull so that the flush at exit cannot fail.
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
            fileno = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fileno)
            os.close(devnull)
        return 2
    except OSError as exc:
        # Config files are read inside ConfigError; what is left is output.
        where = "" if exc.filename is None else f" '{exc.filename}'"
        print(f"cannot write{where}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
