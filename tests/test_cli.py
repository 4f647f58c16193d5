"""End-to-end command line behavior: outputs, exit codes, negative controls."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mesospin
import mesospin.checks as checks
import mesospin.modes as modes
from mesospin.cli import main
from mesospin.modes import drift_matrix
from mesospin.sites import ModelParams


def _read(path) -> str:
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def test_curve_command_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--t-steps", "40", "--output", str(out)]) == 0
    text = _read(out)
    assert "# gamma = 0.5" in text
    assert "t,nu_min,E" in text
    assert len(text.strip().split("\n")) > 40
    assert "wrote" in capsys.readouterr().out


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"gamma": 0.3, "t_steps": 30, "temperature": 0.2}))
    out = tmp_path / "c.csv"
    code = main(
        ["curve", "--config", str(config), "--gamma", "0.2", "--output", str(out)]
    )
    assert code == 0
    text = _read(out)
    assert "# gamma = 0.2" in text  # flag wins over config file
    assert "# temperature = 0.2" in text
    assert "# t_steps = 30" in text


def test_invalid_json_config_is_a_configuration_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["curve", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


# config None reads no file, "missing" names one that does not exist.
@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["sweep-gamma", "--gamma-list", "0.1,abc"], None, "gamma_list: could not parse"),
        (["sweep-gamma", "--gamma-list", ","], None, "gamma_list: must not be empty"),
        (["curve"], "missing", "config: cannot read"),
        (["curve"], "[1, 2]", "config: top level must be a JSON object"),
        (["clt", "--temperature", "0"], None, "temperature must be positive, got 0.0"),
    ],
)
def test_a_configuration_error_exits_2_with_its_message(
    argv, config, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        path = tmp_path / "run.json"
        if config != "missing":
            path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {message}")
    assert captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_config_field_is_named(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"coupling_strength": 0.2}))
    assert main(["curve", "--config", str(config)]) == 2
    assert "coupling_strength" in capsys.readouterr().err


def test_complete_positivity_refusal_names_gamma(capsys):
    assert main(["curve", "--gamma", "0.75"]) == 2
    err = capsys.readouterr().err
    assert "gamma" in err
    assert "positiv" in err


def test_nonpositive_temperature_refusal(capsys):
    assert main(["sweep-temp", "--temperature-list", "0.5,0", "--t-steps", "20"]) == 2
    err = capsys.readouterr().err
    assert "temperature" in err
    assert "zero temperature" in err


# The default temperature_list holds T = 0.1, where tanh(eps / (2 T)) rounds to 1
# once eps >~ 3.8. Neither command reads that list, so neither refuses it.
@pytest.mark.parametrize(
    "args",
    [
        ["curve", "--epsilon", "3.8", "--temperature", "1.0", "--output"],
        ["sweep-gamma", "--epsilon", "4", "--temperature", "1.0", "--output-dir"],
    ],
)
def test_a_command_runs_whatever_a_sweep_list_it_does_not_read_holds(args, tmp_path):
    target = tmp_path / "curve.csv" if args[0] == "curve" else tmp_path
    assert main(args + [str(target), "--t-steps", "20"]) == 0


# A sweep never reads the base value of the field it sweeps.
@pytest.mark.parametrize(
    "args",
    [
        ["sweep-gamma", "--gamma", "0.7", "--gamma-list", "0.1,0.2"],
        ["sweep-temp", "--temperature", "0.001", "--temperature-list", "0.1,0.2"],
    ],
)
def test_a_sweep_runs_whatever_base_value_of_its_swept_field_it_is_given(args, tmp_path):
    assert main(args + ["--t-steps", "20", "--output-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("base", ["inf", "nan"])
def test_a_non_finite_base_gamma_is_refused_only_where_it_is_read(base, tmp_path, capsys):
    # sweep-gamma never reads the base gamma, so any value gives the same files
    args = ["sweep-gamma", "--t-steps", "20", "--gamma-list", "0.1,0.4", "--gamma"]
    assert main(args + [base, "--output-dir", str(tmp_path / "odd")]) == 0
    assert main(args + ["0.7", "--output-dir", str(tmp_path / "plain")]) == 0
    names = sorted(os.listdir(tmp_path / "plain"))
    assert sorted(os.listdir(tmp_path / "odd")) == names
    for name in names:
        assert (tmp_path / "odd" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    capsys.readouterr()
    assert main(["curve", "--gamma", base, "--output", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == f"configuration error: gamma must be finite, got {base}\n"
    assert not (tmp_path / "c.csv").exists()


def test_sweep_temp_refuses_its_default_list_where_eta_rounds_to_one(tmp_path, capsys):
    argv = ["sweep-temp", "--epsilon", "4", "--temperature", "1.0", "--output-dir"]
    assert main(argv + [str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: temperature_list: tanh(epsilon*beta/2) = 1.0 must lie "
        "strictly in (0, 1); the temperature is too low for finite-precision thermal "
        "structure\n"
    )
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command,built", [("curve", 1), ("sweep-gamma", 1), ("sweep-temp", 1)]
)
def test_each_command_validates_each_parameter_set_once(
    command, built, tmp_path, monkeypatch
):
    # a curve's base point, or a sweep's list with the base fields it reads, once
    sets = []
    check = ModelParams.__post_init__

    def counted(self):
        sets.append(self)
        check(self)

    monkeypatch.setattr(ModelParams, "__post_init__", counted)
    out = ["--output", "c.csv"] if command == "curve" else ["--output-dir", "."]
    monkeypatch.chdir(tmp_path)
    assert main([command, "--t-steps", "20", *out]) == 0
    assert len(sets) == built


def test_sweep_gamma_outputs(tmp_path, capsys):
    code = main(
        [
            "sweep-gamma",
            "--t-steps",
            "30",
            "--gamma-list",
            "0.1,0.5",
            "--output-dir",
            str(tmp_path),
            "--plot-script",
            "sweep.gp",
        ]
    )
    assert code == 0
    assert (tmp_path / "curve_gamma_0.1.csv").exists()
    assert (tmp_path / "curve_gamma_0.5.csv").exists()
    summary = _read(tmp_path / "gamma_summary.csv")
    assert "gamma,max_E,lifetime" in summary
    script = _read(tmp_path / "sweep.gp")
    assert "plot" in script
    assert "using 1:3" in script
    assert "curve_gamma_0.1.csv" in script
    out = capsys.readouterr().out
    assert "gamma = 0.1" in out


def test_sweep_temp_outputs(tmp_path):
    code = main(
        [
            "sweep-temp",
            "--t-steps",
            "30",
            "--temperature-list",
            "0.1,0.5,1.0",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "curve_temperature_0.1.csv",
        "curve_temperature_0.5.csv",
        "curve_temperature_1.csv",
        "temperature_summary.csv",
    ]


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["sweep-gamma", "--t-steps", "25", "--gamma-list", "0.2,0.4"]
    dir_one, dir_two = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--output-dir", str(dir_one)]) == 0
    assert main(args + ["--output-dir", str(dir_two), "--workers", "2"]) == 0
    for name in sorted(os.listdir(dir_one)):
        assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes()


def test_verify_fast_passes(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("PASS") >= 7
    assert "FAIL" not in out


def test_verify_prints_one_report_whatever_the_level(capsys):
    reports = []
    for level in ([], ["--level", "fast"], ["--level", "full"]):
        assert main(["verify", *level]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].endswith("all checks passed\n")


def test_verify_fails_when_the_drift_is_tampered(monkeypatch, capsys):
    def tampered(params):
        matrix = drift_matrix(params).copy()
        matrix[0, 2] += 1e-3
        return matrix

    monkeypatch.setattr(checks, "drift_matrix", tampered)
    assert main(["verify", "--level", "fast"]) == 1
    out = capsys.readouterr().out
    assert "generator-match" in out
    assert "FAIL" in out


def test_verify_full_passes(capsys):
    assert main(["verify", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "all checks passed" in out


def test_verify_reports_each_check_once_in_order_with_its_tolerance(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if " residual " in line]
    assert [(row[0], row[4]) for row in rows] == [
        ("dissipation-spectrum", "1e-12"),
        ("thermal-invariance", "1e-12"),
        ("generator-match", "1e-10"),
        ("mode-ccr", "1e-12"),
        ("clt-convergence", "1e-02"),
        ("thermal-covariance", "1e-12"),
        ("state-physicality", "1e-09"),
        ("curve-engine", "1e-12"),
    ]


def test_verify_reports_a_numeric_error_as_a_failure(monkeypatch, capsys):
    def tampered(params):
        coupling = original(params).copy()
        coupling[..., 0, 0] = 3.0
        return coupling

    original = modes.coupling
    monkeypatch.setattr(modes, "coupling", tampered)
    assert main(["verify", "--level", "fast"]) == 1
    lines = capsys.readouterr().out.splitlines()
    results = [line for line in lines if " residual " in line]
    assert len(results) == 8
    # both checks that read the reference stacks fail
    for name in ("state-physicality", "curve-engine"):
        line = next(line for line in results if line.startswith(name))
        assert line.endswith("FAIL") and " inf " in line
    assert "    covariance is not positive definite" in lines


def test_dissipation_check_reports_injected_cp_violation():
    # the body of the dissipation-spectrum check, probed outside the CP window
    residuals, detail = checks.check_dissipation_spectrum(gammas=(0.25, 0.6))
    assert max(residuals) > 1e-12
    assert abs(max(residuals) - 0.2) < 1e-12
    assert "-0.2" in detail


def test_clt_table(capsys):
    assert main(["clt", "--sites", "100,1000,10000"]) == 0
    out = capsys.readouterr().out
    assert "0.606024077215" in out
    assert "0.606530659713" in out
    assert "monotone convergence for every observable: yes" in out


# The last two do not rise, so no monotone verdict could be read from them.
@pytest.mark.parametrize(
    "sites",
    ["100.7,1000", "100.0000000000000001", "inf", "nan", "1e400", "1000,100", "100,100"],
)
def test_clt_refuses_a_non_integral_site_count(sites, capsys):
    assert main(["clt", "--sites", sites]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: sites: ")
    assert captured.out == ""


def test_clt_reads_the_error_where_the_difference_keeps_no_digit(capsys):
    assert main(["clt", "--sites", "1e12,1e14,1e16,1e18,1e20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # limit/(12 n) to seven digits, for each of the eight observables
    for k in (14, 16, 18, 20, 22):
        assert sum(line.endswith(f"5.054422e-{k}") for line in lines) == 8
    assert lines[-1] == "monotone convergence for every observable: yes"


def test_clt_takes_a_site_count_beyond_64_bits(capsys):
    assert main(["clt", "--sites", "100,1e20"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count(f"{10**20:>8}") == 8


def test_clt_reads_an_exponent_site_count_exactly(capsys):
    # float("1e23") is 99999999999999991611392
    assert main(["clt", "--sites", "100,1e23"]) == 0
    out = capsys.readouterr().out
    assert out.count("100000000000000000000000") == 8
    assert "99999999999999991611392" not in out


def _fresh_interpreter(*argv: str) -> str:
    """Stdout of `python *argv` in a new process that imports this package.

    A non-zero exit raises CalledProcessError.
    """
    src = str(Path(mesospin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, mesospin.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_interpreter("-c", probe).strip() == "[]"


def test_curve_leaves_the_generator_pieces_unbuilt(tmp_path):
    out = tmp_path / "curve.csv"
    probe = (
        "import mesospin, mesospin.oracle as oracle; from mesospin.cli import main; "
        f"main(['curve', '--t-steps', '40', '--output', {str(out)!r}]); "
        "print(oracle.generator_pieces.cache_info().currsize)"
    )
    lines = _fresh_interpreter("-c", probe).splitlines()
    assert lines[0].startswith("wrote ")
    assert lines[-1] == "0"


def test_curve_to_a_missing_directory_is_refused(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["curve", "--t-steps", "20", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write '{out}': ")
    assert "Traceback" not in captured.err


def test_a_failed_write_to_an_output_file_names_the_file(capsys):
    # /dev/full opens, then refuses the write: the error carries no file name
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this machine")
    assert main(["curve", "--t-steps", "20", "--output", "/dev/full"]) == 2
    assert capsys.readouterr().err == "cannot write '/dev/full': No space left on device\n"


def test_sweep_into_an_existing_file_is_refused(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    argv = ["sweep-gamma", "--t-steps", "20", "--output-dir", str(taken)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write '{taken}': ")
    assert captured.out == ""
    assert taken.read_text() == "keep\n"


class _ClosedPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["clt", "--sites", "100,1000"], ["verify"]])
def test_a_closed_stdout_ends_the_command_without_a_message(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 2
    assert capsys.readouterr().err == ""


def test_a_failed_write_to_stdout_names_no_path(monkeypatch, capsys):
    class Full(_ClosedPipe):
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["clt", "--sites", "100,1000"]) == 2
    assert capsys.readouterr().err == "cannot write: No space left on device\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_pipe_exits_quietly_in_a_fresh_interpreter(unbuffered):
    # as in `mesospin clt | head -3`: the pipe has no reader before anything is
    # written; buffered, the write fails only when stdout is flushed
    src = str(Path(mesospin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    child = subprocess.Popen(
        [sys.executable, "-m", "mesospin", "clt", "--sites", "100,1000"],
        env={**env, "PYTHONPATH": path, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 2
    assert err == b""


def test_curve_with_a_plot_script_in_a_missing_directory_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    if os.path.exists("/missing"):
        pytest.skip("/missing exists on this machine")
    monkeypatch.chdir(tmp_path)
    argv = ["curve", "--output", "ok.csv", "--plot-script", "/missing/x.gp"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not (tmp_path / "ok.csv").exists()
    assert "wrote" not in captured.out
    assert captured.err.startswith("cannot write '/missing/x.gp': ")


def test_sweep_plot_script_in_a_missing_subdirectory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep-temp", "--t-steps", "20", "--output-dir", str(out)]
    assert main([*argv, "--plot-script", "sub/s.gp"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write '{out / 'sub' / 's.gp'}': ")
    assert captured.out == ""
    assert not out.exists()
    # A bare name goes into the output directory, which the sweep makes.
    assert main([*argv, "--plot-script", "s.gp"]) == 0
    assert (out / "s.gp").exists()


def test_curve_plot_script(tmp_path):
    out = tmp_path / "c.csv"
    script = tmp_path / "c.gp"
    code = main(
        [
            "curve",
            "--t-steps",
            "20",
            "--output",
            str(out),
            "--plot-script",
            str(script),
        ]
    )
    assert code == 0
    text = _read(script)
    assert "plot 'c.csv' using 1:3" in text


def test_plot_script_doubles_the_quotes_in_a_file_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["curve", "--t-steps", "20", "--output", "it's.csv", "--plot-script", "p.gp"]) == 0
    assert "plot 'it''s.csv' using 1:3 with lines title 'gamma = 0.5'\n" in _read("p.gp")


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_curve_values_match_library_results(tmp_path):
    from mesospin.experiments import ExperimentConfig, run_curve

    out = tmp_path / "c.csv"
    assert main(["curve", "--t-steps", "30", "--output", str(out)]) == 0
    rows = [
        line.split(",")
        for line in _read(out).strip().split("\n")
        if not line.startswith("#") and not line.startswith("t,")
    ]
    curve = run_curve(ExperimentConfig.from_dict({"t_steps": 30}))
    assert len(rows) == 30
    # 12 significant digits in the file bound the relative roundtrip error
    for row, t, e in zip(rows, curve.times, curve.log_negativity):
        assert abs(float(row[0]) - t) < 5e-12 * max(1.0, abs(t))
        assert abs(float(row[2]) - e) < 1e-12 + 5e-12 * abs(e)
    assert np.isclose(float(rows[0][1]), curve.nu_min[0])


def test_calls_on_the_shared_parser_leak_nothing(tmp_path, capsys):
    a, b, fresh = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "fresh.csv"
    assert main(["curve", "--gamma", "0.3", "--output", str(a)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["curve", "--t-steps", "x"])
    assert excinfo.value.code == 2
    sweep = ["sweep-temp", "--t-steps", "20", "--temperature-list", "0.2,0.4"]
    assert main(sweep + ["--output-dir", str(tmp_path / "sweep")]) == 0
    assert main(["curve", "--output", str(b)]) == 0
    _fresh_interpreter(
        "-c", f"from mesospin.cli import main; main(['curve', '--output', {str(fresh)!r}])"
    )
    assert b.read_bytes() == fresh.read_bytes()
    assert "# gamma = 0.5\n" in _read(b)


def test_the_parser_is_built_once_per_process(tmp_path):
    out = str(tmp_path / "c.csv")
    probe = (
        "import argparse; from mesospin.cli import main\n"
        "built = []; init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1); init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "counts = []\n"
        "for _ in range(3):\n"
        f"    main(['curve', '--t-steps', '20', '--output', {out!r}]); counts.append(len(built))\n"
        "print(counts)"
    )
    one, _, three = json.loads(_fresh_interpreter("-c", probe).splitlines()[-1])
    assert one > 0
    assert three == one


def test_the_cached_parser_runs_the_sweep_bound_in_the_module_now(tmp_path, monkeypatch):
    import mesospin.cli as cli

    cli.build_parser()
    calls = []
    original = cli.sweep_gamma

    def counted(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(cli, "sweep_gamma", counted)
    argv = ["sweep-gamma", "--t-steps", "20", "--gamma-list", "0.2", "--output-dir"]
    assert main(argv + [str(tmp_path)]) == 0
    assert len(calls) == 1


def test_python_dash_m_mesospin_runs_the_cli():
    assert "all checks passed" in _fresh_interpreter("-m", "mesospin", "verify")
