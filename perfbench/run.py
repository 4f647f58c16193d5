"""mesospin benchmark: one command for the curve, sweep and verify workloads.

    python3 perfbench/run.py --workload {curve,sweep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from ./src; nothing is
installed. One process drives the CLI in process through mesospin.cli.main,
in a closed loop: the next command starts when the previous one returns.
Set-up time is measured in fresh interpreters.

--trace 0 prints the end-to-end metrics: setup_s, op_norm_ms_p50,
op_norm_ms_p90, ops_ok_frac, nu_digits and peak_rss_mb. The times are scaled
to a nominal host speed by a fixed kernel timed beside each of them (see
calibrate.py); the raw wall times go to result.json. --trace 1 splits the time between an
untraced and a traced pass and prints the per-layer metrics, per operation.
Either way every output is checked and the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. Details
(sample counts, failures, provenance) go to
.perfbench-work/<workload>-seed<N>-trace<T>/result.json; a traced run also
writes its spans there as spans.csv.gz.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# The program's matrices are 4x4 and 8x8, too small to gain from BLAS
# threads, whose spin-waiting made scipy's expm up to 50 times slower on a
# shared 2-core host. One BLAS thread keeps the load to this process's own
# threads (at most the sweep's two workers). Set before numpy loads; the
# cold-start interpreters inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Cold starts in each of three groups: before the library arrays, before the
# timed loop and after it. Starts within one group read alike; the host's
# speed drifts between groups, so spreading them steadies the median.
COLD_STARTS = 4
COLD_START_CODE = "import mesospin.cli as c; c.build_parser()"
# perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child, so
# the child can stamp the moment its parser is built.
COLD_START_STAMP = COLD_START_CODE + "; import time; print(repr(time.perf_counter()))"
SUBPROCESS_TIMEOUT = 60

END_TO_END_UNITS = {
    "setup_s": "s", "op_norm_ms_p50": "ms", "op_norm_ms_p90": "ms", "ops_ok_frac": "frac",
    "nu_digits": "digits", "peak_rss_mb": "MB",
}
CHECK_NAMES = ("dissipation_spectrum", "thermal_invariance", "generator_match", "mode_ccr",
               "clt_convergence", "stationarity", "physicality")
PER_LAYER_UNITS = {
    "modes.propagate.self_ms": "ms", "modes.propagate.calls": "count",
    "modes.drift_matrix.ms": "ms", "modes.initial_state.ms": "ms",
    "linalg.expm.ms": "ms", "linalg.expm.calls": "count",
    "linalg.expm.calls.modes": "count", "linalg.expm.calls.oracle": "count",
    "negativity.negativity.self_ms": "ms", "negativity.first_mode_block.ms": "ms",
    "negativity.quadrature_covariance.ms": "ms", "negativity.min_symplectic_pt.self_ms": "ms",
    "negativity.symplectic_eigenvalues.ms": "ms", "negativity.points": "count",
    "negativity.numeric_errors": "count",
    "experiments.ExperimentConfig.ms": "ms", "experiments.run_curve.self_ms": "ms",
    "experiments.sweep.self_ms": "ms", "experiments.curve_csv_text.ms": "ms",
    "experiments.summary_csv_text.ms": "ms", "experiments.write_text.ms": "ms",
    "experiments.write_text.bytes": "bytes",
    "sites.ModelParams.calls": "count", "sites.ModelParams.ms": "ms",
    "cli.main.self_ms": "ms",
    "oracle.liouvillian.ms": "ms", "oracle.extract_mode_generator.ms": "ms",
    "oracle.weyl_expectation_finite.ms": "ms", "oracle.weyl_expectation_limit.ms": "ms",
    **{f"checks.{name}.ms": "ms" for name in CHECK_NAMES},
    "checks.failed": "count",
    "import.numpy_ms": "ms", "import.scipy_ms": "ms", "import.mesospin_self_ms": "ms",
    "trace.overhead_frac": "frac", "sweep.serial_ms": "ms",
}


@dataclass
class Outcome:
    """One executed operation."""

    op: workloads.Op
    out_dir: str
    ms: float
    traced: bool
    workers: int
    returncode: int | None
    error: BaseException | None
    # Mean time of the calibration kernel just before and just after the
    # operation; set by run_loop.
    kernel_ms: float = math.nan
    # ok, refused, inaccurate, mismatch or error; set by check_outcomes.
    verdict: str = "ok"
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def compile_bytecode() -> None:
    """One discarded start: it may compile bytecode, which users pay once per
    install."""
    subprocess.run([sys.executable, "-c", COLD_START_CODE], env=child_env(), cwd=ROOT,
                   check=True, timeout=SUBPROCESS_TIMEOUT)


def cold_start_seconds(count: int) -> list[tuple[float, float]]:
    """(seconds, kernel ms) of each of `count` cold starts: the time from
    spawning a fresh interpreter until mesospin is imported and the CLI parser
    is built, and the calibration kernel's mean time just before and after."""
    env = child_env()
    samples = []
    kernel_before = calibrate.kernel_ms()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START_STAMP], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)
        seconds = float(proc.stdout.split()[-1]) - t0
        kernel_after = calibrate.kernel_ms()
        samples.append((seconds, (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return samples


def import_times_ms() -> dict[str, float]:
    """numpy, scipy and mesospin's own share of `import mesospin` (-X importtime)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", COLD_START_CODE],
                          env=child_env(), cwd=ROOT, check=True, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((name.strip(), depth, int(self_us), int(cumulative_us)))

    def outermost_cumulative(package: str) -> float:
        mine = [e for e in entries if e[0] == package or e[0].startswith(package + ".")]
        if not mine:
            return 0.0
        top = min(e[1] for e in mine)
        return sum(e[3] for e in mine if e[1] == top) / 1e3

    return {
        "import.numpy_ms": outermost_cumulative("numpy"),
        "import.scipy_ms": outermost_cumulative("scipy"),
        "import.mesospin_self_ms": sum(
            e[2] for e in entries if e[0] == "mesospin" or e[0].startswith("mesospin.")) / 1e3,
    }


def run_op(cli, op: workloads.Op, out_dir: str, traced: bool, workers: int = 2) -> Outcome:
    os.makedirs(out_dir)
    argv = op.run_argv(out_dir, workers)
    sink = io.StringIO()
    returncode, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            returncode = cli.main(argv)
    except Exception as exc:  # given a verdict by check_outcomes, never hidden
        error = exc
    ms = (time.perf_counter() - t0) * 1e3
    return Outcome(op, out_dir, ms, traced, workers, returncode, error)


def run_loop(cli, ops, seconds: float, ops_dir: str, start: int, traced: bool,
             cycles: int) -> list[Outcome]:
    """Run whole cycles through ops until `seconds` have passed and at least
    `cycles` are done, so that every command carries the same weight. The
    calibration kernel runs between operations."""
    done = []
    deadline = time.perf_counter() + seconds
    kernel_before = calibrate.kernel_ms()
    while time.perf_counter() < deadline or len(done) < cycles * len(ops):
        for op in ops:
            o = run_op(cli, op, os.path.join(ops_dir, str(start + len(done))), traced)
            kernel_after = calibrate.kernel_ms()
            o.kernel_ms = (kernel_before + kernel_after) / 2
            kernel_before = kernel_after
            done.append(o)
    return done


def is_refusal(error: BaseException) -> bool:
    """The package's own errors: it declined to return a number."""
    names = {c.__name__ for c in type(error).__mro__}
    return bool(names & {"NumericError", "ConfigError", "ContractViolation"})


def is_known_limit(o: Outcome) -> bool:
    """A refusal or accuracy miss in the known strong-squeeze limit: measured
    by ops_ok_frac and nu_digits, not counted as a failed operation."""
    return o.verdict in ("refused", "inaccurate") and o.op.strong


def check_outcomes(outcomes: list[Outcome], libs: dict, refs: dict) -> None:
    """Give every operation a verdict. None is skipped.

    The first run of each command is checked against the library arrays and
    the mpmath reference; every repeat must reproduce it byte for byte.
    """
    canonical: dict[int, tuple[Outcome, dict[str, bytes] | None]] = {}
    for o in outcomes:
        op = o.op
        files = workloads.read_tree(o.out_dir) if o.error is None else None
        if op.key in canonical:
            first, first_files = canonical[op.key]
            same = (type(o.error) is type(first.error) and o.returncode == first.returncode
                    and files == first_files)
            if not same:
                o.verdict = "mismatch"
                o.problems.append("repeat is not byte-identical to the first run")
            else:
                o.verdict, o.problems = first.verdict, list(first.problems)
            continue
        canonical[op.key] = (o, files)
        lib = libs.get(op.key)
        if o.error is not None:
            o.verdict = "refused" if is_refusal(o.error) else "error"
            o.problems.append(f"{type(o.error).__name__}: {o.error}")
            if lib is not None and lib.error is None:
                o.verdict = "mismatch"
                o.problems.append("the library computed this configuration without error")
            continue
        if o.returncode != 0:
            o.verdict = "refused" if o.returncode == 2 else "error"
            o.problems.append(f"exit code {o.returncode}")
            continue
        if lib is None:  # verify: its exit code is its whole verdict
            continue
        if lib.error is not None:
            o.verdict = "mismatch"
            o.problems.append(f"library raised {type(lib.error).__name__} but the CLI succeeded")
            continue
        problems, parsed = workloads.check_csv_files(o.out_dir, lib)
        if problems:
            o.verdict = "mismatch"
            o.problems += problems
            continue
        for ci, ti in op.samples:
            got, want = float(parsed[ci][ti, 1]), refs[(op.key, ci, ti)]
            if abs(got - want) > workloads.SPECTRAL_TOL * want:
                o.verdict = "inaccurate"
                o.problems.append(f"nu_min at curve {ci}, t index {ti}: {got!r} vs reference "
                                  f"{want!r} (relative error {abs(got - want) / want:.2e})")


def provenance(workload: str, seed: int) -> dict:
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # Only a repository rooted here names this tree's commit.
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "mesospin"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii",
                                             errors="replace") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload, "seed": seed, "git_commit": commit,
        "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "mpmath": version("mpmath"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_points(mesospin, checked: list[workloads.Op]):
    """Library arrays of every checked command, then mpmath at its samples.

    Returns (library results by key, reference nu_min by (key, curve, time
    index), (digits, where) per sampled point).
    """
    libs = {op.key: workloads.library_result(mesospin, op.fields, op.command)
            for op in checked}
    refs: dict[tuple[int, int, int], float] = {}
    digit_points: list[tuple[float, str]] = []
    for op in checked:
        lib = libs[op.key]
        if lib.error is not None:
            continue
        for ci, ti in op.samples:
            params = op.curve_params(ci)
            t = float(lib.curves[ci][0][ti])
            want = float(reference.nu_min_reference(*params, t))
            refs[(op.key, ci, ti)] = want
            rel = abs(float(lib.curves[ci][1][ti]) - want) / want
            digit_points.append((-math.log10(max(rel, 2.0 ** -53)),
                                 f"(eps, T, gamma, r) = {params}, t = {t!r}"))
    return libs, refs, digit_points


def traced_run(cli, ops, seconds: float, ops_dir: str, work: str,
               info: dict) -> tuple[list[Outcome], dict[str, float]]:
    """Untraced half, traced half, one single-worker pass; per-layer figures."""
    outcomes = run_loop(cli, ops, seconds / 2, ops_dir, 0, traced=False, cycles=1)
    tracer = Tracer()
    info["targets_not_found"] = tracer.install()
    try:
        traced = run_loop(cli, ops, seconds / 2, ops_dir, len(outcomes), traced=True, cycles=1)
    finally:
        tracer.uninstall()
    # The serial baseline the sweep's worker pool is compared with; commands
    # without workers repeat unchanged.
    serial = [run_op(cli, op, os.path.join(ops_dir, f"serial{op.key}"), False, workers=1)
              for op in ops]
    layer = tracer.layer_metrics(len(traced))
    layer.update(import_times_ms())

    def completed_median(done: list[Outcome]) -> float:
        return statistics.median(o.ms for o in done if o.error is None and o.returncode == 0)

    layer["trace.overhead_frac"] = completed_median(traced) / completed_median(outcomes) - 1.0
    layer["sweep.serial_ms"] = statistics.median(o.ms for o in serial)
    tracer.write(os.path.join(work, "spans.csv.gz"))
    info["spans"] = len(tracer.spans)
    return outcomes + traced + serial, layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curve", "sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mesospin", "__init__.py")):
        print(f"perfbench: no mesospin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mesospin
    import mesospin.cli as cli
    if not os.path.abspath(mesospin.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {mesospin.__file__}, not the sources in {SRC}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench-work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    ops_dir = os.path.join(work, "ops")
    os.makedirs(ops_dir)
    info: dict = {"provenance": provenance(args.workload, args.seed)}
    print("provenance: " + json.dumps(info["provenance"]))

    # Set-up, all outside the timings: cold starts, the reference's
    # self-test, the library arrays (which also warm the process up), the
    # mpmath values and one untimed CLI command.
    t_setup = time.perf_counter()
    setup_samples: list[tuple[float, float]] = []
    if args.trace == 0:
        compile_bytecode()
        setup_samples += cold_start_seconds(COLD_STARTS)
    reference_misses = reference.self_test()
    ops = workloads.make_ops(args.workload, args.seed)
    checked = [op for op in ops if op.fields is not None]
    if args.workload == "verify":
        checked.append(workloads.PROBE)
    libs, refs, digit_points = reference_points(mesospin, checked)
    shutil.rmtree(run_op(cli, ops[0], os.path.join(work, "warmup"), traced=False).out_dir)
    if args.trace == 0:
        setup_samples += cold_start_seconds(COLD_STARTS)
    info["setup_wall_s"] = time.perf_counter() - t_setup

    layer: dict[str, float] = {}
    # Every command runs at least twice, so that its repeats can be compared.
    if args.trace == 0:
        outcomes = run_loop(cli, ops, args.seconds, ops_dir, 0, traced=False, cycles=2)
        setup_samples += cold_start_seconds(COLD_STARTS)
    else:
        outcomes, layer = traced_run(cli, ops, args.seconds, ops_dir, work, info)
    check_outcomes(outcomes, libs, refs)
    shutil.rmtree(ops_dir)

    timed = [o for o in outcomes if not o.traced and o.workers == 2]
    # Latency counts every command that completed with exit code 0; a wrong
    # output shows in ops_ok_frac and in `correct`, not as a missing sample.
    done = [o for o in timed if o.error is None and o.returncode == 0]
    done_ms = [o.ms for o in done]
    norm_ms = [calibrate.normalised(o.ms, o.kernel_ms) for o in done]
    setup_times = [s for s, _ in setup_samples]
    setup_norm = [calibrate.normalised(s, k) for s, k in setup_samples]
    ok_count = sum(o.verdict == "ok" for o in timed)
    missed = [o for o in outcomes if o.verdict != "ok"]
    limit = [o for o in missed if is_known_limit(o)]
    failed = [o for o in missed if not is_known_limit(o)]
    correct = not reference_misses and not any(o.verdict in ("mismatch", "error")
                                               for o in outcomes)
    verdicts: dict[str, int] = {}
    for o in outcomes:
        verdicts[o.verdict] = verdicts.get(o.verdict, 0) + 1
    info.update({
        "seconds": args.seconds, "trace": args.trace, "distinct_commands": len(ops),
        "attempted": len(outcomes), "failed": len(failed),
        "strong_squeeze_limit": len(limit), "correct": correct,
        "verdicts": verdicts, "reference_self_test_misses": reference_misses,
        "setup_s_samples": setup_times, "setup_norm_s_samples": setup_norm,
        "setup_kernel_ms_samples": [k for _, k in setup_samples],
        "op_ms_samples": done_ms, "op_norm_ms_samples": norm_ms,
        "op_kernel_ms_samples": [o.kernel_ms for o in done],
        "failures": [{"argv": list(o.op.argv), "verdict": o.verdict, "problems": o.problems[:3]}
                     for o in missed[:50]],
    })
    if not done_ms or not digit_points:
        print(f"perfbench: no operation completed or no nu_min could be sampled; see {work}",
              file=sys.stderr)
        write_result(work, info)
        return 1

    digits = min(digit_points)
    end_to_end = {
        "setup_s": statistics.median(setup_norm) if setup_norm else None,
        "op_norm_ms_p50": statistics.median(norm_ms),
        "op_norm_ms_p90": float(np.percentile(norm_ms, 90)),
        "ops_ok_frac": ok_count / len(timed),
        "nu_digits": digits[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info.update({"nu_digits_points": len(digit_points), "nu_digits_worst_at": digits[1],
                 "wall": {"setup_s": statistics.median(setup_times) if setup_times else None,
                          "op_ms_p50": statistics.median(done_ms),
                          "op_ms_p90": float(np.percentile(done_ms, 90))},
                 "end_to_end": end_to_end, "per_layer": layer})
    write_result(work, info)

    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} operations "
          f"({len(ops)} distinct commands), {len(failed)} failed, {len(limit)} in the "
          f"strong-squeeze limit {dict(sorted(verdicts.items()))}, outputs consistent: {correct}")
    if args.trace == 0:
        n = len(done_ms)
        notes = {
            "setup_s": f"median of {len(setup_times)} cold starts in three groups, normalised; "
                       f"wall median {statistics.median(setup_times):.4g} s",
            "op_norm_ms_p50": f"median of {n} completed untraced operations, normalised; "
                              f"wall median {statistics.median(done_ms):.6g} ms",
            "op_norm_ms_p90": f"{n} samples" + ("" if n >= 100 else ", too few for ten beyond p90")
                              + f"; wall p90 {np.percentile(done_ms, 90):.6g} ms",
            "ops_ok_frac": f"{ok_count} of {len(timed)} untraced operations",
            "nu_digits": f"min over {len(digit_points)} sampled points, worst at {digits[1]}"
                         + ("; verify computes no nu_min, so this is the default curve"
                            if args.workload == "verify" else ""),
            "peak_rss_mb": "ru_maxrss of the benchmark process",
        }
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<15} {end_to_end[name]:>12.6g} {unit:<6}  ({notes[name]})")
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<40} {layer.get(name, 0.0):>12.6g} {unit}")
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    for o in (failed + limit)[:5]:
        kind = "strong-squeeze limit" if is_known_limit(o) else "failed"
        print(f"  {kind} ({o.verdict}): {' '.join(o.op.argv)[:120]}: {o.problems[0][:160]}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def write_result(work: str, info: dict) -> None:
    with open(os.path.join(work, "result.json"), "w", encoding="ascii") as handle:
        json.dump(info, handle, indent=1, default=str)


if __name__ == "__main__":
    raise SystemExit(main())
