"""Acceptance gate: the eleven shipping criteria, one test per criterion.

Each test prints one machine-greppable verdict line; pytest -v adds the
pass/fail status per criterion name. Criterion 8 asserts a strict temperature
monotonicity that the model does not satisfy over the default list (the
entanglement threshold sits at T_c = 0.2859, so the two hotter sweep points
tie at exactly zero); it is left failing with the measured numbers printed rather
than weakened. See the README section on the known red criterion.
"""

from __future__ import annotations

import time

import numpy as np

from mesospin.checks import check_dissipation_spectrum
from mesospin.errors import ContractViolation
from mesospin.experiments import ExperimentConfig, run_curve, sweep_gamma, sweep_temperature
from mesospin.modes import drift_matrix, initial_state, mode_operators, propagate
from mesospin.negativity import log_negativity, min_symplectic_pt, negativity
from mesospin.oracle import (
    extract_mode_generator,
    liouvillian,
    vec,
    weyl_expectation_finite,
    weyl_expectation_limit,
)
from mesospin.sites import (
    ModelParams,
    dissipation_matrix,
    expectation,
    fluctuation_inner,
    kron2,
    observables,
    thermal_state,
)

GRID = [
    ModelParams(eps, temp, gamma)
    for eps in (0.5, 1.0, 2.0)
    for temp in (0.1, 0.5, 1.0, 5.0)
    for gamma in (0.0, 0.1, 0.25, 0.5)
]
EPS_TEMP_GRID = [(eps, temp) for eps in (0.5, 1.0, 2.0) for temp in (0.1, 0.5, 1.0, 5.0)]


def _verdict(number: int, label: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE criterion {number:02d} ({label}): PASS{suffix}")


def test_criterion_01_generator_certified_on_the_grid():
    start = time.perf_counter()
    worst_residual = 0.0
    worst_block = 0.0
    for params in GRID:
        ext = extract_mode_generator(
            liouvillian(params), mode_operators(params), thermal_state(params)
        )
        m = drift_matrix(params)
        worst_residual = max(worst_residual, ext.residual)
        worst_block = max(
            worst_block, float(np.abs(ext.mode_generator[:4, :4] - m.T).max())
        )
    elapsed = time.perf_counter() - start
    assert worst_residual <= 1e-10
    assert worst_block <= 1e-10
    assert elapsed < 1.0
    _verdict(
        1,
        "generator certification",
        f"closure {worst_residual:.2e}, block match {worst_block:.2e}, "
        f"{len(GRID)} grid points in {elapsed:.2f}s",
    )


def test_criterion_02_dissipation_spectrum_and_positivity_window():
    # an empty detail is check_dissipation_spectrum's verdict that every
    # coupling it was given is completely positive
    worst = 0.0
    for gamma in (0.0, 0.1, 0.25, 0.5):
        expected = np.sort([1.0 - 2.0 * gamma, 1.0, 1.0, 1.0 + 2.0 * gamma])
        eigenvalues = np.linalg.eigvalsh(dissipation_matrix(gamma))
        worst = max(worst, float(np.abs(eigenvalues - expected).max()))
        assert check_dissipation_spectrum((gamma,))[1] == ""
    assert worst <= 1e-12
    assert check_dissipation_spectrum((0.5,))[1] == ""
    assert check_dissipation_spectrum((0.5 + 1e-9,))[1] != ""
    residuals, detail = check_dissipation_spectrum((0.6,))
    assert detail != ""
    # the residual after the spectrum's is minus the smallest eigenvalue
    assert abs(-residuals[1] - (-0.2)) <= 1e-12
    _verdict(2, "dissipation spectrum", f"spectrum residual {worst:.2e}, window edge 0.5")


def test_criterion_03_thermal_state_is_invariant_on_both_levels():
    words = [kron2(i, j) for i in range(4) for j in range(4)]
    worst_micro = 0.0
    for params in GRID:
        weights = thermal_state(params)
        generator = liouvillian(params)
        for word in words:
            image = (generator @ vec(word)).reshape(4, 4).T
            worst_micro = max(worst_micro, abs(expectation(weights, image)))
    assert worst_micro <= 1e-12

    params = ModelParams(1.0, 0.1, 0.5)
    state = initial_state(params, 0.0)
    reference = np.eye(8) / params.eta
    worst_meso = max(
        float(np.abs(propagate(state, params, t).covariance - reference).max())
        for t in np.linspace(0.0, 5.0, 101)
    )
    assert worst_meso <= 1e-10
    quiet = run_curve(ExperimentConfig.from_dict({"squeeze_r": 0.0}))
    assert quiet.max_log_negativity == 0.0
    _verdict(
        3,
        "thermal invariance",
        f"micro {worst_micro:.2e} (16 operators), meso sup-drift {worst_meso:.2e}",
    )


def test_criterion_04_canonical_commutators_everywhere_on_the_grid():
    worst = 0.0
    for eps, temp in EPS_TEMP_GRID:
        params = ModelParams(eps, temp, 0.0)
        weights = thermal_state(params)
        ops = mode_operators(params)
        for i, ai in enumerate(ops):
            for j, aj in enumerate(ops):
                with_dagger = fluctuation_inner(
                    ai.conj().T, aj.conj().T, weights
                ) - fluctuation_inner(aj, ai, weights)
                worst = max(worst, abs(with_dagger - (1.0 if i == j else 0.0)))
                plain = fluctuation_inner(ai.conj().T, aj, weights) - fluctuation_inner(
                    aj.conj().T, ai, weights
                )
                worst = max(worst, abs(plain))
    assert worst <= 1e-12
    _verdict(4, "mode commutators", f"worst deviation {worst:.2e} over 16 pairs/point")


def test_criterion_05_central_limit_convergence():
    weights = thermal_state(ModelParams(1.0, 1.0, 0.5))
    worst_final = 0.0
    for x in observables():
        limit = weyl_expectation_limit(x, weights)
        errors = [
            abs(weyl_expectation_finite(x, n, weights) - limit)
            for n in (100, 1000, 10000)
        ]
        assert errors[0] > errors[1] > errors[2]
        worst_final = max(worst_final, errors[2])
    assert worst_final <= 1e-2
    x1 = observables()[0]
    assert abs(weyl_expectation_finite(x1, 100, weights) - 0.6060240772154118) <= 1e-12
    assert abs(weyl_expectation_limit(x1, weights) - 0.6065306597126334) <= 1e-12
    _verdict(5, "central limit", f"worst error at 10^4 sites {worst_final:.2e}")


def test_criterion_06_initial_state_carries_no_negativity():
    for temperature in (0.1, 1.0, 5.0):
        for r in (0.0, 1.0, 3.0):
            params = ModelParams(1.0, temperature, 0.5)
            nu = negativity(initial_state(params, r)).nu_min
            # the squeezed variance exp(-2r)/eta is a cosh - sinh difference,
            # so its relative accuracy degrades like exp(4r) * eps
            tol = (1e-12 + 4e-16 * float(np.exp(4.0 * r))) / params.eta
            assert abs(nu - 1.0 / params.eta) <= tol
            assert log_negativity(nu) == 0.0
    no_coupling = run_curve(ExperimentConfig.from_dict({"gamma": 0.0, "t_steps": 200}))
    assert no_coupling.max_log_negativity == 0.0
    no_squeeze = run_curve(ExperimentConfig.from_dict({"squeeze_r": 0.0, "t_steps": 200}))
    assert no_squeeze.max_log_negativity == 0.0
    _verdict(6, "separable start", "nu(0) = 1/eta on all grids; gamma=0 and r=0 stay at E=0")


def test_criterion_07_entanglement_grows_with_the_coupling():
    start = time.perf_counter()
    sweep = sweep_gamma(ExperimentConfig())
    elapsed = time.perf_counter() - start
    max_es = [row[1] for row in sweep.summary]
    assert sweep.values == (0.1, 0.2, 0.3, 0.4, 0.5)
    assert max_es[-1] > 0.0
    assert all(a <= b + 1e-15 for a, b in zip(max_es, max_es[1:]))
    assert elapsed < 10.0
    _verdict(
        7,
        "coupling sweep",
        "max E = " + ", ".join(f"{e:.4f}" for e in max_es) + f" in {elapsed:.1f}s",
    )


def test_criterion_08_entanglement_decays_with_temperature():
    sweep = sweep_temperature(ExperimentConfig())
    max_es = [row[1] for row in sweep.summary]
    lifetimes = [row[2] for row in sweep.summary]
    print(
        "ACCEPTANCE criterion 08 (temperature sweep): measured "
        f"T = {sweep.values}, max E = {[f'{e:.6f}' for e in max_es]}, "
        f"lifetime = {lifetimes}"
    )
    print(
        "ACCEPTANCE criterion 08 note: entanglement threshold lies near "
        "T ~ 0.27 at gamma = 0.5, r = 1; both hotter points give exactly "
        "zero, so strict decrease cannot hold on this list"
    )
    for a, b in zip(max_es, max_es[1:]):
        assert a > b, f"max E not strictly decreasing: {max_es}"
    for a, b in zip(lifetimes, lifetimes[1:]):
        assert a > b, f"lifetime not strictly decreasing: {lifetimes}"
    _verdict(8, "temperature sweep")


def _nu_of(state) -> float:
    return negativity(state).nu_min


def test_criterion_09_relaxation_envelope_rate():
    for gamma in (0.1, 0.3, 0.5):
        params = ModelParams(1.0, 0.1, gamma)
        state = initial_state(params, 1.0)
        reference = np.eye(8) / params.eta
        times = np.linspace(2.0, 5.0, 16)
        norms = [
            np.linalg.norm(propagate(state, params, t).covariance - reference, 2)
            for t in times
        ]
        slope = np.polyfit(times, np.log(norms), 1)[0]
        expected = -2.0 * (1.0 - gamma)
        assert abs(slope - expected) <= 0.1 * abs(expected)
        late = _nu_of(propagate(state, params, 5.0))
        assert abs(late - 1.0 / params.eta) < 0.02
    _verdict(9, "relaxation envelope", "fitted rates within 10% of 2(1-gamma)")


def test_criterion_10_negativity_anchors():
    assert min_symplectic_pt(np.eye(4)) == 1.0
    assert log_negativity(min_symplectic_pt(np.eye(4))) == 0.0
    c, s = np.cosh(2.0), np.sinh(2.0)
    tmsv = np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )
    nu = min_symplectic_pt(tmsv)
    assert abs(nu - np.exp(-2.0)) <= 1e-10
    assert abs(log_negativity(nu) - 2.0) <= 1e-10
    try:
        log_negativity(0.0)
    except ContractViolation:
        pass
    else:  # pragma: no cover - the contract must hold
        raise AssertionError("log_negativity accepted a nonpositive eigenvalue")
    _verdict(10, "negativity anchors", "vacuum E = 0, two-mode squeezed E = 2")


def test_criterion_11_byte_identical_output(tmp_path):
    from mesospin.cli import main

    args = [
        "sweep-gamma",
        "--t-steps",
        "40",
        "--gamma-list",
        "0.1,0.3,0.5",
    ]
    dir_one, dir_two = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--output-dir", str(dir_one)]) == 0
    assert main(args + ["--output-dir", str(dir_two), "--workers", "3"]) == 0
    names = sorted(p.name for p in dir_one.iterdir())
    assert names == sorted(p.name for p in dir_two.iterdir())
    for name in names:
        assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes()
    _verdict(11, "deterministic output", f"{len(names)} files byte-identical across runs")
