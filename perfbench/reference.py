"""Independent high-precision reference for the smallest PT symplectic eigenvalue.

Everything here is recomputed with mpmath from the model definition, at
REFERENCE_DPS decimal digits, and nothing numeric is imported from mesospin:

- the 4x4 drift of the annihilation modes, -(1 + i*eps) I + gamma K, and its
  exponential by mp.expm;
- the conjugation of the 8x8 moment matrix toward the thermal fixed point
  I / (2 eta);
- the (a1, b1) quadrature covariance, vacuum normalised to the identity;
- the two-mode PPT formula nu_min^2 = (D - sqrt(D^2 - 4 det V)) / 2 with
  D = det A + det B - 2 det C.

For one mode against one mode the PPT test is complete (Simon, PRL 84, 2726
(2000)), so nu_min is the whole entanglement verdict. At this precision the
cancellation that costs the float path e^(4r) ulps leaves more than 30 digits.
"""

from __future__ import annotations

from mpmath import mp

REFERENCE_DPS = 50


def _mpf(x: float):
    # A double converts to mpf exactly, so the reference is evaluated at the
    # very inputs the program saw.
    return mp.mpf(float(x))


def nu_min_reference(epsilon: float, temperature: float, gamma: float,
                     squeeze_r: float, t: float):
    """nu_min of the partially transposed (a1, b1) state at time t, as mpf."""
    with mp.workdps(REFERENCE_DPS):
        eps, temp, g, r, t = (_mpf(v) for v in (epsilon, temperature, gamma, squeeze_r, t))
        u = eps / (2 * temp)
        eta, eta_perp = mp.tanh(u), mp.sech(u)

        coupling = mp.zeros(4, 4)
        coupling[0, 2], coupling[0, 3] = -eta, eta_perp
        coupling[1, 2], coupling[1, 3] = eta_perp, eta
        for i in range(2):
            for j in range(2, 4):
                coupling[j, i] = coupling[i, j]
        drift = -(1 + mp.mpc(0, 1) * eps) * mp.eye(4) + g * coupling
        flow = mp.expm(t * drift)

        # Moment matrix ordered (a1, a2, b1, b2; conjugates); both first modes
        # squeezed by r, no cross-chain correlation at t = 0.
        ch, sh = mp.cosh(2 * r), mp.sinh(2 * r)
        start = mp.zeros(8, 8)
        for k, v in enumerate((ch, 1, ch, 1)):
            start[k, k] = start[k + 4, k + 4] = v / (2 * eta)
        for k in (0, 2):
            start[k + 4, k] = start[k, k + 4] = sh / (2 * eta)
        transfer = mp.zeros(8, 8)
        for i in range(4):
            for j in range(4):
                transfer[i, j] = flow[i, j]
                transfer[i + 4, j + 4] = mp.conj(flow[i, j])
        fixed = mp.eye(8) / (2 * eta)
        moments = transfer.H * (start - fixed) * transfer + fixed

        idx = (0, 2, 4, 6)
        cov = mp.zeros(4, 4)
        for i in range(2):
            for j in range(2):
                sym = mp.conj(moments[idx[i], idx[j]])
                pair = -moments[idx[i + 2], idx[j]]
                cov[2 * i, 2 * j] = 2 * mp.re(sym + pair)
                cov[2 * i, 2 * j + 1] = 2 * (mp.im(pair) - mp.im(sym))
                cov[2 * i + 1, 2 * j] = 2 * (mp.im(pair) + mp.im(sym))
                cov[2 * i + 1, 2 * j + 1] = 2 * mp.re(sym - pair)

        det_a = mp.det(cov[0:2, 0:2])
        det_b = mp.det(cov[2:4, 2:4])
        det_c = mp.det(cov[0:2, 2:4])
        # Partial transposition flips the sign of det C only.
        delta = det_a + det_b - 2 * det_c
        # The discriminant is a square in exact arithmetic; for symmetric
        # product states it is zero and may round to -1e-50.
        disc = max(delta * delta - 4 * mp.det(cov), 0)
        return +mp.sqrt((delta - mp.sqrt(disc)) / 2)


def self_test() -> list[str]:
    """Check the reference against two closed anchors; return the misses.

    r = 0 is the thermal fixed point, where nu_min = 1/eta at every t.
    gamma = 0 never couples the chains, so the state stays a product and
    nu_min >= 1 (the partial transpose stays physical).
    """
    misses = []
    with mp.workdps(REFERENCE_DPS):
        tol = mp.mpf(10) ** (10 - REFERENCE_DPS)
        for eps, temp, gamma, t in ((1.0, 0.1, 0.5, 0.7), (2.0, 0.3, 0.25, 4.0)):
            got = nu_min_reference(eps, temp, gamma, 0.0, t)
            want = 1 / mp.tanh(_mpf(eps) / (2 * _mpf(temp)))
            if abs(got - want) > tol * want:
                misses.append(f"r = 0 anchor at (eps, T, gamma, t) = "
                              f"{(eps, temp, gamma, t)}: {mp.nstr(got, 20)} != 1/eta")
        for r, t in ((1.0, 0.3), (3.0, 2.0)):
            got = nu_min_reference(1.0, 0.1, 0.0, r, t)
            if got < 1 - tol:
                misses.append(f"gamma = 0 anchor at (r, t) = {(r, t)}: "
                              f"nu_min = {mp.nstr(got, 20)} < 1")
    return misses
