"""Closed-form pulse predictions used as ground truth by the tests.

Everything here is an integral over the control schedule plus small-k Taylor
data of the transport branch, keyed by lab time t; no fields are evolved.
Each is a `_quad` over the transport windows alone: a stored pulse does not
drift, spread or decay. The integrands depend on t only through the controls,
so `_quad` takes each plateau exactly, as value times length, and each
smoothstep ramp by adaptive Gauss-Legendre quadrature.
The drift/width pair (`drift_beta`, `width_b`) describes a Gaussian envelope
carried by the two-channel medium; `gaussian_envelope` assembles the full
envelope including the common decay and the channel prefactors.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ChannelOff, DegenerateCoefficients, NegativeRadicand,
                     NonPhysicalParameter, QuadratureFailure)
from .medium import (
    ControlSchedule,
    Coefficients,
    MediumModel,
    PulseSpec,
    alpha_tilde_rate,
    coefficients,
    delta_weighted,
    group_velocity,
    pulse_length,
    regime_windows,
    tau_rate_at,
)

QUAD_TOL = 1e-10
# panel bisections allowed per ramp before the quadrature gives up
QUAD_LIMIT = 400
_GL_NODES, _GL_WEIGHTS = (a.tolist() for a in np.polynomial.legendre.leggauss(10))


def taylor_c012(medium: MediumModel, co: Coefficients) -> tuple[complex, complex, complex]:
    """Exact small-k expansion omega = c0 + c1 k + c2 k^2 at frozen controls."""
    g2p = co.gamma2_prime
    rho = medium.rho
    xm = medium.xi_minus
    e = xm / co.eta ** 2 + rho * g2p / co.eta
    dprime = delta_weighted(medium, co) - g2p * (1.0 - rho)
    a = dprime + co.eta * g2p * co.alpha_tilde
    c0 = 1j * co.eta * g2p
    c1 = -a / e
    c2 = (1j / e) * (1.0 - a * co.alpha_tilde / e)
    return c0, c1, c2


def width_growth_rate(medium: MediumModel, omega_plus: float, omega_minus: float) -> float:
    """d(rms^2)/dt of the carried pulse (second moment of intensity)."""
    co = coefficients(medium, omega_plus, omega_minus)
    _, _, c2 = taylor_c012(medium, co)
    return c2.imag * co.tau_rate


def _gauss(f, a, b):
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * sum(w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _ramp_integral(f, a, b):
    """Adaptive Gauss-Legendre: a panel is accepted once its two halves sum
    to the whole within QUAD_TOL, absolute and relative."""
    panels = [(a, b, _gauss(f, a, b))]
    total, splits = 0.0, 0
    while panels:
        lo, hi, whole = panels.pop()
        mid = 0.5 * (lo + hi)
        left, right = _gauss(f, lo, mid), _gauss(f, mid, hi)
        if abs(left + right - whole) <= QUAD_TOL * max(1.0, abs(left + right)):
            total += left + right
            continue
        splits += 1
        if splits > QUAD_LIMIT:
            raise QuadratureFailure(
                f"ramp integral over [{a:g}, {b:g}] not converged to "
                f"{QUAD_TOL:g} after {QUAD_LIMIT} bisections")
        panels += [(lo, mid, left), (mid, hi, right)]
    return total


def _quad(f, medium: MediumModel, schedule: ControlSchedule,
          lo: float, hi: float) -> float:
    """Integral of an f that depends on t only through the controls over the
    transport windows of the schedule's timeline (`regime_windows`), each
    clipped to [lo, hi]: exact on plateaus, where f is constant, adaptive on
    ramps. Stored time adds nothing, and f is never called there."""
    total = 0.0
    for a, b, transport in regime_windows(medium, schedule):
        a, b = max(a, lo), min(b, hi)
        if transport and b > a:
            for p, q, _, ramping in schedule.pieces(a, b):
                total += _ramp_integral(f, p, q) if ramping else f(0.5 * (p + q)) * (q - p)
    return total


def drift_beta(medium: MediumModel, schedule: ControlSchedule,
               t: float) -> tuple[float, float]:
    """Envelope center drift (beta_plus, beta_minus) at lab time t.

    The rate is the polariton group velocity, integrated by `_quad`, plus an
    exact time derivative, taken as the difference of eta alpha_tilde /
    xi_minus between the run's two ends (not per window: it changes sign
    across storage). That term is inf * 0 in storage, so a t inside a
    storage window, and a schedule that opens stored, are refused before any
    quadrature.
    """
    t0 = schedule.t_start
    for lo, hi, transport in regime_windows(medium, schedule):
        if not transport and lo == t0:
            end = "the end of the schedule" if hi == schedule.t_end else f"t = {hi:g}"
            raise DegenerateCoefficients(
                f"drift undefined at t = {t:g}: the schedule opens in dark storage, "
                f"below the storage threshold from t = {t0:g} to {end}")
        if not transport and lo < t <= hi:
            raise DegenerateCoefficients(
                f"drift undefined at t = {t:g}: the control power fell below "
                f"the storage threshold at t = {lo:g}")
    xm = medium.xi_minus
    main = _quad(lambda s: group_velocity(medium, *schedule.values(s)),
                 medium, schedule, t0, t)

    def eta_alpha_tilde(s):
        co = coefficients(medium, *schedule.values(s))
        return co.eta * co.alpha_tilde

    beta_plus = main - (eta_alpha_tilde(t) - eta_alpha_tilde(t0)) / xm
    return beta_plus, beta_plus - medium.xi_sum_inv


def m2_rate(medium: MediumModel, schedule: ControlSchedule, t: float) -> float:
    """Width-growth integrand of the envelope law at lab time t."""
    op, om = schedule.values(t)
    co = coefficients(medium, op, om)
    xm = medium.xi_minus
    rate = alpha_tilde_rate(medium, schedule, t)
    dat2_dtau = 2.0 * co.alpha_tilde * rate / co.tau_rate
    return co.eta * (xm - co.eta * co.alpha_tilde * delta_weighted(medium, co)
                     + co.eta * dat2_dtau) / xm ** 2


def width_b(medium: MediumModel, schedule: ControlSchedule, pulse: PulseSpec,
            t: float) -> float:
    """Envelope Gaussian width B at lab time t (time units, c = 1). A stored
    pulse does not spread, so B is the same at both ends of a storage window."""
    l_o = pulse_length(medium, pulse)
    grow = _quad(lambda s: m2_rate(medium, schedule, s)
                 * tau_rate_at(medium, schedule, s),
                 medium, schedule, schedule.t_start, t)
    radicand = l_o * l_o + 2.0 * grow
    if radicand <= 0.0:
        raise NegativeRadicand(
            f"squared width {radicand:g} not positive at t = {t:g}")
    return math.sqrt(radicand)


def decay_exponent(medium: MediumModel, schedule: ControlSchedule,
                   t: float) -> tuple[float, float]:
    """Integrals of the common envelope decay rate from schedule start to t:
    (the `_quad` over the transport windows, and that plus the bare rate
    gamma2 times the stored time, min(hi, t) - lo summed over the storage
    windows of `regime_windows` that open before t). The first is the
    envelope's own decay (`gaussian_envelope`), the second the predicted
    attenuation of what the run carries through storage."""
    if medium.gamma2 == 0.0:
        return 0.0, 0.0
    pde = _quad(lambda s: coefficients(medium, *schedule.values(s)).eta * medium.gamma2,
                medium, schedule, schedule.t_start, t)
    stored = sum(min(hi, t) - lo for lo, hi, transport in regime_windows(medium, schedule)
                 if not transport and lo < t)
    return pde, pde + medium.gamma2 * stored


def check_channel(medium: MediumModel, schedule: ControlSchedule,
                  channel: str, t: float) -> None:
    """Refuse an envelope of `channel` ("+" or "-") at lab time t that the
    model does not define: one whose control is off at t, or any envelope
    when the forward control is off at the schedule start, which fixes the
    normalization. It reads the controls only, so it runs before any
    quadrature."""
    if channel not in ("+", "-"):
        raise NonPhysicalParameter(f"channel must be '+' or '-', got {channel!r}")
    if schedule.values(t)[0 if channel == "+" else 1] == 0.0:
        raise ChannelOff(f"channel {channel} has no control field at t = {t:g}")
    if schedule.values(schedule.t_start)[0] == 0.0:
        raise ChannelOff("envelope normalization needs the forward control on at start")


def gaussian_envelope(medium: MediumModel, schedule: ControlSchedule,
                      pulse: PulseSpec, channel: str, t: float, z,
                      width: float | None = None, decay: float | None = None):
    """Predicted field envelope A_channel(t, z) at lab time t.

    channel is "+" or "-". z may be an array. A single constant control
    gives pure translation at the group velocity. The envelope is real:
    the model normalises the control phases out of the transport equations.
    `check_channel` refuses an undefined envelope first. A caller that
    already holds the width B (`width_b`) and the transport decay exponent
    (`decay_exponent`'s first value) at the same t passes them as `width`
    and `decay`, and neither quadrature runs again. Such a caller has run
    `check_channel` before its quadratures, as `compare_to_oracle` does, so
    the check runs here only when one of the two is not passed.
    """
    if width is None or decay is None:
        check_channel(medium, schedule, channel, t)
    t0 = schedule.t_start
    op0, om0 = schedule.values(t0)
    op1, om1 = schedule.values(t)
    co0, co1 = coefficients(medium, op0, om0), coefficients(medium, op1, om1)
    if channel == "+":
        om_here, g_ratio = op1, 1.0
    else:
        om_here, g_ratio = om1, 1.0 / medium.r_g

    b = width_b(medium, schedule, pulse, t) if width is None else width
    if decay is None:
        decay, _ = decay_exponent(medium, schedule, t)
    beta_p, beta_m = drift_beta(medium, schedule, t)
    beta = beta_p if channel == "+" else beta_m
    # beta is a displacement from the initial forward-channel center, which
    # sits ahead of the polariton center by the slaving offset
    anchor = ((pulse.center if pulse.prepared else 0.0)
              + co0.alpha_minus * medium.xi_sum_inv)
    l_o = pulse_length(medium, pulse)
    pref = (l_o / b) * (co1.eta * om_here * g_ratio / (co0.eta * op0)) * pulse.amplitude
    pref *= math.exp(-decay)
    zz = np.asarray(z, dtype=float)
    body = np.exp(-((zz - anchor - beta) ** 2) / (2.0 * b ** 2))
    return pref * body


def spreading_velocity(medium: MediumModel, omega_plus: float, omega_minus: float) -> float:
    """Broadening velocity of the carried pulse at the given controls."""
    oss = omega_plus ** 2 + omega_minus ** 2
    if oss == 0.0:
        return 0.0
    return 2.0 * medium.xi_sum_inv * omega_plus ** 2 * omega_minus ** 2 / (medium.gamma * oss)


def conversion_probability(medium: MediumModel, pulse: PulseSpec, t_s: float) -> float:
    """Forward-to-backward conversion efficiency after holding for t_s."""
    if t_s < 0.0:
        raise NonPhysicalParameter(f"hold time must be >= 0, got {t_s}")
    l_o = pulse_length(medium, pulse)
    growth = medium.u_g0 * t_s * medium.xi_sum_inv / (l_o * l_o)
    return 1.0 / math.sqrt(1.0 + growth)

