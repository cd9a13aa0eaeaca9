"""Medium parameters, control schedules, and instantaneous transport coefficients.

Unit scheme: c = 1 and xi_plus = 1, so lengths are in units of the forward
resonant absorption length and times in units of that length over c. The
collective forward coupling is then pinned (N g+^2 = gamma) and the free
knobs are the coupling ratio r_g = g-/g+, the polarization decay gamma, the
ground-state decoherence gamma2, and the initial group velocity fraction
u_g0 = v_g(0)/c. Control amplitudes carry the same units as sqrt(gamma).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from typing import ClassVar, NamedTuple

from .errors import (
    DegenerateCoefficients,
    GridTooCoarse,
    NonPhysicalParameter,
    OutOfScheduleRange,
    ThresholdChatter,
)

DEFAULT_RAMP = 50.0

# storage-mode hysteresis: PDE mode ends below theta, resumes above 1.2 theta
THRESHOLD_FACTOR = 10.0
HYSTERESIS = 1.2
ZERO_GAMMA2_THRESHOLD = 1e-10


@dataclasses.dataclass(frozen=True)
class MediumModel:
    """Static medium parameters in the fixed unit scheme."""

    r_g: float
    gamma: float
    gamma2: float
    u_g0: float
    domain_length: float
    grid_points: int

    # the length unit, so not a parameter
    xi_plus: ClassVar[float] = 1.0

    @property
    def xi_minus(self) -> float:
        return self.r_g ** 2 * self.xi_plus

    @property
    def rho(self) -> float:
        # (g-/g+)^2, weight of the backward channel in the transport pair
        return self.r_g ** 2

    @property
    def omega_plus0(self) -> float:
        return math.sqrt(self.u_g0 * self.gamma)

    @property
    def xi_sum_inv(self) -> float:
        # 1/xi_Sigma = 1/xi_+ + 1/xi_-
        return 1.0 / self.xi_plus + 1.0 / self.xi_minus

    @property
    def dz(self) -> float:
        return self.domain_length / self.grid_points

    @functools.cached_property
    def _grid(self):
        import numpy as np

        z = self.dz * np.arange(self.grid_points)
        z.flags.writeable = False
        return z

    def grid(self):
        """The cell positions z, one read-only array per medium."""
        return self._grid

    @property
    def storage_threshold(self) -> float:
        """Control power below which the field transport is no longer valid."""
        if self.gamma2 > 0.0:
            return THRESHOLD_FACTOR * self.gamma * self.gamma2
        return ZERO_GAMMA2_THRESHOLD * self.omega_plus0 ** 2

    @property
    def release_threshold(self) -> float:
        """Control power above which a stored pulse resumes transport."""
        return HYSTERESIS * self.storage_threshold


# Largest plateau rate dtau/dt a schedule may set. The ramp coefficients of
# the clock are bounded by four times the larger plateau rate, and their
# threshold crossings square them, so this keeps every such square a finite
# float.
MAX_CLOCK_RATE = 1e150


def _square_finite(x: float) -> bool:
    """Whether x^2 and x^-2 are both finite positive floats."""
    try:
        return 0.0 < x ** 2 < math.inf and x ** -2 < math.inf
    except (OverflowError, ZeroDivisionError):
        return False


def build_medium(r_g, gamma, gamma2, u_g0, domain_length, grid_points) -> MediumModel:
    if not (r_g > 0.0 and _square_finite(r_g)):
        raise NonPhysicalParameter(
            f"medium.r_g must be positive with r_g^2 and r_g^-2 finite, got {r_g:g}")
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise NonPhysicalParameter(f"medium.gamma must be positive, got {gamma}")
    if gamma2 < 0.0 or not math.isfinite(gamma2):
        raise NonPhysicalParameter(f"medium.gamma2 must be >= 0, got {gamma2}")
    if not (0.0 < u_g0 < 1.0):
        raise NonPhysicalParameter(f"medium.u_g0 must be in (0, 1), got {u_g0}")
    if not (domain_length > 0.0 and math.isfinite(domain_length)):
        raise NonPhysicalParameter(f"medium.domain_length must be > 0, got {domain_length}")
    if int(grid_points) != grid_points or grid_points < 16:
        raise NonPhysicalParameter(
            f"medium.grid_points must be an integer >= 16, got {grid_points}")
    return MediumModel(float(r_g), float(gamma), float(gamma2), float(u_g0),
                       float(domain_length), int(grid_points))


@dataclasses.dataclass(frozen=True)
class Segment:
    """One control plateau; blends from the previous targets over `ramp`."""

    t_start: float
    t_end: float
    omega_plus: float
    omega_minus: float
    ramp: float = DEFAULT_RAMP


@dataclasses.dataclass(frozen=True)
class ControlSchedule:
    segments: tuple[Segment, ...]

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @functools.cached_property
    def _starts(self) -> tuple[float, ...]:
        """Each segment's t_start, the keys `_locate` bisects."""
        return tuple(seg.t_start for seg in self.segments)

    def _locate(self, t: float) -> int:
        t0, t1 = self.segments[0].t_start, self.segments[-1].t_end
        slack = 1e-9 * max(1.0, abs(t1))
        if t < t0 - slack or t > t1 + slack:
            raise OutOfScheduleRange(
                f"t = {t:g} outside schedule span [{t0:g}, {t1:g}]")
        return max(0, bisect.bisect_right(self._starts, t) - 1)

    def values(self, t: float) -> tuple[float, float]:
        """Control amplitudes (omega_plus, omega_minus) at time t."""
        i = self._locate(t)
        seg = self.segments[i]
        if i == 0 or t >= seg.t_start + seg.ramp:
            return seg.omega_plus, seg.omega_minus
        prev = self.segments[i - 1]
        s = _smoothstep((t - seg.t_start) / seg.ramp)
        return (prev.omega_plus + (seg.omega_plus - prev.omega_plus) * s,
                prev.omega_minus + (seg.omega_minus - prev.omega_minus) * s)

    def rates(self, t: float) -> tuple[float, float]:
        """Analytic d(omega)/dt pair at time t (zero outside ramps)."""
        i = self._locate(t)
        seg = self.segments[i]
        if i == 0 or t >= seg.t_start + seg.ramp:
            return 0.0, 0.0
        prev = self.segments[i - 1]
        ds = _smoothstep_rate((t - seg.t_start) / seg.ramp) / seg.ramp
        return ((seg.omega_plus - prev.omega_plus) * ds,
                (seg.omega_minus - prev.omega_minus) * ds)

    @functools.cached_property
    def _breakpoints(self) -> tuple[float, ...]:
        pts = []
        for i, seg in enumerate(self.segments):
            pts.append(seg.t_start)
            if i > 0 and seg.t_start + seg.ramp < seg.t_end:
                pts.append(seg.t_start + seg.ramp)
        pts.append(self.t_end)
        return tuple(sorted(set(pts)))

    def breakpoints(self) -> list[float]:
        """Times where the control law changes analytic form."""
        return list(self._breakpoints)

    def pieces(self, lo: float, hi: float) -> list[tuple[float, float, int, bool]]:
        """(a, b, i, ramping) pieces of [lo, hi] between breakpoints: segment
        i governs the piece and, if ramping, blends in from segment i - 1."""
        self._locate(lo)  # raise OutOfScheduleRange outside the span
        self._locate(hi)
        pts = self.breakpoints()
        pts[0], pts[-1] = min(pts[0], lo), max(pts[-1], hi)
        out = []
        for a, b in zip(pts, pts[1:]):
            a, b = max(a, lo), min(b, hi)
            if b > a:
                i = self._locate(0.5 * (a + b))
                seg = self.segments[i]
                out.append((a, b, i, i > 0 and 0.5 * (a + b) < seg.t_start + seg.ramp))
        return out

    def varies(self, lo: float, hi: float) -> bool:
        """Whether the controls change anywhere in [lo, hi]. A smoothstep
        blend is monotone, so they change exactly where some piece's two
        ends differ."""
        return any(self.values(a) != self.values(b)
                   for a, b, _, _ in self.pieces(lo, hi))

    def constant_windows(self) -> list[tuple[float, float]]:
        """Maximal intervals with both controls constant."""
        return [(a, b) for a, b, _, ramping in self.pieces(self.t_start, self.t_end)
                if not ramping]


def _smoothstep(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


def _smoothstep_rate(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return 6.0 * x * (1.0 - x)


def build_schedule(segments) -> ControlSchedule:
    if not segments:
        raise NonPhysicalParameter("the schedule needs at least one schedule.segment")
    segs = []
    for k, raw in enumerate(segments, 1):
        seg = raw if isinstance(raw, Segment) else Segment(*raw)
        key = f"schedule.segment {k}"
        if seg.t_end <= seg.t_start:
            raise NonPhysicalParameter(
                f"{key} [{seg.t_start:g}, {seg.t_end:g}] has non-positive length")
        if seg.omega_plus < 0.0 or seg.omega_minus < 0.0:
            raise NonPhysicalParameter(f"{key}: control amplitudes must be >= 0")
        for omega in (seg.omega_plus, seg.omega_minus):
            if omega != 0.0 and not _square_finite(omega):
                raise NonPhysicalParameter(f"{key}: control {omega:g} needs its "
                                           f"square and inverse square finite")
        if not seg.ramp > 0.0:
            raise NonPhysicalParameter(f"{key}: ramp duration must be positive")
        if seg.ramp > seg.t_end - seg.t_start:
            raise NonPhysicalParameter(
                f"{key}: ramp {seg.ramp:g} longer than [{seg.t_start:g}, {seg.t_end:g}]")
        # the slack within which segment ends meet (below): a ramp no longer is a jump
        slack = 1e-9 * max(1.0, abs(seg.t_start))
        if k > 1 and seg.ramp <= slack:
            raise NonPhysicalParameter(
                f"{key}: ramp {seg.ramp:g} is not longer than {slack:g}, the schedule's "
                f"time resolution 1e-9 max(1, |t|) at its start t = {seg.t_start:g}")
        segs.append(seg)
    for k, (a, b) in enumerate(zip(segs, segs[1:]), 2):
        if abs(a.t_end - b.t_start) > 1e-9 * max(1.0, abs(a.t_end)):
            raise NonPhysicalParameter(
                f"schedule.segment {k} starts at t = {b.t_start:g}, not at {a.t_end:g}")
    return ControlSchedule(tuple(segs))


@dataclasses.dataclass(frozen=True)
class Coefficients:
    """Instantaneous transport coefficients of the two-channel pair."""

    alpha_plus: float
    alpha_minus: float
    eta: float
    alpha_tilde: float
    gamma2_prime: float
    omega_sigma_sq: float
    tau_rate: float


def _clock_rate(medium: MediumModel, omega_plus: float, omega_minus: float) -> float:
    """dtau/dt at the controls: (gamma gamma2 + omega_+^2 + omega_-^2) / gamma."""
    return (medium.gamma * medium.gamma2 + omega_plus ** 2 + omega_minus ** 2) / medium.gamma


def coefficients(medium: MediumModel, omega_plus: float, omega_minus: float) -> Coefficients:
    gg2 = medium.gamma * medium.gamma2
    oss = omega_plus ** 2 + omega_minus ** 2
    denom = gg2 + oss
    if denom <= 0.0:
        raise DegenerateCoefficients(
            "both controls off with gamma2 = 0: transport coefficients undefined")
    a_p = omega_plus ** 2 / denom
    a_m = omega_minus ** 2 / denom
    eta = denom / oss if oss > 0.0 else math.inf
    return Coefficients(
        alpha_plus=a_p,
        alpha_minus=a_m,
        eta=eta,
        alpha_tilde=a_p - medium.rho * a_m,
        gamma2_prime=medium.xi_plus * gg2 / denom,
        omega_sigma_sq=oss,
        tau_rate=_clock_rate(medium, omega_plus, omega_minus),
    )


def delta_weighted(medium: MediumModel, co: Coefficients) -> float:
    """Absorption-weighted channel imbalance driving the drift; with it the
    branch reproduces the slow-light limit."""
    return medium.xi_minus * co.alpha_plus - medium.xi_plus * co.alpha_minus


def alpha_tilde_rate(medium: MediumModel, schedule: ControlSchedule, t: float) -> float:
    """Lab-time derivative of alpha_tilde = alpha_+ - rho alpha_- at t."""
    op, om = schedule.values(t)
    dop, dom = schedule.rates(t)
    oss = op ** 2 + om ** 2
    denom = medium.gamma * medium.gamma2 + oss
    if oss <= 0.0:
        raise DegenerateCoefficients("the alpha_tilde rate needs at least one control on")
    d_oss = 2.0 * (op * dop + om * dom)
    d_ap = (2.0 * op * dop * denom - op ** 2 * d_oss) / denom ** 2
    d_am = (2.0 * om * dom * denom - om ** 2 * d_oss) / denom ** 2
    return d_ap - medium.rho * d_am


def tau_rate_at(medium: MediumModel, schedule: ControlSchedule, t: float) -> float:
    return _clock_rate(medium, *schedule.values(t))


class _ClockPiece(NamedTuple):
    """Piece [a, b] of the clock between breakpoints: dtau/dt is
    c0 + c1 s + c2 s^2, s the smoothstep of (t - t_ramp) / ramp (c1 = c2 = 0
    on a plateau), a degree-6 polynomial in t."""

    a: float
    b: float
    t_ramp: float
    ramp: float
    c0: float
    c1: float
    c2: float

    def mean_rate(self, ta: float, tb: float) -> float:
        """Exact mean of dtau/dt over [ta, tb], the rate at ta if tb == ta.
        The antiderivatives x^3 - x^4/2 of s and 9x^5/5 - 2x^6 + 4x^7/7 of s^2
        are differenced as xb^n - xa^n = (xb - xa) e_n: no cancellation."""
        xa = (ta - self.t_ramp) / self.ramp
        xb = (tb - self.t_ramp) / self.ramp
        e = [0.0, 1.0]  # e[n] = sum_k xb^k xa^(n-1-k)
        for n in range(2, 8):
            e.append(xb * e[-1] + xa ** (n - 1))
        mean_s = e[3] - 0.5 * e[4]
        mean_s2 = 1.8 * e[5] - 2.0 * e[6] + 4.0 / 7.0 * e[7]
        return self.c0 + self.c1 * mean_s + self.c2 * mean_s2


def _clock_pieces(medium: MediumModel, schedule: ControlSchedule,
                  lo: float, hi: float) -> list[_ClockPiece]:
    """Clock pieces covering [lo, hi]; on a plateau c1 = c2 = 0."""
    out = []
    for a, b, i, ramping in schedule.pieces(lo, hi):
        seg = schedule.segments[i]
        start = schedule.segments[i - 1] if ramping else seg
        # omega = p + d s blends from the start segment's controls to seg's
        p_plus, p_minus = start.omega_plus, start.omega_minus
        d_plus, d_minus = seg.omega_plus - p_plus, seg.omega_minus - p_minus
        out.append(_ClockPiece(
            a, b, *((seg.t_start, seg.ramp) if ramping else (a, b - a)),
            _clock_rate(medium, p_plus, p_minus),
            2.0 * (p_plus * d_plus + p_minus * d_minus) / medium.gamma,
            (d_plus ** 2 + d_minus ** 2) / medium.gamma))
    return out


def tau_of_t(medium: MediumModel, schedule: ControlSchedule, t: float,
             t0: float | None = None) -> float:
    """Stretched time tau accumulated between t0 (schedule start) and t.

    This is the package's one stretched-time clock. It is exact: the rate
    is constant on plateaus and a degree-6 polynomial in t on smoothstep
    ramps, and each piece between t0 and t contributes its closed-form
    integral, so a step on a plateau gets rate * dt.
    """
    lo = schedule.t_start if t0 is None else t0
    if t < lo:
        raise OutOfScheduleRange(f"t = {t:g} precedes integration start {lo:g}")
    return sum(((p.b - p.a) * p.mean_rate(p.a, p.b)
                for p in _clock_pieces(medium, schedule, lo, t)), 0.0)


def tau_increment(medium: MediumModel, schedule: ControlSchedule, t0: float,
                  dt: float) -> float:
    """Stretched time that a step of lab time dt from t0 advances. Where the
    controls hold over the step it is dt times the clock rate, the product
    `tau_of_t` forms on a plateau piece with dt in place of (t0 + dt) - t0,
    so it depends on dt and the controls alone, not on how t0 + dt rounds.
    On a step over which the controls vary, which equal end controls do not
    rule out, and on one that advances no lab time, it is
    `tau_of_t(t0 + dt, t0)`."""
    t1 = t0 + dt
    if t1 > t0 and not schedule.varies(t0, t1):
        return dt * _clock_rate(medium, *schedule.values(t0))
    return tau_of_t(medium, schedule, t1, t0)


def group_velocity(medium: MediumModel, omega_plus: float, omega_minus: float) -> float:
    """Closed-form polariton velocity (units of c) at the given controls."""
    co = coefficients(medium, omega_plus, omega_minus)
    if co.omega_sigma_sq == 0.0:
        return 0.0
    return co.eta ** 2 * (omega_plus ** 2 - omega_minus ** 2 / medium.r_g ** 2) / medium.gamma


def stationarity_residual(medium: MediumModel, omega_plus: float, omega_minus: float) -> float:
    """Signed imbalance of the two channels; zero means a standing pulse."""
    u = omega_plus / 1.0
    w = omega_minus / medium.r_g
    if u + w == 0.0:
        raise DegenerateCoefficients("stationarity residual undefined with both controls off")
    return (u - w) / (u + w)


@dataclasses.dataclass(frozen=True)
class PulseSpec:
    """Probe pulse description.

    Injected pulses enter through the z = 0 boundary with a Gaussian time
    profile of width `duration` centered on `injection_time`. Prepared pulses
    start on the transport branch as a Gaussian of spatial size l_o =
    u_g0 * duration centered at `center`.
    """

    amplitude: float = 1.0
    duration: float = 2e4
    injection_time: float = 0.0
    prepared: bool = False
    center: float = 0.0


def pulse_length(medium: MediumModel, pulse: PulseSpec) -> float:
    """Spatial size l_o implied by the entry group velocity."""
    return medium.u_g0 * pulse.duration


def build_pulse(amplitude, duration, injection_time, prepared, center) -> PulseSpec:
    if amplitude <= 0.0 or not math.isfinite(amplitude):
        raise NonPhysicalParameter(f"pulse.amplitude must be positive, got {amplitude}")
    if duration <= 0.0 or not math.isfinite(duration):
        raise NonPhysicalParameter(f"pulse.duration must be positive, got {duration}")
    return PulseSpec(float(amplitude), float(duration), float(injection_time),
                     bool(prepared), float(center))


def check_grid(medium: MediumModel, pulse: PulseSpec) -> None:
    """Refuse a grid step dz above an eighth of the shorter absorption length
    or a 32nd of the pulse length, and a prepared pulse centered off the
    domain."""
    dz = (f"medium.grid_points = {medium.grid_points} over medium.domain_length "
          f"= {medium.domain_length:g} gives dz = {medium.dz:g}")
    finest = min(1.0 / medium.xi_plus, 1.0 / medium.xi_minus) / 8.0
    if medium.dz > finest * (1.0 + 1e-12):
        raise GridTooCoarse(f"{dz}, above the bound {finest:g} that medium.r_g sets")
    l_o = pulse_length(medium, pulse)
    if medium.dz > l_o / 32.0:
        raise GridTooCoarse(
            f"{dz}, above the bound {l_o / 32.0:g} that pulse.duration sets")
    if pulse.prepared and not 0.0 < pulse.center < medium.domain_length:
        raise NonPhysicalParameter(
            f"pulse.center = {pulse.center:g} lies outside the domain "
            f"(0, medium.domain_length = {medium.domain_length:g})")


def _ramp_crossing(piece: _ClockPiece, rate: float, rising: bool) -> float | None:
    """Smoothstep value s at which the piece's dtau/dt = c0 + c1 s + c2 s^2
    passes `rate` upwards (rising) or downwards, None if it never does. c2 >= 0,
    so the falling crossing is the smaller root and the rising one the larger."""
    c = piece.c0 - rate
    if piece.c2 == 0.0:
        if piece.c1 == 0.0 or (piece.c1 > 0.0) != rising:
            return None
        return -c / piece.c1
    disc = piece.c1 ** 2 - 4.0 * piece.c2 * c
    if disc <= 0.0:
        return None
    q = -0.5 * (piece.c1 + math.copysign(math.sqrt(disc), piece.c1))
    lo, hi = sorted((q / piece.c2, c / q))
    return hi if rising else lo


def check_clock_rate(medium: MediumModel, schedule: ControlSchedule) -> None:
    """Refuse a segment whose plateau clock rate exceeds MAX_CLOCK_RATE,
    naming the medium keys and the segment, before any ramp arithmetic."""
    for k, seg in enumerate(schedule.segments, 1):
        # the rate at a segment's end is its plateau rate
        rate = tau_rate_at(medium, schedule, seg.t_end)
        if not rate <= MAX_CLOCK_RATE:
            raise NonPhysicalParameter(
                f"medium.gamma = {medium.gamma:g} with medium.gamma2 = "
                f"{medium.gamma2:g} and the controls of schedule.segment {k} "
                f"puts the stretched-time rate at {rate:g}, above {MAX_CLOCK_RATE:g}")


@functools.lru_cache(maxsize=16)
def regime_windows(medium: MediumModel,
                   schedule: ControlSchedule) -> tuple[tuple[float, float, bool], ...]:
    """The storage timeline: (lo, hi, transport) windows covering the whole
    schedule, split where the control power crosses below the storage
    threshold (storage, transport False) or above the release level. On a
    ramp the power is a quadratic in the smoothstep s, so each crossing is a
    root in s mapped back through the smoothstep inverse. Refuses a ramp
    that crosses twice (ThresholdChatter) and a clock rate that would
    overflow the roots (`check_clock_rate`). Cached: the walk runs once per
    (medium, schedule) pair, and every reader gets the same tuple."""
    check_clock_rate(medium, schedule)
    gg2 = medium.gamma * medium.gamma2
    lo, transport = schedule.t_start, not opens_stored(medium, schedule)
    windows: list[tuple[float, float, bool]] = []
    # over the whole span every ramp piece is a whole ramp, s from 0 to 1; on a
    # plateau c1 = c2 = 0 and nothing crosses
    for piece in _clock_pieces(medium, schedule, schedule.t_start, schedule.t_end):
        s_lo, before = 0.0, len(windows)
        while True:
            thr = medium.storage_threshold if transport else medium.release_threshold
            s = _ramp_crossing(piece, (gg2 + thr) / medium.gamma, not transport)
            if s is None or not s_lo < s <= 1.0:
                break
            x = 0.5 - math.sin(math.asin(1.0 - 2.0 * s) / 3.0)
            t = piece.t_ramp + piece.ramp * x
            windows.append((lo, t, transport))
            lo, transport, s_lo = t, not transport, s
        if len(windows) - before > 1:
            raise ThresholdChatter(
                f"control power crossed the storage threshold {len(windows) - before} "
                f"times during the ramp at t = {piece.a:g}")
    windows.append((lo, schedule.t_end, transport))
    return tuple(windows)


def opens_stored(medium: MediumModel, schedule: ControlSchedule) -> bool:
    """Whether the control power at the schedule start sits below the
    storage threshold, so that a run opens with the pulse held as spin."""
    op, om = schedule.values(schedule.t_start)
    return op ** 2 + om ** 2 < medium.storage_threshold


def envelope_scales(medium: MediumModel, omega_plus: float,
                    omega_minus: float) -> tuple[float, float]:
    """Factors taking |psi_plus| and |psi_minus| to the physical channel
    envelopes: Omega_+/sqrt(gamma) and Omega_-/(sqrt(gamma) r_g)."""
    root = math.sqrt(medium.gamma)
    return omega_plus / root, omega_minus / (root * medium.r_g)


@dataclasses.dataclass(frozen=True)
class ValidityCheck:
    name: str
    passed: bool
    margin: float
    note: str

    def to_dict(self):
        return {"name": self.name, "passed": self.passed,
                "margin": self.margin, "note": self.note}


def validity_report(medium: MediumModel, pulse: PulseSpec,
                    schedule: ControlSchedule) -> list[ValidityCheck]:
    """Regime checks behind the mean-field transport description."""
    checks = []

    l_o = pulse_length(medium, pulse)
    opacity = medium.xi_plus * l_o
    checks.append(ValidityCheck(
        name="opacity",
        passed=opacity >= 10.0,
        margin=opacity / 10.0,
        note=f"xi_plus * l_o = {opacity:g} (need >= 10 for adiabatic transport)"))

    # slowest scale protecting adiabatic following: |d(power)/dt| << gamma * power
    worst = math.inf
    for lo, hi, _, ramping in schedule.pieces(schedule.t_start, schedule.t_end):
        if not ramping:
            continue
        n = 64
        for j in range(n + 1):
            t = lo + (hi - lo) * j / n
            op, om = schedule.values(t)
            dop, dom = schedule.rates(t)
            dp = abs(2.0 * (op * dop + om * dom))
            p = op ** 2 + om ** 2 + medium.gamma * medium.gamma2
            if dp > 0.0 and p > 0.0:
                worst = min(worst, medium.gamma * p / dp)
    checks.append(ValidityCheck(
        name="adiabaticity",
        passed=worst >= 1.0,
        margin=worst if math.isfinite(worst) else math.inf,
        note="min over ramps of gamma * power / |d(power)/dt|"))

    theta = medium.storage_threshold
    margin = math.inf
    below = []
    for seg in schedule.segments:
        p = seg.omega_plus ** 2 + seg.omega_minus ** 2
        if p <= 0.0:
            continue
        margin = min(margin, p / theta)
        if p < theta:
            below.append(seg.t_start)
    checks.append(ValidityCheck(
        name="transport_regime",
        passed=not below,
        margin=margin if math.isfinite(margin) else math.inf,
        note=("active segments keep total power above the storage threshold"
              if not below else
              f"segments starting at {below} sit below the storage threshold")))

    checks.append(ValidityCheck(
        name="two_photon_resonance",
        passed=True,
        margin=math.inf,
        note="ground-state splitting taken as exactly zero (model assumption)"))

    return checks
