"""Medium, coefficients, pulse and control schedule unit tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from statlight.config import parse_config
from statlight.errors import (
    DegenerateCoefficients,
    NonPhysicalParameter,
    OutOfScheduleRange,
    ThresholdChatter,
)
from statlight.medium import (
    DEFAULT_RAMP,
    HYSTERESIS,
    MediumModel,
    Segment,
    build_medium,
    build_pulse,
    build_schedule,
    coefficients,
    group_velocity,
    pulse_length,
    regime_windows,
    stationarity_residual,
    tau_of_t,
    tau_rate_at,
    validity_report,
)
import statlight.medium as medium_module
from statlight import scenario
from statlight.presets import get_preset

OM0 = math.sqrt(1e-3)


def canonical(gamma2: float = 1e-4) -> MediumModel:
    return build_medium(r_g=1.0, gamma=1.0, gamma2=gamma2, u_g0=1e-3,
                        domain_length=200.0, grid_points=4096)


def hold(om_plus: float, om_minus: float, t_end: float = 2e4):
    return build_schedule([Segment(0.0, t_end, om_plus, om_minus)])


class TestMediumModel:
    def test_reference_control_frozen(self):
        med = canonical()
        assert med.omega_plus0 == pytest.approx(0.0316227766016838, rel=1e-14)

    def test_derived_scales(self):
        med = build_medium(r_g=2.0, gamma=1.0, gamma2=0.0, u_g0=1e-3,
                           domain_length=200.0, grid_points=4096)
        assert med.xi_plus == 1.0
        assert med.xi_minus == pytest.approx(4.0)
        assert med.rho == pytest.approx(4.0)
        # harmonic sum of the two attenuation lengths
        assert med.xi_sum_inv == pytest.approx(1.25)
        assert canonical().xi_sum_inv == pytest.approx(2.0)

    def test_xi_plus_is_the_unit_not_a_field(self):
        names = [field.name for field in dataclasses.fields(MediumModel)]
        assert "xi_plus" not in names
        assert canonical().xi_plus == MediumModel.xi_plus == 1.0

    def test_grid(self):
        med = canonical()
        z = med.grid()
        assert z.shape == (4096,)
        assert z[0] == 0.0
        assert med.dz == pytest.approx(200.0 / 4096)
        assert np.allclose(np.diff(z), med.dz)

    def test_grid_is_one_read_only_array(self):
        """Every reader shares one array, so none may write into it."""
        med = canonical()
        z = med.grid()
        assert med.grid() is z
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            z += 1.0
        assert z[0] == 0.0

    def test_storage_threshold(self):
        assert canonical(1e-4).storage_threshold == pytest.approx(1e-3)
        # gamma2 = 0 keeps a tiny floor so release can still trigger
        assert canonical(0.0).storage_threshold == pytest.approx(1e-13)

    @pytest.mark.parametrize("kwargs", [
        dict(r_g=0.0), dict(r_g=-1.0), dict(gamma=0.0), dict(gamma2=-1e-6),
        dict(u_g0=0.0), dict(u_g0=1.0), dict(domain_length=0.0),
        dict(grid_points=8), dict(grid_points=4096.5),
    ])
    def test_build_guards(self, kwargs):
        base = dict(r_g=1.0, gamma=1.0, gamma2=0.0, u_g0=1e-3,
                    domain_length=200.0, grid_points=4096)
        base.update(kwargs)
        with pytest.raises(NonPhysicalParameter):
            build_medium(**base)


class TestCoefficients:
    def test_canonical_hold_values(self):
        med = canonical(1e-4)
        co = coefficients(med, OM0, OM0)
        assert co.alpha_plus == pytest.approx(10.0 / 21.0, rel=1e-12)
        assert co.alpha_minus == pytest.approx(10.0 / 21.0, rel=1e-12)
        assert co.eta == pytest.approx(1.05, rel=1e-12)
        assert co.gamma2_prime == pytest.approx(1.0 / 21.0, rel=1e-12)
        assert co.alpha_tilde == pytest.approx(0.0, abs=1e-15)
        assert co.tau_rate == pytest.approx(2.1e-3, rel=1e-12)
        assert co.omega_sigma_sq == pytest.approx(2e-3, rel=1e-12)

    def test_single_control_collapses_to_bright_channel(self):
        med = canonical(0.0)
        co = coefficients(med, OM0, 0.0)
        assert co.alpha_plus == pytest.approx(1.0)
        assert co.alpha_minus == pytest.approx(0.0)
        assert co.eta == pytest.approx(1.0)

    def test_degenerate_when_both_controls_vanish(self):
        med = canonical(0.0)
        with pytest.raises(DegenerateCoefficients):
            coefficients(med, 0.0, 0.0)

    @given(
        r_g=st.floats(0.25, 4.0),
        gamma2=st.floats(0.0, 1e-3),
        s=st.floats(-0.95, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_alpha_sum_eta_identity(self, r_g, gamma2, s):
        med = build_medium(r_g=r_g, gamma=1.0, gamma2=gamma2, u_g0=1e-3,
                           domain_length=200.0, grid_points=64)
        power = 2e-3
        op = math.sqrt(power * (1 + s) / 2)
        om = math.sqrt(med.rho * power * (1 - s) / 2)
        co = coefficients(med, op, om)
        assert (co.alpha_plus + co.alpha_minus) * co.eta == pytest.approx(1.0, rel=1e-12)


class TestGroupVelocity:
    def test_slow_light_limit(self):
        med = canonical(0.0)
        assert group_velocity(med, OM0, 0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_half_power_single_control(self):
        med = canonical(0.0)
        v = group_velocity(med, OM0 / math.sqrt(2), 0.0)
        assert v == pytest.approx(0.5e-3, rel=1e-12)

    def test_balanced_is_stationary(self):
        med = canonical(1e-4)
        assert group_velocity(med, OM0, OM0) == pytest.approx(0.0, abs=1e-18)
        assert stationarity_residual(med, OM0, OM0) == pytest.approx(
            0.0, abs=1e-18)

    @given(s=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric_in_imbalance_at_matched_couplings(self, s):
        med = canonical(0.0)
        power = 2e-3
        op = math.sqrt(power * (1 + s) / 2)
        om = math.sqrt(power * (1 - s) / 2)
        v_fwd = group_velocity(med, op, om)
        v_bwd = group_velocity(med, om, op)
        assert v_fwd == pytest.approx(-v_bwd, abs=1e-18)

    @given(op=st.floats(1e-3, 0.1), r_g=st.floats(0.25, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_matched_ratio_is_stationary_for_any_coupling(self, op, r_g):
        med = build_medium(r_g=r_g, gamma=1.0, gamma2=1e-4, u_g0=1e-3,
                           domain_length=200.0, grid_points=64)
        om = r_g * op
        assert stationarity_residual(med, op, om) == pytest.approx(
            0.0, abs=1e-15)
        assert abs(group_velocity(med, op, om)) <= 1e-15


class TestPulse:
    def test_pulse_length(self):
        med = canonical()
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        assert pulse_length(med, pulse) == pytest.approx(20.0)

    @pytest.mark.parametrize("kwargs", [
        dict(amplitude=0.0), dict(duration=0.0), dict(duration=-5.0),
    ])
    def test_build_guards(self, kwargs):
        base = dict(amplitude=1.0, duration=2e4, injection_time=0.0,
                    prepared=False, center=0.0)
        base.update(kwargs)
        with pytest.raises(NonPhysicalParameter):
            build_pulse(**base)


class TestSchedule:
    def test_first_segment_starts_on_plateau(self):
        sched = hold(OM0, 0.0)
        op, om = sched.values(0.0)
        assert op == pytest.approx(OM0)
        assert om == 0.0

    def test_ramp_blends_between_segments(self):
        sched = build_schedule([
            Segment(0.0, 100.0, OM0, 0.0),
            Segment(100.0, 200.0, 0.0, OM0, ramp=50.0),
        ])
        op_mid, om_mid = sched.values(125.0)
        # smoothstep midpoint sits exactly halfway between the plateaus
        assert op_mid == pytest.approx(OM0 / 2)
        assert om_mid == pytest.approx(OM0 / 2)
        op_end, om_end = sched.values(150.0)
        assert op_end == pytest.approx(0.0, abs=1e-15)
        assert om_end == pytest.approx(OM0)

    def test_rates_vanish_on_plateaus(self):
        sched = build_schedule([
            Segment(0.0, 100.0, OM0, 0.0),
            Segment(100.0, 200.0, 0.0, OM0, ramp=50.0),
        ])
        assert sched.rates(50.0) == (0.0, 0.0)
        assert sched.rates(175.0) == (0.0, 0.0)
        dop, dom = sched.rates(125.0)
        # peak smoothstep slope is 3/2 of the mean slope
        assert dop == pytest.approx(-OM0 * 1.5 / 50.0)
        assert dom == pytest.approx(OM0 * 1.5 / 50.0)

    def test_out_of_range(self):
        sched = hold(OM0, OM0, t_end=100.0)
        with pytest.raises(OutOfScheduleRange):
            sched.values(-1.0)
        with pytest.raises(OutOfScheduleRange):
            sched.values(100.5)

    def test_constant_windows_clip_ramps(self):
        sched = build_schedule([
            Segment(0.0, 100.0, OM0, 0.0),
            Segment(100.0, 200.0, OM0, OM0, ramp=40.0),
        ])
        windows = sched.constant_windows()
        assert windows[0] == pytest.approx((0.0, 100.0))
        assert windows[1] == pytest.approx((140.0, 200.0))

    @pytest.mark.parametrize("segments", [
        [],
        [Segment(0.0, 0.0, OM0, 0.0)],
        [Segment(0.0, 100.0, -OM0, 0.0)],
        [Segment(0.0, 100.0, OM0, 0.0, ramp=0.0)],
        [Segment(0.0, 100.0, OM0, 0.0, ramp=200.0)],
        [Segment(0.0, 100.0, OM0, 0.0), Segment(150.0, 200.0, OM0, 0.0)],
    ])
    def test_build_guards(self, segments):
        with pytest.raises(NonPhysicalParameter):
            build_schedule(segments)

    def test_default_ramp(self):
        assert Segment(0.0, 100.0, OM0, 0.0).ramp == DEFAULT_RAMP


class TestPolaritonTime:
    def two_stage(self):
        med = canonical(1e-4)
        sched = build_schedule([
            Segment(0.0, 500.0, OM0, 0.0),
            Segment(500.0, 1000.0, OM0, OM0, ramp=100.0),
        ])
        return med, sched

    def test_tau_matches_riemann_sum(self):
        med, sched = self.two_stage()
        t_grid = np.linspace(0.0, 1000.0, 20001)
        rates = np.array([
            coefficients(med, *sched.values(t)).tau_rate for t in t_grid
        ])
        riemann = np.trapezoid(rates, t_grid)
        assert tau_of_t(med, sched, 1000.0) == pytest.approx(riemann,
                                                             abs=1e-6)

    def test_tau_monotone(self):
        med, sched = self.two_stage()
        taus = [tau_of_t(med, sched, t) for t in np.linspace(0, 1000, 17)]
        assert all(b > a for a, b in zip(taus, taus[1:]))


def quad_tau(med, sched, t0, t1):
    """Reference stretched time: adaptive quadrature of the rate."""
    pts = [p for p in sched.breakpoints() if t0 < p < t1]
    val, _ = integrate.quad(lambda s: tau_rate_at(med, sched, s), t0, t1,
                            points=pts or None, epsabs=1e-13, epsrel=1e-13,
                            limit=400)
    return val


class TestExactClock:
    """tau_of_t is closed-form on every piece of the schedule."""

    def schedule(self):
        # plateau, a ramp up to a matched hold, a long ramp down to near-dark
        return build_schedule([
            Segment(0.0, 500.0, OM0, 0.0),
            Segment(500.0, 1000.0, OM0, OM0, ramp=100.0),
            Segment(1000.0, 3000.0, 0.2 * OM0, 1.5 * OM0, ramp=700.0),
            Segment(3000.0, 4000.0, 0.01 * OM0, 0.0, ramp=1000.0),
        ])

    @pytest.mark.parametrize("t0,t1", [
        (0.0, 300.0),                        # plateau
        (520.0, 570.0),                      # inside a ramp
        (1000.0, 1000.0 + 700.0 / 64.0),     # one ramp step
        (3900.0, 3900.0 + 1000.0 / 64.0),    # ramp step at low power
        (450.0, 620.0),                      # across both edges of a ramp
        (1100.0, 2900.0),                    # ramp into plateau
        (0.0, 4000.0),                       # whole schedule
    ])
    def test_matches_quadrature(self, t0, t1):
        med = canonical(1e-4)
        ref = quad_tau(med, self.schedule(), t0, t1)
        tau = tau_of_t(med, self.schedule(), t1, t0)
        assert abs(tau - ref) <= 1e-12 * ref

    def test_plateau_step_is_rate_times_dt(self):
        med = canonical(1e-4)
        sched = self.schedule()
        rate = tau_rate_at(med, sched, 800.0)
        assert tau_of_t(med, sched, 800.5, 800.0) == rate * 0.5

    def test_out_of_range(self):
        med = canonical(1e-4)
        sched = self.schedule()
        with pytest.raises(OutOfScheduleRange):
            tau_of_t(med, sched, 4100.0)
        with pytest.raises(OutOfScheduleRange):
            tau_of_t(med, sched, 100.0, 200.0)


def brentq_crossings(med, sched, n=4096):
    """Reference crossings: sample each ramp, refine sign changes by brentq."""
    theta_off = med.storage_threshold

    def power(t):
        op, om = sched.values(t)
        return op ** 2 + om ** 2

    events = []
    active = power(sched.t_start) >= theta_off
    for lo, hi, _, ramping in sched.pieces(sched.t_start, sched.t_end):
        if not ramping:
            continue
        ts = np.linspace(lo, hi, n + 1)
        for a, b in zip(ts, ts[1:]):
            thr = theta_off if active else HYSTERESIS * theta_off
            fa, fb = power(a) - thr, power(b) - thr
            if fa != 0.0 and (fa * fb < 0.0 or fb == 0.0):
                tc = optimize.brentq(lambda t: power(t) - thr, a, b,
                                     xtol=1e-13, rtol=1e-15)
                events.append((tc, "off" if active else "on"))
                active = not active
    return events


def crossings(med, sched):
    """(t, kind) of each window start after the first of the storage
    timeline: "off" into storage, "on" into transport."""
    return [(lo, "on" if transport else "off")
            for lo, _, transport in regime_windows(med, sched)[1:]]


def up_to(windows, t):
    """The windows clipped to [start, t], as the oracle reads them."""
    return [(lo, min(hi, t), transport) for lo, hi, transport in windows if lo < t]


class TestCrossings:
    def test_power_crossings_with_hysteresis(self):
        med = canonical(1e-5)
        sched = build_schedule([
            Segment(0.0, 200.0, OM0, 0.0),
            Segment(200.0, 10200.0, 0.0, 0.0, ramp=50.0),
            Segment(10200.0, 10800.0, 0.0, OM0, ramp=50.0),
        ])
        found = crossings(med, sched)
        kinds = [kind for _t, kind in found]
        assert kinds == ["off", "on"]
        t_off = found[0][0]
        t_on = found[1][0]
        assert 200.0 < t_off < 250.0
        assert 10200.0 < t_on < 10250.0
        # re-activation waits for the hysteresis level, not the off level
        op, om = sched.values(t_on)
        assert op**2 + om**2 == pytest.approx(
            HYSTERESIS * med.storage_threshold, rel=1e-6)
        op, om = sched.values(t_off)
        assert op**2 + om**2 == pytest.approx(med.storage_threshold,
                                              rel=1e-6)

    def test_no_crossings_on_steady_hold(self):
        med = canonical(1e-4)
        assert crossings(med, hold(OM0, OM0)) == []
        assert regime_windows(med, hold(OM0, OM0)) == ((0.0, 2e4, True),)

    def test_found_once_per_medium_and_schedule(self, monkeypatch):
        """The run, its budget, its summary and every oracle call at each
        snapshot read the timeline; its roots are solved once per (medium,
        schedule) pair, and no caller can change what the next one gets."""
        checked = []
        check = medium_module.check_clock_rate
        monkeypatch.setattr(medium_module, "check_clock_rate",
                            lambda *args: checked.append(args) or check(*args))
        regime_windows.cache_clear()
        med = canonical(1e-5)
        sched = build_schedule([
            Segment(0.0, 200.0, OM0, 0.0),
            Segment(200.0, 10200.0, 0.0, 0.0, ramp=50.0),
            Segment(10200.0, 10800.0, 0.0, OM0, ramp=50.0),
        ])
        first = regime_windows(med, sched)
        assert isinstance(first, tuple)
        again = regime_windows(med, sched)
        assert again is first
        assert [transport for _, _, transport in again] == [True, False, True]
        # an equal pair is the same key
        assert regime_windows(dataclasses.replace(med), build_schedule(
            list(sched.segments))) is again
        assert len(checked) == 1
        regime_windows(canonical(2e-5), sched)
        assert len(checked) == 2

    @pytest.mark.parametrize("levels", [
        # (omega_plus, omega_minus) per segment, in units of sqrt(theta)
        [(10.0, 0.0), (0.0, 0.0), (0.0, 10.0)],           # store and retrieve
        [(1.0001, 0.0), (0.0, 0.0), (0.0, 1.0955)],       # crossings near s = 0, 1
        [(0.0, 3.0), (0.5, 0.5), (2.0, 2.0), (0.1, 0.0)],  # off, on, off
        [(3.0, 0.0), (0.0, 0.0), (0.0, 1.0), (0.0, 1.5)],  # on waits for 1.2 theta
    ])
    def test_matches_brentq_reference(self, levels):
        med = canonical(1e-5)
        root = math.sqrt(med.storage_threshold)
        sched = build_schedule([
            Segment(1000.0 * k, 1000.0 * (k + 1), root * op, root * om,
                    ramp=80.0 + 170.0 * k)
            for k, (op, om) in enumerate(levels)])
        ref = brentq_crossings(med, sched)
        got = crossings(med, sched)
        assert ref
        assert [kind for _, kind in got] == [kind for _, kind in ref]
        for (t, _), (t_ref, _) in zip(got, ref):
            assert abs(t - t_ref) <= 1e-9 * max(1.0, abs(t_ref))

    def test_chatter_within_one_ramp_raises(self):
        # (omega, 0) -> (0, omega): the power dips to half of 1.5 theta, below
        # the off level, and recovers past the on level 1.2 theta
        med = canonical(1e-5)
        omega = math.sqrt(1.5 * med.storage_threshold)
        sched = build_schedule([
            Segment(0.0, 500.0, omega, 0.0),
            Segment(500.0, 1000.0, 0.0, omega, ramp=200.0),
        ])
        assert [kind for _, kind in brentq_crossings(med, sched)] == ["off", "on"]
        with pytest.raises(ThresholdChatter, match="2 times"):
            regime_windows(med, sched)

    @pytest.mark.parametrize("gamma", [1e-200, 1e-310])
    def test_tiny_gamma_is_refused_before_ramp_arithmetic(self, gamma):
        # the clock's ramp coefficients scale as 1/gamma and the crossings
        # square them; a library call skips the config parser's check
        med = build_medium(r_g=1.0, gamma=gamma, gamma2=1e-5, u_g0=1e-3,
                           domain_length=120.0, grid_points=2048)
        sched = parse_config(get_preset("stop_and_store")).schedule
        with pytest.raises(NonPhysicalParameter, match="medium.gamma"):
            regime_windows(med, sched)


class TestRegimeWindows:
    def test_stop_and_store(self):
        config = parse_config(get_preset("stop_and_store"))
        med, sched = config.medium, config.schedule
        (t_off, off), (t_on, on) = crossings(med, sched)
        assert (off, on) == ("off", "on")
        assert regime_windows(med, sched) == (
            (sched.t_start, t_off, True), (t_off, t_on, False),
            (t_on, sched.t_end, True))
        # a run that ends at a crossing ends before it
        ends_on = dataclasses.replace(
            config, run=dataclasses.replace(config.run, t_end=t_on))
        assert scenario._run_windows(ends_on) == [
            (sched.t_start, t_off, True), (t_off, t_on, False)]

    def test_schedule_opening_dark(self):
        med = canonical(1e-5)
        sched = build_schedule([Segment(0.0, 1000.0, 0.0, 0.0),
                                Segment(1000.0, 2000.0, OM0, 0.0, ramp=100.0)])
        [(t_on, kind)] = crossings(med, sched)
        assert kind == "on" and 1000.0 < t_on < 1100.0
        assert regime_windows(med, sched) == (
            (0.0, t_on, False), (t_on, 2000.0, True))
        assert up_to(regime_windows(med, sched), 500.0) == [(0.0, 500.0, False)]
        assert up_to(regime_windows(med, sched), 0.0) == []


def test_validity_report_smoke():
    med = canonical(1e-4)
    pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                        prepared=True, center=100.0)
    checks = validity_report(med, pulse, hold(OM0, OM0))
    assert checks
    names = {c.name for c in checks}
    assert "opacity" in names
    assert all(c.passed for c in checks)
    as_dict = checks[0].to_dict()
    assert set(as_dict) == {"name", "passed", "margin", "note"}
