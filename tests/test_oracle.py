"""Closed-form envelope law oracles: frozen values and invariants."""

import math

import numpy as np
import pytest
from _as_printed import as_printed_delta, drift_rate
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from statlight import oracle, scenario
from statlight.config import parse_config
from statlight.errors import (ChannelOff, DegenerateCoefficients,
                             NonPhysicalParameter)
from statlight.presets import get_preset, list_presets
from statlight.medium import (
    HYSTERESIS,
    Segment,
    build_medium,
    build_pulse,
    build_schedule,
    coefficients,
    delta_weighted,
    group_velocity,
    pulse_length,
    regime_windows,
    tau_rate_at,
)
from statlight.oracle import (
    OracleWalk,
    conversion_probability,
    decay_exponent,
    drift_beta,
    gaussian_envelope,
    m2_rate,
    spreading_velocity,
    taylor_c012,
    width_b,
    width_growth_rate,
)

OM0 = math.sqrt(1e-3)


def medium_for(r_g=1.0, gamma2=0.0):
    return build_medium(r_g=r_g, gamma=1.0, gamma2=gamma2, u_g0=1e-3,
                        domain_length=200.0, grid_points=4096)


def hold(om_plus, om_minus, t_end=2e4):
    return build_schedule([Segment(0.0, t_end, om_plus, om_minus)])


def stored(t_store=200.0, t_release=10200.0, t_end=10800.0, ramp=50.0):
    """Forward transport, dark storage with both controls off, and
    retrieval on the backward control."""
    return build_schedule([
        Segment(0.0, t_store, OM0, 0.0),
        Segment(t_store, t_release, 0.0, 0.0, ramp=ramp),
        Segment(t_release, t_end, 0.0, OM0, ramp=ramp),
    ])


def storage_crossings(med, sched, off_ramp, on_ramp):
    """(t_off, t_on) of the power crossing the storage threshold on the
    ramp starting at off_ramp, and the release level on the one starting at
    on_ramp, found by root bracketing of the control power."""
    theta = med.storage_threshold

    def power(t):
        op, om = sched.values(t)
        return op ** 2 + om ** 2

    t_off, t_on = (optimize.brentq(lambda t: power(t) - level, a, a + 100.0,
                                   xtol=1e-13, rtol=1e-15)
                   for level, a in ((theta, off_ramp), (HYSTERESIS * theta, on_ramp)))
    return t_off, t_on


class TestDeltaWeighted:
    def test_orderings_coincide_at_unit_ratio(self):
        med = medium_for(r_g=1.0)
        co = coefficients(med, OM0, 0.0)
        assert delta_weighted(med, co) == pytest.approx(1.0)
        assert as_printed_delta(med, co) == pytest.approx(1.0)

    def test_orderings_split_at_strong_coupling_ratio(self):
        med = medium_for(r_g=2.0)
        co = coefficients(med, OM0, 0.0)
        assert delta_weighted(med, co) == pytest.approx(4.0)
        assert as_printed_delta(med, co) == pytest.approx(1.0)


class TestTaylor:
    def test_balanced_lossless_expansion(self):
        med = medium_for(gamma2=0.0)
        co = coefficients(med, OM0, OM0)
        c0, c1, c2 = taylor_c012(med, co)
        assert c0 == pytest.approx(0.0, abs=1e-15)
        assert c1 == pytest.approx(0.0, abs=1e-15)
        assert c2 == pytest.approx(1j, rel=1e-12)

    def test_balanced_decoherent_offset(self):
        med = medium_for(gamma2=1e-4)
        co = coefficients(med, OM0, OM0)
        c0, _, _ = taylor_c012(med, co)
        assert c0 == pytest.approx(0.05j, rel=1e-12)

    def test_width_growth_rate_canonical(self):
        med = medium_for(gamma2=0.0)
        rate = width_growth_rate(med, OM0, OM0)
        assert rate == pytest.approx(2e-3, rel=1e-12)
        # the case limit formula agrees at unit coupling ratio
        assert spreading_velocity(med, OM0, OM0) == pytest.approx(rate,
                                                                  rel=1e-12)

    def test_width_growth_rate_bracket_ratios(self):
        med4 = medium_for(r_g=4.0)
        medq = medium_for(r_g=0.25)
        # exact rate interpolates the single-scale limits of both channels
        assert width_growth_rate(med4, OM0, 4.0 * OM0) == pytest.approx(
            (1.0 + 1.0 / 16.0) * 1e-3, rel=1e-12)
        assert width_growth_rate(medq, OM0, 0.25 * OM0) == pytest.approx(
            (1.0 + 16.0) * 1e-3, rel=1e-12)
        # the balanced-scale formula keeps the unit-ratio value instead
        assert spreading_velocity(med4, OM0, 4.0 * OM0) == pytest.approx(
            2e-3, rel=1e-12)
        assert spreading_velocity(med4, 0.0, 0.0) == 0.0


class TestDrift:
    def test_slow_light_translation(self):
        med = medium_for(gamma2=0.0)
        sched = hold(OM0, 0.0)
        for t in (1e3, 5e3, 1e4):
            beta_p, beta_m = drift_beta(med, sched, t)
            assert beta_p == pytest.approx(1e-3 * t, rel=1e-9)
            assert beta_m == pytest.approx(beta_p - med.xi_sum_inv, rel=1e-12)

    def test_balanced_hold_is_pinned(self):
        med = medium_for(gamma2=1e-4)
        sched = hold(OM0, OM0)
        beta_p, beta_m = drift_beta(med, sched, 1e4)
        assert beta_p == pytest.approx(0.0, abs=1e-12)
        assert beta_m == pytest.approx(-2.0, rel=1e-12)

    def test_as_printed_ordering_underpredicts_slow_light(self):
        med = medium_for(r_g=2.0, gamma2=0.0)
        sched = hold(OM0, 0.0)
        beta_good, _ = drift_beta(med, sched, 1e4)
        # on a constant hold the drift is its rate times t
        co = coefficients(med, OM0, 0.0)
        beta_bad = drift_rate(med, co, as_printed_delta(med, co)) * 1e4
        assert beta_good == pytest.approx(10.0, rel=1e-9)
        assert beta_bad == pytest.approx(2.5, rel=1e-9)

    @given(r_g=st.floats(0.25, 4.0), gamma2=st.floats(0.0, 1e-2),
           frac_plus=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
           frac_minus=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    @settings(max_examples=200, deadline=None)
    def test_rate_is_the_group_velocity(self, r_g, gamma2, frac_plus,
                                        frac_minus):
        # drift_beta integrates group_velocity in place of the envelope
        # law's rate
        op, om = frac_plus * OM0, frac_minus * r_g * OM0
        assume(op > 0.0 or om > 0.0)
        med = medium_for(r_g=r_g, gamma2=gamma2)
        co = coefficients(med, op, om)
        # relative to the velocity of either channel alone, since the two
        # cancel on a balanced hold
        scale = co.eta ** 2 * (op ** 2 + om ** 2 / r_g ** 2) / med.gamma
        assert abs(group_velocity(med, op, om) - drift_rate(med, co)) <= 1e-13 * scale

    @pytest.mark.parametrize("t", [5000.0, 10800.0])
    def test_refuses_dark_storage_before_integrating(self, t, monkeypatch):
        """Inside the storage window the drift is refused before any
        integrand is called. After the release it is the group velocity
        integrated over the two transport windows, plus the boundary term
        over the run's two ends."""
        med = medium_for(gamma2=1e-5)
        sched = stored()
        t_off, t_on = storage_crossings(med, sched, 200.0, 10200.0)
        calls = self.count_integrands(monkeypatch)
        drift_beta(med, sched, 100.0)
        assert calls
        calls.clear()
        if t < t_on:
            with pytest.raises(DegenerateCoefficients, match="storage threshold"):
                drift_beta(med, sched, t)
            assert calls == []
            return

        def velocity(s):
            return group_velocity(med, *sched.values(s))

        def eta_alpha_tilde(s):
            co = coefficients(med, *sched.values(s))
            return co.eta * co.alpha_tilde

        ref = (quad_ref(velocity, sched, 0.0, t_off) + quad_ref(velocity, sched, t_on, t)
               - (eta_alpha_tilde(t) - eta_alpha_tilde(0.0)) / med.xi_minus)
        beta, _ = drift_beta(med, sched, t)
        assert abs(beta - ref) <= 1e-9 * abs(ref)

    def test_storage_is_refused_and_never_nan(self):
        """Both controls are off on the storage plateau, where eta
        alpha_tilde is inf * 0: every t from the storage crossing (exclusive)
        to the release crossing (inclusive) is refused, and every other t
        gives a finite drift."""
        med = medium_for(gamma2=1e-5)
        sched = stored()
        _, (t_off, t_on, _), _ = regime_windows(med, sched)
        ts = np.concatenate([np.linspace(0.0, 10800.0, 109),
                             [t_off, np.nextafter(t_off, np.inf), t_on,
                              np.nextafter(t_on, np.inf)]])
        for t in ts:
            if t_off < t <= t_on:
                with pytest.raises(DegenerateCoefficients, match="storage threshold"):
                    drift_beta(med, sched, t)
            else:
                assert all(map(math.isfinite, drift_beta(med, sched, t)))

    @pytest.mark.parametrize("t", [100.0, 1000.0])
    def test_refuses_a_schedule_that_opens_stored(self, t, monkeypatch):
        # dark until a ramp lifts the control over the threshold at t = 239.6;
        # integrating from the start gave (nan, nan) at t = 100 and a
        # QuadratureFailure at t = 1000
        med = medium_for(gamma2=1e-5)
        sched = build_schedule([Segment(0.0, 200.0, 0.0, 0.0),
                                Segment(200.0, 2000.0, OM0, 0.0, ramp=100.0)])
        calls = self.count_integrands(monkeypatch)
        with pytest.raises(DegenerateCoefficients,
                           match=r"opens in dark storage, .* from t = 0 to t = 239\.6"):
            drift_beta(med, sched, t)
        assert calls == []

    @staticmethod
    def count_integrands(monkeypatch) -> list:
        """Record every call of the drift rate (through group_velocity) and of
        its boundary term (through coefficients)."""
        calls = []

        def counted(f):
            def wrapper(*args):
                calls.append(args)
                return f(*args)
            return wrapper

        for name in ("group_velocity", "coefficients"):
            monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
        return calls


class TestWidth:
    def test_canonical_hold_frozen_value(self):
        med = medium_for(gamma2=0.0)
        sched = hold(OM0, OM0)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        b = width_b(med, sched, pulse, 1e4)
        assert b**2 == pytest.approx(440.0, rel=1e-9)

    def test_initial_width_is_pulse_length(self):
        med = medium_for(gamma2=0.0)
        sched = hold(OM0, OM0)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        assert width_b(med, sched, pulse, 0.0) == pytest.approx(20.0)

    def test_a_stored_pulse_does_not_spread(self):
        med = medium_for(gamma2=1e-5)
        sched = stored()
        pulse = build_pulse(amplitude=1.0, duration=1e4, injection_time=0.0,
                            prepared=True, center=70.0)
        (_, t_off, before), (_, t_on, held), _ = regime_windows(med, sched)
        assert (before, held) == (True, False)
        at_off = width_b(med, sched, pulse, t_off)
        assert width_b(med, sched, pulse, 5000.0) == at_off
        assert width_b(med, sched, pulse, t_on) == at_off
        # the ramps and the retrieval move it again
        assert width_b(med, sched, pulse, 10800.0) != at_off


class TestDecay:
    def test_slow_light_decoherence_frozen(self):
        # gamma2 = 1e-5 keeps the single-control power clear of the
        # storage threshold; eta = 1.01 there, so the exponent is
        # 1.01 * gamma2 * t, all of it in transport
        med = medium_for(gamma2=1e-5)
        sched = hold(OM0, 0.0)
        assert decay_exponent(med, sched, 1e4) == pytest.approx((0.101, 0.101),
                                                                rel=1e-9)

    def test_balanced_canonical_decoherence(self):
        med = medium_for(gamma2=1e-4)
        sched = hold(OM0, OM0)
        # eta = 1.05 on the canonical hold
        assert decay_exponent(med, sched, 1e4) == pytest.approx((1.05, 1.05),
                                                                rel=1e-9)

    def test_lossless_medium_never_decays(self):
        med = medium_for(gamma2=0.0)
        assert decay_exponent(med, hold(OM0, OM0), 1e4) == (0.0, 0.0)

    def test_quadrature_matches_riemann_sum(self):
        med = medium_for(gamma2=1e-5)
        sched = build_schedule([
            Segment(0.0, 500.0, OM0, 0.0),
            Segment(500.0, 2000.0, OM0, OM0, ramp=200.0),
        ])
        t_grid = np.linspace(0.0, 2000.0, 20001)
        rates = np.array([
            coefficients(med, *sched.values(t)).eta * med.gamma2
            for t in t_grid
        ])
        riemann = np.trapezoid(rates, t_grid)
        assert decay_exponent(med, sched, 2000.0) == pytest.approx(
            (riemann, riemann), abs=1e-8)

    def test_storage_window_decays_at_bare_rate(self):
        med = medium_for(gamma2=1e-5)
        sched = build_schedule([
            Segment(0.0, 200.0, OM0, 0.0),
            Segment(200.0, 10200.0, 0.0, 0.0, ramp=50.0),
            Segment(10200.0, 10800.0, 0.0, OM0, ramp=50.0),
        ])
        pde_only, full = decay_exponent(med, sched, 10800.0)
        stored = (full - pde_only) / med.gamma2
        assert 9900.0 < stored < 10100.0


def quad_ref(f, sched, t0, t1):
    """Reference integral: adaptive quadrature split at the breakpoints."""
    pts = [p for p in sched.breakpoints() if t0 < p < t1]
    val, _ = integrate.quad(f, t0, t1, points=pts or None, epsabs=1e-13,
                            epsrel=1e-13, limit=400)
    return val


class TestAgainstQuadrature:
    """Exact plateaus and adaptive ramps match a tight quad reference."""

    def medium(self):
        return medium_for(r_g=1.5, gamma2=1e-5)

    def schedule(self):
        return build_schedule([
            Segment(0.0, 500.0, OM0, 0.0),
            Segment(500.0, 2000.0, OM0, 0.8 * OM0, ramp=200.0),
            Segment(2000.0, 4000.0, 0.5 * OM0, 1.2 * OM0, ramp=700.0),
        ])

    # every window starts at the schedule start and ends: on the first
    # plateau, inside a ramp, past a ramp's far edge, across both ramps
    ENDS = [300.0, 620.0, 1200.0, 2350.0, 4000.0]

    @pytest.mark.parametrize("t1", ENDS)
    def test_drift_beta(self, t1):
        med, sched = self.medium(), self.schedule()
        xm = med.xi_minus

        def rate(t):
            co = coefficients(med, *sched.values(t))
            return co.eta ** 2 * delta_weighted(med, co) / xm * co.tau_rate

        def eta_alpha_tilde(t):
            co = coefficients(med, *sched.values(t))
            return co.eta * co.alpha_tilde

        ref = quad_ref(rate, sched, 0.0, t1) - (
            eta_alpha_tilde(t1) - eta_alpha_tilde(0.0)) / xm
        beta, _ = drift_beta(med, sched, t1)
        assert abs(beta - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("t1", ENDS)
    def test_width_b(self, t1):
        med, sched = self.medium(), self.schedule()
        pulse = build_pulse(amplitude=1.0, duration=2e3, injection_time=0.0,
                            prepared=True, center=50.0)
        grow = quad_ref(lambda t: m2_rate(med, sched, t)
                        * tau_rate_at(med, sched, t), sched, 0.0, t1)
        b = width_b(med, sched, pulse, t1)
        assert abs(b ** 2 - pulse_length(med, pulse) ** 2 - 2.0 * grow) \
            <= 1e-9 * abs(2.0 * grow)

    def eta_gamma2(self, med, sched):
        return lambda t: coefficients(med, *sched.values(t)).eta * med.gamma2

    @pytest.mark.parametrize("t1", ENDS)
    def test_decay_exponent(self, t1):
        med, sched = self.medium(), self.schedule()
        ref = quad_ref(self.eta_gamma2(med, sched), sched, 0.0, t1)
        transport, total = decay_exponent(med, sched, t1)
        assert transport == total
        assert abs(total - ref) <= 1e-9 * ref

    def storage_schedule(self):
        return stored(t_release=1200.0, t_end=2000.0, ramp=100.0)

    @pytest.mark.parametrize("include_storage", [True, False])
    def test_decay_exponent_across_storage_ramps(self, include_storage):
        med, sched = self.medium(), self.storage_schedule()
        t_off, t_on = storage_crossings(med, sched, 200.0, 1200.0)
        rate = self.eta_gamma2(med, sched)
        ref = quad_ref(rate, sched, 0.0, t_off) + quad_ref(rate, sched, t_on, 1700.0)
        if include_storage:
            ref += med.gamma2 * (t_on - t_off)
        got = decay_exponent(med, sched, 1700.0)[include_storage]
        assert abs(got - ref) <= 1e-9 * ref

    def test_width_b_across_storage_ramps(self):
        med, sched = self.medium(), self.storage_schedule()
        pulse = build_pulse(amplitude=1.0, duration=2e3, injection_time=0.0,
                            prepared=True, center=50.0)
        t_off, t_on = storage_crossings(med, sched, 200.0, 1200.0)

        def rate(t):
            return m2_rate(med, sched, t) * tau_rate_at(med, sched, t)

        grow = quad_ref(rate, sched, 0.0, t_off) + quad_ref(rate, sched, t_on, 1700.0)
        b = width_b(med, sched, pulse, 1700.0)
        assert abs(b ** 2 - pulse_length(med, pulse) ** 2 - 2.0 * grow) \
            <= 1e-9 * abs(2.0 * grow)


class TestEnvelope:
    def pulse(self):
        return build_pulse(amplitude=1.0, duration=1e4, injection_time=0.0,
                           prepared=True, center=50.0)

    def test_slow_light_centroid_translation(self):
        med = medium_for(gamma2=0.0)
        sched = hold(OM0, 0.0, t_end=6e4)
        z = med.grid()
        for t in (0.0, 2e4, 5e4):
            a = gaussian_envelope(med, sched, self.pulse(), "+", t, z)
            w = np.abs(a) ** 2
            centroid = float(np.sum(z * w) / np.sum(w))
            assert centroid == pytest.approx(50.0 + 1e-3 * t, abs=1e-3)

    def test_area_is_conserved_without_decoherence(self):
        med = medium_for(gamma2=0.0)
        sched = hold(OM0, 0.0, t_end=6e4)
        z = med.grid()
        areas = []
        for t in (0.0, 2e4, 5e4):
            a = gaussian_envelope(med, sched, self.pulse(), "+", t, z)
            areas.append(float(np.trapezoid(np.abs(a), z)))
        # grid truncation of the far tails limits the match, not physics
        assert areas[1] == pytest.approx(areas[0], rel=1e-5)
        assert areas[2] == pytest.approx(areas[0], rel=1e-5)

    def test_backward_channel_sits_behind_forward(self):
        med = medium_for(gamma2=1e-4)
        sched = hold(OM0, OM0)
        z = med.grid()
        ap = gaussian_envelope(med, sched, self.pulse(), "+", 5e3, z)
        am = gaussian_envelope(med, sched, self.pulse(), "-", 5e3, z)
        cp = float(np.sum(z * np.abs(ap) ** 2) / np.sum(np.abs(ap) ** 2))
        cm = float(np.sum(z * np.abs(am) ** 2) / np.sum(np.abs(am) ** 2))
        assert cp - cm == pytest.approx(med.xi_sum_inv, abs=1e-3)

    def test_envelope_is_real_valued(self):
        # the model normalises the control phases out of transport
        med = medium_for(gamma2=1e-4)
        for channel in ("+", "-"):
            a = gaussian_envelope(med, hold(OM0, OM0), self.pulse(), channel,
                                  1.0, med.grid())
            assert np.isrealobj(a) and np.all(a >= 0.0)

    def test_channel_off_guards(self):
        med = medium_for(gamma2=0.0)
        with pytest.raises(ChannelOff):
            gaussian_envelope(med, hold(OM0, 0.0), self.pulse(), "-", 1.0,
                              100.0)
        with pytest.raises(ChannelOff):
            gaussian_envelope(med, hold(0.0, OM0), self.pulse(), "-", 1.0,
                              100.0)
        with pytest.raises(NonPhysicalParameter):
            gaussian_envelope(med, hold(OM0, OM0), self.pulse(), "x", 1.0,
                              100.0)


class TestConversion:
    def test_frozen_canonical_value(self):
        med = medium_for(gamma2=1e-4)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        p = conversion_probability(med, pulse, 1e4)
        assert p == pytest.approx(0.9759000729485332, rel=1e-12)

    def test_monotone_from_unity(self):
        med = medium_for(gamma2=1e-4)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        assert conversion_probability(med, pulse, 0.0) == 1.0
        values = [conversion_probability(med, pulse, ts)
                  for ts in (0.0, 2.5e3, 5e3, 1e4)]
        assert all(b < a for a, b in zip(values, values[1:]))
        with pytest.raises(NonPhysicalParameter):
            conversion_probability(med, pulse, -1.0)

    @given(t_s=st.floats(0.0, 1e5), r_g=st.floats(0.5, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_in_unit_interval(self, t_s, r_g):
        med = medium_for(r_g=r_g, gamma2=1e-4)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        p = conversion_probability(med, pulse, t_s)
        assert 0.0 < p <= 1.0


def quad_per_time(f, med, sched, t):
    """An oracle integral as each scalar took it with a quadrature of its
    own: the transport windows clipped to [t_start, t], their pieces summed
    in time order, a plateau as f at its middle times its length."""
    total = 0.0
    for a, b, transport in regime_windows(med, sched):
        a, b = max(a, sched.t_start), min(b, t)
        if transport and b > a:
            for p, q, _, ramping in sched.pieces(a, b):
                total += (oracle._ramp_integral(f, p, q) if ramping
                          else f(0.5 * (p + q)) * (q - p))
    return total


def scalars_per_time(med, sched, pulse, t):
    """(B, the decay pair, the drift) at t from quadratures of their own;
    the drift is None where the oracle refuses it (storage)."""
    l_o = pulse_length(med, pulse)
    grow = quad_per_time(lambda s: m2_rate(med, sched, s) * tau_rate_at(med, sched, s),
                         med, sched, t)
    b = math.sqrt(l_o * l_o + 2.0 * grow)
    decay = (0.0, 0.0)
    if med.gamma2 != 0.0:
        pde = quad_per_time(lambda s: coefficients(med, *sched.values(s)).eta * med.gamma2,
                            med, sched, t)
        stored = sum(min(hi, t) - lo for lo, hi, transport in regime_windows(med, sched)
                     if not transport and lo < t)
        decay = (pde, pde + med.gamma2 * stored)
    windows = regime_windows(med, sched)
    if any(not transport and (lo == sched.t_start or lo < t <= hi)
           for lo, hi, transport in windows):
        return b, decay, None
    main = quad_per_time(lambda s: group_velocity(med, *sched.values(s)), med, sched, t)

    def eta_alpha_tilde(s):
        co = coefficients(med, *sched.values(s))
        return co.eta * co.alpha_tilde

    beta = main - (eta_alpha_tilde(t) - eta_alpha_tilde(sched.t_start)) / med.xi_minus
    return b, decay, (beta, beta - med.xi_sum_inv)


class TestWalk:
    """One walk per (medium, schedule), read at every snapshot time of a
    run, gives the bits of a quadrature per time."""

    @pytest.mark.parametrize("name", [name for name, _ in list_presets()])
    def test_every_snapshot_time_of_a_preset(self, name):
        """At every snapshot time of the preset's run, scored or not, and at
        two times partway through each ramp: so across ramps (push_pull,
        stop_and_store, conversion) and inside a storage window
        (stop_and_store), as well as past them, where every scored snapshot
        of those presets sits. The drift is refused at the same times, with
        the error a fresh walk (`drift_beta`) gives."""
        config = parse_config(get_preset(name))
        med, sched, pulse = config.medium, config.schedule, config.pulse
        times = sorted([ev.t for ev in scenario._build_events(config) if ev.snap]
                       + [a + f * (b - a) for a, b, _, ramping
                          in sched.pieces(sched.t_start, config.run.t_end)
                          if ramping for f in (0.3, 0.7)])
        walk, refused = OracleWalk(med, sched), []
        for t in times:
            b, decay, drift = scalars_per_time(med, sched, pulse, t)
            assert walk.width(pulse, t) == b == width_b(med, sched, pulse, t)
            assert walk.decay(t) == decay == decay_exponent(med, sched, t)
            if drift is None:
                refused.append(t)
                with pytest.raises(DegenerateCoefficients) as fresh:
                    drift_beta(med, sched, t)
                with pytest.raises(DegenerateCoefficients) as read:
                    walk.drift(t)
                assert str(read.value) == str(fresh.value)
            else:
                assert walk.drift(t) == drift == drift_beta(med, sched, t)
        assert bool(refused) == (name == "stop_and_store")

    def test_reads_in_any_order_give_the_same_bits(self):
        """The walk keeps its sums over whole pieces, so a time read after a
        later one, or twice, reads the same sums."""
        med = medium_for(r_g=1.5, gamma2=1e-5)
        sched = stored(t_release=1200.0, t_end=2000.0, ramp=100.0)
        pulse = build_pulse(amplitude=1.0, duration=2e3, injection_time=0.0,
                            prepared=True, center=50.0)
        times = [0.0, 120.0, 230.0, 800.0, 1250.0, 1300.0, 1700.0, 2000.0]
        forward, backward = OracleWalk(med, sched), OracleWalk(med, sched)
        ahead = [(forward.width(pulse, t), forward.decay(t)) for t in times]
        behind = [(backward.width(pulse, t), backward.decay(t)) for t in times[::-1]]
        assert ahead == behind[::-1]
        assert ahead == [(forward.width(pulse, t), forward.decay(t)) for t in times]

    def test_a_plateau_integrand_is_evaluated_once(self, monkeypatch):
        """A hold read at many times evaluates each integrand once: on its
        one plateau."""
        med = medium_for(gamma2=1e-5)
        sched = hold(OM0, OM0)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        calls = []
        rate = oracle.m2_rate
        monkeypatch.setattr(oracle, "m2_rate",
                            lambda *args: calls.append(args) or rate(*args))
        walk = OracleWalk(med, sched)
        widths = [walk.width(pulse, t) for t in np.linspace(0.0, 2e4, 101)]
        assert len(calls) == 1
        assert widths == [width_b(med, sched, pulse, t) for t in np.linspace(0.0, 2e4, 101)]

    def test_the_start_is_read_once_per_walk(self, monkeypatch):
        """`drift` and `gaussian_envelope` take the controls and
        coefficients at the schedule start from the walk, made once, with
        the bits of a fresh walk per read; a schedule that opens stored has
        no start coefficients to make, and its reads refuse as before."""
        med = medium_for(r_g=1.5)
        sched = build_schedule([Segment(0.0, 500.0, OM0, 0.0),
                                Segment(500.0, 2e3, OM0, OM0, ramp=100.0)])
        pulse = build_pulse(amplitude=1.0, duration=2e3, injection_time=0.0,
                            prepared=True, center=50.0)
        z = med.grid()
        times = np.linspace(700.0, 2e3, 9)
        fresh = [(drift_beta(med, sched, t),
                  gaussian_envelope(med, sched, pulse, "-", t, z)) for t in times]
        calls = []
        coefficients_ = oracle.coefficients
        monkeypatch.setattr(oracle, "coefficients", lambda *args: calls.append(
            args[1:]) or coefficients_(*args))
        walk = OracleWalk(med, sched)
        read = [(walk.drift(t), gaussian_envelope(med, sched, pulse, "-", t, z, walk))
                for t in times]
        assert calls.count((OM0, 0.0)) == 2  # the start, and m2_rate's plateau
        for (drift, envelope), (drift_, envelope_) in zip(read, fresh):
            assert drift == drift_ and envelope.tobytes() == envelope_.tobytes()
        dark = build_schedule([Segment(0.0, 2e3, 0.0, 0.0)])
        with pytest.raises(DegenerateCoefficients, match="opens in dark storage"):
            OracleWalk(med, dark).drift(100.0)

    def test_a_second_read_inside_a_ramp_takes_no_quadrature(self, monkeypatch):
        """The width and decay that `gaussian_envelope` reads at a ramp time
        are read again by `compare_to_oracle`: the second read of a time
        partway through a ramp takes the kept value, with the same bits."""
        med = medium_for(r_g=1.5, gamma2=1e-5)
        sched = stored(t_release=1200.0, t_end=2000.0, ramp=100.0)
        pulse = build_pulse(amplitude=1.0, duration=2e3, injection_time=0.0,
                            prepared=True, center=50.0)
        calls = []
        ramp = oracle._ramp_integral
        monkeypatch.setattr(oracle, "_ramp_integral",
                            lambda *args: calls.append(args) or ramp(*args))
        walk = OracleWalk(med, sched)
        t = 230.0  # partway through the ramp into storage
        first = (walk.width(pulse, t), walk.decay(t))
        taken = len(calls)
        assert taken > 0
        assert (walk.width(pulse, t), walk.decay(t)) == first
        assert len(calls) == taken
