"""Dispersion branch, slaving kernel and spectral propagator tests."""

import math

import numpy as np
import pytest
from _as_printed import as_printed_delta, dispersion_omega
from hypothesis import given, settings
from hypothesis import strategies as st

from statlight.diagnostics import energy_fraction
from statlight.errors import (
    GuardBandOverflow,
    NonPhysicalParameter,
)
from statlight.medium import (
    Segment,
    build_medium,
    build_schedule,
    coefficients,
)
from statlight.scenario import GUARD_ENERGY_FRACTION, check_guard_band
from statlight.spectral import (
    fields_from_state,
    k_grid,
    omega_from_determinant,
    propagate,
    release_projection,
    slaving_kernel,
    spectral_state_from_fields,
)

OM0 = math.sqrt(1e-3)


def medium_for(r_g=1.0, gamma2=0.0, n=512, length=200.0):
    return build_medium(r_g=r_g, gamma=1.0, gamma2=gamma2, u_g0=1e-3,
                        domain_length=length, grid_points=n)


def hold(om_plus, om_minus, t_end=2e4):
    return build_schedule([Segment(0.0, t_end, om_plus, om_minus)])


def realspace_kernel(med, channel, x):
    """Closed-form real-space slaving kernel on its support side: (continuous
    part, delta weight at x = 0). Channel "-" maps the forward field onto the
    backward one (support x < 0); channel "+" is the inverse map."""
    xp, xm = med.xi_plus, med.xi_minus
    if channel == "-":
        return (1.0 + xm / xp) * xm * np.exp(xm * x), -xm / xp
    return (1.0 + xp / xm) * xp * np.exp(-xp * x), -xp / xm


class TestDispersion:
    def test_balanced_decoherent_offset_frozen(self):
        med = medium_for(gamma2=1e-4)
        co = coefficients(med, OM0, OM0)
        assert dispersion_omega(med, co, 0.0) == pytest.approx(0.05j,
                                                               rel=1e-12)
        assert omega_from_determinant(med, co, 0.0) == pytest.approx(
            0.05j, rel=1e-12)

    def test_slow_light_branch_is_pure_advection(self):
        med = medium_for(gamma2=0.0)
        co = coefficients(med, OM0, 0.0)
        k = np.linspace(-20.0, 20.0, 401)
        ref = -k.astype(complex)
        np.testing.assert_allclose(dispersion_omega(med, co, k), ref,
                                   atol=1e-12)
        np.testing.assert_allclose(omega_from_determinant(med, co, k), ref,
                                   atol=1e-12)

    def test_routes_coincide_exactly_without_decoherence(self):
        for r_g in (0.5, 1.0, 2.0):
            med = medium_for(r_g=r_g, gamma2=0.0)
            co = coefficients(med, OM0, 0.7 * OM0)
            k = np.linspace(-5.0, 5.0, 201)
            a = dispersion_omega(med, co, k)
            b = omega_from_determinant(med, co, k)
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-16)

    def test_as_printed_ordering_mispredicts_drift_speed(self):
        med = medium_for(r_g=2.0, gamma2=0.0)
        co = coefficients(med, OM0, 0.0)
        h = 1e-7
        slope = (dispersion_omega(med, co, h).real
                 - dispersion_omega(med, co, -h).real) / (2.0 * h)
        delta = as_printed_delta(med, co)
        bad = (dispersion_omega(med, co, h, delta).real
               - dispersion_omega(med, co, -h, delta).real) / (2.0 * h)
        assert slope == pytest.approx(-1.0, rel=1e-6)
        assert bad == pytest.approx(-0.25, rel=1e-6)

    @given(
        r_g=st.floats(0.5, 2.0),
        gamma2=st.floats(0.0, 1e-3),
        frac=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_growing_modes(self, r_g, gamma2, frac):
        med = medium_for(r_g=r_g, gamma2=gamma2)
        co = coefficients(med, OM0, frac * r_g * OM0)
        k = np.linspace(-30.0, 30.0, 601)
        omega = omega_from_determinant(med, co, k)
        assert float(np.min(omega.imag)) >= -1e-12


class TestSlavingKernel:
    def test_anchor_values(self):
        med = medium_for(r_g=1.0)
        assert slaving_kernel(med, 0.0) == pytest.approx(1.0)
        assert slaving_kernel(med, 1.0) == pytest.approx(1j, rel=1e-12)

    def test_large_k_limit(self):
        med = medium_for(r_g=2.0)
        assert slaving_kernel(med, 1e9) == pytest.approx(-4.0, rel=1e-6)

    def test_unimodular_at_unit_ratio(self):
        med = medium_for(r_g=1.0)
        k = np.linspace(-50.0, 50.0, 1001)
        np.testing.assert_allclose(np.abs(slaving_kernel(med, k)), 1.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("channel,r_g", [("-", 1.0), ("-", 2.0),
                                             ("+", 1.0), ("+", 0.5)])
    def test_realspace_kernel_is_fourier_pair(self, channel, r_g):
        med = medium_for(r_g=r_g)
        scale = med.xi_minus if channel == "-" else med.xi_plus
        span = 60.0 / scale
        # midpoint rule on the kernel's own support side, away from the
        # jump at x = 0
        edges = np.linspace(-span if channel == "-" else 0.0,
                            0.0 if channel == "-" else span, 400001)
        x = 0.5 * (edges[:-1] + edges[1:])
        dx = edges[1] - edges[0]
        cont, weight = realspace_kernel(med, channel, x)
        for k in (0.0, 0.5, 1.0, 2.0):
            ft = weight + np.sum(cont * np.exp(-1j * k * x)) * dx
            f = slaving_kernel(med, k)
            expect = f if channel == "-" else 1.0 / f
            assert ft == pytest.approx(expect, abs=2e-6)


class TestProjection:
    def gaussian_phi(self, med, center=100.0, width=10.0):
        z = med.grid()
        return np.exp(-((z - center) ** 2) / (2.0 * width ** 2)).astype(
            complex)

    def test_release_projection_reconstructs_polariton(self):
        med = medium_for(gamma2=1e-4, n=2048)
        co = coefficients(med, OM0, OM0)
        phi = self.gaussian_phi(med)
        psi_p, psi_m = release_projection(med, co, phi)
        back = co.alpha_plus * psi_p + co.alpha_minus * psi_m
        np.testing.assert_allclose(back, phi, atol=1e-12)

    def test_real_polariton_projects_onto_real_fields(self):
        # a profile with Nyquist content on an even grid: that bin's k has
        # no partner, so the complex projection's imaginary part is the
        # Nyquist mode alone, and the real parts still sum to phi
        med = medium_for(gamma2=1e-4, n=2048)
        co = coefficients(med, OM0, OM0)
        nyquist = (-1.0) ** np.arange(med.grid_points)
        phi = self.gaussian_phi(med).real * (1.0 + 0.1 * nyquist)
        psi_p, psi_m = release_projection(med, co, phi)
        assert psi_p.dtype == psi_m.dtype == np.float64
        back = co.alpha_plus * psi_p + co.alpha_minus * psi_m
        np.testing.assert_allclose(back, phi, rtol=0.0, atol=1e-15)
        for real, full in zip((psi_p, psi_m),
                              release_projection(med, co, phi.astype(complex))):
            assert np.abs(full.imag).max() > 0.1
            np.testing.assert_allclose(full.imag, full.imag[0] * nyquist,
                                       rtol=0.0, atol=1e-14)
            np.testing.assert_array_equal(real, full.real)

    def test_projection_lands_on_slaving_branch(self):
        med = medium_for(gamma2=1e-4, n=2048)
        co = coefficients(med, OM0, OM0)
        psi_p, psi_m = release_projection(med, co, self.gaussian_phi(med))
        state = spectral_state_from_fields(med, psi_p, t=0.0)
        np.testing.assert_allclose(fields_from_state(state)[1], psi_m,
                                   atol=1e-12)

    def test_field_length_guard(self):
        med = medium_for(n=512)
        with pytest.raises(NonPhysicalParameter):
            spectral_state_from_fields(med, np.zeros(100, complex), t=0.0)


class TestPropagate:
    def initial(self, med):
        z = med.grid()
        psi = np.exp(-((z - 100.0) ** 2) / 50.0).astype(complex)
        return spectral_state_from_fields(med, psi, t=0.0)

    def test_constant_controls_step_size_invariance(self):
        med = medium_for(gamma2=1e-4, n=1024)
        sched = hold(OM0, OM0)
        one = self.initial(med)
        two = self.initial(med)
        propagate(one, sched, 500.0)  # dtau = 1.05
        propagate(two, sched, 250.0)
        propagate(two, sched, 500.0)
        np.testing.assert_allclose(one.psi_plus_k, two.psi_plus_k,
                                   atol=1e-12)
        assert one.t == pytest.approx(two.t)

    def test_slow_light_preserves_energy(self):
        med = medium_for(gamma2=0.0, n=1024)
        sched = hold(OM0, 0.0)
        state = self.initial(med)
        before = float(np.sum(np.abs(state.psi_plus_k) ** 2))
        for i in range(20):
            propagate(state, sched, 50.0 * (i + 1))  # dtau = 0.05 each
        after = float(np.sum(np.abs(state.psi_plus_k) ** 2))
        assert after == pytest.approx(before, rel=1e-12)

    def test_slow_light_translates_centroid(self):
        med = medium_for(gamma2=0.0, n=1024)
        sched = hold(OM0, 0.0)
        state = self.initial(med)
        propagate(state, sched, 2000.0)  # tau = 2, drift 2
        psi_p, _ = fields_from_state(state)
        z = med.grid()
        w = np.abs(psi_p) ** 2
        centroid = float(np.sum(z * w) / np.sum(w))
        assert state.t == pytest.approx(2000.0, rel=1e-9)
        assert centroid == pytest.approx(102.0, abs=1e-6)

    RAMPED = build_schedule([
        Segment(0.0, 1e4, OM0, 0.0),
        Segment(1e4, 2e4, OM0, OM0, ramp=1000.0),
    ])

    @pytest.mark.parametrize("t,t_next", [(9000.0, 10400.0), (10500.0, 11000.0)],
                             ids=["into_ramp", "mid_ramp"])
    def test_refuses_step_over_changing_controls(self, t, t_next):
        state = self.initial(medium_for(gamma2=1e-4, n=256))
        state.t = t
        with pytest.raises(NonPhysicalParameter,
                           match=f"between t = {t:g} and t_next = {t_next:g}"):
            propagate(state, self.RAMPED, t_next)

    def test_steps_from_one_ulp_before_the_plateau(self):
        # the ramp's controls are bit-equal to the plateau's there
        state = self.initial(medium_for(gamma2=1e-4, n=256))
        state.t = math.nextafter(11000.0, 0.0)
        propagate(state, self.RAMPED, 12000.0)
        assert state.t == 12000.0

    def test_dtau_must_be_positive(self):
        # the step ends at a lab time, which must follow the state's
        med = medium_for(n=256)
        state = self.initial(med)
        with pytest.raises(NonPhysicalParameter):
            propagate(state, hold(OM0, OM0), state.t)
        state.t = 100.0
        with pytest.raises(NonPhysicalParameter):
            propagate(state, hold(OM0, OM0), 50.0)


class TestGuardBand:
    def fields(self, med, width=10.0):
        z = med.grid()
        psi = np.exp(-((z - 100.0) ** 2) / (2.0 * width ** 2)).astype(
            complex)
        return psi, np.zeros_like(psi)

    def test_contained_pulse_passes(self):
        med = medium_for(n=2048)
        psi_p, psi_m = self.fields(med)
        frac = check_guard_band(med, psi_p, psi_m, 100.0, 60.0)
        assert frac <= GUARD_ENERGY_FRACTION

    def test_leaky_band_rejected(self):
        med = medium_for(n=2048)
        psi_p, psi_m = self.fields(med)
        # 3 sigma of intensity leaves erfc(3) ~ 2e-5 outside: over budget
        outside = np.abs(med.grid() - 100.0) > 30.0
        assert energy_fraction(psi_p, psi_m, outside) > 1e-6
        with pytest.raises(GuardBandOverflow):
            check_guard_band(med, psi_p, psi_m, 100.0, 30.0)

    def test_band_must_fit_the_domain(self):
        med = medium_for(n=2048)
        psi_p, psi_m = self.fields(med)
        with pytest.raises(GuardBandOverflow):
            check_guard_band(med, psi_p, psi_m, 100.0, 150.0)

    def test_empty_field_fraction_is_zero(self):
        med = medium_for(n=256)
        zero = np.zeros(256, complex)
        outside = np.abs(med.grid() - 100.0) > 50.0
        assert energy_fraction(zero, zero, outside) == 0.0


def test_k_grid_matches_fft_convention():
    med = medium_for(n=512)
    k = k_grid(med)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(2.0 * np.pi / 200.0)
    assert len(k) == 512
