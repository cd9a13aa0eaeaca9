"""Dispersive perturber cloud: geometry, rates and phase predictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statlight.errors import (
    DegenerateCoefficients,
    NonDispersiveRegime,
    NonPhysicalParameter,
    PerturberOffGrid,
)
from statlight.integrator import plan_steps
from statlight.medium import Segment, build_medium, build_schedule, coefficients
from statlight.perturber import (
    PerturberSpec,
    build_perturber,
    cloud_rms,
    interaction_rate,
    perturber_density,
    phase_rate_stationary,
    phase_shift_traveling,
    polariton_dilution,
    stationary_rate_measured_scale,
)

OM0 = math.sqrt(1e-3)


def medium_for(r_g=1.0, gamma2=0.0, n=4096, length=200.0):
    return build_medium(r_g=r_g, gamma=1.0, gamma2=gamma2, u_g0=1e-3,
                        domain_length=length, grid_points=n)


def spec_for(m_atoms=6.0, z_center=100.0, length=4.0, sigma_over_s=1.0,
             gamma_a=0.5, detuning=10.0):
    return build_perturber(m_atoms, z_center, length, sigma_over_s, gamma_a,
                           detuning)


def split_factor(spec, density, dt):
    """(factor, dtau) of the direct engine's per-step perturber split over a
    slow-light step of length dt."""
    med = medium_for(n=len(density))
    sched = build_schedule([Segment(0.0, 1e3, OM0, 0.0)])
    zeros = np.zeros(med.grid_points)
    plan = plan_steps(med, sched, 0.0, dt, zeros, zeros,
                      (density, interaction_rate(spec)))
    return plan.split, plan.dtau


class TestBuild:
    @pytest.mark.parametrize("kwargs", [
        dict(m_atoms=0.0), dict(length=-1.0), dict(sigma_over_s=0.0),
        dict(gamma_a=0.0),
    ])
    def test_guards(self, kwargs):
        base = dict(m_atoms=6.0, z_center=100.0, length=4.0,
                    sigma_over_s=1.0, gamma_a=0.5, detuning=10.0)
        base.update(kwargs)
        with pytest.raises(NonPhysicalParameter):
            build_perturber(**base)

    @pytest.mark.parametrize("detuning", [0.3, -0.3, 0.5])
    def test_resonant_cloud_rejected_at_build(self, detuning):
        # |detuning| must exceed gamma_a = 0.5
        with pytest.raises(NonDispersiveRegime):
            spec_for(detuning=detuning)

    def test_resonant_cloud_rejected_at_use(self):
        # a spec built directly skips the build-time check
        spec = PerturberSpec(6.0, 100.0, 4.0, 1.0, 0.5, 0.3)
        with pytest.raises(NonDispersiveRegime):
            phase_rate_stationary(medium_for(), spec)


class TestDensity:
    def test_area_and_peak(self):
        med = medium_for()
        spec = spec_for()
        assert cloud_rms(med, spec) == spec.length / math.sqrt(2.0 * math.pi)
        density = perturber_density(med, spec)
        area = float(np.sum(density)) * med.dz
        assert area == pytest.approx(6.0, rel=1e-9)
        # peak density is m_atoms/length by construction
        assert float(np.max(density)) == pytest.approx(1.5, rel=1e-9)

    def test_narrow_cloud_floored_but_area_kept(self):
        med = medium_for()
        spec = spec_for(length=0.01)
        assert cloud_rms(med, spec) == 4 * med.dz
        density = perturber_density(med, spec)
        area = float(np.sum(density)) * med.dz
        assert area == pytest.approx(6.0, rel=1e-6)

    @pytest.mark.parametrize("z_center", [3.0, 198.0])
    def test_cloud_must_clear_the_edges(self, z_center):
        med = medium_for()
        with pytest.raises(PerturberOffGrid):
            perturber_density(med, spec_for(z_center=z_center))

    def test_wide_cloud_margin_uses_rms(self):
        # length 160 has rms 63.8; 4 rms fits a 520 domain centered there
        med = medium_for(n=5120, length=520.0)
        spec = spec_for(m_atoms=1122.8, z_center=260.0, length=160.0)
        assert cloud_rms(med, spec) == spec.length / math.sqrt(2.0 * math.pi)
        density = perturber_density(med, spec)
        area = float(np.sum(density)) * med.dz
        # the 4 rms tails clipped at the edges cost ~5e-5 of the area
        assert area == pytest.approx(1122.8, rel=2e-4)


class TestRates:
    def test_interaction_rate_components(self):
        rate = interaction_rate(spec_for())
        assert rate.real == pytest.approx(-0.5 * 0.5 / 100.25, rel=1e-12)
        assert rate.imag == pytest.approx(0.5 * 10.0 / 100.25, rel=1e-12)

    def test_apply_perturber_rotation(self):
        spec = spec_for()
        split, dtau = split_factor(spec, np.ones(256), 200.0)
        rate = interaction_rate(spec)
        assert dtau == pytest.approx(0.2, rel=1e-12)
        assert np.angle(split[0]) == pytest.approx(rate.imag * dtau, rel=1e-12)
        assert abs(split[0]) == pytest.approx(math.exp(rate.real * dtau),
                                              rel=1e-12)

    def test_splitting_is_additive(self):
        density = np.linspace(0.0, 1.0, 256)
        once, _ = split_factor(spec_for(), density, 300.0)
        half, _ = split_factor(spec_for(), density, 150.0)
        np.testing.assert_allclose(once, half * half, atol=1e-14)


class TestPhasePredictions:
    def test_traveling_shift_frozen(self):
        med = medium_for(gamma2=0.0)
        co = coefficients(med, OM0, 0.0)
        shift = phase_shift_traveling(med, co, spec_for(m_atoms=6.0))
        assert shift == pytest.approx(0.3, rel=1e-12)

    def test_traveling_shift_needs_drift(self):
        med = medium_for(gamma2=0.0)
        co = coefficients(med, OM0, OM0)
        with pytest.raises(DegenerateCoefficients):
            phase_shift_traveling(med, co, spec_for())

    def test_stationary_rate_frozen(self):
        med = medium_for(gamma2=0.0)
        spec = spec_for(m_atoms=5026.54824574367, length=8.0)
        chi, t_pi = phase_rate_stationary(med, spec)
        assert chi == pytest.approx(math.pi / 100.0, rel=1e-12)
        assert t_pi == pytest.approx(100.0, rel=1e-12)

    def test_dilution_values(self):
        med = medium_for(gamma2=0.0)
        assert polariton_dilution(med, coefficients(med, OM0, OM0)) == \
            pytest.approx(0.5, rel=1e-12)
        assert polariton_dilution(med, coefficients(med, OM0, 0.0)) == \
            pytest.approx(1.0, rel=1e-12)

    @given(r_g=st.floats(0.25, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_dilution_times_clock_rate_is_invariant(self, r_g):
        # holding the entry forward control and adding the matched backward
        # one keeps D * tau_rate pinned at eta * u_g0 for every coupling
        med = medium_for(r_g=r_g, gamma2=0.0)
        co = coefficients(med, OM0, r_g * OM0)
        d = polariton_dilution(med, co)
        assert d * co.tau_rate == pytest.approx(co.eta * 1e-3, rel=1e-12)

    def test_measured_scale_is_linewidth_correction(self):
        med = medium_for(gamma2=0.0)
        spec = spec_for(m_atoms=1122.8, length=160.0, z_center=260.0)
        scale = stationary_rate_measured_scale(med, spec, OM0, OM0)
        assert scale == pytest.approx(0.997506234413965, rel=1e-12)
