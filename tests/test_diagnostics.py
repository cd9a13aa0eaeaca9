"""Measurement helpers: moments, fits, phase traces, oracle comparison."""

import math

import numpy as np
import pytest

from statlight.diagnostics import (
    MIN_FIT_POINTS,
    channel_energies,
    compare_to_oracle,
    linear_fit,
    moments,
    relative_phase,
)
from statlight.errors import (
    EmptyField,
    PhaseUnwrapAmbiguity,
    WindowTooShort,
)
from statlight.medium import (
    Segment,
    build_medium,
    build_pulse,
    build_schedule,
)
from statlight.oracle import gaussian_envelope

OM0 = math.sqrt(1e-3)


class TestMoments:
    def test_gaussian_moments(self):
        z = np.linspace(0.0, 200.0, 4096)
        dz = z[1] - z[0]
        field = np.exp(-((z - 80.0) ** 2) / (2.0 * 100.0)).astype(complex)
        m = moments(z, field, dz)
        assert m.centroid == pytest.approx(80.0, abs=1e-9)
        # intensity is root-2 narrower than the amplitude profile
        assert m.rms == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-9)
        assert m.energy == pytest.approx(10.0 * math.sqrt(math.pi),
                                         rel=1e-9)
        assert m.peak == pytest.approx(1.0)

    def test_rms_floored_at_grid_spacing(self):
        z = np.linspace(0.0, 200.0, 4096)
        dz = z[1] - z[0]
        field = np.zeros(4096, complex)
        field[2048] = 1.0
        assert moments(z, field, dz).rms == dz

    def test_empty_field_rejected(self):
        z = np.linspace(0.0, 200.0, 128)
        with pytest.raises(EmptyField):
            moments(z, np.zeros(128, complex), z[1] - z[0])


class TestFits:
    def test_exact_line(self):
        x = np.linspace(0.0, 10.0, 11)
        slope, intercept, r2 = linear_fit(x, 2.0 * x + 1.0)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert intercept == pytest.approx(1.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_noise_lowers_r2(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 10.0, 50)
        y = 2.0 * x + rng.normal(0.0, 5.0, 50)
        _, _, r2 = linear_fit(x, y)
        assert r2 < 0.999

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            linear_fit([0, 1, 2, 3], [0, 1, 2, 3])
        assert MIN_FIT_POINTS == 5

    def test_measured_group_velocity(self):
        # the drift velocity of a centroid track is the slope of its fit
        t = np.linspace(0.0, 1e4, 9)
        v, z0, r2 = linear_fit(t, 3e-3 * t + 5.0)
        assert v == pytest.approx(3e-3, rel=1e-12)
        assert z0 == pytest.approx(5.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


class TestRelativePhase:
    def test_recovers_winding_beyond_pi(self):
        steps = np.linspace(0.0, 2.5 * math.pi, 30)
        ref = np.full(30, 2.0 + 0.0j)
        pert = ref * np.exp(1j * steps)
        out = relative_phase(pert, ref)
        np.testing.assert_allclose(out, steps, atol=1e-12)

    def test_sparse_sampling_refused(self):
        ref = np.ones(3, complex)
        pert = np.exp(1j * np.array([0.0, 2.0, 4.0]))
        with pytest.raises(PhaseUnwrapAmbiguity):
            relative_phase(pert, ref)

    def test_amplitude_and_length_guards(self):
        with pytest.raises(EmptyField):
            relative_phase(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(WindowTooShort):
            relative_phase(np.ones(3, complex), np.ones(4, complex))


class TestOracleComparison:
    def test_closed_loop_on_synthetic_snapshots(self):
        med = build_medium(r_g=1.0, gamma=1.0, gamma2=1e-4, u_g0=1e-3,
                           domain_length=200.0, grid_points=4096)
        sched = build_schedule([Segment(0.0, 2e4, OM0, OM0)])
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        z = med.grid()
        anchor, errors = None, []
        for t in [0.0, 2.5e3, 5e3, 1e4]:
            snap = gaussian_envelope(med, sched, pulse, "+", t, z)
            errs, anchor = compare_to_oracle(med, sched, pulse, t, snap, anchor)
            errors.append(errs)
        env, width, decay = (max(col) for col in zip(*errors))
        assert env < 1e-9
        assert width < 1e-6
        # grid-sampled peaks track the continuum maximum to ~1e-7
        assert decay < 1e-6
        # the anchor passed along is the first snapshot's peak, not the last's
        assert anchor[1] == float(np.max(np.abs(
            gaussian_envelope(med, sched, pulse, "+", 0.0, z))))

    def test_empty_first_snapshot_rejected(self):
        med = build_medium(r_g=1.0, gamma=1.0, gamma2=0.0, u_g0=1e-3,
                           domain_length=200.0, grid_points=256)
        sched = build_schedule([Segment(0.0, 2e4, OM0, OM0)])
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        with pytest.raises(EmptyField):
            compare_to_oracle(med, sched, pulse, 0.0, np.zeros(256, complex))


class TestChannelEnergies:
    def test_coupling_ratio_scaling(self):
        med = build_medium(r_g=2.0, gamma=1.0, gamma2=0.0, u_g0=1e-3,
                           domain_length=200.0, grid_points=512)
        ones = np.ones(512, complex)
        e_plus, e_minus = channel_energies(med, ones, ones, OM0, OM0)
        # equal transport fields with equal controls: the backward physical
        # field is 1/r_g of the forward one, so energies differ by r_g^2
        assert e_plus / e_minus == pytest.approx(4.0, rel=1e-12)
        assert e_plus == pytest.approx(1e-3 * 200.0, rel=1e-9)
