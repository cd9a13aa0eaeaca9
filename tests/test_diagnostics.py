"""Measurement helpers: moments, fits, phase traces, oracle comparison."""

import math

import numpy as np
import pytest

import statlight.diagnostics as diagnostics
import statlight.oracle as oracle
import statlight.scenario as scenario
from statlight import get_preset
from statlight.config import parse_config
from statlight.diagnostics import (
    MIN_FIT_POINTS,
    compare_to_oracle,
    linear_fit,
    moments,
    unwrapped_phase,
)
from statlight.errors import (
    ChannelOff,
    EmptyField,
    PhaseUnwrapAmbiguity,
    WindowTooShort,
)
from statlight.integrator import MODE_PDE
from statlight.medium import (
    Segment,
    build_medium,
    build_pulse,
    build_schedule,
)
from statlight.oracle import decay_exponent, gaussian_envelope, width_b
from statlight.scenario import _record

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
    """The probe's phase relative to the run without the cloud, whose
    fields are real: the unwrapped angle of the perturbed series alone."""

    def test_recovers_winding_beyond_pi(self):
        steps = np.linspace(0.0, 2.5 * math.pi, 30)
        out = unwrapped_phase(2.0 * np.exp(1j * steps))
        np.testing.assert_allclose(out, steps, atol=1e-12)

    def test_sparse_sampling_refused(self):
        with pytest.raises(PhaseUnwrapAmbiguity):
            unwrapped_phase(np.exp(1j * np.array([0.0, 2.0, 4.0])))

    def test_amplitude_and_length_guards(self):
        with pytest.raises(EmptyField):
            unwrapped_phase(np.array([1.0, 0.0]))
        with pytest.raises(WindowTooShort):
            unwrapped_phase(np.array([], complex))


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
            errs, anchor = compare_to_oracle(med, sched, pulse, t,
                                             (snap, np.zeros_like(snap)), anchor)
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
        with pytest.raises(EmptyField, match="no field in channel \\+"):
            compare_to_oracle(med, sched, pulse, 0.0, (np.zeros(256), np.ones(256)))


    RAMPED = build_schedule([Segment(0.0, 2000.0, OM0, 0.0),
                             Segment(2000.0, 2e4, OM0, OM0, ramp=500.0)])

    @staticmethod
    def counting(monkeypatch, name):
        """Count the calls of oracle function `name` from both modules."""
        calls = []
        original = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (oracle, diagnostics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_width_and_one_decay_pass_per_snapshot(self, monkeypatch):
        """Errors and anchor equal, bit for bit, those of the form that let
        `gaussian_envelope` take its own width and decay and took them again
        for the width and decay errors (and a third time for the anchor)."""
        med = build_medium(r_g=1.5, gamma=1.0, gamma2=1e-5, u_g0=1e-3,
                           domain_length=200.0, grid_points=1024)
        sched = self.RAMPED
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        z = med.grid()

        def two_call_form(t, a_plus, anchor):
            pred = np.abs(gaussian_envelope(med, sched, pulse, "+", t, z))
            meas = np.abs(a_plus)
            if anchor is None:
                pk = float(np.max(meas))
                anchor = (pk / float(np.max(pred)), pk, width_b(med, sched, pulse, t),
                          math.exp(-decay_exponent(med, sched, t)[1]))
            scale, peak0, b0, df0 = anchor
            pred = pred * scale
            env_err = float(np.linalg.norm(meas - pred) / np.linalg.norm(pred))
            m = moments(z, a_plus, med.dz)
            b = width_b(med, sched, pulse, t)
            width_err = abs(m.rms - b / math.sqrt(2.0)) / (b / math.sqrt(2.0))
            predicted = ((math.exp(-decay_exponent(med, sched, t)[1]) / df0)
                         * (b0 / b))
            decay_err = abs(float(np.max(meas)) / peak0 - predicted) / predicted
            return (env_err, width_err, decay_err), anchor

        expected, anchor = [], None
        snapshots = []
        for k, t in enumerate([1000.0, 2300.0, 5000.0, 2e4]):
            a = gaussian_envelope(med, sched, pulse, "+", t, z)
            a = a * (1.0 + 1e-3 * k * np.sin(z)) * np.exp(0.3j * k)
            snapshots.append((t, a))
            errors, anchor = two_call_form(t, a, anchor)
            expected.append((errors, anchor))
        widths = self.counting(monkeypatch, "width_b")
        decays = self.counting(monkeypatch, "decay_exponent")
        anchor = None
        for (t, a), want in zip(snapshots, expected):
            widths.clear()
            decays.clear()
            # the envelopes `_record` forms are non-negative; both controls
            # are on past the ramp, so the forward channel is scored
            errors, anchor = compare_to_oracle(
                med, sched, pulse, t, (np.abs(a), np.zeros(len(z))), anchor)
            assert (errors, anchor) == want
            assert len(widths) == len(decays) == 1

    def test_the_channel_is_checked_once_per_scored_snapshot(self, monkeypatch):
        """The stationary preset's direct run scores its 21 snapshots, and
        each `compare_to_oracle` call checks its channel once."""
        checks = self.counting(monkeypatch, "check_channel")
        compares, compare = [], scenario.compare_to_oracle
        monkeypatch.setattr(scenario, "compare_to_oracle",
                            lambda *args: compares.append(1) or compare(*args))
        scenario._run_direct(parse_config(get_preset("stationary")))
        assert len(compares) == 21
        assert len(checks) == 21

    def test_channel_off_is_refused_before_any_quadrature(self, monkeypatch):
        med = build_medium(r_g=1.0, gamma=1.0, gamma2=1e-5, u_g0=1e-3,
                           domain_length=200.0, grid_points=256)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=True, center=100.0)
        calls = (self.counting(monkeypatch, "width_b")
                 + self.counting(monkeypatch, "decay_exponent")
                 + self.counting(monkeypatch, "drift_beta"))
        for segments, message in [
            # both controls off in the middle of a storage window
            ([Segment(0.0, 1000.0, OM0, 0.0),
              Segment(1000.0, 5000.0, 0.0, 0.0, ramp=100.0)],
             "channel \\+ has no control"),
            # the backward control alone: its channel is the one scored, but
            # the forward control at the start fixes the normalization
            ([Segment(0.0, 5000.0, 0.0, OM0)],
             "normalization needs the forward control on at start"),
        ]:
            with pytest.raises(ChannelOff, match=message):
                compare_to_oracle(med, build_schedule(segments), pulse, 3000.0,
                                  (np.ones(256), np.ones(256)))
        assert calls == []

    def test_the_backward_channel_is_scored_where_its_control_alone_is_on(self):
        """Forward transport, storage with both controls off, and retrieval
        on the backward control: each snapshot of the retrieval is scored
        against the backward envelope, and a closed-form one scores zero."""
        med = build_medium(r_g=1.0, gamma=1.0, gamma2=1e-5, u_g0=1e-3,
                           domain_length=200.0, grid_points=4096)
        sched = build_schedule([Segment(0.0, 500.0, OM0, 0.0),
                                Segment(500.0, 5000.0, 0.0, 0.0),
                                Segment(5000.0, 9000.0, 0.0, OM0)])
        pulse = build_pulse(amplitude=1.0, duration=1e4, injection_time=0.0,
                            prepared=True, center=100.0)
        z = med.grid()
        anchor, errors = None, []
        for t in [6000.0, 7000.0, 9000.0]:
            a_minus = gaussian_envelope(med, sched, pulse, "-", t, z)
            errs, anchor = compare_to_oracle(med, sched, pulse, t,
                                             (np.zeros(len(z)), a_minus), anchor)
            errors.append(errs)
        env, width, decay = (max(col) for col in zip(*errors))
        assert env < 1e-9 and width < 1e-6
        # a peak of l_o = 10 moving over the grid samples its maximum to ~2e-6
        assert decay < 1e-5


class TestChannelEnergies:
    def test_coupling_ratio_scaling(self):
        # r_g = 2 needs dz <= 1/32, so the grid is finer than the default
        config = parse_config("medium.r_g = 2\nmedium.grid_points = 8192\n"
                              f"schedule.segment = 0 1e4 {OM0!r} {OM0!r} 50\n")
        ones = np.ones(8192, complex)
        _, row, _ = _record(config, 0.0, MODE_PDE, ones, ones, None, None,
                            None, 0)
        e_plus, e_minus = row["e_plus"], row["e_minus"]
        # equal transport fields with equal controls: the backward physical
        # field is 1/r_g of the forward one, so energies differ by r_g^2
        assert e_plus / e_minus == pytest.approx(4.0, rel=1e-12)
        assert e_plus == pytest.approx(1e-3 * 200.0, rel=1e-9)
