"""Direct integrator unit tests: setup guards, stepping, storage."""

import copy
import dataclasses
import itertools
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.sparse import lil_array

import statlight.integrator as integrator
import statlight.scenario as scenario
from statlight import get_preset, list_presets, parse_config
from statlight.errors import (
    CFLViolation,
    GridTooCoarse,
    NonPhysicalParameter,
    SimulationError,
    SweepDivergence,
)
from statlight.integrator import (
    BDF2,
    BE,
    MODE_PDE,
    MODE_STORAGE,
    FieldState,
    advective_cap,
    build_absorbers,
    init_state,
    plan_steps,
    polariton_field,
    release,
    source_amplitude,
    step,
    storage_advance,
    store,
)
from statlight.diagnostics import energy_fraction
from statlight.medium import (
    Segment,
    build_medium,
    build_pulse,
    _clock_rate,
    build_schedule,
    coefficients,
    tau_of_t,
)

OM0 = math.sqrt(1e-3)
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def medium_for(r_g=1.0, gamma2=0.0, n=2048, length=200.0):
    return build_medium(r_g=r_g, gamma=1.0, gamma2=gamma2, u_g0=1e-3,
                        domain_length=length, grid_points=n)


def hold(om_plus, om_minus, t_end=2e4):
    return build_schedule([Segment(0.0, t_end, om_plus, om_minus)])


def prepared(center=100.0, duration=1e4):
    return build_pulse(amplitude=1.0, duration=duration, injection_time=0.0,
                       prepared=True, center=center)


class TestInit:
    def test_grid_too_coarse_for_attenuation_scale(self):
        med = medium_for(r_g=4.0, n=2048)  # xi_minus = 16 needs dz <= 1/128
        with pytest.raises(GridTooCoarse):
            init_state(med, hold(OM0, 4.0 * OM0), prepared())

    def test_grid_too_coarse_for_pulse(self):
        med = medium_for(n=2048)
        with pytest.raises(GridTooCoarse):
            init_state(med, hold(OM0, OM0), prepared(duration=100.0))

    def test_prepared_center_must_sit_inside(self):
        med = medium_for(n=2048)
        with pytest.raises(NonPhysicalParameter):
            init_state(med, hold(OM0, OM0), prepared(center=250.0))

    def test_injected_starts_empty(self):
        med = medium_for(n=2048)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=3e4,
                            prepared=False, center=0.0)
        state = init_state(med, hold(OM0, 0.0, t_end=1e5), pulse)
        assert state.mode == MODE_PDE
        assert not np.any(state.psi_plus)
        assert not np.any(state.psi_minus)

    def test_injected_under_dark_controls_starts_stored(self):
        med = medium_for(gamma2=1e-4, n=2048)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=3e4,
                            prepared=False, center=0.0)
        state = init_state(med, hold(1e-4, 0.0, t_end=1e5), pulse)
        assert state.mode == MODE_STORAGE
        assert state.spin.shape == (med.grid_points,)
        assert not np.any(state.spin)
        assert not np.any(state.psi_plus)
        assert not np.any(state.psi_minus)

    def test_prepared_lands_on_branch(self):
        med = medium_for(gamma2=1e-4, n=2048)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared())
        co = coefficients(med, OM0, OM0)
        phi = polariton_field(co.alpha_plus, co.alpha_minus, state.psi_plus,
                              state.psi_minus)
        z = med.grid()
        expect = np.exp(-((z - 100.0) ** 2) / (2.0 * 100.0))
        np.testing.assert_allclose(phi, expect, atol=1e-12)

    def test_prepared_below_threshold_starts_stored(self):
        med = medium_for(gamma2=1e-4, n=2048)
        state = init_state(med, hold(1e-4, 0.0), prepared())
        assert state.mode == MODE_STORAGE
        assert state.spin is not None
        assert float(np.max(np.abs(state.spin))) == pytest.approx(1.0)


class TestSource:
    def test_peak_amplitude(self):
        med = medium_for(gamma2=0.0)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=3e4,
                            prepared=False, center=0.0)
        sched = hold(OM0, 0.0, t_end=1e5)
        peak = source_amplitude(med, pulse, 3e4, sched.values(3e4)[0])
        assert peak == pytest.approx(1.0 / OM0, rel=1e-12)
        half = source_amplitude(med, pulse, 5e4, sched.values(5e4)[0])
        assert abs(half) == pytest.approx(math.exp(-0.5) / OM0, rel=1e-12)

    def test_prepared_pulse_has_no_source(self):
        med = medium_for()
        pulse = prepared()
        assert source_amplitude(med, pulse, 0.0, OM0) == 0.0

    def test_source_gated_by_storage_threshold(self):
        med = medium_for(gamma2=1e-4)
        pulse = build_pulse(amplitude=1.0, duration=2e4, injection_time=0.0,
                            prepared=False, center=0.0)
        assert source_amplitude(med, pulse, 0.0, 1e-4) == 0.0


class TestAbsorbers:
    def test_profiles_sit_on_outflow_edges(self):
        med = medium_for(n=2048)
        w_plus, w_minus = build_absorbers(med)
        z = med.grid()
        assert not np.any(w_plus[z <= 190.0])
        assert not np.any(w_minus[z >= 10.0])
        assert w_plus[-1] == pytest.approx(2.0, rel=1e-3)
        assert w_minus[0] == pytest.approx(2.0, rel=1e-3)

    def test_sponge_energy_fraction(self):
        med = medium_for(n=2048)
        w_plus, w_minus = build_absorbers(med)
        sponge = (w_plus > 0.0) | (w_minus > 0.0)
        state = init_state(med, hold(OM0, OM0), prepared(center=100.0))
        assert energy_fraction(state.psi_plus ** 2 + state.psi_minus ** 2, sponge) < 1e-12
        shifted = init_state(med, hold(OM0, OM0), prepared(center=185.0))
        assert energy_fraction(shifted.psi_plus ** 2 + shifted.psi_minus ** 2,
                               sponge) > 1e-3


def five_bands(bands):
    """The rows diag, sub1 (A[j, j-1]), sub2 (A[j, j-2]), sup1 (A[j, j+1])
    and sup2 (A[j, j+2]) of the matrix whose nonzeros `StepPlan.bands`
    keeps: sub and sup at a forward row 2i are A[2i, 2i-2] and A[2i, 2i+1],
    at a backward row 2i+1 A[2i+1, 2i] and A[2i+1, 2i+3]."""
    diag, sub, sup = bands
    sub1, sub2, sup1, sup2 = (np.zeros_like(diag) for _ in range(4))
    sub2[2::2], sub1[1::2] = sub[2::2], sub[1::2]
    sup1[0::2], sup2[1:-2:2] = sup[0::2], sup[1:-2:2]
    return diag, sub1, sub2, sup1, sup2


def dense(bands):
    """The (m, m) matrix of `StepPlan.bands`."""
    diag, sub1, sub2, sup1, sup2 = five_bands(bands)
    return (np.diag(diag) + np.diag(sub1[1:], -1) + np.diag(sub2[2:], -2)
            + np.diag(sup1[:-1], 1) + np.diag(sup2[:-2], 2))


def inflow_is_the_source(state, sched, pulse):
    """Assert that the state's inflow value psi_plus[0] is, bit for bit, the
    source at its time t under the forward control the schedule gives at t;
    returns that source."""
    source = source_amplitude(state.medium, pulse, state.t,
                              sched.values(state.t)[0])
    assert state.psi_plus[0] == source
    return source


def advance(state, sched, dt, pulse, w_plus, w_minus, perturber=None):
    """One step with a plan built for it, as a ramp window takes it; returns
    the plan."""
    plan = plan_steps(state.medium, sched, state.t, dt, w_plus, w_minus,
                      perturber)
    step(state, plan, pulse)
    return plan


def reference_step(state, sched, dt, pulse, w_plus, w_minus, mass=BE):
    """Backward-Euler step, or with mass = BDF2 a BDF2 step from the state's
    history, assembled as a complex band matrix and solved with
    `solve_banded`: the direct form the factored plan must reproduce."""
    med = state.medium
    n, m = med.grid_points, 2 * med.grid_points
    t0, t1 = state.t, state.t + dt
    dtau = tau_of_t(med, sched, t1, t0) / mass
    co_old = coefficients(med, *sched.values(t0))
    co = coefficients(med, *sched.values(t1))
    phi_old = co_old.alpha_plus * state.psi_plus + co_old.alpha_minus * state.psi_minus
    if mass == BDF2:
        # (3 phi - 4 phi_n + phi_{n-1}) / (2 dtau): the BE form at dtau / c
        # from (4 phi_n - phi_{n-1}) / 3
        phi_old = (4.0 * phi_old - state.history) / 3.0
    xp_am, xm_ap = med.xi_plus * co.alpha_minus, med.xi_minus * co.alpha_plus
    rho, g2p, inv_dz = med.rho, co.gamma2_prime, 1.0 / med.dz
    a = lil_array((m, m), dtype=complex)
    rhs = np.empty(m, dtype=complex)
    for i in range(n):
        j = 2 * i
        a[j, j] = inv_dz + xp_am + co.alpha_plus / dtau + g2p + w_plus[i]
        a[j, j + 1] = -xp_am + co.alpha_minus / dtau
        if j >= 2:
            a[j, j - 2] = -inv_dz
        rhs[j] = phi_old[i] / dtau
        k = j + 1
        a[k, k] = inv_dz + xm_ap + rho * co.alpha_minus / dtau + rho * g2p + w_minus[i]
        a[k, k - 1] = -xm_ap + rho * co.alpha_plus / dtau
        if k + 2 < m:
            a[k, k + 2] = -inv_dz
        rhs[k] = rho * phi_old[i] / dtau
    a[0, :] = 0.0
    a[0, 0] = 1.0
    rhs[0] = source_amplitude(med, pulse, t1, sched.values(t1)[0])
    a[m - 1, :] = 0.0
    a[m - 1, m - 1] = 1.0
    rhs[m - 1] = 0.0
    ab = np.zeros((5, m), dtype=complex)
    for d in range(-2, 3):
        ab[2 - d, max(d, 0):m + min(d, 0)] = a.diagonal(d)
    u = solve_banded((2, 2), ab, rhs)
    return u[0::2], u[1::2], dtau * mass


class TestStep:
    def run_setup(self, gamma2=0.0):
        med = medium_for(gamma2=gamma2, n=2048)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared())
        zeros = np.zeros(med.grid_points)
        return med, sched, state, zeros

    def test_cfl_guard(self):
        med, sched, state, zeros = self.run_setup()
        with pytest.raises(CFLViolation):
            plan_steps(med, sched, state.t, 50.0, zeros, zeros)

    def test_dt_just_above_advective_cap_is_refused(self):
        med, sched, state, zeros = self.run_setup()
        cap = advective_cap(med, sched, [state.t])
        plan_steps(med, sched, state.t, cap, zeros, zeros)
        with pytest.raises(CFLViolation):
            plan_steps(med, sched, state.t, cap * (1.0 + 1e-5), zeros, zeros)

    def test_step_requires_transport_mode(self):
        med = medium_for(gamma2=1e-4, n=2048)
        state = init_state(med, hold(1e-4, 0.0), prepared())
        zeros = np.zeros(med.grid_points)
        plan = plan_steps(med, hold(OM0, OM0), state.t, 1.0, zeros, zeros)
        with pytest.raises(NonPhysicalParameter):
            step(state, plan, prepared())

    def test_dtau_increment_on_constant_controls(self):
        med, sched, state, zeros = self.run_setup()
        dtau = advance(state, sched, 10.0, prepared(), zeros, zeros).dtau
        assert dtau == pytest.approx(2e-3 * 10.0, rel=1e-12)
        assert state.t == pytest.approx(10.0)

    def test_polariton_area_conserved(self):
        med, sched, state, zeros = self.run_setup(gamma2=0.0)
        co = coefficients(med, OM0, OM0)
        area0 = np.sum(polariton_field(co.alpha_plus, co.alpha_minus,
                                       state.psi_plus, state.psi_minus))
        plan = plan_steps(med, sched, state.t, 10.0, zeros, zeros)
        for _ in range(50):
            step(state, plan, prepared())
        area1 = np.sum(polariton_field(co.alpha_plus, co.alpha_minus,
                                       state.psi_plus, state.psi_minus))
        assert abs(area1 - area0) / abs(area0) < 1e-9

    @pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)],
                             ids=["real", "imag"])
    def test_nan_in_real_or_imaginary_part_fails_on_the_ztbsv_path(self, nan):
        # only a perturbed plan steps complex fields; its split here is 1
        med = medium_for(n=256, length=25.0)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared(center=12.5))
        state.psi_plus = state.psi_plus.astype(complex)
        state.psi_minus = state.psi_minus.astype(complex)
        state.psi_minus[100] = nan
        zeros = np.zeros(med.grid_points)
        plan = plan_steps(med, sched, state.t, 0.5, zeros, zeros,
                          perturber=(zeros, 0j))
        assert plan.work.dtype == complex
        with pytest.raises(SweepDivergence):
            step(state, plan, prepared())

    def test_nan_field_fails_residual_check(self):
        # on the dtbsv path, and on the ztbsv path with a split of 1
        med = medium_for(n=256, length=25.0)
        sched = hold(OM0, OM0)
        zeros = np.zeros(med.grid_points)
        for perturber in (None, (zeros, 0j)):
            state = init_state(med, sched, prepared(center=12.5))
            state.psi_plus[100] = np.nan
            with pytest.raises(SweepDivergence):
                advance(state, sched, 0.5, prepared(), zeros, zeros, perturber)

    def test_zero_fields_pass_residual_check(self):
        med = medium_for(n=256, length=25.0)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared(center=12.5))
        state.psi_plus[:] = 0.0
        state.psi_minus[:] = 0.0
        zeros = np.zeros(med.grid_points)
        advance(state, sched, 0.5, prepared(), zeros, zeros)
        assert not np.any(state.psi_plus) and not np.any(state.psi_minus)

    # the sweep each plan takes: dtbsv without a perturber, ztbsv with one
    # (its split is 1 here)
    SWEEPS = (("dtbsv", None, float), ("ztbsv", 0j, complex))

    def test_a_solve_on_a_copy_fails_the_residual_check(self, monkeypatch):
        """With overwrite_x, f2py still solves a copy, silently, when x is not
        a contiguous array of the routine's dtype, and `step` ignores the
        return value: the residual check must catch an unsolved work row."""
        med, sched, _, zeros = self.run_setup()
        for name, rate, dtype in self.SWEEPS:
            state = init_state(med, sched, prepared())
            plan = plan_steps(med, sched, state.t, 10.0, zeros, zeros,
                              None if rate is None else (zeros, rate))
            assert plan.work.dtype == dtype
            sweep = getattr(integrator, name)
            monkeypatch.setattr(integrator, name,
                                lambda k, a, x, sweep=sweep, **kw:
                                sweep(k, a, x.copy(), **kw))
            with pytest.raises(SweepDivergence):
                step(state, plan, prepared())
            monkeypatch.undo()

    def test_the_sweeps_solve_the_work_row_in_place(self, monkeypatch):
        med, sched, _, zeros = self.run_setup()
        for name, rate, dtype in self.SWEEPS:
            state = init_state(med, sched, prepared())
            plan = plan_steps(med, sched, state.t, 10.0, zeros, zeros,
                              None if rate is None else (zeros, rate))
            returned = {"dtbsv": [], "ztbsv": []}
            for kernel, calls in returned.items():
                def recording(*args, sweep=getattr(integrator, kernel),
                              calls=calls, **kwargs):
                    calls.append(sweep(*args, **kwargs))
                    return calls[-1]
                monkeypatch.setattr(integrator, kernel, recording)
            step(state, plan, prepared())
            monkeypatch.undo()
            assert [len(calls) for kernel, calls in returned.items()
                    if kernel != name] == [0]
            assert len(returned[name]) == 2
            assert all(x.dtype == dtype and np.shares_memory(x, plan.work[1])
                       for x in returned[name])

    def test_an_inf_in_the_solution_fails_the_residual_check(self, monkeypatch):
        """The residual skips the bands' zeros, so no 0 * inf product turns an
        inf into a NaN: a real solution with one inf entry, and no NaN, must
        fail the check on the finiteness of its norm."""
        med, sched, _, zeros = self.run_setup()
        for name, rate, dtype in self.SWEEPS:
            state = init_state(med, sched, prepared())
            plan = plan_steps(med, sched, state.t, 10.0, zeros, zeros,
                              None if rate is None else (zeros, rate))

            def blowing_up(k, a, x, sweep=getattr(integrator, name), **kw):
                out = sweep(k, a, x, **kw)
                if "lower" not in kw:
                    x[1001] = math.inf
                return out

            monkeypatch.setattr(integrator, name, blowing_up)
            with (np.errstate(invalid="ignore"),
                  pytest.raises(SweepDivergence, match="residual")):
                step(state, plan, prepared())
            monkeypatch.undo()
            # complex products make inf + nan j of their own; real ones do not
            assert dtype == complex or not np.any(np.isnan(plan.work[2]))

    # a split of 1 keeps the solution row as the residual saw it
    @pytest.mark.parametrize("rate", [None, 0j], ids=["dtbsv", "ztbsv"])
    def test_the_residual_is_the_full_band_product(self, rate):
        """The plan keeps one entry left and one right of the diagonal in
        each row, and the matrix has no other: its nonzeros sit at (2i, 2i-2),
        (2i, 2i+1), (2i+1, 2i) and (2i+1, 2i+3), the pinned rows 0 and m-1
        aside. The residual a step leaves is, bit for bit, the product over
        all five bands in their order."""
        med = medium_for(r_g=2.0, gamma2=1e-5, n=256, length=8.0)
        w_plus, w_minus = build_absorbers(med)
        perturber = None if rate is None else (np.ones(med.grid_points), rate)
        state = init_state(med, RAMPED, prepared(center=4.0, duration=1e3))
        m = 2 * med.grid_points
        j = np.arange(2, m - 2)
        even, odd = j[j % 2 == 0], j[j % 2 == 1]
        expected = {(0, 0), (m - 1, m - 1), (1, 0), (1, 1), (1, 3)}
        expected |= {(r, r + d) for r in even for d in (-2, 0, 1)}
        expected |= {(r, r + d) for r in odd for d in (-1, 0, 2)}
        expected |= {(m - 2, m - 4), (m - 2, m - 2), (m - 2, m - 1)}
        for t0, mass in ((1e4 + 100.0, BE), (5e3, BE), (5e3, BDF2)):
            plan = plan_steps(med, RAMPED, t0, 0.01, w_plus, w_minus,
                              perturber, mass=mass)
            assert set(zip(*np.nonzero(dense(plan.bands)))) == expected
            state.t, state.history = t0, polariton_field(
                *plan.alphas, state.psi_plus, state.psi_minus)
            step(state, plan, prepared(center=4.0, duration=1e3))
            rhs, u, res, _ = plan.work
            diag, sub1, sub2, sup1, sup2 = five_bands(plan.bands)
            full = diag * u - rhs
            for band, k in ((sub1, 1), (sub2, 2)):
                full[k:] += band[k:] * u[:-k]
            for band, k in ((sup1, 1), (sup2, 2)):
                full[:-k] += band[:-k] * u[k:]
            assert np.array_equal(res, full)

    def test_residual_norms_stay_below_the_blas_threading_size(self, monkeypatch):
        """phase_gate's perturbed rows hold 20,480 float values, those of a
        run without the cloud 10,240: each norm call takes at most
        NORM_PIECE of them, and the pieces sum to the whole."""
        med = medium_for(n=5120, length=320.0)
        sched = hold(OM0, OM0)
        zeros = np.zeros(med.grid_points)
        widths, vecdot = [], np.vecdot

        def recording(a, b):
            widths.append(a.shape[-1])
            return vecdot(a, b)

        for perturber in (None, (zeros, 0j)):
            state = init_state(med, sched, prepared(center=160.0))
            plan = plan_steps(med, sched, state.t, 0.05, zeros, zeros, perturber)
            widths.clear()
            monkeypatch.setattr(integrator.np, "vecdot", recording)
            step(state, plan, prepared(center=160.0))
            monkeypatch.undo()
            rows = plan.work[:3].view(float)
            assert max(widths) <= integrator.NORM_PIECE < rows.shape[1]
            assert sum(widths) == rows.shape[1]

    def test_complex_fields_are_refused_without_a_perturber(self):
        med, sched, state, zeros = self.run_setup()
        plan = plan_steps(med, sched, state.t, 10.0, zeros, zeros)
        for field in ("psi_plus", "psi_minus"):
            bad = copy.deepcopy(state)
            setattr(bad, field, getattr(bad, field) * (1.0 + 0.0j))
            with pytest.raises(SimulationError, match="complex"):
                step(bad, plan, prepared())
        step(state, plan, prepared())
        bdf2 = plan_steps(med, sched, state.t, 10.0, zeros, zeros, mass=BDF2)
        state.history = state.history.astype(complex)
        with pytest.raises(SimulationError, match="complex"):
            step(state, bdf2, prepared())

    def test_perturber_split_rotates_forward_field(self):
        med, sched, state, zeros = self.run_setup()
        density = np.ones(med.grid_points)
        rate = 0.25j  # per unit density and stretched time
        before = state.psi_plus.copy()
        dtau = advance(state, sched, 10.0, prepared(), zeros, zeros,
                       perturber=(density, rate)).dtau
        unperturbed = copy.deepcopy(state)
        # undo the uniform rotation and compare against a plain step
        state2 = init_state(med, sched, prepared())
        advance(state2, sched, 10.0, prepared(), zeros, zeros)
        np.testing.assert_allclose(
            unperturbed.psi_plus * np.exp(-rate * dtau), state2.psi_plus,
            atol=1e-12)
        assert not np.allclose(state.psi_plus, before)


RAMPED = build_schedule([Segment(0.0, 1e4, OM0, OM0),
                         Segment(1e4, 2e4, 0.5 * OM0, 2.0 * OM0, 500.0)])


def config_texts() -> dict:
    """Config text of every preset and of the three benchmark workloads."""
    texts = {name: get_preset(name) for name, _ in list_presets()}
    sys.path.insert(0, str(PERFBENCH))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    for name in ("transit", "hold_dense", "gate"):
        texts[name] = WORKLOADS[name].config_text(1)
    return texts


class TestPlan:
    # plateau and ramp; at r_g = 2 the plan solves the system with its
    # backward rows divided by rho, the reference the unscaled one
    @pytest.mark.parametrize("r_g,n,t0", [
        pytest.param(1.0, 256, 5e3, id="5000.0"),
        pytest.param(1.0, 256, 1e4 + 100.0, id="10100.0"),
        pytest.param(2.0, 1024, 5e3, id="r_g2-5000.0"),
        pytest.param(2.0, 1024, 1e4 + 100.0, id="r_g2-10100.0"),
    ])
    def test_matches_complex_reference(self, r_g, n, t0):
        self.check_against_reference(r_g, n, t0, BE)

    @pytest.mark.parametrize("r_g,n", [(1.0, 256), (2.0, 1024)], ids=["r_g1", "r_g2"])
    def test_bdf2_step_matches_complex_reference(self, r_g, n):
        self.check_against_reference(r_g, n, 5e3, BDF2)

    def check_against_reference(self, r_g, n, t0, mass):
        """Real fields through a plan without a perturber (dtbsv), and
        complex ones through a plan whose perturber's split is 1 (ztbsv),
        each against the complex reference."""
        med = medium_for(r_g=r_g, gamma2=1e-5, n=n, length=25.0)
        w_plus, w_minus = build_absorbers(med)
        assert np.any(w_plus) and np.any(w_minus)
        n = med.grid_points
        dt = 0.5
        pulse = build_pulse(amplitude=1.0, duration=1e3, injection_time=t0 + dt,
                            prepared=False, center=0.0)
        t1 = t0 + dt
        assert abs(source_amplitude(med, pulse, t1, RAMPED.values(t1)[0])) > 1.0
        for perturber, imag in ((None, 0.0), ((np.zeros(n), 0j), 1j)):
            rng = np.random.default_rng(7)
            state = init_state(med, RAMPED, prepared(center=12.5))
            state.t = t0
            state.psi_plus = rng.normal(size=n) + imag * rng.normal(size=n)
            state.psi_minus = rng.normal(size=n) + imag * rng.normal(size=n)
            state.history = rng.normal(size=n) + imag * rng.normal(size=n)
            ref_plus, ref_minus, ref_dtau = reference_step(
                copy.deepcopy(state), RAMPED, dt, pulse, w_plus, w_minus, mass)
            plan = plan_steps(med, RAMPED, t0, dt, w_plus, w_minus, perturber,
                              mass=mass)
            step(state, plan, pulse)
            assert plan.dtau == pytest.approx(ref_dtau, rel=1e-15)
            # at r_g = 2 the scaled eliminations, and at any r_g the real
            # ones, differ from the reference's complex eliminations by
            # roundoff of the field's peak, which exceeds 1e-12 of its
            # smallest entries; complex ones at r_g = 1 eliminate as the
            # reference does but for the split-off pivots, and stay within a
            # few ulps of the peak
            ulps = r_g == 1.0 and perturber is not None
            for got, ref in ((state.psi_plus, ref_plus),
                             (state.psi_minus, ref_minus)):
                assert got.dtype == (float if perturber is None else complex)
                peak = np.abs(ref).max()
                atol = (8.0 * np.finfo(float).eps if ulps else 1e-12) * peak
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("t0", [5e3, 1e4 - 0.25, 1e4 + 100.0, 1e4 + 499.75])
    def test_dtau_is_the_exact_clock(self, t0):
        """A step on the ramp, or across its start, takes dtau from the exact
        clock over the step, bit for bit. On the plateau, from t0 = 5e3,
        (t0 + dt) - t0 is dt, so dt times the rate is that clock too."""
        med = medium_for(gamma2=1e-5, n=256, length=25.0)
        zeros = np.zeros(med.grid_points)
        plan = plan_steps(med, RAMPED, t0, 0.5, zeros, zeros)
        assert plan.dtau == tau_of_t(med, RAMPED, t0 + 0.5, t0)

    @pytest.mark.parametrize("name", sorted(config_texts()))
    def test_first_window_is_pivot_free_and_pins_the_source(self, name):
        config = parse_config(config_texts()[name])
        med, sched = config.medium, config.schedule
        lo, hi, _ = next(w for w in scenario._run_windows(config) if w[2])
        a, b, i, ramping = sched.pieces(lo, hi)[0]
        dt = (b - a) / scenario._piece_steps(med, sched, a, b, i, ramping,
                                             config.run.dt_safety)
        w_plus, w_minus = build_absorbers(med)
        plan = plan_steps(med, sched, a, dt, w_plus, w_minus)
        # row 0 is pinned at the smallest power of two covering column 0
        pin = plan.bands[0, 0]
        # the entries A[1, 0] and A[2, 0] below the pin
        _, sub, _ = plan.bands
        below = max(abs(sub[1]), abs(sub[2]))
        assert math.frexp(pin)[0] == 0.5
        assert below <= pin < 2.0 * below
        # a pulse peaking at the end of the step feeds a nonzero inflow value
        pulse = dataclasses.replace(config.pulse, prepared=False,
                                    injection_time=a + dt)
        rng = np.random.default_rng(3)
        n = med.grid_points
        state = FieldState(med, rng.normal(size=n), rng.normal(size=n), a)
        step(state, plan, pulse)
        assert state.t == a + dt
        assert inflow_is_the_source(state, sched, pulse) != 0.0

    def test_every_step_feeds_the_source_at_its_end(self, monkeypatch):
        """The inflow value of every step is the source at its end, with the
        forward control the schedule gives there: on plateau windows that
        step the first window's BDF2 plan without building one, on a ramp of
        one BE plan per step that takes the forward control off, and on a
        plateau with it below the storage threshold."""
        config = parse_config(get_preset("slow_light"))
        med = config.medium
        pulse = dataclasses.replace(config.pulse, injection_time=300.0)
        # the backward control keeps the pulse in transport
        sched = build_schedule([Segment(0.0, 400.0, OM0, 0.0),
                                Segment(400.0, 800.0, 0.0, OM0, 100.0)])
        w_plus, w_minus = build_absorbers(med)
        state = init_state(med, sched, pulse)
        sources, built, stepped = [], [], []
        step_, plan_steps_ = scenario.step, scenario.plan_steps

        def stepping(state, plan, *args):
            step_(state, plan, *args)
            stepped.append(plan)
            sources.append(inflow_is_the_source(state, sched, pulse))

        def planning(*args):
            built.append(plan_steps_(*args))
            return built[-1]

        monkeypatch.setattr(scenario, "step", stepping)
        monkeypatch.setattr(scenario, "plan_steps", planning)
        edges = [0.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0]
        plan, windows = None, []
        for a, b in zip(edges, edges[1:]):
            made, steps = len(built), len(stepped)
            plan = scenario._pde_advance(state, sched, a, b, 0.9, pulse,
                                         w_plus, w_minus, None, plan)
            windows.append((built[made:], stepped[steps:]))
        # the plateau windows after the first build no plan, and step the
        # BDF2 plan the first one built
        bdf2 = windows[0][0][-1]
        assert bdf2.mass == BDF2
        for made, steps in windows[1:4]:
            assert not made and steps and all(p is bdf2 for p in steps)
        # the BE start and 64 ramp steps, one plan each
        assert [p.mass for p in built].count(BE) >= 65
        # on until the ramp's last step takes the forward control off
        assert sched.values(500.0)[0] ** 2 < med.storage_threshold
        assert all(sources[:-10]) and not any(sources[-10:])

    def counted_advance(self, monkeypatch, edges, reuse=True):
        """Run `_pde_advance` window by window over `edges`, passing each
        window the last plan, or when not `reuse` a copy of it marked as a
        BE start, so that every window builds its BDF2 plan again, and
        refactors its matrix, but keeps the BDF2 history; (matrices
        factored, step calls, state)."""
        med = medium_for(n=2048)
        w_plus, w_minus = build_absorbers(med)
        state = init_state(med, RAMPED, prepared())
        state.t = edges[0]
        factored, steps = [], []
        dgbtrf, step_ = integrator.dgbtrf, scenario.step

        def factoring(ab, *args, **kwargs):
            factored.append(ab.tobytes())
            return dgbtrf(ab, *args, **kwargs)

        def stepping(*args):
            steps.append(1)
            return step_(*args)

        monkeypatch.setattr(integrator, "dgbtrf", factoring)
        monkeypatch.setattr(scenario, "step", stepping)
        plan = None
        for a, b in zip(edges, edges[1:]):
            if plan is not None and not reuse:
                plan = dataclasses.replace(plan, mass=BE)
            plan = scenario._pde_advance(state, RAMPED, a, b, 0.9, prepared(),
                                         w_plus, w_minus, None, plan)
            assert state.t == b
        return factored, len(steps), state

    def test_constant_window_factors_once(self, monkeypatch):
        # two distinct matrices, the BE start's and the BDF2 steps', each
        # factored once
        factored, steps, _ = self.counted_advance(monkeypatch, [0.0, 2e3])
        assert steps > 2
        assert len(factored) == len(set(factored)) == 2

    def test_ramp_window_factors_every_step(self, monkeypatch):
        factored, steps, _ = self.counted_advance(monkeypatch, [1e4, 1e4 + 500.0])
        assert steps >= 64
        assert len(factored) == steps

    def test_plateau_windows_share_one_factorization(self, monkeypatch):
        # 64-unit windows of two 32-unit steps: every window's first step
        # has the same dt, dtau and controls, so after the first window's BE
        # start one BDF2 matrix serves them all
        edges = [64.0 * k for k in range(9)]
        factored, steps, state = self.counted_advance(monkeypatch, edges)
        assert steps == 2 * (len(edges) - 1)
        assert len(factored) == len(set(factored)) == 2
        monkeypatch.undo()
        again, _, fresh = self.counted_advance(monkeypatch, edges, reuse=False)
        assert len(again) == len(edges)
        assert set(again) == set(factored)
        for got, ref in ((state.psi_plus, fresh.psi_plus),
                         (state.psi_minus, fresh.psi_minus)):
            assert got.tobytes() == ref.tobytes()

    @staticmethod
    def counted_run(monkeypatch, text):
        """The plans and the `dgbtrf` calls of the direct run of a config."""
        built, make = [], integrator.StepPlan
        monkeypatch.setattr(integrator, "StepPlan",
                            lambda *args: built.append(make(*args)) or built[-1])
        factored, dgbtrf = [], integrator.dgbtrf
        monkeypatch.setattr(integrator, "dgbtrf",
                            lambda *args, **kw: factored.append(1) or dgbtrf(*args, **kw))
        scenario._run_direct(parse_config(text))
        return built, factored

    @pytest.mark.parametrize("interval", [100, 500])
    def test_stationary_run_takes_one_be_start(self, monkeypatch, interval):
        """The stationary preset's direct run factors one BE start matrix and
        one BDF2 matrix, with a snapshot every 100 (as in the hold_dense
        workload) and with the preset's 500: every window's first step has
        the same dt, controls and dtau, whatever its t0."""
        text = get_preset("stationary").replace(
            "run.snapshot_interval = 500", f"run.snapshot_interval = {interval}")
        built, factored = self.counted_run(monkeypatch, text)
        assert len(factored) == len(built) == 2
        assert [p.mass for p in built] == [BE, BDF2]
        assert {(p.dt, p.controls) for p in built} == {(built[0].dt, built[0].controls)}

    def test_hold_dense_run_plans_twice(self, monkeypatch):
        """The hold_dense workload's direct run builds two plans, the BE
        start and the BDF2 plan that its 100 later windows keep stepping,
        and factors each once."""
        calls, plan_steps_ = [], scenario.plan_steps
        monkeypatch.setattr(scenario, "plan_steps",
                            lambda *args: calls.append(1) or plan_steps_(*args))
        built, factored = self.counted_run(monkeypatch, config_texts()["hold_dense"])
        assert len(calls) == len(built) == len(factored) == 2
        assert [p.mass for p in built] == [BE, BDF2]

    def test_phase_gate_run_factors_twice(self, monkeypatch):
        """The perturbed hold's 40 windows share one BDF2 plan after the BE
        start."""
        built, factored = self.counted_run(monkeypatch, get_preset("phase_gate"))
        assert len(factored) == 2
        assert [p.mass for p in built] == [BE, BDF2]
        assert all(p.split is not None for p in built)

    def test_bdf2_step_needs_a_history(self):
        med = medium_for(n=256, length=25.0)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared(center=12.5))
        zeros = np.zeros(med.grid_points)
        plan = plan_steps(med, sched, state.t, 0.5, zeros, zeros, mass=BDF2)
        with pytest.raises(NonPhysicalParameter, match="one step back"):
            step(state, plan, prepared(center=12.5))
        advance(state, sched, 0.5, prepared(center=12.5), zeros, zeros)
        step(state, plan, prepared(center=12.5))
        store(state, sched)
        release(state, sched)
        with pytest.raises(NonPhysicalParameter, match="one step back"):
            step(state, plan, prepared(center=12.5))

    @pytest.mark.parametrize("om_minus", [OM0, 0.5 * OM0], ids=["balanced", "moving"])
    def test_plateau_steps_are_second_order_in_time(self, om_minus):
        # halving dt cuts the error against a run at 1/64 of the step about
        # 4x; Backward Euler steps would cut it 2x
        med = medium_for(gamma2=1e-4, n=256, length=25.0)
        sched = hold(OM0, om_minus)
        w_plus, w_minus = build_absorbers(med)
        pulse = prepared(center=12.5)
        # eight steps at half the cap, sixteen at a quarter
        end = 4.0 * advective_cap(med, sched, [0.0]) * (1.0 - 1e-12)

        def psi_plus(safety):
            state = init_state(med, sched, pulse)
            scenario._pde_advance(state, sched, 0.0, end, safety, pulse,
                                  w_plus, w_minus, None, None)
            return state.psi_plus

        ref = psi_plus(0.5 / 64)
        coarse, fine = (np.linalg.norm(psi_plus(s) - ref) for s in (0.5, 0.25))
        assert coarse / fine >= 3.5

    @pytest.mark.parametrize("om_minus", [OM0, 0.5 * OM0], ids=["balanced", "moving"])
    def test_perturber_rotates_the_history(self, om_minus):
        """BDF2 steps imprint the perturber's phase as Backward Euler steps
        of the same dt do. A history that missed the split would carry the
        last step's imprint into the extrapolation 2 phi_n - phi_{n-1}
        and imprint it again: about a third more phase here."""
        med = medium_for(gamma2=1e-4, n=256, length=25.0)
        sched = hold(OM0, om_minus)
        w_plus, w_minus = build_absorbers(med)
        pulse = prepared(center=12.5)
        perturber = (np.ones(med.grid_points), 5j)
        n = 8
        end = n * 0.5 * advective_cap(med, sched, [0.0]) * (1.0 - 1e-12)

        def bdf2(pert):
            state = init_state(med, sched, pulse)
            scenario._pde_advance(state, sched, 0.0, end, 0.5, pulse,
                                  w_plus, w_minus, pert, None)
            return state.psi_plus

        def backward_euler(pert):
            state = init_state(med, sched, pulse)
            plan = None
            for _ in range(n):
                plan = plan_steps(med, sched, state.t, end / n, w_plus, w_minus,
                                  pert, plan)
                step(state, plan, pulse)
            return state.psi_plus

        phases = [np.angle(np.vdot(run(None), run(perturber)))
                  for run in (bdf2, backward_euler)]
        assert 1.0 < phases[1] < 2.0
        assert phases[0] == pytest.approx(phases[1], rel=0.01)

    def test_a_plateau_plan_serves_every_t0(self):
        """On a hold, dtau is dt times the clock rate bit for bit, so plans
        built from t0 = 0, 0.25 and 0.5, where (t0 + dt) - t0 rounds
        differently, have the same dtau, and a plan of that dt and those
        controls serves a step from any of them; the exact clock over each
        step stays within 2 ulp of it."""
        med = medium_for(n=256, length=25.0)
        sched = hold(OM0, OM0)
        zeros = np.zeros(med.grid_points)
        dt = 0.3
        plan = plan_steps(med, sched, 0.25, dt, zeros, zeros)
        assert plan.dtau == dt * _clock_rate(med, OM0, OM0)
        exact = set()
        for t0 in (0.0, 0.25, 0.5):
            assert plan_steps(med, sched, t0, dt, zeros, zeros).dtau == plan.dtau
            exact.add(tau_of_t(med, sched, t0 + dt, t0))
        # the clock over the step, ((t0 + dt) - t0) times the rate, takes
        # two values: one ulp apart, one of them dt times the rate
        assert len(exact) == 2 and plan.dtau in exact
        assert all(abs(tau - plan.dtau) <= 2.0 * math.ulp(plan.dtau) for tau in exact)

    def test_a_step_across_an_up_and_back_ramp_pair_takes_the_exact_clock(self):
        """Controls that ramp up and back within one step are equal at its
        two ends, yet vary over it: its dtau is the clock over the step, not
        dt times the rate at its ends."""
        med = medium_for(gamma2=1e-5, n=256, length=25.0)
        sched = build_schedule([Segment(0.0, 100.0, OM0, OM0),
                                Segment(100.0, 100.5, 2.0 * OM0, OM0, 0.5),
                                Segment(100.5, 200.0, OM0, OM0, 0.5)])
        zeros = np.zeros(med.grid_points)
        t0, dt = 99.5, 1.5
        assert sched.values(t0) == sched.values(t0 + dt)
        assert sched.varies(t0, t0 + dt)
        plan = plan_steps(med, sched, t0, dt, zeros, zeros)
        assert plan.dtau == tau_of_t(med, sched, t0 + dt, t0)
        assert plan.dtau > 1.25 * dt * _clock_rate(med, OM0, OM0)

    @pytest.mark.parametrize("rate", [None, 0.25j], ids=["real", "perturbed"])
    def test_a_plan_steps_in_the_work_rows_it_takes_over(self, rate):
        """A plan built with `last` takes over the last plan's work rows, and
        the views it steps through are of those rows: its step leaves the
        bits that a plan with rows of its own leaves."""
        med = medium_for(r_g=2.0, gamma2=1e-5, n=256, length=8.0)
        w_plus, w_minus = build_absorbers(med)
        n = med.grid_points
        perturber = None if rate is None else (np.ones(n), rate)
        t0, dt = 1e4 + 100.0, 0.01
        pulse = build_pulse(amplitude=1.0, duration=1e3, injection_time=t0 + dt,
                            prepared=False, center=0.0)
        first = plan_steps(med, RAMPED, 5e3, dt, w_plus, w_minus, perturber)
        # the first plan's step leaves its values in the rows handed on
        spent = init_state(med, RAMPED, prepared(center=4.0, duration=1e3))
        spent.t = 5e3
        if rate is not None:
            spent.psi_plus = spent.psi_plus.astype(complex)
            spent.psi_minus = spent.psi_minus.astype(complex)
        step(spent, first, pulse)
        taken = plan_steps(med, RAMPED, t0, dt, w_plus, w_minus, perturber,
                           first, BDF2)
        own = plan_steps(med, RAMPED, t0, dt, w_plus, w_minus, perturber,
                         mass=BDF2)
        assert taken.work is first.work and own.work is not first.work
        rng = np.random.default_rng(5)
        imag = 0.0 if rate is None else 1j
        fields = [rng.normal(size=n) + imag * rng.normal(size=n) for _ in range(3)]
        state = FieldState(med, *fields[:2], t0, history=fields[2])
        stepped = []
        for plan in (taken, own):
            stepped.append(copy.deepcopy(state))
            step(stepped[-1], plan, pulse)
            assert np.shares_memory(stepped[-1].psi_plus, plan.work)
        for name in ("psi_plus", "psi_minus", "history"):
            a, b = (getattr(s, name) for s in stepped)
            assert a.tobytes() == b.tobytes()
        # the rhs, solution and residual rows, which the norms read
        assert taken.work[:3].tobytes() == own.work[:3].tobytes()
        # and its residual check reads them: a corrupt factor fails it
        taken.factors[2][n] *= 1.0 + 1e-6
        with pytest.raises(SweepDivergence, match="residual"):
            step(copy.deepcopy(state), taken, pulse)

    @pytest.mark.parametrize("r_g", [1e-3, 0.05, 0.25, 0.5, 0.7, 1.0, 2.0, 4.0, 20.0])
    def test_every_plan_is_column_diagonally_dominant(self, r_g):
        # the grid at its absorption-length bound; controls balanced, near
        # one-sided either way, and off on one side; a plateau up to t = 1e3,
        # then a ramp to the swapped pair; both time schemes, whose margin is
        # 1 + w for dtau <= c
        med = medium_for(r_g=r_g, n=64,
                         length=64 * min(1.0, 1.0 / r_g ** 2) / 8.0)
        w_plus, w_minus = build_absorbers(med)
        m = 2 * med.grid_points
        pairs = [(OM0, OM0 * r_g), (OM0, 1e-6 * OM0), (1e-6 * OM0, OM0),
                 (OM0, 0.0), (0.0, OM0)]
        for gamma2 in (0.0, 1e-4):
            med = dataclasses.replace(med, gamma2=gamma2)
            for om_plus, om_minus in pairs:
                sched = build_schedule([Segment(0.0, 1e3, om_plus, om_minus),
                                        Segment(1e3, 2e3, om_minus, om_plus, 500.0)])
                for lo, hi in ((0.0, 1e3), (1e3, 1.5e3)):
                    cap = advective_cap(med, sched, np.linspace(lo, hi, 65))
                    for frac, mass in itertools.product((0.999, 0.1, 1e-3),
                                                        (BE, BDF2)):
                        plan = plan_steps(med, sched, 0.5 * (lo + hi) - cap,
                                          frac * cap, w_plus, w_minus, mass=mass)
                        a = dense(plan.bands)
                        margin = 2.0 * np.abs(np.diag(a)) - np.abs(a).sum(axis=0)
                        slack = 16.0 * np.finfo(float).eps * np.abs(a).max()
                        assert margin[1:-1].min() >= 1.0 - slack
                        lower, upper, inv_pivots = plan.factors
                        assert lower.shape == upper.shape == (3, m)
                        assert inv_pivots.shape == (m,)

    @pytest.mark.parametrize("mass", [BE, BDF2], ids=["be", "bdf2"])
    @pytest.mark.parametrize("r_g", [1.0, 2.0])
    @pytest.mark.parametrize("rate", [None, 0.25j], ids=["real", "perturbed"])
    def test_factors_rebuild_the_bands(self, rate, r_g, mass):
        """D (L' U~) is the banded matrix, L' and U~ unit triangular, in the
        plan's arithmetic."""
        med = medium_for(r_g=r_g, gamma2=1e-5, n=64, length=8.0 / r_g ** 2)
        w_plus, w_minus = build_absorbers(med)
        perturber = None if rate is None else (np.ones(med.grid_points), rate)
        plan = plan_steps(med, RAMPED, 1e4 + 100.0, 0.05, w_plus, w_minus,
                          perturber, mass=mass)
        dtype = float if rate is None else complex
        assert all(factor.dtype == dtype and not np.any(factor.imag)
                   for factor in plan.factors)
        # band layouts: lower[r, j] = L'[j + r, j], upper[r, j] = U~[j + r - 2, j]
        lower, upper, inv_pivots = (factor.real for factor in plan.factors)
        assert np.all(lower[0] == 1.0) and np.all(upper[2] == 1.0)
        m = inv_pivots.size
        l_unit = np.eye(m) + np.diag(lower[1, :-1], -1) + np.diag(lower[2, :-2], -2)
        u_unit = np.eye(m) + np.diag(upper[1, 1:], 1) + np.diag(upper[0, 2:], 2)
        rebuilt = (l_unit @ u_unit) / inv_pivots[:, None]
        a = dense(plan.bands)
        np.testing.assert_allclose(rebuilt, a, rtol=0.0,
                                   atol=4.0 * np.finfo(float).eps * np.abs(a).max())

    @pytest.mark.parametrize("rate", [None, 0j], ids=["dtbsv", "ztbsv"])
    def test_a_corrupt_reciprocal_pivot_fails_the_residual_check(self, rate):
        """The residual runs on the unfactored bands, so a wrong factor
        entry cannot check itself."""
        med = medium_for(n=256, length=25.0)
        sched = hold(OM0, OM0)
        zeros = np.zeros(med.grid_points)
        perturber = None if rate is None else (zeros, rate)
        plan = plan_steps(med, sched, 0.0, 0.5, zeros, zeros, perturber)
        state = init_state(med, sched, prepared(center=12.5))
        step(copy.deepcopy(state), plan, prepared(center=12.5))
        plan.factors[2][med.grid_points] *= 1.0 + 1e-6
        with pytest.raises(SweepDivergence, match="residual"):
            step(state, plan, prepared(center=12.5))

    @pytest.mark.parametrize("t0,dt", [(1e4, 1e-13), (0.0, 0.0)])
    def test_step_that_advances_no_stretched_time_is_refused(self, t0, dt):
        med = medium_for(n=256, length=25.0)
        zeros = np.zeros(med.grid_points)
        with pytest.raises(NonPhysicalParameter) as err:
            plan_steps(med, hold(OM0, OM0), t0, dt, zeros, zeros)
        assert f"dt = {dt:g} from t0 = {t0:g}" in str(err.value)

    def test_factorization_that_swaps_rows_is_refused(self, monkeypatch):
        dgbtrf = integrator.dgbtrf

        def swapping(*args, **kwargs):
            lu, piv, info = dgbtrf(*args, **kwargs)
            piv[0] = 1
            return lu, piv, info

        monkeypatch.setattr(integrator, "dgbtrf", swapping)
        med = medium_for(n=256, length=25.0)
        zeros = np.zeros(med.grid_points)
        with pytest.raises(SweepDivergence) as err:
            plan_steps(med, RAMPED, 1e4 + 100.0, 0.5, zeros, zeros)
        dtau = tau_of_t(med, RAMPED, 1e4 + 100.5, 1e4 + 100.0)
        old, new = RAMPED.values(1e4 + 100.0), RAMPED.values(1e4 + 100.5)
        assert (f"dt = 0.5, dtau = {dtau:g}, controls ({old[0]:g}, {old[1]:g})"
                f" -> ({new[0]:g}, {new[1]:g})") in str(err.value)


class TestChainSweep:
    """With alpha_- = 0 at a step's end the plan's upper solve is one k = 1
    sweep down the backward chain of U~, over the odd entries of the
    solution row, which leaves the bits of the full k = 2 sweep."""

    MED = medium_for(r_g=2.0, gamma2=1e-5, n=256, length=8.0)
    # a hold at alpha_- = 0, then a ramp to both controls on, and back
    SCHED = build_schedule([Segment(0.0, 1e3, OM0, 0.0),
                            Segment(1e3, 2e3, OM0, OM0, 500.0),
                            Segment(2e3, 3e3, OM0, 0.0, 500.0)])

    def plan(self, t0, dt=0.01, rate=None, mass=BE, last=None):
        n = self.MED.grid_points
        w_plus, w_minus = build_absorbers(self.MED)
        perturber = None if rate is None else (np.ones(n), rate)
        return plan_steps(self.MED, self.SCHED, t0, dt, w_plus, w_minus,
                          perturber, last, mass)

    @staticmethod
    def takes_the_chain(plan):
        band, k, incx, offx = plan.upper_sweep
        if k == 2:
            assert band is plan.factors[1] and (incx, offx) == (1, 0)
            return False
        n = plan.work.shape[1] // 2
        assert (k, incx, offx) == (1, 2, 1) and band.shape == (2, n)
        assert band.flags.f_contiguous and np.all(band[1] == 1.0)
        return True

    @pytest.mark.parametrize("mass", [BE, BDF2], ids=["be", "bdf2"])
    @pytest.mark.parametrize("rate", [None, 0.25j], ids=["real", "perturbed"])
    def test_the_chain_sweep_leaves_the_full_sweeps_bytes(self, monkeypatch,
                                                          rate, mass):
        """On a random right-hand side and on those of a running state, the
        chain sweep leaves the bytes of the full upper sweep against U~."""
        plan = self.plan(500.0, rate=rate, mass=mass)
        assert self.takes_the_chain(plan)
        _, upper, _ = plan.factors
        # the chain is U~'s only off-diagonal part
        assert not np.any(upper[1]) and not np.any(upper[0, 0::2])
        assert np.any(upper[0, 3::2])
        band, k, incx, offx = plan.upper_sweep
        assert np.array_equal(band[0, 1:], upper[0, 3::2])
        name = "dtbsv" if rate is None else "ztbsv"
        sweep = getattr(integrator, name)
        m = plan.work.shape[1]
        rng = np.random.default_rng(7)
        imag = 0.0 if rate is None else 1j
        x = rng.normal(size=m) + imag * rng.normal(size=m)
        full = sweep(2, upper, x.copy(), diag=1)
        chain = sweep(k, band, x.copy(), incx=incx, offx=offx, diag=1)
        assert full.tobytes() == chain.tobytes()

        compared = []

        def comparing(k, a, x, sweep=sweep, **kw):
            if a is band:
                compared.append(sweep(2, upper, x.copy(), diag=1))
            out = sweep(k, a, x, **kw)
            if a is band:
                assert compared[-1].tobytes() == out.tobytes()
            return out

        state = init_state(self.MED, self.SCHED, prepared(center=4.0, duration=1e3))
        state.t = 500.0
        state.history = polariton_field(*plan.alphas, state.psi_plus, state.psi_minus)
        if rate is not None:
            state.psi_plus = state.psi_plus.astype(complex)
            state.psi_minus = state.psi_minus.astype(complex)
            state.history = state.history.astype(complex)
        monkeypatch.setattr(integrator, name, comparing)
        for _ in range(5):
            step(state, plan, prepared(center=4.0, duration=1e3))
        assert len(compared) == 5

    def test_only_a_step_that_ends_at_alpha_minus_zero_takes_the_chain(self):
        """A two-control plan and a ramp step that ends with Omega_- on keep
        the full sweep; a ramp step that ends at Omega_- = 0 takes the
        chain, whatever the controls at its start."""
        assert not self.takes_the_chain(self.plan(1.8e3))
        assert not self.takes_the_chain(self.plan(1.2e3))
        # the last steps of the ramp up: from Omega_- = 0 to Omega_- > 0
        assert self.SCHED.values(1e3)[1] == 0.0
        assert not self.takes_the_chain(self.plan(1e3))
        # the last step of the ramp down ends at its plateau's controls
        t0, dt = 2.5e3 - 0.5, 0.5
        assert self.SCHED.values(t0)[1] > 0.0 == self.SCHED.values(t0 + dt)[1]
        assert self.takes_the_chain(self.plan(t0, dt))
        assert not self.takes_the_chain(self.plan(t0 - dt, dt))

    @pytest.mark.parametrize("rate", [None, 0j], ids=["dtbsv", "ztbsv"])
    def test_a_corrupt_chain_fails_the_residual_check(self, rate):
        """The residual runs on the unfactored bands, so a wrong chain entry
        cannot check itself."""
        plan = self.plan(500.0, dt=10.0, rate=rate)
        assert self.takes_the_chain(plan)
        state = init_state(self.MED, self.SCHED, prepared(center=4.0, duration=1e3))
        state.t = 500.0
        step(copy.deepcopy(state), plan, prepared(center=4.0, duration=1e3))
        plan.upper_sweep[0][0, self.MED.grid_points // 2] *= 1.0 + 1e-6
        with pytest.raises(SweepDivergence, match="residual"):
            step(state, plan, prepared(center=4.0, duration=1e3))

    @pytest.mark.parametrize("rate", [None, 0j], ids=["dtbsv", "ztbsv"])
    def test_the_residual_leaves_out_an_all_zero_band(self, rate):
        """At alpha_- = 0 the forward rows' psi_minus band is all zeros and
        forms no product. The product row's forward entries then hold the
        lower side's products, in work rows a two-control plan hands on,
        and the upper side adds its formed product's rows alone: the
        residual equals the five-band product."""
        first = self.plan(1.8e3, rate=rate)
        state = init_state(self.MED, self.SCHED, prepared(center=4.0, duration=1e3))
        if rate is not None:
            state.psi_plus = state.psi_plus.astype(complex)
            state.psi_minus = state.psi_minus.astype(complex)
        state.t = 1.8e3
        step(state, first, prepared(center=4.0, duration=1e3))
        _, lower_side, upper_side = first.residual
        assert len(lower_side[0]) == len(upper_side[0]) == 2
        assert np.all(first.work[3, 2:-2:2] != 0.0)
        plan = self.plan(500.0, rate=rate, mass=BDF2, last=first)
        _, lower_side, upper_side = plan.residual
        assert not np.any(plan.bands[2, 0::2])
        assert len(lower_side[0]) == 2 and len(upper_side[0]) == 1
        state.t = 500.0
        step(state, plan, prepared(center=4.0, duration=1e3))
        # what a whole-row add would have added a second time
        assert np.any(plan.work[3, 2::2])
        assert np.array_equal(plan.work[3, 2::2], plan.bands[1, 2::2] * state.psi_plus[:-1])
        rhs, u, res, _ = plan.work
        diag, sub1, sub2, sup1, sup2 = five_bands(plan.bands)
        full = diag * u - rhs
        for band, k in ((sub1, 1), (sub2, 2)):
            full[k:] += band[k:] * u[:-k]
        for band, k in ((sup1, 1), (sup2, 2)):
            full[:-k] += band[:-k] * u[k:]
        assert np.array_equal(res, full)

    def test_every_slow_light_step_takes_the_chain(self, monkeypatch):
        """The slow_light preset's controls leave Omega_- = 0 throughout, so
        every one of its steps sweeps the chain alone."""
        taken, step_ = [], scenario.step

        def stepping(state, plan, pulse):
            taken.append(self.takes_the_chain(plan))
            return step_(state, plan, pulse)

        monkeypatch.setattr(scenario, "step", stepping)
        scenario._run_direct(parse_config(get_preset("slow_light")))
        assert len(taken) > 1000 and all(taken)

    @pytest.mark.parametrize("imag", [0.0, 1j], ids=["real", "complex"])
    def test_a_zero_weight_leaves_its_channel_out(self, imag):
        """`polariton_field` with one weight zero gives the bits of the
        two-term sum."""
        rng = np.random.default_rng(11)
        psi_plus, psi_minus = (rng.normal(size=512) + imag * rng.normal(size=512)
                               for _ in range(2))
        for a_plus, a_minus in ((0.75, 0.0), (0.0, 0.75)):
            got = polariton_field(a_plus, a_minus, psi_plus, psi_minus)
            assert got.tobytes() == (a_plus * psi_plus + a_minus * psi_minus).tobytes()


class TestArithmetic:
    """Fields stay float64 unless a perturber's split imprints a phase."""

    def run(self, monkeypatch, config):
        """(dtypes of the fields and history each step leaves, dtypes of the
        fields of every snapshot after the first) of a config's direct run."""
        stepped, step_ = set(), scenario.step

        def stepping(state, *args):
            dtau = step_(state, *args)
            stepped.update(a.dtype for a in (state.psi_plus, state.psi_minus,
                                             state.history))
            return dtau

        monkeypatch.setattr(scenario, "step", stepping)
        run = scenario._run_direct(config)
        recorded = {a.dtype for snap in run.snapshots[1:]
                    for a in (snap.psi_plus, snap.psi_minus, snap.phi)}
        return stepped, recorded

    # an injected pulse, a prepared one, and one through store and release
    @pytest.mark.parametrize("name", ["slow_light", "stationary", "stop_and_store"])
    def test_unperturbed_runs_are_real(self, monkeypatch, name):
        stepped, recorded = self.run(monkeypatch, parse_config(get_preset(name)))
        assert stepped == recorded == {np.dtype(np.float64)}

    def test_only_the_perturbed_run_is_complex(self, monkeypatch):
        config = parse_config(get_preset("phase_gate"))
        stepped, recorded = self.run(monkeypatch, config)
        assert stepped == recorded == {np.dtype(np.complex128)}
        monkeypatch.undo()
        # phase_gate's probe phase is that of its own run: without the
        # cloud, the same config steps real fields
        bare, _ = self.run(monkeypatch, dataclasses.replace(config, perturber=None))
        assert bare == {np.dtype(np.float64)}

    def test_store_and_release_keep_a_real_polariton_real(self):
        med = medium_for(gamma2=1e-5, n=2048)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared())
        store(state, sched)
        storage_advance(state, 5e3)
        assert state.spin.dtype == np.float64
        release(state, sched)
        assert state.psi_plus.dtype == state.psi_minus.dtype == np.float64


class TestStorage:
    def test_store_release_round_trip(self):
        med = medium_for(gamma2=0.0, n=2048)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared())
        reference = copy.deepcopy(state)
        store(state, sched)
        assert state.mode == MODE_STORAGE
        assert not np.any(state.psi_plus)
        release(state, sched)
        assert state.mode == MODE_PDE
        np.testing.assert_allclose(state.psi_plus, reference.psi_plus,
                                   atol=1e-12)
        np.testing.assert_allclose(state.psi_minus, reference.psi_minus,
                                   atol=1e-12)

    def test_storage_advance_decay(self):
        med = medium_for(gamma2=1e-5, n=2048)
        state = init_state(med, hold(1e-4, 0.0), prepared())
        peak0 = float(np.max(np.abs(state.spin)))
        storage_advance(state, 2e4)
        assert float(np.max(np.abs(state.spin))) == pytest.approx(
            peak0 * math.exp(-0.2), rel=1e-12)
        assert state.t == pytest.approx(2e4)

    def test_storage_advance_needs_storage_mode(self):
        med = medium_for(n=2048)
        state = init_state(med, hold(OM0, OM0), prepared())
        with pytest.raises(NonPhysicalParameter):
            storage_advance(state, 10.0)
        with pytest.raises(NonPhysicalParameter):
            release(state, hold(OM0, OM0))

    def test_store_release_interval(self):
        med = medium_for(gamma2=1e-5, n=2048)
        sched = hold(OM0, OM0)
        state = init_state(med, sched, prepared())
        store(state, sched)
        storage_advance(state, 5e3)
        release(state, sched)
        assert state.t == pytest.approx(5e3)
        assert state.mode == MODE_PDE
