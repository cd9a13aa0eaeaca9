"""Acceptance runs: the quantitative claims the package is built around.

Each test drives full scenario runs (or closed-form scans) and reports one
pass/fail line through the session `report` fixture. Tolerances are fixed
here and must not be loosened to make a run pass.
"""

import math
import time

import numpy as np
from _as_printed import as_printed_delta, dispersion_omega

from statlight.cli import main as cli_main
from statlight.medium import build_medium, coefficients, group_velocity
from statlight.oracle import conversion_probability, taylor_c012
from statlight.spectral import k_grid, omega_from_determinant, slaving_kernel

OM0 = math.sqrt(1e-3)
U_G0 = 1e-3

# frozen cubic-remainder constant: max of |omega_quad - omega_det| over
# |k|^3 / xi_minus^2 measures 2.461 at the r_g = 2 balanced hold
# (gamma2 = 1e-4) and ~0 at r_g = 1 (the root is exactly quadratic there);
# kept with 2x headroom
CUBIC_BOUND = 5.0


def _pde_rows(run):
    return [r for r in run.trajectory
            if r["mode"] == 0.0 and math.isfinite(r["phi_centroid"])]


def _snap_at(run, t: float):
    snap = min((s for s in run.snapshots if s.mode == "pde"),
               key=lambda s: abs(s.t - t))
    assert abs(snap.t - t) <= 1.0, f"no transport snapshot near t = {t:g}"
    return snap


def _ratio_text(op: float, om: float) -> str:
    return f"""
medium.r_g = 1
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 200
medium.grid_points = 2048
pulse.prepared = true
pulse.duration = 2e4
pulse.center = 100
schedule.segment = 0 4400 {op!r} {om!r} 50
engine = direct
run.t_end = 4000
run.snapshot_interval = 500
"""


# matched holds (omega_minus = r_g omega_plus) at the two bracketing
# coupling ratios; spectral engine, since the r_g = 4 attenuation length
# 1/xi_minus = 1/16 forces a very fine grid. The domains leave room for
# the engine's guard band, which is sized by the printed width law and
# overestimates the spreading of asymmetric holds
BRACKET_R4_TEXT = f"""
medium.r_g = 4
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 300
medium.grid_points = 40960
pulse.prepared = true
pulse.duration = 2e4
pulse.center = 150
schedule.segment = 0 2.1e4 {OM0!r} {4.0 * OM0!r} 50
engine = spectral
run.t_end = 2e4
run.snapshot_interval = 2500
"""

# the r_g = 0.25 slaving pole sits at xi_minus = 1/16, so the pulse must be
# wide enough (narrow in k) that the quadratic dispersion term dominates
BRACKET_R025_TEXT = f"""
medium.r_g = 0.25
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 800
medium.grid_points = 8192
pulse.prepared = true
pulse.duration = 8e4
pulse.center = 400
schedule.segment = 0 2100 {OM0!r} {0.25 * OM0!r} 50
engine = spectral
run.t_end = 2000
run.snapshot_interval = 250
"""

# pulse wide enough that xi_sigma * width = 20, the regime where the
# backward channel is a faithful copy of the forward one
SLAVING_TEXT = f"""
medium.r_g = 1
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 400
medium.grid_points = 8192
pulse.prepared = true
pulse.duration = 4e4
pulse.center = 200
schedule.segment = 0 2000 {OM0!r} {OM0!r} 50
engine = direct
run.t_end = 1000
run.snapshot_interval = 500
"""

STORE_LOSSLESS_TEXT = f"""
medium.r_g = 1
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 120
medium.grid_points = 2048
pulse.prepared = true
pulse.duration = 1e4
pulse.center = 60
schedule.segment = 0 200 {OM0!r} 0 50
schedule.segment = 200 10200 0 0 50
schedule.segment = 10200 10800 0 {OM0!r} 50
engine = direct
run.t_end = 10700
run.snapshot_interval = 100
"""

STORE_LOSSY_TEXT = f"""
medium.r_g = 1
medium.gamma = 1
medium.gamma2 = 1e-5
medium.u_g0 = 1e-3
medium.domain_length = 120
medium.grid_points = 2048
pulse.prepared = true
pulse.duration = 1e4
pulse.center = 60
schedule.segment = 0 200 {OM0!r} 0 50
schedule.segment = 200 20200 0 0 50
schedule.segment = 20200 20800 0 {OM0!r} 50
engine = direct
run.t_end = 20700
run.snapshot_interval = 100
"""

# small cloud well ahead of the pulse, probe beyond it: the transit phase
# shift is read off after the pulse has fully cleared the cloud
TRAVELING_TEXT = f"""
medium.r_g = 1
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 100
medium.grid_points = 2048
pulse.prepared = true
pulse.duration = 5e3
pulse.center = 20
schedule.segment = 0 6.5e4 {OM0!r} 0 50
engine = direct
run.t_end = 6e4
run.snapshot_interval = 1000
run.probe_z = 75
perturber.m_atoms = 6
perturber.z_center = 45
perturber.length = 4
perturber.sigma_over_s = 1
perturber.gamma_a = 0.5
perturber.detuning = 10
"""

RERUN_TEXT = f"""
medium.r_g = 1
medium.gamma = 1
medium.gamma2 = 0
medium.u_g0 = 1e-3
medium.domain_length = 40
medium.grid_points = 1024
pulse.prepared = true
pulse.duration = 2e3
pulse.center = 20
schedule.segment = 0 500 {OM0!r} {OM0!r} 50
engine = direct
run.t_end = 200
run.snapshot_interval = 50
"""


def test_criterion_01_slow_light_transit(report, preset_run):
    t0 = time.perf_counter()
    run = preset_run("slow_light")
    elapsed = time.perf_counter() - t0
    vel = run.summary["measurements"]["velocity"]
    rel = abs(vel["measured"] - U_G0) / U_G0
    report(1, "slow-light transit", rel <= 0.01 and elapsed < 60.0,
           f"v = {vel['measured']:.6g} c vs u_g0 = 0.001, rel {rel:.1e}, "
           f"run took {elapsed:.1f} s")


def test_criterion_02_stationary_hold(report, preset_run):
    run = preset_run("stationary")
    vel = run.summary["measurements"]["velocity"]["measured"]
    rows = _pde_rows(run)
    drift = abs(rows[-1]["phi_centroid"] - rows[0]["phi_centroid"])
    allowed = 0.01 * run.summary["derived"]["pulse_length"]
    report(2, "stationary hold", abs(vel) <= 1e-5 and drift <= allowed,
           f"|v| = {abs(vel):.1e} c, centroid drift {drift:.2e} "
           f"of allowed {allowed:g}")


def test_criterion_03_group_velocity_map(report, run_text):
    worst_v = worst_slope = 0.0
    for s in (1.0, 0.5, 0.0, -0.5, -1.0):
        op = math.sqrt(U_G0 * (1.0 + s) / 2.0)
        om = math.sqrt(U_G0 * (1.0 - s) / 2.0)
        run = run_text(_ratio_text(op, om))
        med = run.config.medium
        vel = run.summary["measurements"]["velocity"]
        scale = abs(vel["predicted"]) or U_G0
        worst_v = max(worst_v, abs(vel["measured"] - vel["predicted"]) / scale)

        co = coefficients(med, op, om)
        h = 1e-4
        fd = (omega_from_determinant(med, co, h)
              - omega_from_determinant(med, co, -h)) / (2.0 * h)
        target = -group_velocity(med, op, om) / co.tau_rate
        worst_slope = max(worst_slope,
                          abs(fd - target) / (abs(target) or 1.0))
    ok = worst_v <= 0.03 and worst_slope <= 1e-6
    report(3, "group-velocity map", ok,
           f"five holds, worst transit rel {worst_v:.1e} of 0.03, "
           f"worst spectral slope rel {worst_slope:.1e} of 1e-6")


def test_criterion_04_dispersion_reconciliation(report):
    worst = 0.0
    for r_g in (1.0, 2.0):
        med = build_medium(r_g=r_g, gamma=1.0, gamma2=1e-4, u_g0=1e-3,
                           domain_length=200.0, grid_points=4096)
        co = coefficients(med, OM0, OM0)
        c0, c1, c2 = taylor_c012(med, co)
        ks = np.linspace(-0.2 * med.xi_minus, 0.2 * med.xi_minus, 801)
        ks = ks[ks != 0.0]
        diff = np.abs(c0 + c1 * ks + c2 * ks ** 2
                      - omega_from_determinant(med, co, ks))
        worst = max(worst, float(np.max(
            diff / (np.abs(ks) ** 3 / med.xi_minus ** 2))))

    # index-ordering negative control: the as-printed imbalance mispredicts
    # the r_g = 2 transit velocity and must fail the 3% gate above
    med2 = build_medium(r_g=2.0, gamma=1.0, gamma2=0.0, u_g0=1e-3,
                        domain_length=200.0, grid_points=4096)
    co2 = coefficients(med2, OM0, 0.0)
    v_true = group_velocity(med2, OM0, 0.0)
    h = 1e-4

    def fd_velocity(delta=None) -> float:
        lo = dispersion_omega(med2, co2, -h, delta)
        hi = dispersion_omega(med2, co2, h, delta)
        return -((hi - lo) / (2.0 * h)).real * co2.tau_rate

    rel_rec = abs(fd_velocity() - v_true) / v_true
    rel_ap = abs(fd_velocity(as_printed_delta(med2, co2)) - v_true) / v_true
    ok = worst <= CUBIC_BOUND and rel_rec <= 0.03 and rel_ap > 0.03
    report(4, "dispersion reconciliation", ok,
           f"cubic remainder {worst:.3g} of bound {CUBIC_BOUND:g}; "
           f"reconciled v rel {rel_rec:.1e}, as-printed off {rel_ap:.0%}")


def test_criterion_05_width_spreading_law(report, canon0_run, run_text):
    wr = canon0_run.summary["measurements"]["width_rate"]
    pred = 2.0 * U_G0
    rel = abs(wr["measured"] - pred) / pred
    ok = rel <= 0.05 and math.isclose(wr["predicted"], pred, rel_tol=1e-9)
    details = [f"hold rate {wr['measured']:.4g} vs {pred:g} (rel {rel:.1%})"]
    for text, limit, r_g in ((BRACKET_R4_TEXT, U_G0, 4.0),
                             (BRACKET_R025_TEXT, 16.0 * U_G0, 0.25)):
        m = run_text(text).summary["measurements"]["width_rate"]["measured"]
        relb = abs(m - limit) / limit
        ok = ok and relb <= 0.10
        details.append(f"r_g = {r_g:g}: {m:.4g} vs limit {limit:g} "
                       f"(rel {relb:.1%})")
    report(5, "width spreading law", ok, "; ".join(details))


def test_criterion_06_conversion_efficiency(report, canon0_run):
    med = canon0_run.config.medium
    pulse = canon0_run.config.pulse
    l_o = canon0_run.summary["derived"]["pulse_length"]
    rows = _pde_rows(canon0_run)
    worst, times_ok, final = 0.0, True, (0.0, 0.0)
    for t_s in (0.0, 2.5e3, 5.0e3, 1.0e4):
        row = min(rows, key=lambda r: abs(r["t"] - t_s))
        times_ok = times_ok and abs(row["t"] - t_s) <= 1.0
        measured = l_o / (math.sqrt(2.0) * row["phi_rms"])
        pred = conversion_probability(med, pulse, t_s)
        worst = max(worst, abs(measured - pred) / pred)
        final = (measured, pred)
    ok = times_ok and worst <= 0.05
    report(6, "conversion efficiency", ok,
           f"l_o/l over four holds, worst rel {worst:.1%} of 5%; "
           f"at t_s = 1e4: {final[0]:.4f} vs {final[1]:.4f}")


def test_criterion_07_residual_decay(report, preset_run):
    run = preset_run("stationary")
    dec = run.summary["measurements"]["area_decay"]
    med = run.config.medium
    co = coefficients(med, OM0, OM0)
    efolds = (dec["window"][1] - dec["window"][0]) * co.eta * med.gamma2
    ok = dec["rel_err"] <= 0.02 and efolds >= 1.0
    report(7, "residual decay rate", ok,
           f"area ratio {dec['measured_ratio']:.4f} vs "
           f"exp(-eta gamma2 t) = {dec['predicted_ratio']:.4f} "
           f"(rel {dec['rel_err']:.1e}) over {efolds:.2f} e-folds")


def test_criterion_08_slaved_channel_copy(report, run_text):
    run = run_text(SLAVING_TEXT)
    med = run.config.medium
    depth = run.summary["derived"]["pulse_length"] / med.xi_sum_inv
    snap = run.snapshots[-1]
    assert snap.mode == "pde"
    copy_rel = (np.linalg.norm(snap.psi_minus - snap.psi_plus)
                / np.linalg.norm(snap.psi_plus))
    rec = np.fft.ifft(slaving_kernel(med, k_grid(med))
                      * np.fft.fft(snap.psi_plus))
    kernel_rel = (np.linalg.norm(rec - snap.psi_minus)
                  / np.linalg.norm(snap.psi_minus))
    ok = depth >= 20.0 * (1.0 - 1e-12) and copy_rel <= 0.10 and kernel_rel <= 0.02
    report(8, "slaved-channel copy", ok,
           f"xi_sigma width = {depth:g}: direct copy rel {copy_rel:.3f} "
           f"of 0.10, kernel reconstruction rel {kernel_rel:.1e} of 0.02")


def test_criterion_09_storage_round_trip(report, run_text):
    run0 = run_text(STORE_LOSSLESS_TEXT)
    a = _snap_at(run0, 200.0)
    b = _snap_at(run0, 10300.0)
    env_rel = (np.linalg.norm(np.abs(b.phi) - np.abs(a.phi))
               / np.linalg.norm(np.abs(a.phi)))

    run2 = run_text(STORE_LOSSY_TEXT)
    windows = run2.summary["storage_windows"]
    t_store = windows[0][1] - windows[0][0]
    pa = _snap_at(run2, 200.0)
    pb = _snap_at(run2, 20300.0)
    ratio = float(np.max(np.abs(pb.phi)) / np.max(np.abs(pa.phi)))
    pred = math.exp(-run2.config.medium.gamma2 * t_store)
    amp_rel = abs(ratio - pred) / pred
    ok = env_rel <= 0.03 and amp_rel <= 0.02
    report(9, "storage round trip", ok,
           f"lossless envelope rel {env_rel:.1e} of 0.03; recovered "
           f"amplitude {ratio:.4f} vs exp(-gamma2 t_store) = {pred:.4f} "
           f"(rel {amp_rel:.1e})")


def test_criterion_10_perturber_phase(report, run_text, preset_run):
    travel = run_text(TRAVELING_TEXT).summary["measurements"]["perturber"]
    gate = preset_run("phase_gate").summary["measurements"]["perturber"]
    ok = travel is not None and gate is not None
    detail = "phase measurement skipped"
    if ok:
        rel_t = (abs(travel["phase_final"] - travel["predicted_shift_traveling"])
                 / abs(travel["predicted_shift_traveling"]))
        rel_s = (abs(gate["phase_slope"] - gate["predicted_rate"])
                 / gate["predicted_rate"])
        rel_pi = (abs(gate["pi_crossing_time"] - gate["predicted_t_pi"])
                  / gate["predicted_t_pi"])
        ok = (rel_t <= 0.02 and rel_s <= 0.02 and gate["phase_r2"] >= 0.999
              and rel_pi <= 0.02)
        detail = (f"transit shift {travel['phase_final']:.4f} vs "
                  f"{travel['predicted_shift_traveling']:.4f} (rel {rel_t:.1e}); "
                  f"hold slope rel {rel_s:.1e}, r2 = {gate['phase_r2']:.6f}, "
                  f"pi time rel {rel_pi:.1e}")
    report(10, "perturber phase imprint", ok, detail)


def test_criterion_11_cross_engine(report, preset_run, canon0_run,
                                   canon0_fine_run):
    l2 = preset_run("stationary").summary["measurements"]["cross_engine"]["l2"]
    coarse = canon0_run.summary["measurements"]["width_rate"]["abs_err"]
    fine = canon0_fine_run.summary["measurements"]["width_rate"]["abs_err"]
    gain = coarse / fine
    ok = l2 <= 0.02 and gain >= 1.8
    report(11, "cross-engine agreement", ok,
           f"replay l2 {l2:.2e} of 0.02; halving dz improves the width-rate "
           f"match {gain:.2f}x (need 1.8x)")


def test_criterion_12_area_conservation(report, canon0_run):
    rows = [r for r in canon0_run.trajectory if r["mode"] == 0.0]
    a0, a1 = rows[0]["phi_area"], rows[-1]["phi_area"]
    rel = abs(a1 - a0) / a0
    report(12, "polariton area conservation", rel <= 0.005,
           f"integrated polariton area drifts {rel:.1e} of allowed 5e-3")


def test_criterion_13_determinism(report, tmp_path):
    cfg = tmp_path / "rerun.cfg"
    cfg.write_text(RERUN_TEXT)
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["run", str(cfg), "--out-dir", str(out)]) == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    same_files = names == sorted(p.name for p in dirs[1].iterdir())
    differing = [n for n in names
                 if (dirs[0] / n).read_bytes() != (dirs[1] / n).read_bytes()]
    ok = same_files and not differing
    report(13, "byte-identical reruns", ok,
           f"{len(names)} output files compared" if ok
           else f"mismatch: {differing or 'file sets differ'}")
