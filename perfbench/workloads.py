"""Benchmark workloads: config text generated from a seed, and the checks a
run's summary.json must pass.

The configs are fixed copies of the bundled presets they are named after, so
that a later change to a preset does not change the benchmark. The seed moves
only inputs that leave the grid, the control schedule, the snapshot times and
the step count unchanged: the pulse amplitude, and for prepared pulses the
pulse centre by less than one grid cell.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

# sqrt(1e-3): the forward control of the bundled presets (entry group velocity 1e-3 c)
OM0 = "0.0316227766016838"
U_G0 = 1e-3
AMPLITUDE_RANGE = (0.5, 2.0)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # config text with {amplitude} and {center} fields
    template: str
    # nominal centre of a prepared pulse; None for an injected pulse
    center: float | None
    dz: float
    grid_points: int
    # summary -> (model_err, list of failed checks)
    check: Callable[[dict], tuple[float, list[str]]]
    # size of the yardstick job timed around each run (yardstick.py): steps
    # and snapshot files at this grid size, in about the run's own split and
    # about 0.7 of its time, which balances the noise of the two medians
    yardstick_steps: int
    yardstick_files: int
    # the yardstick's CPU seconds at the host's nominal speed; times are
    # reported as if the host ran at that speed (run.py)
    yardstick_nominal_cpu_s: float

    def config_text(self, seed: int) -> str:
        rng = random.Random(f"{self.name}:{seed}")
        amplitude = rng.uniform(*AMPLITUDE_RANGE)
        center = self.center
        if center is not None:
            center += rng.uniform(-0.99, 0.99) * self.dz
        return self.template.format(amplitude=f"{amplitude:.6f}",
                                    center=f"{center:.9f}" if center is not None else "")


def _check_transit(summary: dict) -> tuple[float, list[str]]:
    measured = summary["measurements"]["velocity"]["measured"]
    rel = abs(measured - U_G0) / U_G0
    failed = [] if rel <= 0.01 else [f"velocity {measured:.6g} off u_g0 by rel {rel:.3g} > 0.01"]
    return rel, failed


def _check_hold(summary: dict) -> tuple[float, list[str]]:
    meas = summary["measurements"]
    velocity = abs(meas["velocity"]["measured"])
    area = meas["area_decay"]["rel_err"]
    l2 = meas["cross_engine"]["l2"]
    envelope = meas["oracle"]["max_envelope_l2"]
    failed = []
    if velocity > 1e-5:
        failed.append(f"|v| = {velocity:.3g} > 1e-5")
    if area > 0.02:
        failed.append(f"area-decay rel_err {area:.3g} > 0.02")
    if l2 > 0.02:
        failed.append(f"cross-engine l2 {l2:.3g} > 0.02")
    return max(area, l2, envelope), failed


def _check_gate(summary: dict) -> tuple[float, list[str]]:
    p = summary["measurements"]["perturber"]
    slope_rel = abs(p["phase_slope"] - p["predicted_rate"]) / p["predicted_rate"]
    pi_rel = abs(p["pi_crossing_time"] - p["predicted_t_pi"]) / p["predicted_t_pi"]
    failed = []
    if slope_rel > 0.02:
        failed.append(f"phase slope rel {slope_rel:.3g} > 0.02")
    if pi_rel > 0.02:
        failed.append(f"pi-crossing time rel {pi_rel:.3g} > 0.02")
    if p["phase_r2"] < 0.999:
        failed.append(f"phase r2 {p['phase_r2']:.6f} < 0.999")
    return max(slope_rel, pi_rel), failed


def check_summary(workload: Workload, summary: dict) -> tuple[float | None, list[str]]:
    """Score a run; a measurement missing from the summary fails the run."""
    try:
        return workload.check(summary)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return None, [f"summary lacks a scored measurement: {exc!r}"]


_MEDIUM = """medium.r_g = 1
medium.gamma = 1
medium.u_g0 = 1e-3
"""

# slow_light preset: solver-bound (step ~83%, writing ~16%), no oracle, no
# perturber, ~46 steps per window: where per-window factoring helps most
TRANSIT = Workload(
    "transit",
    _MEDIUM + f"""medium.gamma2 = 0
medium.domain_length = 100
medium.grid_points = 2048
pulse.amplitude = {{amplitude}}
pulse.duration = 1e4
pulse.injection_time = 3.5e4
schedule.segment = 0 8e4 {OM0} 0 50
engine = direct
run.t_end = 7.5e4
run.snapshot_interval = 1000
""",
    None, 100 / 2048, 2048, _check_transit, 1700, 40, 2.4)

# stationary preset with 101 snapshots: write-bound (~56%), oracle comparison
# on every snapshot and a spectral replay, only ~10 steps per window
HOLD_DENSE = Workload(
    "hold_dense",
    _MEDIUM + f"""medium.gamma2 = 1e-4
medium.domain_length = 200
medium.grid_points = 4096
pulse.prepared = true
pulse.amplitude = {{amplitude}}
pulse.duration = 2e4
pulse.center = {{center}}
schedule.segment = 0 1e4 {OM0} {OM0} 50
engine = both
run.t_end = 1e4
run.snapshot_interval = 100
""",
    100.0, 200 / 4096, 4096, _check_hold, 675, 86, 2.7)

# phase_gate preset: the only workload with a perturber and a reference run,
# two full direct runs at N=5120 plus the phase fit
GATE = Workload(
    "gate",
    _MEDIUM + f"""medium.gamma2 = 0
medium.domain_length = 520
medium.grid_points = 5120
pulse.prepared = true
pulse.amplitude = {{amplitude}}
pulse.duration = 2e4
pulse.center = {{center}}
schedule.segment = 0 1.1e4 {OM0} {OM0} 50
engine = direct
run.t_end = 1e4
run.snapshot_interval = 250
run.probe_z = 260
perturber.m_atoms = 1122.8
perturber.z_center = 260
perturber.length = 160
perturber.sigma_over_s = 1
perturber.gamma_a = 0.5
perturber.detuning = 10
""",
    260.0, 520 / 5120, 5120, _check_gate, 600, 18, 2.0)

# tiny two-engine hold for the smoke mode: runs in about a second
SMOKE = Workload(
    "smoke",
    _MEDIUM + f"""medium.gamma2 = 1e-4
medium.domain_length = 40
medium.grid_points = 1024
pulse.prepared = true
pulse.amplitude = {{amplitude}}
pulse.duration = 2e3
pulse.center = {{center}}
schedule.segment = 0 500 {OM0} {OM0} 50
engine = both
run.t_end = 200
run.snapshot_interval = 20
""",
    20.0, 40 / 1024, 1024, _check_hold, 50, 2, 0.05)

WORKLOADS = {w.name: w for w in (TRANSIT, HOLD_DENSE, GATE, SMOKE)}
