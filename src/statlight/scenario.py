"""Run orchestration: event loop, engines, measurements, output files.

A run is a sequence of windows separated by events (schedule breakpoints,
storage threshold crossings, snapshot times). Transport windows advance the
banded implicit integrator; storage windows advance the stored coherence
analytically. With engine "both", the longest constant-control window is
replayed spectrally and the two engines are scored against each other.

The spectral engine's periodic domain wraps round what reaches an edge, so
each of its records must keep its energy in a guard band about the pulse
centroid (`check_guard_band`); `preflight` checks the start's record.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np

from .config import RunConfig, config_echo, render_config
from .diagnostics import (MIN_FIT_POINTS, compare_to_oracle, energy_fraction,
                          linear_fit, moments, unwrapped_phase)
from .errors import (EmptyField, GuardBandOverflow, SimulationError,
                     ValidationError)
from .integrator import (BDF2, MODE_PDE, MODE_STORAGE, RESIDUAL_TOL,
                         advective_cap, build_absorbers, init_state, plan_steps,
                         polariton_field, release, step, storage_advance, store)
from .medium import (coefficients, envelope_scales, group_velocity,
                     power_crossings, pulse_length, stationarity_residual,
                     tau_of_t, validity_report)
from .oracle import decay_exponent, width_b, width_growth_rate
from .perturber import (interaction_rate, perturber_density,
                        phase_rate_stationary, phase_shift_traveling,
                        stationary_rate_measured_scale)
from .spectral import fields_from_state, propagate, spectral_state_from_fields

# energy fraction in the sponges that aborts a run meant to stay confined
SPONGE_ABORT_FRACTION = 1e-4
# |stationarity residual| above this marks a deliberate transit or release,
# where outflow through an edge is the point and not an error
EXIT_RESIDUAL = 0.9
# the spectral guard band: half-width in oracle rms widths, energy it may leak
GUARD_WIDTHS = 6.0
GUARD_ENERGY_FRACTION = 1e-6
PHASE_MASK_LEVEL = 0.5
# injected runs only: fits start this many pulse durations past the source peak
SOURCE_CLEAR_FACTOR = 3.5
# preflight budget: a run estimated to need more grid-point updates (transport
# steps times grid points; a million steps on the default 4096-point grid), or
# to hold more bytes of snapshot fields, is refused before any work starts
MAX_POINT_STEPS = 4096 * 10 ** 6
MAX_SNAPSHOT_BYTES = 2 ** 30

TRAJECTORY_COLUMNS = (
    "t", "tau", "mode", "e_plus", "e_minus", "phi_energy", "phi_area",
    "phi_centroid", "phi_rms", "phi_peak", "a_plus_peak", "a_minus_peak",
    "probe_re", "probe_im", "sponge_fraction")


@dataclasses.dataclass
class Snapshot:
    index: int
    t: float
    tau: float
    mode: str
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    phi: np.ndarray


@dataclasses.dataclass
class EngineRun:
    """`snapshots` holds every snapshot of a run without an out-dir, and
    none of a run that streams to one; `fit` is what the measurements read
    of the run's fit window, gathered as the run records it
    (`_snapshot_sink`)."""
    snapshots: list
    trajectory: list
    sponge_max: float
    fit: "_FitWindow"


@dataclasses.dataclass
class RunResult:
    """A finished run: the primary engine's snapshots and trajectory rows,
    and the summary. `reference` is always None: a perturbed config runs
    once. It stays because perfbench/spans.py reads it."""
    config: RunConfig
    snapshots: list
    trajectory: list
    summary: dict
    reference: "EngineRun | None" = None


@dataclasses.dataclass
class _Event:
    t: float
    snap: bool = False
    kind: str | None = None


def _tol(config: RunConfig) -> float:
    span = config.run.t_end - config.schedule.t_start
    return 1e-9 * max(1.0, span)


def _snapshot_times(config: RunConfig) -> list[float]:
    t0 = config.schedule.t_start
    t_end = config.run.t_end
    tol = _tol(config)
    times = [t0]
    k = 1
    while True:
        t = t0 + k * config.run.snapshot_interval
        if t >= t_end - tol:
            break
        times.append(t)
        k += 1
    times.append(t_end)
    return times


def _build_events(config: RunConfig) -> list[_Event]:
    sched = config.schedule
    t0, t_end = sched.t_start, config.run.t_end
    tol = _tol(config)
    tagged = [(t, "snap") for t in _snapshot_times(config)]
    if config.engine == "both":
        # the cross-engine replay runs between snapshots at the fit window's ends
        tagged += [(float(t), "snap") for t in _fit_window(config) or ()
                   if t0 - tol <= t <= t_end + tol]
    tagged += [(b, "break") for b in sched.breakpoints() if t0 + tol < b < t_end - tol]
    tagged += [(t, kind) for t, kind in power_crossings(config.medium, sched)
               if t0 + tol < t <= t_end - tol]
    tagged.sort(key=lambda p: p[0])
    events: list[_Event] = []
    for t, tag in tagged:
        if events and t - events[-1].t <= tol:
            ev = events[-1]
            # a threshold crossing is the physically exact event time, and a
            # breakpoint beats the snapshot grid, so that no snapshot falls
            # just short of the plateau after a ramp
            if tag in ("off", "on") or (tag == "break" and ev.kind is None):
                ev.t = t
        else:
            ev = _Event(t)
            events.append(ev)
        ev.snap |= tag == "snap"
        if tag in ("off", "on"):
            ev.kind = tag
    return events


def _piece_steps(med, schedule, lo: float, hi: float, i: int, ramping: bool,
                 safety: float) -> int | float:
    """Steps over the schedule piece [lo, hi]: `advective_cap` (sampled
    across a ramp, once on a plateau) times the safety factor, and at least
    64 steps per ramp; inf when that many steps overflow a float."""
    ts = np.linspace(lo, hi, 65).tolist() if ramping else [0.5 * (lo + hi)]
    cap = advective_cap(med, schedule, ts) * safety
    if ramping:
        cap = min(cap, schedule.segments[i].ramp / 64.0)
    n = (hi - lo) / cap if cap > 0.0 else math.inf
    return max(1, math.ceil(n)) if n < math.inf else math.inf


def _pde_advance(state, schedule, a: float, b: float, safety: float,
                 pulse, w_plus, w_minus, perturber, plan):
    """Advance the fields over the transport window [a, b]. `plan` is the
    run's last plan, or None. A ramp takes BE steps, one plan each, since the
    matrix follows the controls, and leaves no history. A plateau piece
    takes BDF2 steps from one plan, which `plan_steps` keeps when the
    piece's first step has bit-identical inputs; it starts with one BE step,
    from a transient plan, unless the state's history comes from a step of
    the same dt and controls. Returns the last plan, for the run's next
    window."""
    med = state.medium
    for lo, hi, i, ramping in schedule.pieces(a, b):
        n = _piece_steps(med, schedule, lo, hi, i, ramping, safety)
        dt = (hi - lo) / n
        if ramping:
            for _ in range(n):
                plan = plan_steps(med, schedule, state.t, dt, w_plus, w_minus,
                                  perturber, plan)
                step(state, plan, schedule, pulse)
            state.history = None
        else:
            # a plateau step has the same controls at both ends
            if (state.history is None or plan is None or plan.dt != dt
                    or plan.controls != 2 * schedule.values(lo)):
                plan = plan_steps(med, schedule, state.t, dt, w_plus, w_minus,
                                  perturber, plan)
                step(state, plan, schedule, pulse)
                n -= 1
            if n:
                plan = plan_steps(med, schedule, state.t, dt, w_plus, w_minus,
                                  perturber, plan, BDF2)
                for _ in range(n):
                    step(state, plan, schedule, pulse)
        state.t = hi
    return plan


def resource_estimate(config: RunConfig) -> tuple[int, int]:
    """(transport steps, snapshot bytes held) that a run will need, from
    arithmetic alone. Steps are `_piece_steps` over the transport windows of
    `config.windows` (the events of a run split pieces and add at most one
    step each). The bytes are what a run without an out-dir holds, its full
    list: three grid arrays a snapshot, of 8-byte values in a direct run
    without a perturber and of 16-byte complex values otherwise. A run that
    streams to an out-dir holds at most two: the ends of its cross-engine
    replay."""
    med, sched, run = config.medium, config.schedule, config.run
    steps = 0
    if config.engine != "spectral":
        steps = sum(_piece_steps(med, sched, a, b, i, ramping, run.dt_safety)
                    for lo, hi, transport in config.windows
                    if transport
                    for a, b, i, ramping in sched.pieces(lo, hi))
    # start, end and the two ends of the fit window ride on top of the interval
    snapshots = math.ceil((run.t_end - sched.t_start) / run.snapshot_interval) + 3
    # psi_plus, psi_minus and phi
    value = 8 if _real_fields(config) else 16
    return steps, snapshots * med.grid_points * 3 * value


def _real_fields(config: RunConfig) -> bool:
    """Whether every field of a run is real: only a perturber or
    the spectral engine makes them complex."""
    return config.engine != "spectral" and config.perturber is None


def preflight(config: RunConfig) -> None:
    """Refuse a run whose resource estimate exceeds the budget; a step count
    too large for a float counts as over it. A spectral run is refused, too,
    when its first record fails the guard band."""
    steps, held = resource_estimate(config)
    med, run = config.medium, config.run
    if held > MAX_SNAPSHOT_BYTES:
        raise ValidationError(
            f"run.snapshot_interval = {run.snapshot_interval:g} with "
            f"medium.grid_points = {med.grid_points} would hold about "
            f"{held / 2 ** 20:.4g} MiB of snapshots, above the budget of "
            f"{MAX_SNAPSHOT_BYTES / 2 ** 20:g} MiB")
    if not steps * med.grid_points <= MAX_POINT_STEPS:
        raise ValidationError(
            f"medium.grid_points = {med.grid_points} with medium.domain_length = "
            f"{med.domain_length:g} and run.dt_safety = {run.dt_safety:g} over "
            f"run.t_end = {run.t_end:g} needs about {steps:.4g} transport steps, "
            f"{float(steps) * med.grid_points:.4g} point-steps, above the budget of "
            f"{MAX_POINT_STEPS:.4g}")
    if config.engine == "spectral":
        next(_spectral_records(config))


def _probe_index(config: RunConfig):
    if config.run.probe_z is None:
        return None
    z = config.medium.grid()
    return int(np.argmin(np.abs(z - config.run.probe_z)))


def _record(config: RunConfig, t: float, mode: str,
            psi_plus, psi_minus, spin, sponge_mask, probe_idx, index: int):
    """The snapshot of the fields at lab time t, with tau = `tau_of_t` at t,
    its trajectory row and the channel envelopes (a_plus, a_minus), formed
    once for the row, the snapshot file and the fit window: |psi| times
    `envelope_scales` in transport, zeros in storage. The sponge fraction (in
    transport, over `sponge_mask` unless it is None) weighs |psi| unscaled."""
    med, sched = config.medium, config.schedule
    tau = tau_of_t(med, sched, t)
    z = med.grid()
    sponge = 0.0
    if mode == MODE_STORAGE:
        phi = np.array(spin, copy=True)
        envelopes = (np.zeros(med.grid_points),) * 2
    else:
        if sponge_mask is not None:
            sponge = energy_fraction(psi_plus, psi_minus, sponge_mask)
        op, om = sched.values(t)
        co = coefficients(med, op, om)
        phi = polariton_field(co.alpha_plus, co.alpha_minus, psi_plus, psi_minus)
        scale_p, scale_m = envelope_scales(med, op, om)
        envelopes = np.abs(psi_plus) * scale_p, np.abs(psi_minus) * scale_m
    ep, em = (float(np.sum(a ** 2) * med.dz) for a in envelopes)
    app, apm = (float(np.max(a)) for a in envelopes)
    try:
        m = moments(z, phi, med.dz)
        energy, cen, rms, peak = m.energy, m.centroid, m.rms, m.peak
    except EmptyField:
        energy, peak = 0.0, 0.0
        cen = rms = float("nan")
    row = {"t": t, "tau": tau, "mode": 0.0 if mode == MODE_PDE else 1.0,
           "e_plus": ep, "e_minus": em, "phi_energy": energy,
           "phi_area": float(np.abs(np.sum(phi))) * med.dz,
           "phi_centroid": cen, "phi_rms": rms, "phi_peak": peak,
           "a_plus_peak": app, "a_minus_peak": apm,
           "probe_re": float("nan"), "probe_im": float("nan"),
           "sponge_fraction": sponge}
    if probe_idx is not None and mode == MODE_PDE:
        val = psi_plus[probe_idx]
        row["probe_re"], row["probe_im"] = float(val.real), float(val.imag)
    snap = Snapshot(index, t, tau, mode,
                    np.array(psi_plus, copy=True),
                    np.array(psi_minus, copy=True), phi)
    return snap, row, envelopes


def _snapshot_sink(config: RunConfig, out_dir, snapshots: list,
                   fit: "_FitWindow"):
    """The callable an engine run hands each snapshot it records, with the
    channel envelopes `_record` formed of it. Without an out-dir it appends the
    snapshot to `snapshots`. With one, the first record makes the directory
    and unlinks what an earlier run left there: the files that only a
    finished run writes (summary.json, trajectory.tsv and config.txt) and
    every snap_*.npy; each record then saves snap_NNNNN.npy if
    `output.snapshots`, and holds nothing. The files are filled in one
    (N, 9) buffer that the sink keeps for the run: its z column is written
    once, and so are the zero im columns of a run whose fields are real.
    Either way it then feeds the snapshot to `fit`, the run's fit-window
    accumulator."""
    out = None if out_dir is None else pathlib.Path(out_dir)
    buf = None
    if out is not None and config.output.snapshots:
        buf = np.zeros((config.medium.grid_points, 9))
        buf[:, 0] = config.medium.grid()
    imag = not _real_fields(config)

    def sink(snap: Snapshot, envelopes):
        if out is None:
            snapshots.append(snap)
        else:
            if snap.index == 0:
                out.mkdir(parents=True, exist_ok=True)
                for stale in [out / "summary.json", out / "trajectory.tsv",
                              out / "config.txt", *out.glob("snap_*.npy")]:
                    stale.unlink(missing_ok=True)
            if buf is not None:
                _write_snapshot(out / f"snap_{snap.index:05d}.npy", snap, buf,
                                imag, envelopes)
        fit.add(snap, envelopes)
    return sink


def _run_direct(config: RunConfig, out_dir=None) -> EngineRun:
    med, sched, pulse, run = (config.medium, config.schedule,
                              config.pulse, config.run)
    state = init_state(med, sched, pulse)
    w_plus, w_minus = build_absorbers(med)
    sponge_mask = (w_plus > 0.0) | (w_minus > 0.0)
    pert = None
    if config.perturber is not None:
        pert = (perturber_density(med, config.perturber),
                interaction_rate(config.perturber))
    probe_idx = _probe_index(config)

    events = _build_events(config)
    snapshots: list[Snapshot] = []
    fit = _FitWindow(config)
    sink = _snapshot_sink(config, out_dir, snapshots, fit)
    traj: list[dict] = []
    sponge_max = 0.0

    def record():
        nonlocal sponge_max
        snap, row, envelopes = _record(config, state.t, state.mode,
                                       state.psi_plus, state.psi_minus,
                                       state.spin, sponge_mask, probe_idx,
                                       len(traj))
        sponge = row["sponge_fraction"]
        sponge_max = max(sponge_max, sponge)
        sink(snap, envelopes)
        traj.append(row)
        if state.mode == MODE_PDE and sponge > SPONGE_ABORT_FRACTION:
            op, om = sched.values(state.t)
            held = op ** 2 + om ** 2 >= med.release_threshold
            if held and abs(stationarity_residual(med, op, om)) < EXIT_RESIDUAL:
                raise GuardBandOverflow(
                    f"{sponge:.3g} of the pulse energy reached the absorbing "
                    f"edges at t = {state.t:g} while the controls hold the pulse")

    record()
    plan = None
    for ev in events[1:]:
        if state.mode == MODE_PDE:
            plan = _pde_advance(state, sched, state.t, ev.t, run.dt_safety,
                                pulse, w_plus, w_minus, pert, plan)
        else:
            storage_advance(state, ev.t - state.t)
        if ev.kind == "off" and state.mode == MODE_PDE:
            store(state, sched)
        elif ev.kind == "on" and state.mode == MODE_STORAGE:
            release(state, sched)
        if ev.snap:
            record()
    return EngineRun(snapshots, traj, sponge_max, fit)


def check_guard_band(medium, psi_plus, psi_minus, centroid: float,
                     half_width: float) -> float:
    """Energy fraction farther than half_width from the centroid, refused
    above GUARD_ENERGY_FRACTION and when the band does not fit in the
    domain, which recycles what drifts off one edge: tail escape and
    wrapped-around energy both invalidate a run. An empty field passes."""
    if not math.isfinite(centroid):
        return 0.0
    if centroid - half_width < 0.0 or centroid + half_width > medium.domain_length:
        raise GuardBandOverflow(
            f"guard band of {half_width:g} around the centroid z = {centroid:g} "
            f"(from pulse.center) does not fit in medium.domain_length = "
            f"{medium.domain_length:g}")
    frac = energy_fraction(psi_plus, psi_minus,
                           np.abs(medium.grid() - centroid) > half_width)
    if frac > GUARD_ENERGY_FRACTION:
        raise GuardBandOverflow(
            f"{frac:.3g} of the pulse energy sits outside the guard band "
            f"(limit {GUARD_ENERGY_FRACTION:g})")
    return frac


def _spectral_records(config: RunConfig):
    """The spectral engine's records, one per snapshot time, from the
    spectrum of the direct engine's start field. Each is refused by
    `check_guard_band` about its row's centroid, with the half-width
    GUARD_WIDTHS times the oracle's rms width at run.t_end."""
    med, sched, pulse = config.medium, config.schedule, config.pulse
    # `parse_config` refuses a spectral run that opens in storage
    sstate = spectral_state_from_fields(
        med, init_state(med, sched, pulse).psi_plus, t=sched.t_start)
    half = GUARD_WIDTHS * width_b(med, sched, pulse, config.run.t_end) / math.sqrt(2.0)
    probe_idx = _probe_index(config)
    for index, t in enumerate(_snapshot_times(config)):
        if index:
            propagate(sstate, sched, t)
        pp, pm = fields_from_state(sstate)
        record = _record(config, sstate.t, MODE_PDE, pp, pm, None, None,
                         probe_idx, index)
        check_guard_band(med, pp, pm, record[1]["phi_centroid"], half)
        yield record


def _run_spectral(config: RunConfig, out_dir=None) -> EngineRun:
    snapshots: list[Snapshot] = []
    fit = _FitWindow(config)
    sink = _snapshot_sink(config, out_dir, snapshots, fit)
    traj: list[dict] = []
    for snap, row, envelopes in _spectral_records(config):
        sink(snap, envelopes)
        traj.append(row)
    return EngineRun(snapshots, traj, 0.0, fit)


def _fit_window(config: RunConfig):
    """Last constant-control window usable for measurement fits."""
    med, sched, pulse = config.medium, config.schedule, config.pulse
    best = None
    for lo, hi in sched.constant_windows():
        lo2 = max(lo, sched.t_start)
        hi2 = min(hi, config.run.t_end)
        if not pulse.prepared:
            lo2 = max(lo2, pulse.injection_time + SOURCE_CLEAR_FACTOR * pulse.duration)
        if hi2 <= lo2:
            continue
        op, om = sched.values(0.5 * (lo2 + hi2))
        if op ** 2 + om ** 2 < med.release_threshold:
            continue
        best = (lo2, hi2)
    return best


class _FitWindow:
    """The transport snapshots of the fit window, measured as the run
    records them: their times, under `engine = both` the first and the
    latest snapshot (the ends of the cross-engine replay) and, for a
    prepared pulse, each one's errors against the oracle, until the oracle
    refuses one (`refusal`)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.window, self.tol = _fit_window(config), _tol(config)
        self.times: list[float] = []
        self.first = self.last = None
        # (envelope l2, width rel, decay rel) of each scored snapshot
        self.errors: list[tuple] = []
        self.anchor = self.refusal = None
        self.replay = config.engine == "both"

    def add(self, snap: Snapshot, envelopes):
        """Take in a snapshot with `_record`'s channel envelopes of it; a
        prepared pulse's forward envelope is scored against the oracle."""
        window, tol = self.window, self.tol
        if (window is None or snap.mode != MODE_PDE
                or not window[0] - tol <= snap.t <= window[1] + tol):
            return
        self.times.append(snap.t)
        if self.replay:
            self.first = self.first or snap
            self.last = snap
        med, sched, pulse = self.config.medium, self.config.schedule, self.config.pulse
        if not pulse.prepared or self.refusal is not None:
            return
        try:
            errors, self.anchor = compare_to_oracle(med, sched, pulse, snap.t,
                                                    envelopes[0], self.anchor)
        except SimulationError as exc:
            self.refusal = str(exc)
        else:
            self.errors.append(errors)


def _cross_engine(config: RunConfig, primary: EngineRun):
    """Replay the fit window spectrally from its first snapshot's forward
    field and score the direct run's last snapshot of the window against
    it: the relative l2 of both channels together. The controls are constant
    over the window, so one exact `propagate` spans it; `steps` counts the
    snapshot intervals it spans."""
    fit = primary.fit
    if fit.window is None:
        return None, ["cross-engine replay skipped: no suitable constant window"]
    if len(fit.times) < 2:
        return None, ["cross-engine replay skipped: too few snapshots in window"]
    med, sched = config.medium, config.schedule
    s0, ref = fit.first, fit.last
    sstate = spectral_state_from_fields(med, s0.psi_plus, t=s0.t)
    propagate(sstate, sched, ref.t)
    pp, pm = fields_from_state(sstate)
    den = (float(np.linalg.norm(ref.psi_plus)) ** 2
           + float(np.linalg.norm(ref.psi_minus)) ** 2)
    if den == 0.0:
        return None, ["cross-engine replay skipped: empty window"]
    num = (float(np.linalg.norm(pp - ref.psi_plus)) ** 2
           + float(np.linalg.norm(pm - ref.psi_minus)) ** 2)
    return {"window": list(fit.window), "steps": len(fit.times) - 1,
            "l2": math.sqrt(num / den)}, []


def _longest_true_run(mask) -> slice:
    best_len, best_start, cur = 0, 0, None
    for i, m in enumerate(list(mask) + [False]):
        if m and cur is None:
            cur = i
        elif not m and cur is not None:
            if i - cur > best_len:
                best_len, best_start = i - cur, cur
            cur = None
    return slice(best_start, best_start + best_len)


def _perturber_measurement(config: RunConfig, primary: EngineRun):
    med, sched, spec = config.medium, config.schedule, config.perturber
    idx = _probe_index(config)
    if idx is None:
        return None, ["perturber phase needs run.probe_z; measurement skipped"]
    # each transport row of a trajectory carries psi_plus at the probe
    rows = [r for r in primary.trajectory if r["mode"] == 0.0]
    if len(rows) < 2:
        return None, ["perturber phase skipped: too few transport snapshots"]
    tseries = np.array([r["t"] for r in rows])
    p = np.array([complex(r["probe_re"], r["probe_im"]) for r in rows])
    amp = np.abs(p)
    top = float(np.max(amp))
    if top <= 0.0:
        return None, ["perturber phase skipped: probe never sees the pulse"]
    sl = _longest_true_run(amp >= PHASE_MASK_LEVEL * top)
    if sl.stop - sl.start < 2:
        return None, ["perturber phase skipped: pulse too brief at the probe"]
    try:
        # the run without the cloud steps real fields, so its phase is zero
        phi = unwrapped_phase(p[sl])
    except SimulationError as exc:
        return None, [f"perturber phase skipped: {exc}"]
    tm = tseries[sl]
    result = {"probe_z": float(med.grid()[idx]),
              "window": [float(tm[0]), float(tm[-1])],
              "phase_final": float(phi[-1]),
              "phase_slope": None, "phase_r2": None,
              "pi_crossing_time": None}
    if len(phi) >= MIN_FIT_POINTS:
        slope, _, r2 = linear_fit(tm, phi)
        result["phase_slope"] = slope
        result["phase_r2"] = r2
    for i in range(1, len(phi)):
        if phi[i - 1] < math.pi <= phi[i]:
            frac = (math.pi - phi[i - 1]) / (phi[i] - phi[i - 1])
            result["pi_crossing_time"] = float(tm[i - 1] + frac * (tm[i] - tm[i - 1]))
            break
    chi, t_pi = phase_rate_stationary(med, spec)
    result["predicted_rate"] = chi
    result["predicted_t_pi"] = t_pi
    mid = 0.5 * (tm[0] + tm[-1])
    op, om = sched.values(mid)
    result["rate_scale"] = stationary_rate_measured_scale(med, spec, op, om)
    try:
        result["predicted_shift_traveling"] = phase_shift_traveling(
            med, coefficients(med, op, om), spec)
    except SimulationError:
        result["predicted_shift_traveling"] = None
    return result, []


def _measurements(config: RunConfig, primary: EngineRun):
    med, sched, pulse = config.medium, config.schedule, config.pulse
    warnings: list[str] = []
    out: dict = {"velocity": None, "width_rate": None, "area_decay": None,
                 "oracle": None, "conversion": None, "perturber": None}
    fit = primary.fit
    tol = fit.tol
    if fit.window is None:
        warnings.append("no constant-control window available for fits")
    else:
        lo, hi = fit.window
        rows = [r for r in primary.trajectory
                if lo - tol <= r["t"] <= hi + tol and r["mode"] == 0.0
                and math.isfinite(r["phi_centroid"])]
        if len(rows) < MIN_FIT_POINTS:
            warnings.append("fit window has too few usable snapshots")
        else:
            ts = [r["t"] for r in rows]
            op, om = sched.values(0.5 * (ts[0] + ts[-1]))

            slope, _, r2 = linear_fit(ts, [r["phi_centroid"] for r in rows])
            pred = group_velocity(med, op, om)
            # a step is accepted at a relative residual of RESIDUAL_TOL, which
            # can shift the centroid of a field on the N dz long domain by up
            # to RESIDUAL_TOL * N dz; a fit moving it less is fitting round-off
            resolved = (abs(slope) * (ts[-1] - ts[0])
                        >= RESIDUAL_TOL * med.domain_length)
            out["velocity"] = {
                "window": [ts[0], ts[-1]], "measured": slope, "predicted": pred,
                "abs_err": abs(slope - pred),
                "rel_err": abs(slope - pred) / abs(pred) if pred != 0.0 else None,
                "r2": r2 if resolved else None}

            slope2, _, r2w = linear_fit(ts, [r["phi_rms"] ** 2 for r in rows])
            predw = width_growth_rate(med, op, om)
            out["width_rate"] = {
                "window": [ts[0], ts[-1]], "measured": slope2, "predicted": predw,
                "abs_err": abs(slope2 - predw),
                "rel_err": abs(slope2 - predw) / abs(predw) if predw != 0.0 else None,
                "r2": r2w}

            a0, a1 = rows[0]["phi_area"], rows[-1]["phi_area"]
            if a0 > 0.0:
                predd = math.exp(-(decay_exponent(med, sched, ts[-1])[1]
                                   - decay_exponent(med, sched, ts[0])[1]))
                out["area_decay"] = {
                    "window": [ts[0], ts[-1]], "measured_ratio": a1 / a0,
                    "predicted_ratio": predd,
                    "rel_err": abs(a1 / a0 - predd) / predd}

            if pulse.prepared and len(fit.times) >= 2:
                if fit.refusal is not None:
                    warnings.append(f"oracle comparison skipped: {fit.refusal}")
                else:
                    env, width, decay = (max(col) for col in zip(*fit.errors))
                    out["oracle"] = {
                        "times": list(fit.times), "max_envelope_l2": env,
                        "max_width_rel": width, "max_decay_rel": decay}

    pde_rows = [r for r in primary.trajectory
                if r["mode"] == 0.0 and (r["e_plus"] + r["e_minus"]) > 0.0]
    if pde_rows:
        last = pde_rows[-1]
        total = last["e_plus"] + last["e_minus"]
        out["conversion"] = {"time": last["t"],
                             "fraction_minus": last["e_minus"] / total}

    if config.perturber is not None:
        pm, pwarn = _perturber_measurement(config, primary)
        out["perturber"] = pm
        warnings += pwarn
    return out, warnings


def _round_floats(obj):
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render_summary(summary: dict) -> str:
    return json.dumps(_round_floats(summary), indent=2, sort_keys=True) + "\n"


def _summary(config: RunConfig, primary: EngineRun, measurements: dict,
             warnings: list) -> dict:
    med, sched, pulse = config.medium, config.schedule, config.pulse
    t_end = config.run.t_end
    return {
        "config": config_echo(config),
        "derived": {
            "omega_plus0": med.omega_plus0,
            "pulse_length": pulse_length(med, pulse),
            "xi_minus": med.xi_minus,
            "rho": med.rho,
            "dz": med.dz,
            "z_offset": med.xi_sum_inv,
            "storage_threshold": med.storage_threshold,
            # every engine records its last row at run.t_end
            "tau_end": primary.trajectory[-1]["tau"],
            "final_mode": MODE_PDE if config.windows[-1][2] else MODE_STORAGE,
        },
        "validity": [c.to_dict() for c in validity_report(med, pulse, sched)],
        "crossings": [[t, kind] for t, kind in power_crossings(med, sched) if t <= t_end],
        # a storage window still open when the run ends has no end time
        "storage_windows": [[lo, None if hi == t_end else hi]
                            for lo, hi, transport in config.windows if not transport],
        "sponge_max_fraction": primary.sponge_max,
        "measurements": measurements,
        "warnings": list(dict.fromkeys(warnings)),
    }


def run_scenario(config: RunConfig, out_dir=None) -> RunResult:
    preflight(config)
    if config.engine == "spectral":
        primary = _run_spectral(config, out_dir)
    else:
        primary = _run_direct(config, out_dir)

    measurements, warnings = _measurements(config, primary)
    cross = None
    if config.engine == "both":
        cross, cwarn = _cross_engine(config, primary)
        warnings += cwarn
    measurements["cross_engine"] = cross

    summary = _summary(config, primary, measurements, warnings)
    result = RunResult(config, primary.snapshots, primary.trajectory, summary)
    if out_dir is not None:
        write_outputs(result, out_dir)
    return result


def _write_snapshot(path: pathlib.Path, snap: Snapshot, buf: np.ndarray,
                    imag: bool, envelopes):
    """Save the float64 (N, 9) columns of the README's snap_NNNNN.npy; t, tau
    and mode of the snapshot are row `snap.index` of trajectory.tsv.

    The columns are filled into `buf`, the array a run's sink keeps from
    file to file. Only the field columns are written: the z column stays,
    and with `imag` false so do the im columns of real fields, which must
    then be zero already. `envelopes` holds `_record`'s abs_a columns."""
    for col, values in ((1, snap.psi_plus), (3, snap.psi_minus), (7, snap.phi)):
        buf[:, col] = values.real
        if imag or values.dtype.kind == "c":
            buf[:, col + 1] = values.imag
    buf[:, 5], buf[:, 6] = envelopes
    np.save(path, buf, allow_pickle=False)


def _write_trajectory(path: pathlib.Path, trajectory: list):
    lines = ["# " + "\t".join(TRAJECTORY_COLUMNS)]
    for row in trajectory:
        lines.append("\t".join(f"{row[c]:.12g}" for c in TRAJECTORY_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def write_outputs(result: RunResult, out_dir) -> None:
    """The files of a finished run beside the snapshots its engine streamed;
    summary.json comes last, so that it marks a complete run."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory(out / "trajectory.tsv", result.trajectory)
    (out / "config.txt").write_text(render_config(result.config))
    (out / "summary.json").write_text(render_summary(result.summary))
