"""Line-oriented run configuration: parsing, validation, canonical rendering.

Grammar: one `name = value` per line, `#` comments, blank lines ignored.
Names are `section.key` (medium, pulse, schedule, run, output, perturber)
plus the bare `engine` selector. `schedule.segment` repeats, one line per
control plateau: `t_start t_end omega_plus omega_minus [ramp]`.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ParseError, ValidationError
from .medium import (
    DEFAULT_RAMP,
    ControlSchedule,
    MediumModel,
    PulseSpec,
    Segment,
    build_medium,
    build_pulse,
    build_schedule,
)
from .perturber import PerturberSpec, build_perturber

ENGINES = ("direct", "spectral", "both")


@dataclasses.dataclass(frozen=True)
class RunSettings:
    t_end: float
    snapshot_interval: float
    dt_safety: float = 0.9
    probe_z: float | None = None


@dataclasses.dataclass(frozen=True)
class OutputSettings:
    snapshots: bool = True


@dataclasses.dataclass(frozen=True)
class RunConfig:
    medium: MediumModel
    schedule: ControlSchedule
    pulse: PulseSpec
    run: RunSettings
    output: OutputSettings
    engine: str = "both"
    perturber: PerturberSpec | None = None


_FLOAT_KEYS = {
    "medium.r_g", "medium.gamma", "medium.gamma2", "medium.u_g0",
    "medium.domain_length",
    "pulse.amplitude", "pulse.duration", "pulse.injection_time", "pulse.center",
    "schedule.phi_plus", "schedule.phi_minus",
    "run.t_end", "run.snapshot_interval", "run.dt_safety", "run.probe_z",
    "perturber.m_atoms", "perturber.z_center", "perturber.length",
    "perturber.sigma_over_s", "perturber.gamma_a", "perturber.detuning",
}
_INT_KEYS = {"medium.grid_points"}
_BOOL_KEYS = {"pulse.prepared", "output.snapshots"}
_STR_KEYS = {"engine"}
_REPEAT_KEYS = {"schedule.segment"}

_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS | _REPEAT_KEYS

_DEFAULTS = {
    "medium.r_g": 1.0, "medium.gamma": 1.0, "medium.gamma2": 0.0,
    "medium.u_g0": 1e-3, "medium.domain_length": 200.0,
    "medium.grid_points": 4096,
    "pulse.amplitude": 1.0, "pulse.duration": 2e4,
    "pulse.injection_time": 0.0, "pulse.center": 0.0, "pulse.prepared": False,
    "schedule.phi_plus": 0.0, "schedule.phi_minus": 0.0,
    "engine": "both",
    "run.dt_safety": 0.9,
    "output.snapshots": True,
}


def _parse_bool(raw: str, lineno: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ParseError(f"line {lineno}: expected a boolean, got {raw!r}")


def _parse_float(raw: str, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {lineno}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: expected a finite number, got {raw!r}")
    return value


def parse_config(text: str) -> RunConfig:
    values: dict = {}
    segments: list[Segment] = []
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'name = value', got {line!r}")
        name, raw = (part.strip() for part in line.split("=", 1))
        if not name or not raw:
            raise ParseError(f"line {lineno}: empty name or value")
        if "omega21" in name:
            raise ValidationError(
                f"line {lineno}: the two-photon detuning is fixed to zero in "
                f"this model; the key {name!r} is not configurable")
        if name not in _ALL_KEYS:
            raise ValidationError(f"line {lineno}: unknown key {name!r}")
        if name in _REPEAT_KEYS:
            parts = raw.split()
            if len(parts) not in (4, 5):
                raise ParseError(
                    f"line {lineno}: segment needs 4 or 5 numbers "
                    f"(t_start t_end omega_plus omega_minus [ramp])")
            nums = [_parse_float(p, lineno) for p in parts]
            ramp = nums[4] if len(nums) == 5 else DEFAULT_RAMP
            segments.append(Segment(nums[0], nums[1], nums[2], nums[3], ramp))
            continue
        if name in values:
            raise ValidationError(f"line {lineno}: duplicate key {name!r}")
        if name in _FLOAT_KEYS:
            values[name] = _parse_float(raw, lineno)
        elif name in _INT_KEYS:
            f = _parse_float(raw, lineno)
            if f != int(f):
                raise ParseError(f"line {lineno}: expected an integer, got {raw!r}")
            values[name] = int(f)
        elif name in _BOOL_KEYS:
            values[name] = _parse_bool(raw, lineno)
        else:
            values[name] = raw

    return _assemble(values, segments)


def _assemble(values: dict, segments: list[Segment]) -> RunConfig:
    def get(key, default=None):
        return values.get(key, _DEFAULTS.get(key, default))

    if not segments:
        raise ValidationError("config defines no schedule.segment lines")

    medium = build_medium(
        r_g=get("medium.r_g"), gamma=get("medium.gamma"),
        gamma2=get("medium.gamma2"), u_g0=get("medium.u_g0"),
        domain_length=get("medium.domain_length"),
        grid_points=get("medium.grid_points"))
    schedule = build_schedule(segments, phi_plus=get("schedule.phi_plus"),
                              phi_minus=get("schedule.phi_minus"))
    pulse = build_pulse(
        amplitude=get("pulse.amplitude"), duration=get("pulse.duration"),
        injection_time=get("pulse.injection_time"),
        prepared=get("pulse.prepared"), center=get("pulse.center"))

    engine = get("engine")
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")

    t_end = values.get("run.t_end", schedule.t_end)
    if t_end <= schedule.t_start:
        raise ValidationError(f"run.t_end = {t_end:g} precedes the schedule start")
    if t_end > schedule.t_end * (1.0 + 1e-12):
        raise ValidationError(
            f"run.t_end = {t_end:g} extends beyond the schedule end "
            f"{schedule.t_end:g}; lengthen the final segment")
    interval = values.get("run.snapshot_interval", 0.0)
    if interval <= 0.0:
        interval = (t_end - schedule.t_start) / 20.0
    probe = values.get("run.probe_z")
    if probe is not None and not 0.0 <= probe <= medium.domain_length:
        raise ValidationError(f"run.probe_z = {probe:g} outside the domain")
    dt_safety = get("run.dt_safety")
    if not 0.0 < dt_safety <= 1.0:
        raise ValidationError(f"run.dt_safety must lie in (0, 1], got {dt_safety:g}")
    run = RunSettings(t_end=float(t_end), snapshot_interval=float(interval),
                      dt_safety=float(dt_safety), probe_z=probe)

    pert_keys = [k for k in values if k.startswith("perturber.")]
    perturber = None
    if pert_keys:
        needed = {"perturber.m_atoms", "perturber.z_center", "perturber.length",
                  "perturber.sigma_over_s", "perturber.gamma_a",
                  "perturber.detuning"}
        missing = needed - set(pert_keys)
        if missing:
            raise ValidationError(
                f"incomplete perturber block, missing {sorted(missing)}")
        perturber = build_perturber(
            m_atoms=values["perturber.m_atoms"],
            z_center=values["perturber.z_center"],
            length=values["perturber.length"],
            sigma_over_s=values["perturber.sigma_over_s"],
            gamma_a=values["perturber.gamma_a"],
            detuning=values["perturber.detuning"])

    if engine == "spectral":
        if perturber is not None:
            raise ValidationError("the spectral engine cannot carry a perturber")
        if not pulse.prepared:
            raise ValidationError("the spectral engine needs a prepared pulse")
        first = schedule.segments[0]
        if t_end > first.t_end * (1.0 + 1e-12):
            raise ValidationError(
                "the spectral engine requires constant controls: run.t_end "
                "must stay within the first schedule segment")

    return RunConfig(medium=medium, schedule=schedule, pulse=pulse, run=run,
                     output=OutputSettings(snapshots=get("output.snapshots")),
                     engine=engine, perturber=perturber)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def render_config(config: RunConfig) -> str:
    """Canonical text form; parsing it reproduces the configuration."""
    m, p, s, r = config.medium, config.pulse, config.schedule, config.run
    lines = [
        f"medium.r_g = {_fmt(m.r_g)}",
        f"medium.gamma = {_fmt(m.gamma)}",
        f"medium.gamma2 = {_fmt(m.gamma2)}",
        f"medium.u_g0 = {_fmt(m.u_g0)}",
        f"medium.domain_length = {_fmt(m.domain_length)}",
        f"medium.grid_points = {m.grid_points}",
        f"pulse.amplitude = {_fmt(p.amplitude)}",
        f"pulse.duration = {_fmt(p.duration)}",
        f"pulse.injection_time = {_fmt(p.injection_time)}",
        f"pulse.prepared = {'true' if p.prepared else 'false'}",
        f"pulse.center = {_fmt(p.center)}",
    ]
    for seg in s.segments:
        lines.append("schedule.segment = "
                     f"{_fmt(seg.t_start)} {_fmt(seg.t_end)} "
                     f"{_fmt(seg.omega_plus)} {_fmt(seg.omega_minus)} "
                     f"{_fmt(seg.ramp)}")
    lines += [
        f"schedule.phi_plus = {_fmt(s.phi_plus)}",
        f"schedule.phi_minus = {_fmt(s.phi_minus)}",
        f"engine = {config.engine}",
        f"run.t_end = {_fmt(r.t_end)}",
        f"run.snapshot_interval = {_fmt(r.snapshot_interval)}",
        f"run.dt_safety = {_fmt(r.dt_safety)}",
    ]
    if r.probe_z is not None:
        lines.append(f"run.probe_z = {_fmt(r.probe_z)}")
    lines.append(f"output.snapshots = {'true' if config.output.snapshots else 'false'}")
    if config.perturber is not None:
        q = config.perturber
        lines += [
            f"perturber.m_atoms = {_fmt(q.m_atoms)}",
            f"perturber.z_center = {_fmt(q.z_center)}",
            f"perturber.length = {_fmt(q.length)}",
            f"perturber.sigma_over_s = {_fmt(q.sigma_over_s)}",
            f"perturber.gamma_a = {_fmt(q.gamma_a)}",
            f"perturber.detuning = {_fmt(q.detuning)}",
        ]
    return "\n".join(lines) + "\n"


def config_echo(config: RunConfig) -> dict:
    """Nested plain-data mirror of the configuration for run summaries."""
    out: dict = {}
    for line in render_config(config).splitlines():
        name, raw = (part.strip() for part in line.split("=", 1))
        if name == "schedule.segment":
            out.setdefault("schedule", {}).setdefault("segments", []).append(raw)
            continue
        if "." in name:
            section, key = name.split(".", 1)
            out.setdefault(section, {})[key] = raw
        else:
            out[name] = raw
    return out
