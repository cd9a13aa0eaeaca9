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
    check_grid,
    opens_stored,
    regime_windows,
)
from .perturber import PerturberSpec, build_perturber, cloud_rms

ENGINES = ("direct", "spectral", "both")


@dataclasses.dataclass(frozen=True)
class RunSettings:
    t_end: float
    snapshot_interval: float
    dt_safety: float
    probe_z: float | None

    def __post_init__(self):
        # also guards dataclasses.replace, which the CLI's override goes through
        if not (math.isfinite(self.snapshot_interval) and self.snapshot_interval > 0.0):
            raise ValidationError(
                f"run.snapshot_interval must be a positive finite time, "
                f"got {self.snapshot_interval:g}")
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValidationError(
                f"run.dt_safety must lie in (0, 1], got {self.dt_safety:g}")


@dataclasses.dataclass(frozen=True)
class OutputSettings:
    snapshots: bool


@dataclasses.dataclass(frozen=True)
class RunConfig:
    medium: MediumModel
    schedule: ControlSchedule
    pulse: PulseSpec
    run: RunSettings
    output: OutputSettings
    engine: str
    perturber: PerturberSpec | None


# Every config key in canonical order as (name, kind, default). A key's value
# lives at the attribute path its name spells (schedule.segment lines fill
# schedule.segments), and each section's keys are its builder's parameters.
# None as a default means unset: t_end and snapshot_interval are then derived
# from the schedule, probe_z and the perturber block stay absent.
KEYS = (
    ("medium.r_g", float, 1.0),
    ("medium.gamma", float, 1.0),
    ("medium.gamma2", float, 0.0),
    ("medium.u_g0", float, 1e-3),
    ("medium.domain_length", float, 200.0),
    ("medium.grid_points", int, 4096),
    ("pulse.amplitude", float, 1.0),
    ("pulse.duration", float, 2e4),
    ("pulse.injection_time", float, 0.0),
    ("pulse.prepared", bool, False),
    ("pulse.center", float, 0.0),
    ("schedule.segment", Segment, None),
    ("engine", str, "both"),
    ("run.t_end", float, None),
    ("run.snapshot_interval", float, None),
    ("run.dt_safety", float, 0.9),
    ("run.probe_z", float, None),
    ("output.snapshots", bool, True),
    ("perturber.m_atoms", float, None),
    ("perturber.z_center", float, None),
    ("perturber.length", float, None),
    ("perturber.sigma_over_s", float, None),
    ("perturber.gamma_a", float, None),
    ("perturber.detuning", float, None),
)
_KIND = {name: kind for name, kind, _ in KEYS}


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


def _parse_int(raw: str, lineno: int) -> int:
    f = _parse_float(raw, lineno)
    if f != int(f):
        raise ParseError(f"line {lineno}: expected an integer, got {raw!r}")
    return int(f)


def _parse_segment(raw: str, lineno: int) -> Segment:
    parts = raw.split()
    if len(parts) not in (4, 5):
        raise ParseError(
            f"line {lineno}: segment needs 4 or 5 numbers "
            f"(t_start t_end omega_plus omega_minus [ramp])")
    nums = [_parse_float(p, lineno) for p in parts]
    return Segment(*nums[:4], nums[4] if len(nums) == 5 else DEFAULT_RAMP)


_PARSE = {float: _parse_float, int: _parse_int, bool: _parse_bool,
          str: lambda raw, lineno: raw, Segment: _parse_segment}


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
        kind = _KIND.get(name)
        if kind is None:
            raise ValidationError(f"line {lineno}: unknown key {name!r}")
        value = _PARSE[kind](raw, lineno)
        if kind is Segment:
            segments.append(value)
        elif name in values:
            raise ValidationError(f"line {lineno}: duplicate key {name!r}")
        else:
            values[name] = value

    return _assemble(values, segments)


def _assemble(values: dict, segments: list[Segment]) -> RunConfig:
    if not segments:
        raise ValidationError("config defines no schedule.segment lines")
    sections: dict = {}
    for name, kind, default in KEYS:
        section, _, key = name.rpartition(".")
        if kind is not Segment:
            sections.setdefault(section, {})[key] = values.get(name, default)

    medium = build_medium(**sections["medium"])
    schedule = build_schedule(segments)
    # the storage timeline is walked here, once, and read from the cache after:
    # a clock rate that would overflow it or a ramp that crosses twice fails here
    regime_windows(medium, schedule)
    pulse = build_pulse(**sections["pulse"])
    check_grid(medium, pulse)

    engine = sections[""]["engine"]
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")

    run = sections["run"]
    t_end = schedule.t_end if run["t_end"] is None else run["t_end"]
    if t_end <= schedule.t_start:
        raise ValidationError(f"run.t_end = {t_end:g} precedes the schedule start")
    if t_end > schedule.t_end * (1.0 + 1e-12):
        raise ValidationError(
            f"run.t_end = {t_end:g} extends beyond the schedule end "
            f"{schedule.t_end:g}; lengthen the final segment")
    interval = run["snapshot_interval"]
    if interval is None:
        interval = (t_end - schedule.t_start) / 20.0
    probe = run["probe_z"]
    if probe is not None and not 0.0 <= probe <= medium.domain_length:
        raise ValidationError(f"run.probe_z = {probe:g} outside the domain")
    run = RunSettings(t_end=float(t_end), snapshot_interval=float(interval),
                      dt_safety=float(run["dt_safety"]), probe_z=probe)

    perturber = None
    block = sections["perturber"]
    if any(v is not None for v in block.values()):
        missing = [f"perturber.{k}" for k, v in block.items() if v is None]
        if missing:
            raise ValidationError(
                f"incomplete perturber block, missing {sorted(missing)}")
        perturber = build_perturber(**block)
        cloud_rms(medium, perturber)

    if engine == "spectral":
        if perturber is not None:
            raise ValidationError("the spectral engine cannot carry a perturber")
        if not pulse.prepared:
            raise ValidationError("the spectral engine needs a prepared pulse")
        if schedule.varies(schedule.t_start, t_end):
            raise ValidationError(
                f"the spectral engine requires constant controls, but they "
                f"change before run.t_end = {t_end:g}")
        if opens_stored(medium, schedule):
            raise ValidationError(
                "the spectral engine needs a transport-mode start, but the "
                "controls of the first schedule.segment sit below the storage "
                "threshold")

    return RunConfig(medium=medium, schedule=schedule, pulse=pulse, run=run,
                     output=OutputSettings(**sections["output"]),
                     engine=engine, perturber=perturber)


def _fmt(x: float) -> str:
    """12 significant digits where they parse back to x, else all of them."""
    short = f"{x:.12g}"
    return short if float(short) == x else repr(x)


_FORMAT = {float: _fmt, int: str, bool: lambda b: "true" if b else "false",
           str: str}


def _items(config: RunConfig):
    """(name, value text) pairs of the canonical form, in KEYS order; unset
    keys (no probe, no perturber) are left out."""
    for name, kind, _ in KEYS:
        section, _, key = name.rpartition(".")
        owner = getattr(config, section) if section else config
        if kind is Segment:
            for seg in owner.segments:
                yield name, " ".join(_fmt(v) for v in vars(seg).values())
        elif owner is not None and getattr(owner, key) is not None:
            yield name, _FORMAT[kind](getattr(owner, key))


def render_config(config: RunConfig) -> str:
    """Canonical text form; parsing it gives back an equal configuration."""
    return "".join(f"{name} = {text}\n" for name, text in _items(config))


def config_echo(config: RunConfig) -> dict:
    """Nested plain-data mirror of the configuration for run summaries."""
    out: dict = {}
    for name, text in _items(config):
        section, _, key = name.rpartition(".")
        if name == "schedule.segment":
            out.setdefault("schedule", {}).setdefault("segments", []).append(text)
        elif section:
            out.setdefault(section, {})[key] = text
        else:
            out[name] = text
    return out
