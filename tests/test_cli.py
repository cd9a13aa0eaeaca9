"""Config parsing, canonical rendering and the command line front end."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import statlight
from statlight.cli import main
from statlight.config import (ENGINES, KEYS, config_echo, parse_config,
                              render_config)
from statlight import scenario
from statlight.errors import (
    NonPhysicalParameter,
    ParseError,
    SimulationError,
    SweepDivergence,
    ThresholdChatter,
    ValidationError,
)
from statlight.integrator import RESIDUAL_TOL, FieldState
import statlight.medium as medium_module
from statlight.medium import Segment, envelope_scales, regime_windows, tau_of_t
from statlight.presets import get_preset, list_presets
from statlight.spectral import (SpectralState, fields_from_state,
                                spectral_state_from_fields)
from statlight.scenario import (MAX_POINT_STEPS, MAX_SNAPSHOT_BYTES,
                                preflight, render_summary, resource_estimate,
                                run_scenario)

OM0 = math.sqrt(1e-3)
SRC = pathlib.Path(statlight.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

# the slow-light transit of the spectral engine: its guard band is sized
# with the reconciled width (half-width 42.4); the as-printed width (78.2)
# does not fit around the start at z = 60
SPECTRAL_TRANSIT = f"""
medium.gamma2 = 0
medium.domain_length = 200
medium.grid_points = 2048
pulse.prepared = true
pulse.duration = 1e4
pulse.center = 60
schedule.segment = 0 6e4 {OM0!r} 0 50
engine = spectral
run.t_end = 6e4
run.snapshot_interval = 5000
"""

MINIMAL = f"""
# comments and blank lines are skipped

medium.gamma2 = 0
pulse.prepared = true
pulse.duration = 2e3
pulse.center = 20
medium.domain_length = 40
medium.grid_points = 1024
schedule.segment = 0 500 {OM0!r} {OM0!r} 50
engine = direct
run.t_end = 200
run.snapshot_interval = 50
"""


class TestParse:
    def test_minimal_with_defaults(self):
        config = parse_config(MINIMAL)
        assert config.medium.r_g == 1.0
        assert config.medium.gamma == 1.0
        assert config.medium.u_g0 == 1e-3
        assert config.pulse.amplitude == 1.0
        assert config.run.dt_safety == 0.9
        assert config.run.probe_z is None
        assert config.engine == "direct"
        assert config.perturber is None
        assert config.output.snapshots is True

    def test_t_end_defaults_to_schedule_end(self):
        text = MINIMAL.replace("run.t_end = 200\n", "")
        assert parse_config(text).run.t_end == 500.0

    def test_snapshot_interval_defaults_to_a_twentieth(self):
        text = MINIMAL.replace("run.snapshot_interval = 50\n", "")
        assert parse_config(text).run.snapshot_interval == 10.0

    @pytest.mark.parametrize("line,error", [
        ("medium.r_g", ParseError),               # no assignment
        ("medium.r_g = ", ParseError),            # empty value
        ("medium.r_g = fast", ParseError),        # not a number
        ("medium.grid_points = 12.5", ParseError),
        ("pulse.prepared = maybe", ParseError),
        ("schedule.segment = 1 2 3", ParseError),  # wrong arity
        ("medium.bogus = 1", ValidationError),
        ("omega21 = 0.1", ValidationError),        # fixed by the model
        ("engine = warp", ValidationError),
        ("run.probe_z = 500", ValidationError),
        ("run.dt_safety = 0", ValidationError),
        ("run.snapshot_interval = 0", ValidationError),
        ("run.snapshot_interval = -50", ValidationError),
        ("run.t_end = 900", ValidationError),      # beyond the schedule
        ("perturber.m_atoms = 5", ValidationError),  # incomplete block
    ])
    def test_rejects_bad_input(self, line, error):
        key = line.split("=", 1)[0].strip()
        # drop any existing assignment of the same key first
        kept = [l for l in MINIMAL.splitlines()
                if not l.strip().startswith(key)]
        with pytest.raises(error):
            parse_config("\n".join(kept) + "\n" + line + "\n")

    def test_error_carries_line_number(self):
        bad = "medium.r_g = 1\nmedium.gamma = quick\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_config(bad + MINIMAL)

    @pytest.mark.parametrize("line", [
        "schedule.segment = 0 8e4 nan 0 50",
        "pulse.center = nan",
        "medium.r_g = -inf",
    ])
    def test_non_finite_number_rejected(self, line):
        lineno = len(MINIMAL.splitlines()) + 1
        with pytest.raises(ParseError, match=f"line {lineno}: expected a finite"):
            parse_config(MINIMAL + line + "\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config(MINIMAL + "medium.gamma2 = 1e-4\n")

    def test_no_schedule_rejected(self):
        text = "\n".join(l for l in MINIMAL.splitlines()
                         if not l.startswith("schedule.segment"))
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_physical_guards_propagate(self):
        with pytest.raises(NonPhysicalParameter):
            parse_config(MINIMAL.replace(
                f"schedule.segment = 0 500 {OM0!r} {OM0!r} 50",
                f"schedule.segment = 0 500 -1 {OM0!r} 50"))

    @pytest.mark.parametrize("guard", [
        "engine = spectral\npulse.prepared = true",  # injected via override
    ])
    def test_spectral_engine_needs_prepared_pulse(self, guard):
        text = MINIMAL.replace("engine = direct", "engine = spectral")
        text = text.replace("pulse.prepared = true", "pulse.prepared = false")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_spectral_engine_needs_constant_controls(self):
        text = MINIMAL.replace("engine = direct", "engine = spectral")
        text = text.replace(f"schedule.segment = 0 500 {OM0!r} {OM0!r} 50",
                            f"schedule.segment = 0 100 {OM0!r} 0 50\n"
                            f"schedule.segment = 100 500 {OM0!r} {OM0!r} 50")
        with pytest.raises(ValidationError, match="change before run.t_end = 200"):
            parse_config(text)
        # the controls are still those of the first segment at t = 100
        parse_config(text.replace("run.t_end = 200", "run.t_end = 100"))

    def test_spectral_engine_rejects_perturber(self):
        text = MINIMAL.replace("engine = direct", "engine = spectral")
        text += ("perturber.m_atoms = 5\nperturber.z_center = 10\n"
                 "perturber.length = 2\nperturber.sigma_over_s = 1\n"
                 "perturber.gamma_a = 0.5\nperturber.detuning = 10\n")
        with pytest.raises(ValidationError):
            parse_config(text)


class TestRender:
    def test_round_trip_is_fixed_point(self):
        config = parse_config(MINIMAL)
        text = render_config(config)
        again = render_config(parse_config(text))
        assert text == again

    def test_round_trip_with_perturber_and_probe(self):
        text = MINIMAL + (
            "run.probe_z = 15\n"
            "perturber.m_atoms = 5\nperturber.z_center = 10\n"
            "perturber.length = 2\nperturber.sigma_over_s = 1\n"
            "perturber.gamma_a = 0.5\nperturber.detuning = 10\n")
        config = parse_config(text)
        assert config.perturber is not None
        assert config.run.probe_z == 15.0
        rendered = render_config(config)
        assert render_config(parse_config(rendered)) == rendered
        assert "perturber.detuning = 10" in rendered

    def test_config_echo_is_nested_strings(self):
        echo = config_echo(parse_config(MINIMAL))
        assert echo["medium"]["r_g"] == "1"
        assert echo["engine"] == "direct"
        assert isinstance(echo["schedule"], dict)

    def test_twelve_digits_only_where_exact(self):
        text = render_config(parse_config(MINIMAL))
        assert "medium.u_g0 = 0.001\n" in text
        assert f"schedule.segment = 0 500 {OM0!r} {OM0!r} 50\n" in text

    @pytest.mark.parametrize("name", [name for name, _ in list_presets()])
    def test_presets_round_trip_exactly(self, name):
        config = parse_config(get_preset(name))
        assert parse_config(render_config(config)) == config

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, data):
        # every key of a base config redrawn by kind: floats scaled by a
        # full-precision factor, which 12 digits cannot carry, and the grid
        # size by a factor of 1 to 2, since parsing refuses a coarser grid
        base = data.draw(st.sampled_from(
            [get_preset(name) for name, _ in list_presets()] + [MINIMAL]))
        kinds = {name: kind for name, kind, _ in KEYS}
        lines = []
        for line in render_config(parse_config(base)).splitlines():
            name, text = line.split(" = ")
            kind = kinds[name]
            if kind is float:
                text = repr(float(text) * data.draw(st.floats(0.5, 1.0)))
            elif kind is Segment:
                nums = [float(x) for x in text.split()]
                for i in (2, 3, 4):
                    nums[i] *= data.draw(st.floats(0.5, 1.0))
                text = " ".join(map(repr, nums))
            elif kind is int:
                text = str(data.draw(st.integers(int(text), 2 * int(text))))
            elif kind is bool:
                text = data.draw(st.sampled_from(["true", "false"]))
            else:
                text = data.draw(st.sampled_from(ENGINES))
            lines.append(f"{name} = {text}")
        try:
            config = parse_config("\n".join(lines))
        except SimulationError:
            reject()
        assert parse_config(render_config(config)) == config

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_values_fail_as_simulation_errors(self, data):
        try:
            parse_config(_fuzzed_config(data))
        except SimulationError:
            pass

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_values_fail_check_as_simulation_errors(self, data):
        # parse, build and preflight, with no simulation: main turns a
        # SimulationError into exit 2 and lets any other exception through
        text = _fuzzed_config(data)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "scenario.cfg"
            cfg.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["run", str(cfg), "--check"])
        assert code in (0, 2)


def _fuzzed_config(data) -> str:
    """A preset with one to four keys replaced by arbitrary values."""
    text = data.draw(st.sampled_from(
        [get_preset(name) for name, _ in list_presets()]))
    value = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-10 ** 20, 10 ** 20).map(str),
        st.sampled_from(["true", "no", "maybe", "", "1e400", "-0", "0x10",
                         "1 2 3", "0 2e4 0.03 0.03 50", "0 1 2 3 4 5",
                         "both", "spectral", "=", "#", "1e-3", "30"]),
        st.text(max_size=12))
    for _ in range(data.draw(st.integers(1, 4))):
        name = data.draw(st.sampled_from([n for n, _, _ in KEYS]))
        if name != "schedule.segment" or data.draw(st.booleans()):
            text = "\n".join(l for l in text.splitlines()
                             if not l.startswith(name + " "))
        text += f"\n{name} = {data.draw(value)}\n"
    return text


class TestCli:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("slow_light", "stationary", "stop_and_store",
                     "push_pull", "conversion", "phase_gate"):
            assert name in out

    def test_check_mode(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        assert main(["run", str(cfg), "--check"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("config ok")
        assert "medium.grid_points = 1024" in out

    def test_check_rejects_non_dispersive_perturber(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL + (
            "perturber.m_atoms = 5\nperturber.z_center = 10\n"
            "perturber.length = 2\nperturber.sigma_over_s = 1\n"
            "perturber.gamma_a = 0.5\nperturber.detuning = 0.4\n"))
        assert main(["run", str(cfg), "--check"]) == 2
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert "must exceed the linewidth" in captured.err

    def test_exactly_one_source_required(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "file.cfg", "--preset", "stationary"]) == 2

    def test_unknown_preset_fails_cleanly(self, capsys):
        assert main(["run", "--preset", "warp_drive"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_config_that_is_not_utf8_fails_cleanly(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"medium.r_g = 1\xff\n")
        proc = subprocess.run(
            [sys.executable, "-m", "statlight", "run", str(cfg), "--check"],
            capture_output=True, text=True, timeout=120, env=_src_env())
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {cfg}: not UTF-8 text")

    def test_config_behind_a_byte_order_mark_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + get_preset("stationary").encode())
        assert main(["run", str(cfg), "--check"]) == 0
        assert capsys.readouterr().out.startswith("config ok")

    @pytest.mark.parametrize("key", ["schedule.phi_plus", "schedule.phi_minus"])
    def test_control_phase_keys_are_unknown(self, tmp_path, capsys, key):
        # the model normalises the control phases out of transport
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL + f"{key} = 0.7\n")
        assert main(["run", str(cfg), "--check"]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "summary.json").is_file()
        assert (out_dir / "trajectory.tsv").is_file()
        assert (out_dir / "config.txt").is_file()
        snaps = sorted(out_dir.glob("snap_*.npy"))
        assert len(snaps) == 5  # t = 0, 50, 100, 150, 200
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["derived"]["final_mode"] == "pde"
        trajectory = (out_dir / "trajectory.tsv").read_text().splitlines()
        assert trajectory[0].startswith("# t\ttau\tmode")

    def test_spectral_transit_fits_reconciled_guard_band(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(SPECTRAL_TRANSIT)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        velocity = summary["measurements"]["velocity"]["measured"]
        assert velocity == pytest.approx(1e-3, rel=1e-3)

    def test_snapshot_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out_dir),
                     "--snapshot-every", "100"]) == 0
        assert len(sorted(out_dir.glob("snap_*.npy"))) == 3


def test_velocity_r2_is_null_only_below_the_centroid_resolution(preset_run):
    """The stationary hold's centroid moves by round-off alone, far below the
    RESIDUAL_TOL N dz resolution, so its line fit reports no r2; a transit
    keeps it."""
    hold = preset_run("stationary")
    vel = hold.summary["measurements"]["velocity"]
    moved = abs(vel["measured"]) * (vel["window"][1] - vel["window"][0])
    assert moved < RESIDUAL_TOL * hold.config.medium.domain_length
    assert vel["r2"] is None
    transit = preset_run("slow_light").summary["measurements"]["velocity"]
    assert transit["r2"] > 0.999


def test_oracle_refusal_stops_scoring(monkeypatch):
    """A hold on the backward control alone: its channel is the one scored,
    but the envelope's normalization needs the forward control on at the
    start, so the oracle refuses the fit window's first snapshot, no later
    one is scored, and the summary says why."""
    calls = []

    def counting(*args):
        calls.append(args[2])
        return compare(*args)

    compare = scenario.compare_to_oracle
    monkeypatch.setattr(scenario, "compare_to_oracle", counting)
    result = run_scenario(parse_config(_stationary(**{
        "medium.gamma2": "1e-5", "schedule.segment": f"0 1e4 0 {OM0!r} 50",
        "engine": "direct"})))
    assert calls == [0.0]
    meas = result.summary["measurements"]
    assert meas["oracle"] is None and meas["velocity"] is not None
    assert result.summary["warnings"] == [
        "oracle comparison skipped: envelope normalization needs the forward "
        "control on at start"]


PREPARED = [name for name, _ in list_presets()
            if parse_config(get_preset(name)).pulse.prepared]


@pytest.mark.parametrize("name", PREPARED)
def test_every_preset_with_a_prepared_pulse_is_scored(name, preset_run):
    """The oracle integrates over the transport windows only, so a preset
    whose pulse is stored and retrieved (stop_and_store) is scored like
    the rest: each preset with a prepared pulse has a fit window, an oracle
    block over it, and no warning that the comparison was skipped."""
    result = preset_run(name)
    assert scenario._fit_window(result.config) is not None
    block = result.summary["measurements"]["oracle"]
    assert block is not None and len(block["times"]) >= 2
    assert not [w for w in result.summary["warnings"] if w.startswith("oracle")]


STORED = """
medium.gamma2 = 1e-5
medium.domain_length = 120
medium.grid_points = 1024
pulse.prepared = true
pulse.duration = 1e4
pulse.center = 70
engine = direct
run.snapshot_interval = 1000
"""


@pytest.mark.parametrize("segments,windows,final", [
    (["0 3000 0 0 50"], lambda c: [[0.0, None]], "storage"),
    ([f"0 500 {OM0!r} 0 50", "500 3000 0 0 50"], lambda c: [[c[0], None]],
     "storage"),
    # the forward control alone clears the release threshold 1.2 * 10 gamma gamma2
    (["0 500 0 0 50", f"500 3000 {OM0!r} 0 50"], lambda c: [[0.0, c[0]]], "pde"),
], ids=["opens_stored", "ends_stored", "opens_stored_then_released"])
def test_storage_windows_at_the_ends_of_a_run(segments, windows, final):
    text = STORED + "".join(f"schedule.segment = {seg}\n" for seg in segments)
    result = run_scenario(parse_config(text))
    crossings = [t for t, _ in result.summary["crossings"]]
    assert result.summary["storage_windows"] == windows(crossings)
    assert result.summary["derived"]["final_mode"] == final
    assert result.trajectory[-1]["mode"] == (1.0 if final == "storage" else 0.0)


# stop_and_store ending 3e-9 past its storage crossing, which lies within
# `_tol` (5.3e-7 here) of the end and so is no event of the run
ENDS_AT_THE_OFF_CROSSING = get_preset("stop_and_store").replace(
    "run.t_end = 2.6e4", "run.t_end = 531.25634653")


def test_a_crossing_within_tol_of_the_end_is_not_the_runs(run_text):
    config = parse_config(ENDS_AT_THE_OFF_CROSSING)
    _, (t_off, _, stored), _ = regime_windows(config.medium, config.schedule)
    assert not stored
    assert 0.0 < config.run.t_end - t_off < scenario._tol(config)
    summary = run_text(ENDS_AT_THE_OFF_CROSSING).summary
    assert summary["crossings"] == [] and summary["storage_windows"] == []


def test_the_final_mode_is_the_last_rows(run_text):
    result = run_text(ENDS_AT_THE_OFF_CROSSING)
    final = result.summary["derived"]["final_mode"]
    assert final == "pde"
    assert result.trajectory[-1]["mode"] == (1.0 if final == "storage" else 0.0)


def test_a_run_reads_its_storage_timeline_from_the_cache(monkeypatch):
    """After parse, a whole run walks the storage timeline zero times: its
    events, budget, summary and every oracle call read the cached windows."""
    config = parse_config(get_preset("stop_and_store"))
    misses = regime_windows.cache_info().misses
    calls, check = [], medium_module.check_clock_rate
    monkeypatch.setattr(medium_module, "check_clock_rate",
                        lambda *args: calls.append(args) or check(*args))
    result = run_scenario(config)
    assert result.summary["measurements"]["oracle"] is not None
    assert calls == [] and regime_windows.cache_info().misses == misses


THETA = 1e-4  # the storage threshold 10 gamma gamma2 of STORED


@given(release=st.sampled_from([(0.0, OM0), (OM0, 0.0), None]),
       hold=st.sampled_from([0.0, 0.5 * THETA, 1.1 * THETA]),
       ramp=st.sampled_from([1e-300, 1e-13, 1e-11, 3e-11, 1e-5, 1e-3, 1.0, 50.0]),
       end=st.sampled_from([None, -1e-7, 3e-9, 1e-6, 200.0]))
@settings(max_examples=48, deadline=None, derandomize=True)
def test_a_stored_run_reports_the_modes_it_took(release, hold, ramp, end):
    """Store and release as stop_and_store does, with the hold power off,
    below the storage threshold or inside the hysteresis band, over ramps
    down to the ones too short to step, and a run end `end` past the
    storage crossing (None: the schedule end). A config that `--check`
    accepts runs, its final mode is its last row's, and each row is stored
    exactly when a storage window of the summary holds its t."""
    segments = [f"0 500 {OM0!r} 0 50", f"500 3000 {math.sqrt(hold)!r} 0 {ramp!r}"]
    if release is not None:
        segments.append(f"3000 4000 {release[0]!r} {release[1]!r} {ramp!r}")
    text = STORED + "output.snapshots = false\n" + "".join(
        f"schedule.segment = {seg}\n" for seg in segments)
    with contextlib.suppress(SimulationError):
        config = parse_config(text)
        off = [lo for lo, _, transport in regime_windows(
            config.medium, config.schedule) if not transport]
        if end is not None and off:
            text += f"run.t_end = {off[0] + end!r}\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = pathlib.Path(tmp) / "scenario.cfg", pathlib.Path(tmp) / "out"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            checked = main(["run", str(cfg), "--check"])
            ran = main(["run", str(cfg), "--out-dir", str(out)])
        assert checked in (0, 2) and ran == checked
        if checked:
            assert not out.exists()
            return
        summary = json.loads((out / "summary.json").read_text())
        rows = np.loadtxt(out / "trajectory.tsv", ndmin=2)
    t_col, mode_col = (scenario.TRAJECTORY_COLUMNS.index(c) for c in ("t", "mode"))
    final = summary["derived"]["final_mode"]
    assert rows[-1, mode_col] == (1.0 if final == "storage" else 0.0)
    for t, mode in rows[:, [t_col, mode_col]]:
        stored = any(lo <= t < (math.inf if hi is None else hi)
                     for lo, hi in summary["storage_windows"])
        assert mode == (1.0 if stored else 0.0)
    assert [t for t, _ in summary["crossings"]] == sorted(
        [lo for lo, _ in summary["storage_windows"]]
        + [hi for _, hi in summary["storage_windows"] if hi is not None])


def test_snapshot_next_to_a_ramp_end_moves_onto_the_plateau():
    """A grid snapshot just short of the ramp end that opens the fit window
    is taken at the ramp end, where the cross-engine replay can start."""
    interval = (150.0 - 1e-7) / 3.0  # the third snapshot lies 1e-7 early
    text = MINIMAL.replace(
        f"schedule.segment = 0 500 {OM0!r} {OM0!r} 50",
        f"schedule.segment = 0 100 {OM0!r} 0 50\n"
        f"schedule.segment = 100 500 {OM0!r} {OM0!r} 50")
    text = text.replace("engine = direct", "engine = both").replace(
        "run.t_end = 200", "run.t_end = 380").replace(
        "run.snapshot_interval = 50", f"run.snapshot_interval = {interval!r}")
    config = parse_config(text)
    assert scenario._fit_window(config) == (150.0, 380.0)
    times = [ev.t for ev in scenario._build_events(config) if ev.snap]
    assert 150.0 in times and 3 * interval not in times
    cross = run_scenario(config).summary["measurements"]["cross_engine"]
    assert cross["window"] == [150.0, 380.0] and cross["steps"] == 5


def test_cross_engine_replay_is_one_exact_step(monkeypatch):
    """One `propagate` spans the fit window, and its l2 is that of a replay
    stepped through every snapshot time of the window."""
    config = parse_config(get_preset("stationary"))
    med, sched = config.medium, config.schedule
    fit = scenario._run_direct(config).fit
    times = [row["t"] for row in fit.rows]
    primary = scenario.EngineRun([], [], fit)
    calls, propagate = [], scenario.propagate
    monkeypatch.setattr(scenario, "propagate",
                        lambda state, schedule, t: calls.append(t)
                        or propagate(state, schedule, t))
    cross, warnings = scenario._cross_engine(config, primary)
    assert warnings == [] and calls == [times[-1]]
    assert cross["steps"] == len(times) - 1 > 1
    first, last = fit.first, fit.last
    stepped = spectral_state_from_fields(med, first.psi_plus, t=first.t)
    for t in times[1:]:
        propagate(stepped, sched, t)
    pp, pm = fields_from_state(stepped)
    l2 = math.sqrt((np.linalg.norm(pp - last.psi_plus) ** 2
                    + np.linalg.norm(pm - last.psi_minus) ** 2)
                   / (np.linalg.norm(last.psi_plus) ** 2
                      + np.linalg.norm(last.psi_minus) ** 2))
    assert abs(cross["l2"] - l2) <= 1e-12 * l2


def _preset_with(name: str, **changes) -> str:
    """A preset's text with some keys set to other values."""
    text = get_preset(name)
    for key, value in changes.items():
        lines = [l for l in text.splitlines() if not l.startswith(key + " ")]
        text = "\n".join(lines) + f"\n{key} = {value}\n"
    return text


def _stationary(**changes) -> str:
    return _preset_with("stationary", **changes)


def _short_ramps(ramp: str) -> dict:
    """Changes to the stationary preset that store its pulse for
    [1000, 2000] and take both controls off and back over `ramp`."""
    return {"medium.gamma2": "1e-5", "engine": "direct", "run.t_end": "3000",
            "run.snapshot_interval": "150",
            "schedule.segment": f"0 1000 0.03 0.03\n"
                                f"schedule.segment = 1000 2000 0 0 {ramp}\n"
                                f"schedule.segment = 2000 3000 0.03 0.03 {ramp}"}


class TestPreflight:
    def test_estimate_is_arithmetic(self):
        config = parse_config(_stationary(**{"medium.grid_points": "1e9",
                                             "run.snapshot_interval": "1e-3"}))
        tracemalloc.start()
        steps, held = resource_estimate(config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 ** 20
        # balanced hold: v = 0, so the one-cell cap comes from dtau/dt
        rate = 2e-3 + 1e-4
        cap = (200.0 / 1e9) / rate * 0.9
        assert 0 <= steps - 1e4 / cap < 1.0 + 1e-6 * steps
        # t = 0 and 1e4, the fit window's two ends, 1e7 - 1 in between;
        # three arrays per snapshot, of 8-byte values in a direct run
        # without a perturber (stationary runs both engines, direct first)
        assert held == pytest.approx((1e7 + 3) * 1e9 * 3 * 8, rel=1e-9)

    def test_perturber_keeps_the_steps_and_doubles_the_bytes(self):
        # one run either way; the bytes double because the perturbed run's
        # fields are complex, 16 bytes a value against 8
        config = parse_config(get_preset("phase_gate"))
        steps, held = resource_estimate(config)
        alone = resource_estimate(dataclasses.replace(config, perturber=None))
        assert (steps, held) == (alone[0], 2 * alone[1])

    def test_snapshot_budget_names_the_key(self):
        config = parse_config(_stationary(**{"run.snapshot_interval": "1e-3"}))
        assert resource_estimate(config)[1] > MAX_SNAPSHOT_BYTES
        with pytest.raises(ValidationError, match="run.snapshot_interval"):
            preflight(config)

    def test_snapshot_bytes_follow_the_engine(self):
        # 8,003 snapshots of 4096 points: the 8-byte values of a direct run
        # fit the budget, the 16-byte complex values of a spectral run do not
        config = parse_config(_stationary(**{"run.snapshot_interval": "1.25"}))
        assert resource_estimate(config)[1] == 8003 * 4096 * 3 * 8
        preflight(config)
        spectral = parse_config(_stationary(**{"run.snapshot_interval": "1.25",
                                               "engine": "spectral"}))
        assert resource_estimate(spectral)[1] == 8003 * 4096 * 3 * 16
        with pytest.raises(ValidationError, match="run.snapshot_interval"):
            preflight(spectral)

    def test_step_budget_names_the_key(self):
        config = parse_config(_stationary(**{"medium.grid_points": "1e7",
                                             "run.snapshot_interval": "1e4"}))
        steps, held = resource_estimate(config)
        assert held <= MAX_SNAPSHOT_BYTES < 2 * held
        assert steps * 10_000_000 > MAX_POINT_STEPS
        with pytest.raises(ValidationError, match="medium.grid_points .* steps"):
            preflight(config)

    def test_step_budget_counts_grid_points(self):
        # fewer steps than the default grid may take, each on 100x the points
        config = parse_config(_stationary(**{"medium.grid_points": "400000",
                                             "run.snapshot_interval": "5000"}))
        steps, held = resource_estimate(config)
        assert steps == 46_667
        assert held <= MAX_SNAPSHOT_BYTES
        assert steps * 4096 <= MAX_POINT_STEPS < steps * 400_000
        with pytest.raises(ValidationError, match="medium.grid_points = 400000"):
            preflight(config)

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_check_refuses_bad_snapshot_override(self, capsys, value):
        assert main(["run", "--preset", "stationary", "--check",
                     f"--snapshot-every={value}"]) == 2
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert "run.snapshot_interval" in captured.err

    def test_replaced_snapshot_interval_is_validated(self):
        # the override goes through dataclasses.replace; a negative interval
        # that got past it would grow the snapshot-time list without bound
        run = parse_config(get_preset("stop_and_store")).run
        with pytest.raises(ValidationError, match="run.snapshot_interval"):
            dataclasses.replace(run, snapshot_interval=-5.0)

    @pytest.mark.parametrize("key,value", [("medium.grid_points", "1e9"),
                                           ("run.snapshot_interval", "1e-3")])
    def test_check_refuses_over_budget(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_stationary(**{key: value}))
        assert main(["run", str(cfg), "--check"]) == 2
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert key in captured.err

    @pytest.mark.parametrize("key,value", [("medium.grid_points", "1e10"),
                                           ("run.snapshot_interval", "1e-3")])
    def test_run_refuses_over_budget_before_any_work(self, tmp_path, capsys,
                                                     key, value):
        # the run's snapshot buffer is sized by medium.grid_points: a run the
        # budget refuses makes neither it nor the out-dir
        cfg, out = tmp_path / "scenario.cfg", tmp_path / "out"
        cfg.write_text(_stationary(**{key: value}))
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,named", [
        ("medium.r_g", "1e200", "medium.r_g"),
        ("medium.r_g", "1e-200", "medium.r_g"),
        ("schedule.segment", f"0 1e4 1e200 {OM0!r} 50", "schedule.segment"),
        ("medium.domain_length", "1e-310", "medium.domain_length"),
        ("run.dt_safety", "1e-320", "run.dt_safety"),
        ("medium.gamma", "1e-200", "medium.gamma"),
    ])
    def test_check_refuses_extreme_finite_values(self, tmp_path, capsys, key,
                                                 value, named):
        # each once escaped as a raw OverflowError or ZeroDivisionError
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_stationary(**{key: value}))
        assert main(["run", str(cfg), "--check"]) == 2
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert named in captured.err

    @pytest.mark.parametrize("name,key,value,named", [
        ("stationary", "medium.gamma", "-1", "medium.gamma must"),
        ("stationary", "medium.gamma2", "-1e-4", "medium.gamma2"),
        ("stationary", "medium.u_g0", "2", "medium.u_g0"),
        ("stationary", "medium.domain_length", "-200", "medium.domain_length"),
        ("stationary", "medium.grid_points", "8", "medium.grid_points"),
        ("stationary", "pulse.amplitude", "0", "pulse.amplitude"),
        ("stationary", "pulse.duration", "-2e4", "pulse.duration"),
        ("phase_gate", "perturber.m_atoms", "0", "perturber.m_atoms"),
        ("phase_gate", "perturber.length", "0", "perturber.length"),
        ("phase_gate", "perturber.sigma_over_s", "0", "perturber.sigma_over_s"),
        ("phase_gate", "perturber.gamma_a", "0", "perturber.gamma_a"),
        ("phase_gate", "perturber.detuning", "0.2", "perturber.detuning"),
        ("stationary", "schedule.segment",
         f"0 1e4 {OM0!r} {OM0!r} 50\nschedule.segment = 1e4 5e3 {OM0!r} 0 50",
         "schedule.segment 2"),
        ("stationary", "schedule.segment",
         f"0 5e3 {OM0!r} {OM0!r} 50\nschedule.segment = 5e3 1e4 {OM0!r} -0.01 50",
         "schedule.segment 2"),
        ("stationary", "schedule.segment",
         f"0 5e3 {OM0!r} {OM0!r} 50\nschedule.segment = 5e3 1e4 1e200 {OM0!r} 50",
         "schedule.segment 2"),
        ("stationary", "schedule.segment",
         f"0 5e3 {OM0!r} {OM0!r} 50\nschedule.segment = 5e3 1e4 {OM0!r} 0 0",
         "schedule.segment 2"),
        ("stationary", "schedule.segment",
         f"0 5e3 {OM0!r} {OM0!r} 50\nschedule.segment = 5e3 1e4 {OM0!r} 0 6e3",
         "schedule.segment 2"),
        ("stationary", "schedule.segment",
         f"0 5e3 {OM0!r} {OM0!r} 50\nschedule.segment = 6e3 1e4 {OM0!r} 0 50",
         "schedule.segment 2"),
    ], ids=["gamma", "gamma2", "u_g0", "domain_length", "grid_points",
            "amplitude", "duration", "m_atoms", "length", "sigma_over_s",
            "gamma_a", "detuning", "segment-length", "segment-negative-control",
            "segment-huge-control", "segment-zero-ramp", "segment-long-ramp",
            "segment-gap"])
    def test_check_refusal_names_its_key(self, tmp_path, capsys, name, key,
                                         value, named):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_preset_with(name, **{key: value}))
        assert main(["run", str(cfg), "--check"]) == 2
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert named in captured.err

    @pytest.mark.parametrize("value", ["1e-200", "1e-310"])
    def test_check_refuses_tiny_gamma_before_ramp_crossings(self, tmp_path,
                                                            capsys, value):
        # the clock rate scales as 1/gamma, and the storage threshold crossings
        # on stop_and_store's ramps square it
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_preset_with("stop_and_store", **{"medium.gamma": value}))
        assert main(["run", str(cfg), "--check"]) == 2
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert "medium.gamma" in captured.err

    @pytest.mark.parametrize("name,changes,named", [
        ("stationary", {"medium.grid_points": "512"}, "medium.grid_points"),
        ("stationary", {"pulse.center": "500"}, "pulse.center"),
        ("phase_gate", {"perturber.z_center": "5"}, "perturber.z_center"),
        ("stationary", {"schedule.segment": "0 1e4 1e-4 0 50",
                        "engine": "spectral"}, "schedule.segment"),
        # the guard band of 89.4 does not fit around the start at z = 30.6
        ("stationary", {"engine": "spectral", "pulse.center": "30"},
         "pulse.center"),
        # a held pulse of l_o = 37.2 already has 4.8e-4 of its energy in the
        # sponges of the direct engine at t = 0
        ("stationary", {"medium.r_g": "1.23", "medium.gamma2": "0",
                        "medium.u_g0": "0.00124", "pulse.duration": "30000",
                        "schedule.segment": "0 10000 0.02742 0.02696 50"},
         "pulse.duration pulse.center medium.domain_length"),
        # ramps too short to step, which the schedule takes for jumps
        *[("stationary", _short_ramps(ramp), "schedule.segment 2")
          for ramp in ("1e-300", "1e-13", "1e-11")],
        # a ramp the schedule takes, whose step before the "off" crossing
        # (dtau 4.8e-17 at gamma2 = 0) has a matrix that swaps rows
        ("stationary", {**_short_ramps("1e-5"), "medium.gamma2": "0"},
         "schedule.segment 2"),
        # the "off" crossing at t = 1.29e-6 lies within the event tolerance
        # 3e-6 of the start, so the run would step transport through storage
        ("stationary", {"medium.gamma2": "1e-5", "engine": "direct",
                        "run.t_end": "3000", "run.snapshot_interval": "150",
                        "schedule.segment": "0 1e-10 0.0100000000000005 0 1e-11\n"
                                            "schedule.segment = 1e-10 2000 0 0 10\n"
                                            "schedule.segment = 2000 3000 0.03 0 50"},
         "schedule.segment 1"),
        # a pulse injected under balanced controls stays in the inflow
        # sponge it enters through
        ("stationary", {"pulse.prepared": "false", "pulse.injection_time": "0"},
         "pulse.injection_time schedule.segment 1"),
    ], ids=["coarse-grid", "center-off-domain", "perturber-off-grid",
            "spectral-opens-stored", "spectral-guard-band", "direct-sponges",
            "ramp-1e-300", "ramp-1e-13", "ramp-1e-11", "ramp-1e-5-gamma2-0",
            "crossing-at-start", "injected-and-held"])
    def test_check_refuses_what_a_run_refuses_before_its_first_step(
            self, tmp_path, capsys, name, changes, named):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_preset_with(name, **changes))
        out = tmp_path / "out"
        for check in (["--check"], []):
            assert main(["run", str(cfg), "--out-dir", str(out), *check]) == 2
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert all(key in captured.err for key in named.split())
            assert not out.exists()

    def test_a_ramp_the_engine_can_step_runs_at_gamma2_0(self, tmp_path, capsys):
        """Ten times the ramp refused above: its steps next to the two
        crossings factor, and the run stores and releases the pulse."""
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(_stationary(**{**_short_ramps("1e-4"), "medium.gamma2": "0",
                                      "output.snapshots": "false"}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--check"]) == 0
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert [kind for _, kind in summary["crossings"]] == ["off", "on"]

    def test_a_spectral_run_builds_its_start_once(self, monkeypatch):
        """The run's own first record is the one its preflight checks."""
        calls, init_state = [], scenario.init_state
        monkeypatch.setattr(scenario, "init_state",
                            lambda *args: calls.append(1) or init_state(*args))
        run_scenario(parse_config(_stationary(engine="spectral")))
        assert len(calls) == 1

    def test_a_ramp_that_crosses_twice_is_refused_at_parse(self):
        # (omega, 0) -> (0, omega) dips below the storage threshold and
        # recovers within one ramp; omega^2 = 1.5 * 10 gamma gamma2
        omega = math.sqrt(1.5e-4)
        text = (f"medium.gamma2 = 1e-5\n"
                f"schedule.segment = 0 500 {omega!r} 0 50\n"
                f"schedule.segment = 500 1000 0 {omega!r} 200\n")
        with pytest.raises(ThresholdChatter, match="2 times"):
            parse_config(text)

    def test_presets_and_benchmark_configs_pass(self):
        texts = [get_preset(name) for name, _ in list_presets()]
        sys.path.insert(0, str(PERFBENCH))
        try:
            from workloads import WORKLOADS
        finally:
            sys.path.remove(str(PERFBENCH))
        texts += [WORKLOADS[name].config_text(1)
                  for name in ("transit", "hold_dense", "gate")]
        for text in texts:
            preflight(parse_config(text))


    # Over the 20 holds, the 10 runs whose sponges never held 1e-5 of the
    # energy replayed to an l2 of 7.2e-4 to 2.7e-3; the six that held
    # 2.0e-5 to 6.2e-4 replayed to 4.5e-3 to 3.8e-2, about the square root
    # of the energy the sponges took, which the spectral replay keeps.
    SPONGE_CLEAR = 1e-5
    REPLAY_L2_CLEAR = 5e-3

    @given(r_g=st.sampled_from([0.5, 1.0, 1.23, 1.6]),
           u_g0=st.sampled_from([1e-3, 1.24e-3, 1.5e-3]),
           gamma2=st.sampled_from([0.0, 1e-5, 1e-4]),
           forward=st.sampled_from([0.5, 0.508, 0.55, 0.75, 1.0]),
           duration=st.sampled_from([1e4, 2e4, 3e4]))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_a_checked_hold_writes_its_first_record(self, r_g, u_g0, gamma2,
                                                    forward, duration):
        """Constant controls of total power 1.48e-3, split between the
        channels: a config that `--check` accepts is not refused before its
        first record is written, and neither command raises. A run that
        finishes with its pulse clear of the sponges matches its spectral
        replay to REPLAY_L2_CLEAR."""
        power = 1.48e-3
        text = _stationary(**{
            "medium.r_g": repr(r_g), "medium.u_g0": repr(u_g0),
            "medium.gamma2": repr(gamma2), "pulse.duration": repr(duration),
            "schedule.segment": f"0 1e4 {math.sqrt(power * forward)!r} "
                                f"{math.sqrt(power * (1.0 - forward))!r} 50",
            "run.snapshot_interval": "2500"})
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = pathlib.Path(tmp) / "scenario.cfg", pathlib.Path(tmp) / "out"
            cfg.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                checked = main(["run", str(cfg), "--check"])
                ran = main(["run", str(cfg), "--out-dir", str(out)])
            assert checked in (0, 2) and ran in (0, 2)
            if checked == 0:
                assert (out / "snap_00000.npy").exists()
            if ran == 0:
                summary = json.loads((out / "summary.json").read_text())
                if summary["sponge_max_fraction"] < self.SPONGE_CLEAR:
                    cross = summary["measurements"]["cross_engine"]
                    assert cross["l2"] <= self.REPLAY_L2_CLEAR

class TestPerturbedRun:
    """A perturbed config runs the direct engine once, and its probe phase
    is that of its own probe values."""

    @staticmethod
    def counted_run(monkeypatch, config):
        """(the result, `_run_direct` calls, transport steps) of a run."""
        runs, steps = [], []
        run_direct, step = scenario._run_direct, scenario.step
        monkeypatch.setattr(
            scenario, "_run_direct",
            lambda *args, **kw: runs.append(1) or run_direct(*args, **kw))
        monkeypatch.setattr(scenario, "step",
                            lambda *args: steps.append(1) or step(*args))
        result = run_scenario(config)
        monkeypatch.undo()
        return result, len(runs), len(steps)

    def test_phase_gate_runs_once(self, monkeypatch):
        config = parse_config(get_preset("phase_gate"))
        result, runs, steps = self.counted_run(monkeypatch, config)
        _, _, bare_steps = self.counted_run(
            monkeypatch, dataclasses.replace(config, perturber=None))
        assert runs == 1 and result.reference is None
        assert steps == bare_steps > 0

    def test_both_engines_skip_the_replay_of_a_perturbed_run(self, preset_run):
        """The spectral replay carries no cloud, so under engine = both a
        perturbed run is the direct run, with the replay skipped."""
        direct = preset_run("phase_gate")
        both = run_scenario(dataclasses.replace(direct.config, engine="both"))
        measured = both.summary["measurements"]
        assert measured["cross_engine"] is None
        assert ("cross-engine replay skipped: the spectral engine carries no "
                "perturber") in both.summary["warnings"]
        assert measured["perturber"] == direct.summary["measurements"]["perturber"]
        assert both.trajectory == direct.trajectory

    @pytest.mark.parametrize("interval,window", [
        ("500", [0.0, 1000.0]), ("2100", [2100.0, 3000.0])],
        ids=["storage-rows", "no-storage-row"])
    def test_a_phase_window_stays_inside_one_transport_window(self, interval,
                                                             window):
        """The phase window cannot join the transport rows on either side
        of the storage window: a storage row's probe value is nan, and at
        a snapshot interval of 2100 no row falls in the storage window. It
        is one transport window's rows, whose controls give a rate scale
        and a traveling shift, and the run ends."""
        text = _preset_with("phase_gate", **{
            "medium.r_g": "2", "medium.gamma2": "1e-6",
            "medium.domain_length": "30", "medium.grid_points": "1024",
            "pulse.duration": "4000", "pulse.center": "15",
            "schedule.segment": f"0 1000 {OM0!r} 0 50\n"
                                f"schedule.segment = 1000 2000 0 0 1\n"
                                f"schedule.segment = 2000 3000 0 {2 * OM0!r} 1",
            "run.t_end": "3000", "run.snapshot_interval": interval,
            "run.probe_z": "15", "perturber.m_atoms": "100",
            "perturber.z_center": "15", "perturber.length": "5"})
        result = run_scenario(parse_config(text))
        [(t_off, t_on)] = result.summary["storage_windows"]
        phase = result.summary["measurements"]["perturber"]
        assert phase["window"] == window and 1000.0 < t_off < t_on < 2100.0
        lo, hi = window
        assert result.config.schedule.values(0.5 * (lo + hi)) != (0.0, 0.0)
        assert phase["rate_scale"] is not None
        assert phase["predicted_shift_traveling"] is not None

    def test_the_run_without_the_cloud_has_no_probe_phase(self, preset_run):
        """The premise of reading the phase off the perturbed run alone:
        without the cloud the probe value is real, and positive wherever
        the measurement's amplitude mask selects it."""
        perturbed = preset_run("phase_gate")
        lo, hi = perturbed.summary["measurements"]["perturber"]["window"]
        bare = run_scenario(dataclasses.replace(perturbed.config, perturber=None))
        rows = [r for r in bare.trajectory if r["mode"] == 0.0]
        assert rows and all(r["probe_im"] == 0.0 for r in rows)
        masked = [r for r in rows if lo <= r["t"] <= hi]
        assert len(masked) >= 2 and all(r["probe_re"] > 0.0 for r in masked)

    def test_a_falling_phase_crosses_pi_at_the_rising_phase_time(self, preset_run):
        """A cloud detuned below the probe imprints the opposite phase: it
        falls through -pi when the preset's rises through pi."""
        rising = preset_run("phase_gate")
        falling = run_scenario(parse_config(_preset_with(
            "phase_gate", **{"perturber.detuning": "-10"})))
        up, down = (r.summary["measurements"]["perturber"] for r in (rising, falling))
        assert down["phase_final"] == pytest.approx(-up["phase_final"], rel=1e-12)
        assert up["pi_crossing_time"] is not None
        assert down["pi_crossing_time"] == pytest.approx(up["pi_crossing_time"],
                                                         rel=1e-12)


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_src_env())


class TestImportGraph:
    """The CLI imports neither the `scipy` package nor its quadrature and
    root finders, nor the `scipy.linalg` package, whose import pulls in
    numpy.f2py, numpy.testing, numpy.ma and numpy.random: together they would
    make up most of its start-up cost and about 23 MB of a run's peak memory.
    The solver's two LAPACK/BLAS routines come from scipy's f2py extension
    modules, loaded by file."""

    PROBE = ("import sys\n"
             "def heavy():\n"
             "    return sorted(m for m in sys.modules if m in ('scipy', 'scipy.linalg')\n"
             "                  or m.startswith(('scipy.integrate', 'scipy.optimize'))\n"
             "                  or m.split('.')[:2] in (['numpy', 'f2py'], ['numpy', 'testing'],\n"
             "                                          ['numpy', 'ma'], ['numpy', 'random']))\n")

    def test_cli_import_skips_integrate_and_optimize(self):
        proc = _fresh_python(self.PROBE + "import statlight.cli\nprint(heavy())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_check_runs_without_them(self):
        proc = _fresh_python(
            self.PROBE + "from statlight.cli import main\n"
            "codes = [main(['run', '--preset', name, '--check'])\n"
            "         for name in ('stationary', 'stop_and_store', 'phase_gate')]\n"
            "print(codes, heavy())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"

    def test_direct_run_runs_without_them(self, tmp_path):
        proc = _fresh_python(
            self.PROBE + "from statlight.cli import main\n"
            f"code = main(['run', '--preset', 'stop_and_store', '--out-dir', {str(tmp_path)!r}])\n"
            "print(code, heavy())")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 []"
        assert (tmp_path / "summary.json").is_file()


def _snapshot_columns(config, snap) -> np.ndarray:
    """The nine columns of snap_NNNNN.npy for `snap`, stacked afresh from the
    README's definitions."""
    med = config.medium
    op, om = config.schedule.values(snap.t)
    return np.column_stack([
        med.grid(),
        snap.psi_plus.real, snap.psi_plus.imag,
        snap.psi_minus.real, snap.psi_minus.imag,
        np.abs(snap.psi_plus) * (op / math.sqrt(med.gamma)),
        np.abs(snap.psi_minus) * (om / (math.sqrt(med.gamma) * med.r_g)),
        snap.phi.real, snap.phi.imag])


def _holds_columns(path, config, snap) -> bool:
    """Whether the .npy file at `path` holds `snap`'s nine columns bit for
    bit (so -0.0 and NaN count)."""
    got = np.load(path, allow_pickle=False)
    expect = _snapshot_columns(config, snap)
    return (got.dtype == np.float64 and got.shape == expect.shape
            and np.array_equal(got.view(np.uint64), expect.view(np.uint64)))


@pytest.mark.parametrize("text", [get_preset("stop_and_store"), SPECTRAL_TRANSIT],
                         ids=["stop_and_store", "spectral"])
def test_every_tau_is_the_clock_at_its_time(run_text, text):
    """Each trajectory row's and snapshot's tau is `tau_of_t` at its t bit
    for bit, through stop_and_store's storage windows, whose ramp tails
    run below the storage threshold with the controls still on; and
    derived.tau_end is the last row's tau, at run.t_end."""
    result = run_text(text)
    med, sched = result.config.medium, result.config.schedule
    assert len(result.snapshots) == len(result.trajectory)
    for snap, row in zip(result.snapshots, result.trajectory):
        assert row["tau"] == tau_of_t(med, sched, row["t"])
        assert snap.tau == row["tau"] and snap.t == row["t"]
    last = result.trajectory[-1]
    assert last["t"] == result.config.run.t_end
    assert result.summary["derived"]["tau_end"] == last["tau"]


def test_field_states_carry_lab_time_only():
    for state in (FieldState, SpectralState):
        names = {field.name for field in dataclasses.fields(state)}
        assert "t" in names and "tau" not in names


def test_snapshot_npy_round_trip(tmp_path, preset_run):
    """Each snap_NNNNN.npy holds snapshot NNNNN's nine columns bit for bit
    (so -0.0 and NaN count), and its t, tau and mode are row NNNNN of
    trajectory.tsv. A run streaming to an out-dir holds no snapshots, so the
    expected arrays come from a run of the same config without one, which
    holds them all."""
    full = preset_run("stop_and_store")
    config = full.config
    run_scenario(config, tmp_path)
    rows = [line.split("\t") for line in
            (tmp_path / "trajectory.tsv").read_text().splitlines()[1:]]
    assert len(rows) == len(full.snapshots) == len(list(tmp_path.glob("snap_*.npy")))
    assert {snap.mode for snap in full.snapshots} == {"pde", "storage"}
    for snap, row in zip(full.snapshots, rows):
        assert _holds_columns(tmp_path / f"snap_{snap.index:05d}.npy", config, snap)
        mode = "0" if snap.mode == "pde" else "1"
        assert row[:3] == [f"{snap.t:.12g}", f"{snap.tau:.12g}", mode]


class TestSnapshotWrite:
    """A snapshot file is the .npy header of the run's buffer and the
    buffer, in one write."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("rows", [1, 256, 10240])
    def test_header_and_buffer_are_the_bytes_of_np_save(self, tmp_path, dtype, rows):
        buf = (np.arange(rows * 9) / 7.0).astype(dtype).reshape(rows, 9)
        if buf.dtype.kind == "c":
            buf.imag = -np.arange(rows * 9).reshape(rows, 9)
        np.save(tmp_path / "ref.npy", buf, allow_pickle=False)
        assert (scenario._npy_header(buf) + buf.tobytes()
                == (tmp_path / "ref.npy").read_bytes())

    @pytest.mark.parametrize("imag", [False, True])
    def test_a_snapshot_file_is_the_np_save_of_its_buffer(self, tmp_path, imag):
        n = 64
        buf = np.zeros((n, 9))
        buf[:, 0] = np.arange(n) / 8.0
        field = np.linspace(-1.0, 1.0, n)
        snap = scenario.Snapshot(3, 1.0, 2.0, "pde", field,
                                 field * (1 - 2j) if imag else 0.5 * field,
                                 field * (1j if imag else -1.0))
        envelopes = np.abs(snap.psi_plus), np.abs(snap.psi_minus)
        path = tmp_path / "snap_00003.npy"
        scenario._write_snapshot(path, snap, buf, scenario._npy_header(buf), imag,
                                 envelopes)
        np.save(tmp_path / "ref.npy", buf, allow_pickle=False)
        assert path.read_bytes() == (tmp_path / "ref.npy").read_bytes()
        assert np.array_equal(np.load(path)[:, 4], snap.psi_minus.imag)

    def test_a_short_write_raises_and_leaves_no_file(self, tmp_path, monkeypatch):
        """A write that stops short (a full disk) raises instead of leaving
        a truncated snapshot file."""
        writev = os.writev

        def short(fd, buffers):
            return writev(fd, [bytes(buffers[0])[:-1]])

        monkeypatch.setattr(scenario.os, "writev", short)
        buf = np.zeros((16, 9))
        snap = scenario.Snapshot(0, 0.0, 0.0, "pde", *(np.ones(16),) * 3)
        path = tmp_path / "snap_00000.npy"
        with pytest.raises(OSError, match="wrote 127 of 1280 bytes"):
            scenario._write_snapshot(path, snap, buf, scenario._npy_header(buf),
                                     False, (np.ones(16),) * 2)
        assert not path.exists()


class TestStreaming:
    """With an out-dir, each snap_NNNNN.npy is written as the run records it,
    and no snapshot stays in memory: the measurements read the fit window
    as the run records it."""

    @pytest.mark.parametrize("name,changes", [
        ("phase_gate", {}),
        ("stationary", {}),
        ("stop_and_store", {"output.snapshots": "false"}),
        ("stationary", {"engine": "spectral"}),
    ], ids=["phase_gate", "stationary", "stop_and_store-no-files",
            "stationary-spectral"])
    def test_streamed_run_holds_no_snapshots(self, tmp_path, run_text, name,
                                             changes):
        full = run_text(_preset_with(name, **changes))
        config = full.config
        out = tmp_path / "out"
        result = run_scenario(config, out)
        assert result.snapshots == []
        if config.perturber is not None:
            assert result.reference is None
            assert full.reference is None
        # a run without an out-dir holds every snapshot, whole
        assert len(full.snapshots) == len(full.trajectory)
        assert all(value is not None for snap in full.snapshots
                   for value in vars(snap).values())
        # measurements, and the whole summary, are those of the in-memory run
        assert (out / "summary.json").read_text() == render_summary(full.summary)
        # and each file holds the columns of the in-memory run's snapshot
        written = full.snapshots if config.output.snapshots else []
        assert len(list(out.glob("snap_*.npy"))) == len(written)
        for snap in written:
            assert _holds_columns(out / f"snap_{snap.index:05d}.npy", config, snap)

    @pytest.mark.parametrize("name", ["stationary", "phase_gate"])
    def test_a_kept_buffer_writes_each_snapshot_as_a_fresh_one(self, tmp_path,
                                                               preset_run, name):
        """A run fills one buffer for all of its files: each file
        still holds its own snapshot's columns, as a fresh array stacks
        them. phase_gate's run starts real and turns complex, and a
        real snapshot after a complex one must not keep its im columns."""
        full = preset_run(name)
        config, snaps = full.config, full.snapshots
        later = snaps[len(snaps) // 2]
        order = [snaps[0], later,
                 dataclasses.replace(snaps[0], index=later.index + 1)]
        kinds = [snap.psi_plus.dtype.kind for snap in order]
        assert kinds == (["f", "f", "f"] if name == "stationary" else ["f", "c", "f"])
        out = tmp_path / "out"
        # the third snapshot is the first one's, under a new index
        rows = [full.trajectory[i] for i in (0, later.index, 0)]
        records = []
        for snap, row in zip(order, rows):
            scale_p, scale_m = envelope_scales(config.medium,
                                               *config.schedule.values(snap.t))
            envelopes = (np.abs(snap.psi_plus) * scale_p,
                         np.abs(snap.psi_minus) * scale_m)
            records.append((snap, row, envelopes, tuple(a ** 2 for a in envelopes)))
        scenario._run(config, out, records)
        for snap in order:
            assert _holds_columns(out / f"snap_{snap.index:05d}.npy", config, snap)

    def test_failed_run_leaves_no_summary(self, tmp_path, capsys, monkeypatch):
        """A run that fails midway in a reused out-dir leaves its own
        snapshots, if it writes any, but none of an earlier run's files:
        summary.json marks a finished run, and trajectory.tsv and config.txt
        beside this run's snapshots would describe another run."""
        advance, calls = scenario._pde_advance, []

        def fail_on_third_window(*args):
            calls.append(args)
            if len(calls) == 3:
                raise SweepDivergence("injected on the third window")
            return advance(*args)

        monkeypatch.setattr(scenario, "_pde_advance", fail_on_third_window)
        for snapshots, written in (("true", 3), ("false", 0)):
            cfg = tmp_path / "scenario.cfg"
            cfg.write_text(MINIMAL + f"output.snapshots = {snapshots}\n")
            out = tmp_path / snapshots
            out.mkdir()
            for stale in ("summary.json", "trajectory.tsv", "config.txt",
                          "snap_00009.npy"):
                (out / stale).write_text("")
            calls.clear()
            assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
            assert "error: injected on the third window" in capsys.readouterr().err
            assert len(calls) == 3
            assert sorted(p.name for p in out.iterdir()) == [
                f"snap_{i:05d}.npy" for i in range(written)]

    def test_rerun_leaves_only_its_own_snapshots(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["run", "--preset", "stop_and_store", "--out-dir", out]) == 0
        assert len(list(tmp_path.glob("snap_*.npy"))) == 27
        assert main(["run", "--preset", "stop_and_store", "--out-dir", out,
                     "--snapshot-every", "4000"]) == 0
        rows = (tmp_path / "trajectory.tsv").read_text().splitlines()[1:]
        assert sorted(p.name for p in tmp_path.glob("snap_*.npy")) == [
            f"snap_{i:05d}.npy" for i in range(len(rows))]
        assert len(rows) == 8


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "statlight", "presets"],
                          capture_output=True, text=True, timeout=120,
                          env=_src_env())
    assert proc.returncode == 0
    assert "stationary" in proc.stdout


@pytest.mark.parametrize("preset", [None, "3"])
def test_entry_point_pins_blas_threads_only_when_unset(preset):
    """`python -m statlight` and the console script set OPENBLAS_NUM_THREADS=1
    before numpy loads, unless it is set; a library import leaves it alone."""
    env = {k: v for k, v in _src_env().items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os\n"
            "import statlight, statlight.scenario\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(preset)]
    code = ("import os, sys\n"
            "sys.argv = ['statlight', 'presets']\n"
            "from statlight.__main__ import main\n"
            "numpy_before = 'numpy' in sys.modules\n"
            "code = main()\n"
            "print(numpy_before, code, os.environ['OPENBLAS_NUM_THREADS'])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["False", "0", preset or "1"]
