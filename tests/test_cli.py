"""Config parsing, canonical rendering and the command line front end."""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from statlight.cli import main
from statlight.config import ENGINES, config_echo, parse_config, render_config
from statlight.errors import (
    NonPhysicalParameter,
    ParseError,
    ValidationError,
)
from statlight.scenario import _write_table

OM0 = math.sqrt(1e-3)

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
        "schedule.phi_plus = nan",
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

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "summary.json").is_file()
        assert (out_dir / "trajectory.tsv").is_file()
        assert (out_dir / "config.txt").is_file()
        snaps = sorted(out_dir.glob("snap_*.tsv"))
        assert len(snaps) == 5  # t = 0, 50, 100, 150, 200
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["derived"]["final_mode"] == "pde"
        trajectory = (out_dir / "trajectory.tsv").read_text().splitlines()
        assert trajectory[0].startswith("# t\ttau\tmode")

    def test_snapshot_override(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(MINIMAL)
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out_dir),
                     "--snapshot-every", "100"]) == 0
        assert len(sorted(out_dir.glob("snap_*.tsv"))) == 3


def test_snapshot_table_matches_savetxt(tmp_path):
    data = np.array([
        [-0.0, 0.0, 1e-300, -1e-300, 1e4, -1e4, 1.5e-7, -2.5e-12, 12345678901234.5],
        [np.nan, 1.0, -1.0, 1e-5, 0.1, 2.0 / 3.0, -7.25e-100, 1e16, 5e-324],
    ])
    header = "t = 1  tau = 0.5  mode = pde\nz a b c d e f g h"
    np.savetxt(tmp_path / "savetxt.tsv", data, fmt="%.12g", delimiter="\t",
               header=header, comments="# ")
    _write_table(tmp_path / "table.tsv", header, data)
    expect = (tmp_path / "savetxt.tsv").read_bytes()
    assert (tmp_path / "table.tsv").read_bytes() == expect


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "statlight", "presets"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "stationary" in proc.stdout
