"""Sweeps seeded random configs through `--check` and `run`, and reports
every config on which the two disagree.

usage:
  python3 tools/check_sweep.py SEED N [--src SRC_DIR] [-v]

Draws N configs from a generator seeded with SEED, all on a 1,024-point
grid over a 30-unit medium:
- medium.gamma2 in {0, 1e-6, 1e-5, 1e-4} and medium.r_g in {0.5, 1, 1.5, 2};
- one of three schedule shapes, each with one ramp from 1e-4 to 50 on the
  segments after the first: store and release (forward, backward or held),
  push-pull at constant power, and a hold followed by a transit;
- a prepared pulse at the domain's middle, or an injected one whose
  injection time falls at the start, inside or after the first segment;
- a perturber in about a quarter of them, and engine direct or both.

For each config, in a fresh temporary directory, it runs
`python -m statlight run CFG --check` and then
`python -m statlight run CFG --out-dir OUT`, with SRC_DIR (default: this
checkout's src/) on PYTHONPATH. A disagreement is:
- `--check` accepts (exit 0) and the run fails;
- `--check` refuses (exit 2) and the run completes;
- a refused run leaves OUT behind;
- either command exits with a code other than 0 or 2 (a raw traceback).

Each disagreement prints with the config's number, the two exit codes, the
last line of the run's stderr and the config text. A tally follows. The
script exits 1 if there was any disagreement, else 0. With -v every
config's number and two exit codes print, one line each, so that the sweeps
of two source trees can be compared line by line.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
GRID = 1024
LENGTH = 30.0
OM0 = math.sqrt(1e-3)
# the push-pull preset's balanced and tilted controls at the same power
OMH, OMA = math.sqrt(5e-4), math.sqrt(1.5e-3)
GAMMA2 = (0.0, 1e-6, 1e-5, 1e-4)
R_G = (0.5, 1.0, 1.5, 2.0)
RAMPS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 50.0)
DURATIONS = (1e3, 2e3, 4e3)
# segment ends; a run spans [0, T3]
T1, T2, T3 = 1000.0, 2000.0, 3000.0


def _schedule(rng: random.Random, r_g: float, ramp: float) -> list[tuple]:
    """(t_start, t_end, omega_plus, omega_minus, ramp) of each segment.
    Controls (w, w r_g) hold a pulse still: their stationarity residual is
    zero."""
    shape = rng.choice(("store_release", "push_pull", "hold_transit"))
    if shape == "store_release":
        release = rng.choice(((OM0, 0.0), (0.0, OM0 * r_g), (OM0, OM0 * r_g)))
        return [(0.0, T1, OM0, 0.0, 50.0), (T1, T2, 0.0, 0.0, ramp),
                (T2, T3, *release, ramp)]
    if shape == "push_pull":
        return [(0.0, T1, OMH, OMH * r_g, 50.0), (T1, T2, OMA, OMH * r_g, ramp),
                (T2, T3, OMH, OMA * r_g, ramp)]
    return [(0.0, T1, OM0, OM0 * r_g, 50.0), (T1, T3, OM0, 0.0, ramp)]


def draw(rng: random.Random) -> str:
    """One config text."""
    r_g = rng.choice(R_G)
    lines = [f"medium.r_g = {r_g!r}", "medium.gamma = 1",
             f"medium.gamma2 = {rng.choice(GAMMA2)!r}", "medium.u_g0 = 1e-3",
             f"medium.domain_length = {LENGTH!r}", f"medium.grid_points = {GRID}",
             f"pulse.duration = {rng.choice(DURATIONS)!r}"]
    if rng.random() < 0.5:
        lines += ["pulse.prepared = true", f"pulse.center = {LENGTH / 2!r}"]
    else:
        lines += ["pulse.prepared = false",
                  f"pulse.injection_time = {rng.choice((0.0, 0.5 * T1, 1.5 * T1))!r}"]
    ramp = rng.choice(RAMPS)
    lines += ["schedule.segment = " + " ".join(repr(float(v)) for v in seg)
              for seg in _schedule(rng, r_g, ramp)]
    lines += [f"engine = {rng.choice(('direct', 'both'))}",
              f"run.t_end = {T3!r}",
              f"run.snapshot_interval = {rng.choice((150.0, 250.0, 500.0))!r}"]
    if rng.random() < 0.25:
        lines += [f"run.probe_z = {LENGTH / 2!r}", "perturber.m_atoms = 100",
                  f"perturber.z_center = {LENGTH / 2!r}", "perturber.length = 5",
                  "perturber.sigma_over_s = 1", "perturber.gamma_a = 0.5",
                  "perturber.detuning = 10"]
    return "\n".join(lines) + "\n"


def statlight(src: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "statlight", *args], env=env,
                          capture_output=True, text=True)


def disagreement(checked: int, ran: int, left_out_dir: bool) -> str | None:
    """What is wrong with a config's two exit codes, or None."""
    if {checked, ran} - {0, 2}:
        return "an exit code other than 0 or 2"
    if checked == 0 and ran != 0:
        return "--check passes and the run fails"
    if checked != 0 and ran == 0:
        return "--check refuses and the run completes"
    if ran != 0 and left_out_dir:
        return "a refused run leaves an out-dir"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int)
    parser.add_argument("--src", type=pathlib.Path, default=SRC,
                        help="the statlight source tree to run")
    parser.add_argument("-v", action="store_true",
                        help="print every config's exit codes")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    found, tally = 0, {}
    for k in range(args.n):
        text = draw(rng)
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = pathlib.Path(tmp) / "sweep.cfg", pathlib.Path(tmp) / "out"
            cfg.write_text(text)
            checked = statlight(args.src, "run", str(cfg), "--check").returncode
            run = statlight(args.src, "run", str(cfg), "--out-dir", str(out))
            left = out.exists()
        codes = (checked, run.returncode)
        tally[codes] = tally.get(codes, 0) + 1
        if args.v:
            print(f"config {k}: check {checked} run {run.returncode}")
        wrong = disagreement(checked, run.returncode, left)
        if wrong is not None:
            found += 1
            err = run.stderr.strip().splitlines()
            print(f"config {k}: {wrong} (check {checked}, run {run.returncode}): "
                  f"{err[-1] if err else ''}")
            print("  " + text.strip().replace("\n", "\n  "))
    counts = ", ".join(f"{n} check {c} run {r}" for (c, r), n in sorted(tally.items()))
    print(f"{args.n} configs, seed {args.seed}: {counts}; {found} disagreements")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
