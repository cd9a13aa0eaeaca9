"""Compares the out-dirs of every preset between a parent checkout and this one.

usage:
  python3 tools/outdirs_diff.py PARENT_CHECKOUT

PARENT_CHECKOUT is a second checkout of the parent commit (a clone or an
exported tree with its own src/). For each preset, both checkouts run
`python -m statlight run --preset NAME --out-dir DIR` with their own src/ on
PYTHONPATH, each into a fresh temporary directory. The script prints, per
preset, the files whose bytes differ and the files that only one side wrote,
and exits 1 if there are any (or if a run fails), else 0.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

CHANGE = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def presets(checkout: pathlib.Path) -> list[str]:
    """Preset names, as `statlight presets` lists them."""
    return [line.split()[0] for line in statlight(checkout, "presets").splitlines()]


def statlight(checkout: pathlib.Path, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "statlight", *args],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: statlight {' '.join(args)} failed:\n"
                         f"{proc.stderr}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": CHANGE}
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in presets(CHANGE):
            files = {}
            for side in SIDES:
                out = pathlib.Path(tmp) / side / name
                statlight(checkouts[side], "run", "--preset", name,
                          "--out-dir", str(out))
                files[side] = {p.name: p.read_bytes() for p in out.iterdir()}
            parent, change = files["parent"], files["change"]
            report = []
            changed = sorted(f for f in parent.keys() & change.keys()
                             if parent[f] != change[f])
            if changed:
                report.append(f"differ: {' '.join(changed)}")
            for side, mine, other in (("parent", parent, change),
                                      ("change", change, parent)):
                if mine.keys() - other.keys():
                    report.append(f"only in {side}: "
                                  f"{' '.join(sorted(mine.keys() - other.keys()))}")
            differ |= bool(report)
            print(f"{name}: " + ("; ".join(report) if report
                                 else f"{len(change)} files identical"))
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
