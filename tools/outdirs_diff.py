"""Compares the out-dirs of every preset between a parent checkout and this one.

usage:
  python3 tools/outdirs_diff.py PARENT_CHECKOUT

PARENT_CHECKOUT is a second checkout of the parent commit (a clone or an
exported tree with its own src/). For each preset, both checkouts run
`python -m statlight run --preset NAME --out-dir DIR` with their own src/ on
PYTHONPATH, each into a fresh temporary directory, and
`python -m statlight run --preset NAME --check`. The script prints, per
preset, the files whose bytes differ (the snapshots as a count), the files
that only one side wrote and whether the two `--check` runs differ in exit
status or stdout, and exits 1 if there are any (or if a run fails), else 0.

Under a preset whose files differ it prints how far the values moved: for
each column of the snap_*.npy files and of trajectory.tsv, and for each
numeric field of summary.json, whose values differ, the largest relative
change. A column's change is relative to its largest magnitude on either
side (over all of a preset's differing snapshots, for the .npy columns),
with the largest absolute change beside it; a field's is relative to the
larger of its two values, with its absolute change beside it, so that
roundoff on a value near zero reads as such. Bytes that differ with equal
values (signed zeros) print no change. A summary field that only one side
has (missing or null on the other) prints each leaf under it as added or
removed, with its value if numeric, e.g.
`measurements.oracle.max_envelope_l2 added 0.00101`; each warning added or
removed prints in full. Other non-numeric summary fields that differ are
named.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

CHANGE = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# the columns of snap_NNNNN.npy, as the README lists them
SNAPSHOT_COLUMNS = ("z", "re_psi_plus", "im_psi_plus", "re_psi_minus",
                    "im_psi_minus", "abs_a_plus", "abs_a_minus", "re_phi",
                    "im_phi")


def presets(checkout: pathlib.Path) -> list[str]:
    """Preset names, as `statlight presets` lists them."""
    return [line.split()[0] for line in statlight(checkout, "presets").splitlines()]


def statlight_process(checkout: pathlib.Path, *args: str):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, "-m", "statlight", *args],
                          cwd=checkout, env=env, capture_output=True, text=True)


def statlight(checkout: pathlib.Path, *args: str) -> str:
    proc = statlight_process(checkout, *args)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: statlight {' '.join(args)} failed:\n"
                         f"{proc.stderr}")
    return proc.stdout


def column_changes(old: np.ndarray, new: np.ndarray, names, changes: dict):
    """Fold into `changes` {column: (largest absolute change, largest
    magnitude on either side)} the columns of two equally shaped 2-D tables;
    NaN against NaN is no change, NaN against a number an infinite one."""
    if old.shape != new.shape:
        changes["shape"] = (math.inf, 0.0)
        return
    both_nan = np.isnan(old) & np.isnan(new)
    delta = np.where(both_nan, 0.0, np.abs(old - new))
    delta[np.isnan(delta)] = math.inf
    scale = np.fmax(np.nanmax(np.abs(old), axis=0, initial=0.0),
                    np.nanmax(np.abs(new), axis=0, initial=0.0))
    for name, d, top in zip(names, delta.max(axis=0), scale):
        ab, mag = changes.get(name, (0.0, 0.0))
        changes[name] = (max(ab, d), max(mag, top))


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def leaves(tree, path: str):
    """(path, value) of every leaf of a summary.json subtree."""
    if isinstance(tree, dict):
        for key in sorted(tree):
            yield from leaves(tree[key], f"{path}.{key}")
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from leaves(v, f"{path}[{i}]")
    else:
        yield path, tree


def summary_changes(old, new, path: str, lines: list[str]):
    """Append to `lines` one entry per difference of two summary.json trees:
    a numeric field's relative change, with its absolute change beside it;
    each leaf of a field that only one side has (missing or null on the
    other), as added or removed, with its value if numeric; each warning
    added or removed; and the name of any other field that changed."""
    if path == "warnings":
        lines += [f"warning {kind}: {w}"
                  for kind, mine, other in (("removed", old, new), ("added", new, old))
                  for w in mine if w not in other]
    elif (old is None) != (new is None):
        kind, tree = ("added", new) if old is None else ("removed", old)
        lines += [f"{leaf} {kind}" + (f" {v:.3g}" if is_number(v) else "")
                  for leaf, v in leaves(tree, path)]
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            summary_changes(old.get(key), new.get(key), f"{path}.{key}".lstrip("."),
                            lines)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            summary_changes(a, b, f"{path}[{i}]", lines)
    elif old != new:
        if is_number(old) and is_number(new):
            lines.append(f"{path} {abs(old - new) / max(abs(old), abs(new)):.2g} "
                         f"(abs {abs(old - new):.2g})")
        else:
            lines.append(f"{path} changed")


def value_changes(parent: dict, change: dict, changed: list[str]) -> list[str]:
    """Report lines on how far the values of the changed files moved."""
    snapshots, tables = {}, {}
    fields: list[str] = []
    for name in changed:
        if name.endswith(".npy"):
            column_changes(*(np.load(io.BytesIO(side[name]), allow_pickle=False)
                             for side in (parent, change)),
                           SNAPSHOT_COLUMNS, snapshots)
        elif name == "trajectory.tsv":
            header = change[name].decode().splitlines()[0].lstrip("# ").split("\t")
            column_changes(*(np.loadtxt(io.BytesIO(side[name]), ndmin=2)
                             for side in (parent, change)), header, tables)
        elif name == "summary.json":
            summary_changes(*(json.loads(side[name]) for side in (parent, change)),
                            "", fields)
    lines = []
    for label, changes in (("snap_*.npy", snapshots), ("trajectory.tsv", tables)):
        moved = [f"{col} {ab / mag if mag > 0.0 else math.inf:.2g} (abs {ab:.2g})"
                 for col, (ab, mag) in changes.items() if ab > 0.0]
        if moved:
            lines.append(f"  {label}: " + ", ".join(moved))
    if fields:
        lines.append("  summary.json: " + ", ".join(fields))
    return lines


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
            checks = [statlight_process(checkouts[side], "run", "--preset", name,
                                        "--check") for side in SIDES]
            if checks[0].returncode != checks[1].returncode:
                report.append(f"--check exits {checks[0].returncode} in parent, "
                              f"{checks[1].returncode} in change")
            elif checks[0].stdout != checks[1].stdout:
                report.append("--check stdout differs")
            changed = sorted(f for f in parent.keys() & change.keys()
                             if parent[f] != change[f])
            if changed:
                snaps = [f for f in changed if f.endswith(".npy")]
                others = [f for f in changed if not f.endswith(".npy")]
                report.append("differ: " + " ".join(
                    ([f"{len(snaps)} of {sum(f.endswith('.npy') for f in change)} "
                      f"snap_*.npy"] if snaps else []) + others))
            for side, mine, other in (("parent", parent, change),
                                      ("change", change, parent)):
                if mine.keys() - other.keys():
                    report.append(f"only in {side}: "
                                  f"{' '.join(sorted(mine.keys() - other.keys()))}")
            differ |= bool(report)
            print(f"{name}: " + ("; ".join(report) if report
                                 else f"{len(change)} files and --check identical"))
            for line in value_changes(parent, change, changed):
                print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
