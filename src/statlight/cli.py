"""Command line front end: scenario runs and preset listing."""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from .config import parse_config, render_config
from .errors import ParseError, SimulationError
from .presets import get_preset, list_presets
from .scenario import preflight, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statlight",
        description="mean-field simulator of two-color stationary light "
                    "in a double-lambda medium")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a scenario")
    runp.add_argument("config", nargs="?", default=None,
                      help="path to a config file")
    runp.add_argument("--preset", default=None, metavar="NAME",
                      help="run a bundled preset instead of a config file")
    runp.add_argument("--out-dir", default="statlight_out", metavar="DIR",
                      help="directory for snapshots, trajectory and summary")
    runp.add_argument("--snapshot-every", type=float, default=None, metavar="T",
                      help="override the snapshot interval (lab time units)")
    runp.add_argument("--check", action="store_true",
                      help="parse and validate only, print the canonical form")

    sub.add_parser("presets", help="list bundled presets")
    return parser


def _cmd_presets() -> int:
    for name, desc in list_presets():
        print(f"{name:<15} {desc}")
    return 0


def _cmd_run(args) -> int:
    if (args.config is None) == (args.preset is None):
        print("error: give exactly one of a config path or --preset",
              file=sys.stderr)
        return 2
    if args.preset is not None:
        text = get_preset(args.preset)
    else:
        try:
            text = pathlib.Path(args.config).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.config}: not UTF-8 text ({exc.reason} "
                             f"at byte {exc.start})") from None

    config = parse_config(text)
    if args.snapshot_every is not None:
        run = dataclasses.replace(config.run,
                                  snapshot_interval=float(args.snapshot_every))
        config = dataclasses.replace(config, run=run)

    if args.check:
        preflight(config)
        print("config ok")
        print(render_config(config), end="")
        return 0

    result = run_scenario(config, out_dir=args.out_dir)
    summary = result.summary
    for warning in summary["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"final mode: {summary['derived']['final_mode']}  "
          f"tau_end: {summary['derived']['tau_end']:.6g}")
    meas = summary["measurements"]
    for name in ("velocity", "width_rate", "area_decay"):
        entry = meas.get(name)
        if entry is not None:
            print(f"{name}: measured {entry.get('measured', entry.get('measured_ratio')):.6g}"
                  f"  predicted {entry.get('predicted', entry.get('predicted_ratio')):.6g}")
    if meas.get("cross_engine"):
        print(f"cross-engine l2: {meas['cross_engine']['l2']:.3g}")
    if meas.get("perturber"):
        pert = meas["perturber"]
        print(f"probe phase: {pert['phase_final']:.6g} rad")
    print(f"wrote {pathlib.Path(args.out_dir) / 'summary.json'}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            return _cmd_presets()
        return _cmd_run(args)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
