"""Times consecutive steps of a benchmark workload's plateau plan.

usage:
  python3 tools/step_time.py WORKLOAD [--at T] [--steps K] [--repeat R]
      [--seed S] [--src DIR]

WORKLOAD is a workload of perfbench/workloads.py; its config is
`config_text(S)` (seed 1 by default). The script runs the workload's direct
engine from the statlight package under DIR (this checkout's src/ by
default, so a second checkout's can be timed on the same config) until its
first BDF2 step at lab time T or later (by default the middle of the run),
and saves that step's state and plan. It then times K consecutive steps of
the plan from a fresh copy of the saved state, R times, and prints the
minimum and the median per step in microseconds: the `timeit` form of the
per-step figures in CHANGES.md. The copy is made outside the timed region.
OpenBLAS is held to one thread unless OPENBLAS_NUM_THREADS is set, as
`python -m statlight` holds it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import statistics
import sys
import timeit

CHANGE = pathlib.Path(__file__).resolve().parents[1]


class _Saved(Exception):
    """Ends the run once the step to time is saved."""


def saved_step(config, at: float):
    """(state before, plan) of the direct run's first BDF2 step at lab time
    `at` or later."""
    from statlight import integrator, scenario

    step = scenario.step

    def saving(state, plan, pulse):
        if plan.mass == integrator.BDF2 and state.t >= at:
            raise _Saved(copied(state), plan)
        return step(state, plan, pulse)

    scenario.step = saving
    try:
        scenario._run_direct(config)
    except _Saved as saved:
        return saved.args
    finally:
        scenario.step = step
    raise SystemExit(f"the run takes no BDF2 step at t >= {at:g}")


def copied(state):
    return dataclasses.replace(state, psi_plus=state.psi_plus.copy(),
                               psi_minus=state.psi_minus.copy(),
                               history=state.history.copy())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--at", type=float, default=None,
                        help="lab time of the first step timed (default: mid-run)")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=pathlib.Path, default=CHANGE / "src")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeat < 1:
        parser.error("--steps and --repeat must be at least 1")

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(CHANGE / "perfbench"))
    from workloads import WORKLOADS

    from statlight import integrator, parse_config

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    config = parse_config(WORKLOADS[args.workload].config_text(args.seed))
    at = args.at
    if at is None:
        at = 0.5 * (config.schedule.t_start + config.run.t_end)
    saved, plan = saved_step(config, at)

    fresh = []

    def setup():
        fresh[:] = [copied(saved)]

    def steps():
        state = fresh[0]
        for _ in range(args.steps):
            integrator.step(state, plan, config.pulse)

    times = timeit.repeat(steps, setup, number=1, repeat=args.repeat)
    per_step = [t / args.steps * 1e6 for t in times]
    sweep = getattr(plan, "upper_sweep", None)
    upper = "" if sweep is None else f", upper sweep k = {sweep[1]}"
    print(f"{args.workload}: m = {plan.work.shape[1]}, t = {saved.t:g}, "
          f"dt = {plan.dt:g}, {plan.work.dtype}{upper}")
    print(f"{args.steps} steps x {args.repeat}: min {min(per_step):.1f} us, "
          f"median {statistics.median(per_step):.1f} us per step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
