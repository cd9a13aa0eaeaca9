"""A fixed yardstick job, timed in a fresh interpreter between benchmark runs.

The host gives this benchmark a share of a machine whose speed drifts by up
to ~1.8x within minutes, far more than any bound a change could be held to.
A job that does the same kind of work as a `statlight run`, timed in the
same window as the runs, slows down with it, so the runs' CPU seconds over
the yardstick's stay put while both drift.

The job imitates a run's two costs at the workload's grid size: implicit
steps of a two-channel pentadiagonal system (assemble five bands, solve them
with `solve_banded`, check the residual), and text snapshots of nine columns
written with `np.savetxt`. It uses numpy and scipy only, never the program,
so a change to the program cannot move it.

usage: python3 perfbench/yardstick.py GRID_POINTS STEPS FILES OUT_DIR RECORD
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import time

import numpy as np
from scipy.linalg import solve_banded


def implicit_steps(n: int, steps: int) -> float:
    """`steps` solves of a diagonally dominant pentadiagonal system of 2n
    rows; returns a checksum so the work cannot be skipped."""
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = 0.3 + 0.1j
    m = 2 * n
    for _ in range(steps):
        diag = np.empty(m, dtype=complex)
        sub1 = np.zeros(m, dtype=complex)
        sub2 = np.zeros(m, dtype=complex)
        sup1 = np.zeros(m, dtype=complex)
        sup2 = np.zeros(m, dtype=complex)
        rhs = np.empty(m, dtype=complex)
        diag[0::2] = 4.0 + a
        sup1[0::2] = -a
        sub2[0::2] = -1.0
        rhs[0::2] = psi * a
        diag[1::2] = 4.0 - a
        sub1[1::2] = a
        sup2[1::2] = -1.0
        rhs[1::2] = psi * 0.5
        ab = np.zeros((5, m), dtype=complex)
        ab[0, 2:] = sup2[:-2]
        ab[1, 1:] = sup1[:-1]
        ab[2, :] = diag
        ab[3, :-1] = sub1[1:]
        ab[4, :-2] = sub2[2:]
        u = solve_banded((2, 2), ab, rhs)
        res = diag * u - rhs
        res[1:] += sub1[1:] * u[:-1]
        res[2:] += sub2[2:] * u[:-2]
        res[:-1] += sup1[:-1] * u[1:]
        res[:-2] += sup2[:-2] * u[2:]
        if float(np.linalg.norm(res)) > 1e-8 * float(np.linalg.norm(rhs)):
            raise ArithmeticError("yardstick solve lost accuracy")
        psi = 0.5 * (u[0::2] + u[1::2])
    return float(np.abs(psi).sum())


def snapshots(n: int, files: int, out_dir: pathlib.Path) -> None:
    """`files` tab-separated text files of n rows and nine columns."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data = np.random.default_rng(1).standard_normal((n, 9))
    for i in range(files):
        np.savetxt(out_dir / f"stick_{i:05d}.tsv", data, fmt="%.12g",
                   delimiter="\t", header="yardstick snapshot", comments="# ")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("grid_points", type=int)
    parser.add_argument("steps", type=int)
    parser.add_argument("files", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("record")
    args = parser.parse_args(argv)

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    implicit_steps(args.grid_points, args.steps)
    snapshots(args.grid_points, args.files, pathlib.Path(args.out_dir))
    run_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    cpu_s = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
    with open(args.record, "w") as fh:
        json.dump({"run_s": run_s, "cpu_s": cpu_s}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
