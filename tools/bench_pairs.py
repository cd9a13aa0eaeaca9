"""Runs the benchmark in alternating parent/change pairs into a BENCH_<PR>.json.

usage:
  python3 tools/bench_pairs.py PARENT_CHECKOUT --out BENCH_13.json
      [--pairs 10] [--change TEXT]

PARENT_CHECKOUT is a second checkout of the parent commit (a clone or an
exported tree, with its own perfbench/ and BENCHMARK.json); the change is
the checkout this script lives in. Pair i runs, for each workload of
BENCHMARK.json in turn, `python3 perfbench/run.py --workload W --seed i
--seconds 20 --trace 0` in both checkouts, the parent first in even pairs and
the change first in odd ones.
For each end-to-end metric of BENCHMARK.json and for the raw CPU medians the
JSON holds the median and inclusive quartiles of each side over the pairs,
the number of pairs the change wins (reads better) or ties, and `resolved`:
whether the gap between the two medians exceeds the parent's interquartile
range, the least a gain must show to stand out of the parent's spread.
`no_regression` compares each median gap with the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

CHANGE = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SECONDS = 20
# raw medians from run.py's record, rescaled by nothing
RAW = {"setup_cpu_s_raw": "setup_cpu_s", "cpu_s_raw": "cpu_s",
       "yardstick_cpu_s_raw": "yardstick_cpu_s"}


def bench(checkout: pathlib.Path, workload: str, seed: int) -> dict:
    """One run.py invocation: its result line plus the raw medians of its
    record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr}")
    record_path = next(line.split(":", 1)[1].strip() for line in lines
                       if line.startswith("# record:"))
    record = json.loads((checkout / record_path).read_text())
    values = record["runs"][0]["values"]
    return {"line": json.loads(lines[-1]), "machine": record["machine"],
            "raw": {name: values.get(key) for name, key in RAW.items()}}


def sig(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.4g}")


def quartiles(values: list[float | None]) -> list[float] | None:
    """(q1, median, q3) of the pairs that gave a value, None from fewer
    than two (a workload whose every run failed gives none)."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(values: list[float | None]) -> dict:
    got = quartiles(values)
    if got is None:
        values = [v for v in values if v is not None]
        return {"median": sig(values[0]) if values else None}
    q1, median, q3 = got
    return {"median": sig(median), "q1": sig(q1), "q3": sig(q3), "iqr": sig(q3 - q1)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(p, c) for p, c in zip(parent, change) if None not in (p, c)]
    qp, qc = quartiles(parent), quartiles(change)
    return {"parent": spread(parent), "change": spread(change),
            "change_wins": sum(sign * (p - c) > 0 for p, c in pairs),
            "ties": sum(p == c for p, c in pairs),
            "resolved": (None if qp is None or qc is None
                         else abs(qc[1] - qp[1]) > qp[2] - qp[0]),
            "parent_runs": [sig(v) for v in parent],
            "change_runs": [sig(v) for v in change]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": CHANGE}
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w["name"]: {side: [] for side in SIDES} for w in spec["workloads"]}
    machine = None
    for seed in range(1, args.pairs + 1):
        for workload in runs:
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                got = bench(checkouts[side], workload, seed)
                machine = machine or got["machine"]
                runs[workload][side].append(got)
                line = got["line"]
                print(f"pair {seed} {workload} {side}: failed {line['failed']}/"
                      f"{line['attempted']}, " + ", ".join(
                          f"{name} {m['value']}" for name, m in line["metrics"].items()),
                      flush=True)

    workloads, verdicts, medians = {}, [], []
    for workload, sides in runs.items():
        entry = {"pairs": args.pairs, "seeds": list(range(1, args.pairs + 1)),
                 "runs_attempted": {s: sum(r["line"]["attempted"] for r in sides[s])
                                    for s in SIDES},
                 "runs_failed": {s: sum(r["line"]["failed"] for r in sides[s])
                                 for s in SIDES},
                 "all_correct": all(r["line"]["correct"] for s in SIDES for r in sides[s])}
        series = {name: [[r["line"]["metrics"][name]["value"] for r in sides[s]]
                         for s in SIDES] for name in metrics}
        series.update({name: [[r["raw"][name] for r in sides[s]] for s in SIDES]
                       for name in RAW})
        for name, (parent, change) in series.items():
            better = metrics[name]["better"] if name in metrics else "lower"
            entry[name] = compare(parent, change, better)
        for name, metric in metrics.items():
            p, c = (entry[name][s]["median"] for s in SIDES)
            if p is None or c is None:
                verdicts.append(False)
                medians.append(f"{workload} {name}: no value ({p} -> {c})")
                continue
            gap = (c - p) / p if p else 0.0
            ok = (gap if metric["better"] == "lower" else -gap) <= metric["bound"]
            verdicts.append(ok)
            resolved = "resolved" if entry[name]["resolved"] else "unresolved"
            medians.append(f"{workload} {name} {p:.4g} -> {c:.4g} ({gap:+.1%}, "
                           f"change won {entry[name]['change_wins']} of "
                           f"{args.pairs}, {resolved}, bound "
                           f"{metric['bound']:.0%}): {'ok' if ok else 'WORSE'}")
            print(medians[-1])
        workloads[workload] = entry

    machine["note"] = ("run_cpu_s and setup_s are CPU seconds rescaled by the "
                       "perfbench yardstick job; the *_raw entries are the "
                       "unscaled CPU medians of each invocation")
    out = {"change": args.change, "machine": machine,
           "method": {"command": f"python3 perfbench/run.py --workload W --seed i "
                                 f"--seconds {SECONDS} --trace 0",
                      "pairing": "pair i (seeds 1-N) runs the parent and the change "
                                 "with seed i, parent first in even pairs and change "
                                 "first in odd pairs, each checkout in its own "
                                 "directory, the workloads in turn within a pair",
                      "statistics": "median and inclusive quartiles over the pairs; "
                                    "a win is a pair where the change reads better; "
                                    "resolved: the medians differ by more than "
                                    "the parent's interquartile range",
                      "tool": "tools/bench_pairs.py"},
           "workloads": workloads,
           "no_regression": {"met": all(verdicts), "medians": medians}}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}: no_regression {all(verdicts)}")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
