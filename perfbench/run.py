"""statlight benchmark: `statlight run` on fixed workloads, end to end and per layer.

usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`, never from an installed copy, and the benchmark exits with
code 2 without printing a result when `src/statlight` is absent.

Closed loop, one client: one run at a time, each in a fresh interpreter with
OPENBLAS_NUM_THREADS=1, until --seconds have passed (at least two runs, so
that reruns can be compared byte for byte).

--trace 0 measures the end-to-end metrics. Each round makes one run, and in
every other round first a fresh `python -m statlight run CONFIG --check`
(set-up: interpreter start, imports, parse and validation). The yardstick job
(yardstick.py) runs before the first round and after each one.

Times are CPU seconds at the host's nominal speed. On a shared host, wall
time carries the time the hypervisor gives to other guests, and CPU time
carries the host's speed, which drifts by up to ~1.8x within minutes; the
yardstick job slows with it. So each time is the median CPU seconds over the
window, times the yardstick's nominal CPU seconds (workloads.py) over its
median CPU seconds in the same window:
  run_cpu_s  the run (`statlight.cli.main(["run", ...])`, output included)
  setup_s    the `--check` child, start to exit
The raw wall and CPU medians are printed and recorded, not reported as
metrics. peak_rss_mb and model_err are medians over the runs.

--trace 1 alternates untraced and traced runs; the traced ones wrap the
layer functions from outside the package (spans.py) and give the per-layer
metrics as medians over the traced runs. trace.overhead_frac is the traced
median wall time over the untraced one, minus 1; run.wall_s and run.cpu_s are
the raw medians of the untraced runs.

Every run is checked: exit code 0, the workload's accuracy bounds on
summary.json (workloads.py), and an out-dir byte-identical to the first run's,
since the same seed gives the same config. A run failing any of these counts
in `failed`. The last line of standard output is the JSON result; the full
record, with machine facts and the per-layer split, is written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import ROOT, layer_totals
from workloads import SMOKE, WORKLOADS, check_summary

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench"
# whole invocation stays well inside the 180 s a run may take
HARD_LIMIT_S = 160.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# stages directly under run_scenario; with cli.overhead_s they should cover
# the traced run
STAGES = ("scenario._run_direct", "scenario.reference_run",
          "scenario._measurements", "scenario._cross_engine",
          "scenario.write_outputs")
ACCOUNTED_MIN = 0.98
# medians of the untraced runs kept in the record and the report only
RAW_TIMES = ("run_s", "cpu_s", "setup_wall_s", "setup_cpu_s", "yardstick_cpu_s")


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_ENV)
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _tail(text: str, lines: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "cpu_model": platform.processor() or platform.machine(),
             "python": platform.python_version(),
             "threads": THREAD_ENV}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for name in ("numpy", "scipy"):
        try:
            mod = importlib.import_module(name)
            facts[name] = mod.__version__
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            facts[f"{name}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (ImportError, KeyError, TypeError, AttributeError) as exc:
            facts.setdefault(name, f"unavailable: {exc!r}")
    return facts


class Runner:
    """One benchmark invocation: a workload, a seed and a scratch directory."""

    def __init__(self, workload, seed: int, scratch: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.env = _child_env()
        self.config = scratch / "config.txt"
        self.config.write_text(workload.config_text(seed))
        self.reference_digests = None
        self.errors: list[str] = []
        self.started = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def setup(self) -> dict | None:
        """Time `python -m statlight run CONFIG --check` once: wall and CPU
        seconds of the child, start to exit; None if it failed."""
        cmd = [sys.executable, "-m", "statlight", "run", str(self.config), "--check"]
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.scratch,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.errors.append("setup check timed out")
            return None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.errors.append(f"setup check exited {proc.returncode}: {_tail(proc.stderr)}")
            return None
        return {"run_s": elapsed, "cpu_s": _children_cpu_s() - cpu0}

    def yardstick(self) -> dict | None:
        """Time the workload's yardstick job once in a fresh interpreter
        (yardstick.py); returns its run_s and cpu_s, or None if it failed."""
        w = self.workload
        out = self.scratch / "yardstick_out"
        record_path = self.scratch / "yardstick.json"
        cmd = [sys.executable, str(HERE / "yardstick.py"), str(w.grid_points),
               str(w.yardstick_steps), str(w.yardstick_files), str(out), str(record_path)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.scratch,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.remaining()))
            if proc.returncode != 0:
                self.errors.append(f"yardstick job exited {proc.returncode}: "
                                   f"{_tail(proc.stderr)}")
                return None
            return json.loads(record_path.read_text())
        except subprocess.TimeoutExpired:
            self.errors.append("yardstick job timed out")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def sample(self, traced: bool) -> dict:
        """Run once; returns the child's record plus `ok`, `model_err` and,
        when traced, the layer metrics."""
        self.count += 1
        out = self.scratch / f"out{self.count}"
        record_path = self.scratch / f"record{self.count}.json"
        cmd = [sys.executable, str(HERE / "sample.py"), str(SRC),
               str(self.config), str(out), str(record_path)]
        spans_path = None
        if traced:
            spans_path = WORK / "spans" / f"{self.workload.name}-s{self.seed}-{self.count}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--spans", str(spans_path)]
        problems = []
        rec: dict = {}
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.scratch,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.remaining()))
            if proc.returncode != 0:
                problems.append(f"run exited {proc.returncode}: {_tail(proc.stderr)}")
            rec = json.loads(record_path.read_text())
            summary = json.loads((out / "summary.json").read_text())
            rec["model_err"], failed_checks = check_summary(self.workload, summary)
            problems += failed_checks
            digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())}
            if self.reference_digests is None:
                self.reference_digests = digests
            elif digests != self.reference_digests:
                differing = sorted(set(digests.items()) ^ set(self.reference_digests.items()))
                problems.append(f"out-dir differs from the first run's: "
                                f"{sorted({name for name, _ in differing})[:5]}")
            if traced:
                rec["split"] = layer_totals(json.loads(spans_path.read_text()))
                rec["layers"] = layer_metrics(rec, rec["split"], out, self.workload)
        except subprocess.TimeoutExpired:
            problems.append("run timed out")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"run left no readable output: {exc!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rec["ok"] = not problems
        if problems:
            self.errors.append(f"run {self.count}: " + "; ".join(problems))
        return rec


def layer_metrics(rec: dict, totals: dict, out: pathlib.Path, workload) -> dict:
    """Per-layer metrics of one traced run. A function the tracer could not
    find gives null metrics; one that exists but was not called gives 0.

    Expected effect on the end-to-end metrics: integrator.* moves run_s on
    transit, then gate, least on hold_dense; the reference run only on gate;
    writing on hold_dense, then gate, then transit; snapshot_bytes_held moves
    peak_rss_mb on hold_dense; oracle, clock (medium.tau_*) and diagnostics
    move run_s on hold_dense and gate but not transit, and clock changes
    also setup_s; spectral.* and the cross-engine replay only hold_dense;
    config.parse_s moves setup_s."""
    missing = set(rec.get("missing", []))
    counts = rec.get("counts", {})

    def known(*targets):
        return not any(t in missing for t in targets)

    def incl(*names):
        target = {"scenario.reference_run": "scenario._run_direct"}
        if not known(*(target.get(n, n) for n in names)):
            return None
        return sum(totals.get(n, {}).get("inclusive_s", 0.0) for n in names)

    def calls(name):
        return totals.get(name, {}).get("calls", 0) if known(name) else None

    def ratio(num, den, scale=1.0):
        return None if num is None or not den else num * scale / den

    files = [p for p in out.iterdir() if p.is_file()]
    write_bytes = sum(p.stat().st_size for p in files)
    root_s = totals[ROOT]["inclusive_s"]
    step_calls, step_s = calls("integrator.step"), incl("integrator.step")
    windows = calls("scenario._pde_advance")
    scenario_s = incl("scenario.run_scenario")
    overhead = None if scenario_s is None else root_s - scenario_s
    stages = [incl(s) for s in STAGES]
    write_s = incl("scenario.write_outputs")
    return {
        "integrator.step_calls": step_calls,
        "integrator.step_s": step_s,
        "integrator.step_ms": ratio(step_s, step_calls, 1e3),
        "integrator.steps_per_window": ratio(step_calls, windows),
        "integrator.grid_point_steps_per_s": ratio(step_calls, step_s, workload.grid_points),
        "integrator.state_s": incl("integrator.init_state", "integrator.store",
                                   "integrator.release", "integrator.storage_advance"),
        "scenario.run_direct_s": incl("scenario._run_direct"),
        "scenario.reference_run_s": incl("scenario.reference_run"),
        "scenario.write_outputs_s": write_s,
        "scenario.write_bytes": write_bytes,
        "scenario.snapshot_files": sum(p.name.startswith("snap_") for p in files),
        "scenario.write_mb_per_s": ratio(write_bytes, write_s, 1e-6),
        "scenario.snapshot_bytes_held": rec.get("snapshot_bytes_held"),
        "diagnostics.compare_to_oracle_s": incl("diagnostics.compare_to_oracle"),
        "diagnostics.moments_calls": counts.get("diagnostics.moments"),
        "oracle.width_b_s": incl("oracle.width_b"),
        "oracle.decay_exponent_s": incl("oracle.decay_exponent"),
        "oracle.envelope_s": incl("oracle.gaussian_envelope"),
        "medium.tau_of_t_calls": calls("medium.tau_of_t"),
        "medium.tau_of_t_s": incl("medium.tau_of_t"),
        "medium.tau_rate_calls": counts.get("medium.tau_rate_at"),
        "medium.schedule_values_calls": counts.get("medium.ControlSchedule.values"),
        "spectral.propagate_calls": calls("spectral.propagate"),
        "spectral.propagate_s": incl("spectral.propagate"),
        "spectral.transform_s": incl("spectral.spectral_state_from_fields",
                                     "spectral.fields_from_state"),
        "scenario.cross_engine_s": incl("scenario._cross_engine"),
        "config.parse_s": incl("config.parse_config"),
        "scenario.windows": windows,
        "scenario.record_s": incl("scenario._record"),
        "scenario.measurements_s": incl("scenario._measurements"),
        "cli.overhead_s": overhead,
        "trace.run_s": root_s,
        "trace.accounted_frac": (None if None in stages or overhead is None
                                 else (sum(stages) + overhead) / root_s),
    }


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Sample until `seconds` have passed; returns metric values and counts."""
    scratch = WORK / f"{workload.name}-s{seed}-t{int(traced)}-p{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, scratch)
        setups, plain, tracedruns = [], [], []
        # untraced: the yardstick job before the first run and after each
        # one, so that the yardsticks span the same window as the runs
        sticks = [] if traced else [runner.yardstick()]
        while True:
            if traced and len(plain) > len(tracedruns):
                tracedruns.append(runner.sample(traced=True))
            else:
                # set-up is timed in every other round, so that most of
                # the window goes to runs and yardsticks
                if not traced and len(plain) % 2 == 0:
                    setups.append(runner.setup())
                plain.append(runner.sample(traced=False))
                if not traced:
                    sticks.append(runner.yardstick())
            done = len(plain) + len(tracedruns)
            elapsed = time.perf_counter() - runner.started
            # stop at the sample boundary nearest to `seconds`
            per_sample = elapsed / done
            if done >= 2 and (elapsed + 0.5 * per_sample >= seconds
                              or runner.remaining() < 1.5 * per_sample):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = plain + tracedruns
    failed = sum(not r["ok"] for r in runs)
    good = [r for r in plain if r["ok"]]
    run_s = _median(r["run_s"] for r in good)
    values = {}
    split = None
    if not traced:
        # the host's speed over the window, as the median yardstick against
        # the yardstick's nominal CPU seconds
        yardstick_cpu_s = _median(y["cpu_s"] for y in sticks if y)
        speed = (None if yardstick_cpu_s is None
                 else workload.yardstick_nominal_cpu_s / yardstick_cpu_s)

        def at_nominal(value):
            return None if value is None or speed is None else value * speed

        cpu_s = _median(r["cpu_s"] for r in good)
        setup_cpu_s = _median(x["cpu_s"] for x in setups if x)
        values.update(run_cpu_s=at_nominal(cpu_s),
                      setup_s=at_nominal(setup_cpu_s),
                      peak_rss_mb=_median(r["peak_rss_mb"] for r in good),
                      model_err=_median(r["model_err"] for r in good),
                      run_s=run_s, cpu_s=cpu_s,
                      setup_wall_s=_median(x["run_s"] for x in setups if x),
                      setup_cpu_s=setup_cpu_s,
                      yardstick_cpu_s=yardstick_cpu_s)
    else:
        good_traced = [r for r in tracedruns if r["ok"]]
        names = good_traced[0]["layers"] if good_traced else {}
        for name in names:
            values[name] = _median(r["layers"][name] for r in good_traced)
        traced_s = _median(r["run_s"] for r in good_traced)
        values["trace.overhead_frac"] = (None if traced_s is None or not run_s
                                         else traced_s / run_s - 1.0)
        values["run.wall_s"] = run_s
        values["run.cpu_s"] = _median(r["cpu_s"] for r in good)
        split = good_traced[0]["split"] if good_traced else None
        accounted = values.get("trace.accounted_frac")
        if accounted is not None and accounted < ACCOUNTED_MIN:
            runner.errors.append(f"warning: traced stages cover only {accounted:.3f} "
                                 f"of the traced run")
        missing = sorted({m for r in tracedruns for m in r.get("missing", [])})
        if missing:
            runner.errors.append(f"warning: not traced (metrics null): {missing}")
    return {"workload": workload.name, "seed": seed, "traced": traced,
            "seconds": seconds, "attempted": len(runs), "failed": failed,
            "setup_ok": None not in setups + sticks, "samples": len(good),
            "setups": setups, "yardsticks": sticks,
            "values": values, "split": split, "errors": runner.errors,
            "runs": [{k: v for k, v in r.items() if k not in ("layers", "split")}
                     for r in runs]}


def result_line(results: list[dict], metric_specs: list[dict]) -> dict:
    values: dict = {}
    for res in results:
        values.update(res["values"])
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in metric_specs}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["setup_ok"] for r in results)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(results: list[dict], line: dict) -> None:
    for res in results:
        mode = "traced" if res["traced"] else "end-to-end"
        print(f"# {res['workload']} seed {res['seed']} {mode}: "
              f"{res['samples']} good untraced runs, {res['attempted']} attempted, "
              f"{res['failed']} failed")
        for err in res["errors"]:
            print(f"#   {err}")
    rows = dict(line["metrics"])
    # a count of zero at this commit, so the result line carries it as
    # `failed` over `attempted` rather than as a metric
    rows["failed_frac"] = {"value": line["failed"] / line["attempted"], "unit": "ratio"}
    # the raw medians behind run_cpu_s and setup_s: shown, but as unsteady
    # as the host, so not metrics
    for res in results:
        for name in RAW_TIMES:
            if res["values"].get(name) is not None:
                rows[f"{name} (raw)"] = {"value": res["values"][name], "unit": "s"}
    for name, m in rows.items():
        value = m["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny config, both modes, minimum runs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    if not (SRC / "statlight" / "__init__.py").is_file():
        print(f"error: no statlight sources under {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    if args.smoke:
        results = [measure(SMOKE, args.seed, 0.0, traced=False),
                   measure(SMOKE, args.seed, 0.0, traced=True)]
        metric_specs = spec["end_to_end"] + spec["per_layer"]
    else:
        traced = bool(args.trace)
        results = [measure(WORKLOADS[args.workload], args.seed, args.seconds, traced)]
        metric_specs = spec["per_layer"] if traced else spec["end_to_end"]
    line = result_line(results, metric_specs)

    record = {"machine": machine_facts(), "result": line, "runs": results}
    out = WORK / "results" / (f"{results[0]['workload']}-s{args.seed}"
                              f"-t{int(args.smoke or bool(args.trace))}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    report(results, line)
    print(f"# machine: {json.dumps(record['machine'])}")
    print(f"# record: {out.relative_to(CHECKOUT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
