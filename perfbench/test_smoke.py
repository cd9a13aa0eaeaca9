"""Smoke test of the benchmark harness: the tiny config through both modes in
a few seconds, the workload generator, and the refusal to run without the
program's sources."""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _bench(root: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def test_smoke_reports_every_metric():
    proc = _bench(CHECKOUT, "--smoke", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert line["correct"], proc.stdout
    assert line["failed"] == 0 and line["attempted"] >= 4
    assert sorted(line["metrics"]) == sorted(names)
    missing = [n for n, m in line["metrics"].items() if m["value"] is None]
    assert not missing, missing
    metrics = {n: m["value"] for n, m in line["metrics"].items()}
    assert metrics["trace.accounted_frac"] >= 0.98
    assert metrics["integrator.step_calls"] > 0 and metrics["spectral.propagate_calls"] > 0
    assert metrics["scenario.reference_run_s"] == 0.0
    assert list((CHECKOUT / ".perfbench" / "spans").glob("smoke-s3-*.json"))


def test_seed_moves_only_amplitude_and_center():
    for workload in WORKLOADS.values():
        a, b = workload.config_text(1), workload.config_text(2)
        assert a == workload.config_text(1)
        changed = {la.split(" = ")[0] for la, lb in zip(a.splitlines(), b.splitlines())
                   if la != lb}
        assert changed == ({"pulse.amplitude"} if workload.center is None
                           else {"pulse.amplitude", "pulse.center"})


def test_refuses_without_sources(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "transit", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
