"""One benchmark sample in a fresh interpreter.

Runs `statlight run CONFIG --out-dir OUT_DIR` through the CLI entry point, as
a user would, and times the call from here: wall seconds, CPU seconds of this
process (and of any children it waits for) during the call, and the process's
peak resident memory. With
--spans, the run is traced (see spans.py) and its spans are written to that
path. The measurements go to RECORD as JSON.

usage: python3 perfbench/sample.py SRC CONFIG OUT_DIR RECORD [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _cpu_s() -> float:
    """CPU seconds of this process and of any children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("record")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from statlight import cli

    entry = cli.main
    tracer = None
    if args.spans is not None:
        from spans import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span(ROOT, cli.main)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    code = entry(["run", args.config, "--out-dir", args.out_dir])
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    record = {"exit": code, "run_s": run_s, "cpu_s": cpu_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        record.update(counts=tracer.counts, missing=tracer.missing,
                      snapshot_bytes_held=tracer.snapshot_bytes_held)
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
