"""Spans and call counters around statlight's layer functions, installed from
outside the package.

Each function is rebound wherever a module looks it up, not only where it is
defined: `scenario` imports `step`, `propagate` and `compare_to_oracle`
directly, and several modules import `tau_rate_at` or `tau_of_t`. A target
missing after a refactor is listed in `Tracer.missing` and its metrics come
out as null; the untraced end-to-end runs never use this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "statlight"

# (module, function) pairs timed with a span per call
SPANNED = (
    ("config", "parse_config"),
    ("scenario", "run_scenario"),
    ("scenario", "_run_direct"),
    ("scenario", "_pde_advance"),
    ("scenario", "_record"),
    ("scenario", "_measurements"),
    ("scenario", "_cross_engine"),
    ("scenario", "write_outputs"),
    ("integrator", "step"),
    ("integrator", "init_state"),
    ("integrator", "store"),
    ("integrator", "release"),
    ("integrator", "storage_advance"),
    ("diagnostics", "compare_to_oracle"),
    ("oracle", "width_b"),
    ("oracle", "decay_exponent"),
    ("oracle", "gaussian_envelope"),
    ("medium", "tau_of_t"),
    ("spectral", "propagate"),
    ("spectral", "spectral_state_from_fields"),
    ("spectral", "fields_from_state"),
)

# hot helpers whose calls are only counted: a span each would cost more than
# the call itself
COUNTED = (
    ("diagnostics", "moments"),
    ("medium", "tau_rate_at"),
    ("medium", "ControlSchedule.values"),
)

ROOT = "cli.main"


def _direct_label(args, kwargs) -> str:
    """The reference twin is the `_run_direct` call without the perturber."""
    include = kwargs.get("include_perturber", args[1] if len(args) > 1 else True)
    return "scenario.reference_run" if include is False else "scenario._run_direct"


def snapshot_bytes_held(result) -> int:
    """Bytes of field arrays the finished run holds in its snapshots."""
    runs = [result.snapshots]
    if result.reference is not None:
        runs.append(result.reference.snapshots)
    return sum(value.nbytes for snaps in runs for snap in snaps
               for value in vars(snap).values() if hasattr(value, "nbytes"))


class Tracer:
    """Spans are [id, parent_id, name, start, end] lists kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.snapshot_bytes_held: int | None = None
        self._stack: list[int] = []

    def span(self, name: str, fn, label=None, post=None):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None,
                   label(args, kwargs) if label else name, perf_counter(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if post is not None:
                post(result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _record_held(self, result):
        try:
            self.snapshot_bytes_held = snapshot_bytes_held(result)
        except AttributeError as exc:
            self.missing.append(f"scenario.snapshot_bytes_held ({exc})")

    def install(self) -> None:
        """Rebind every target in each statlight module that refers to it."""
        modules = {}
        for name, _ in SPANNED + COUNTED:
            try:
                modules[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                pass
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for counted, targets in ((False, SPANNED), (True, COUNTED)):
            for modname, qualname in targets:
                name = f"{modname}.{qualname}"
                owner = modules.get(modname)
                attr = qualname
                if owner is not None and "." in qualname:
                    cls, attr = qualname.split(".")
                    owner = getattr(owner, cls, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if not callable(orig):
                    self.missing.append(name)
                    continue
                if counted:
                    wrapped = self.counter(name, orig)
                elif qualname == "_run_direct":
                    wrapped = self.span(name, orig, label=_direct_label)
                elif qualname == "run_scenario":
                    wrapped = self.span(name, orig, post=self._record_held)
                else:
                    wrapped = self.span(name, orig)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, wrapped)


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds (outermost spans of the name
    only, so recursion is not counted twice) and self seconds."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals: dict[str, dict] = {}
    for sid, parent, name, start, end in spans:
        entry = totals.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time.get(sid, 0.0)
        ancestor = parent
        while ancestor is not None and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            entry["inclusive_s"] += end - start
    return totals
