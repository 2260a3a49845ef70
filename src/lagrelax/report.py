"""The sweep driver and the JSON and trace-CSV output shared by the solve
reports.

`run_sweeps` is the one loop of every solver and the one place where the
stop rules live: it numbers and times each sweep's trace entry and says
why the sweeps ended. Every report is a dataclass whose fields are its
JSON keys, with one field holding the per-sweep trace as a list of entry
dataclasses. The JSON is strict: NaN and infinite values are written as
null.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, fields
from typing import ClassVar

import numpy as np

# Why a solve ended: the duality certificate (discrete only), the sweep
# residual below tolerance, the sweep cap, or a NaN or infinite state.
STOP_REASONS = ("certified", "residual", "sweep_cap", "non_finite")


def run_sweeps(sweep, trace: list, max_sweeps: int, tol: float, t0: float, stop=None) -> str:
    """Call `sweep()` up to `max_sweeps` times and return the stop reason.

    Each call returns a trace entry. Its `sweep` is stamped with its 1-based
    position in `trace` (so numbering runs on when loops share a trace),
    its `wall_ms` with the milliseconds since the `perf_counter` reading
    `t0`, and it is appended. Then, in order: a non-finite `max_residual`
    gives `non_finite`, a true `stop(entry)` is the reason, and
    `max_residual < tol` gives `residual`. Running out of sweeps gives
    `sweep_cap`. Raises ValueError when `max_sweeps` (the Gaussian solvers'
    `max_iters`) is below 1.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_iters must be at least 1, not {max_sweeps}")
    for _ in range(max_sweeps):
        entry = sweep()
        entry.sweep = len(trace) + 1
        entry.wall_ms = (time.perf_counter() - t0) * 1e3
        trace.append(entry)
        if not math.isfinite(entry.max_residual):
            return "non_finite"
        if stop and (reason := stop(entry)):
            return reason
        if entry.max_residual < tol:
            return "residual"
    return "sweep_cap"


def json_safe(value):
    """`value` with every NaN or infinite float, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    return value


def write_trace_csv(path, entry_type, entries) -> None:
    """One row per entry under a header of `entry_type`'s field names.

    Floats are written by repr, so each cell parses back to its value.
    """
    names = [f.name for f in fields(entry_type)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for entry in entries:
            cells = (getattr(entry, n) for n in names)
            fh.write(",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in cells) + "\n")


class Report:
    """Base of the solve reports: `to_dict`, `write_json` and
    `write_trace_csv` from the dataclass fields.

    TRACE names the trace field and ENTRY its entry dataclass.
    """

    TRACE: ClassVar[str] = "dual_trace"
    ENTRY: ClassVar[type]

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == self.TRACE:
                value = [asdict(t) for t in value]
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = json_safe(value)
        return out

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, allow_nan=False)

    def write_trace_csv(self, path) -> None:
        write_trace_csv(path, self.ENTRY, getattr(self, self.TRACE))
