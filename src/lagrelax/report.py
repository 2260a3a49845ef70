"""JSON and trace-CSV output shared by the solve reports.

Every report is a dataclass whose fields are its JSON keys, with one field
holding the per-sweep trace as a list of entry dataclasses. The JSON is
strict: NaN and infinite values are written as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from typing import ClassVar

import numpy as np

# Why a solve ended: the duality certificate (discrete only), the sweep
# residual below tolerance, the sweep cap, or a NaN or infinite state.
STOP_REASONS = ("certified", "residual", "sweep_cap", "non_finite")


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
