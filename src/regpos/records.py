"""Self-describing experiment records with JSONL persistence and CSV summaries.

Output files are deterministic functions of (config, seed): records
carry a logical timestamp (the record ordinal within the run) instead of
wall-clock time, which never enters output files, so re-runs are
byte-identical.  Every measured quantity carries its uncertainty (a standard
error, a confidence interval, an explicit exact marker, or a bound marker).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

__version__ = "0.1.0"

__all__ = [
    "ExperimentRecord",
    "measured",
    "record_to_json",
    "record_from_json",
    "JsonlWriter",
    "write_csv",
]


def measured(value, se=None, ci=None, exact=False, lower_bound=False):
    """Uncertainty-carrying scalar for a record's measured map; lower_bound
    marks a certified lower bound on the quantity ("bound": "lower").  A
    non-finite value, se or ci is a ValueError: strict JSON has no NaN."""
    out = {"value": float(value)}
    if se is not None:
        out["se"] = float(se)
    if ci is not None:
        out["ci"] = [float(ci[0]), float(ci[1])]
    if not all(map(math.isfinite, [out["value"], out.get("se", 0.0), *out.get("ci", ())])):
        raise ValueError(f"measured quantity is not finite: {out}")
    if exact:
        out["exact"] = True
    if lower_bound:
        out["bound"] = "lower"
    if len(out) == 1:
        raise ValueError("measured quantity needs se, ci, an exact marker or a bound")
    return out


@dataclass
class ExperimentRecord:
    experiment: str
    seed: int
    body: dict
    params: dict
    measured: dict
    t_index: int = 0
    version: str = __version__


def record_to_json(rec: ExperimentRecord) -> str:
    # the fields hold only JSON values, so dumping them directly gives the bytes
    # of dataclasses.asdict without its deep copy
    return json.dumps(vars(rec), sort_keys=True, separators=(",", ":"))


def record_from_json(line: str) -> ExperimentRecord:
    d = json.loads(line)
    return ExperimentRecord(**d)


class JsonlWriter:
    """Append-only JSONL sink assigning logical timestamps in write order."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w")
        self._n = 0

    def write(self, rec: ExperimentRecord):
        rec.t_index = self._n
        self._fh.write(record_to_json(rec) + "\n")
        self._n += 1

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_csv(path, rows, fieldnames):
    """Deterministic CSV summary (floats via repr, LF line endings)."""
    with open(path, "w", newline="\n") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in fieldnames})
