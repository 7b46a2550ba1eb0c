"""Output checks and accuracy against the stored tables.

A check that fails marks the operation failed.  Accuracy is reported, not
gated: a large error against the converged reference is a finding, not a
failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

from common import DATA_DIR, REFERENCE_CENTRES, rel_err

SCAN_HEADER = ["v_center_mps", "speed_ratio_in", "speed_ratio_out",
               "speed_ratio_baseline", "throughput", "flag"]
ACCURACY_FIELDS = ("speed_ratio", "throughput", "baseline_ratio")


class OutputError(Exception):
    """An operation's output failed a check."""


def load_reference() -> dict[float, dict]:
    data = json.loads((DATA_DIR / "reference.json").read_text())
    table = {row["v_center_mps"]: row for row in data["centres"]}
    if sorted(table) != REFERENCE_CENTRES:
        raise OutputError("reference table does not cover the reference centres")
    return table


def load_census_table() -> dict[float, tuple]:
    """Velocity -> ((considered, surviving, groups), selected orders or None)."""
    data = json.loads((DATA_DIR / "census_table.json").read_text())
    table = {}
    for first, last, census, orders in data["runs"]:
        for v in range(int(first), int(last) + 1):
            table[float(v)] = (tuple(census), None if orders is None else tuple(orders))
    return table


def _finite(value, what):
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise OutputError(f"{what} is not a number: {value!r}") from None
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise OutputError(f"{what} is not a finite number: {value!r}")
    return float(value)


class Accuracy:
    """Largest relative error against the reference over the centres run."""

    def __init__(self, reference: dict[float, dict]):
        self.reference = reference
        self.errors: dict[float, dict[str, float]] = {}

    def add(self, v: float, **values):
        ref = self.reference[v]
        self.errors[v] = {k: rel_err(values[k], ref[k]) for k in ACCURACY_FIELDS}

    def report(self) -> dict:
        """The *_rel_err_max metrics, the centre setting each, and the per-centre errors."""
        out = {"accuracy": {}, "accuracy_worst_centre": {}, "accuracy_centres": len(self.errors),
               "accuracy_by_centre": {f"{v:g}": e for v, e in sorted(self.errors.items())}}
        for k in ACCURACY_FIELDS:
            worst = max(self.errors, key=lambda v: self.errors[v][k])
            out["accuracy"][f"{k}_rel_err_max"] = self.errors[worst][k]
            out["accuracy_worst_centre"][k] = worst
        return out


def check_scan(stdout: bytes, fmt: str) -> list[tuple[float, dict]]:
    """Parse and check `mwmono scan` output over the reference centres."""
    text = stdout.decode()
    try:
        if fmt == "json":
            rows = json.loads(text)
            if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
                raise OutputError("scan JSON is not a list of rows")
            rows = [[r.get(k) for k in SCAN_HEADER] for r in rows]
        else:
            reader = csv.reader(io.StringIO(text))
            if next(reader, None) != SCAN_HEADER:
                raise OutputError("scan CSV header differs")
            rows = [[None if c == "" else c for c in r[:-1]] + r[-1:] for r in reader]
    except ValueError as exc:
        raise OutputError(f"scan output does not parse: {exc}") from None
    if any(len(row) != len(SCAN_HEADER) for row in rows):
        raise OutputError("scan row with the wrong number of columns")
    if len(rows) != len(REFERENCE_CENTRES):
        raise OutputError(f"{len(rows)} scan rows, expected {len(REFERENCE_CENTRES)}")
    out = []
    for row, v in zip(rows, REFERENCE_CENTRES):
        if row[5]:
            raise OutputError(f"scan row at {v} flagged {row[5]!r}")
        nums = [_finite(c, name) for c, name in zip(row[:5], SCAN_HEADER)]
        if nums[0] != v:
            raise OutputError(f"scan row centre {nums[0]} != {v}")
        out.append((v, {"speed_ratio": nums[2], "baseline_ratio": nums[3], "throughput": nums[4]}))
    return out
