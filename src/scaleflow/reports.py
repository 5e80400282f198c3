"""Report emission: CSV tables, JSON certificates, plot-ready curves.

Outputs are byte-stable for a fixed config on a fixed platform (numpy
version, enabled SIMD dispatch targets and BLAS core type): float fields
use shortest round-trip formatting, JSON keys are sorted, and no
timestamps appear.  Across platforms the verdicts are the same and the
numbers agree within a stated bound (README, "What is inside").
Every file starts from a header carrying the tool version, the sampling
seed and the SHA-256 digest of the config file.  A report dataclass is
written as its fields, so its field names are the JSON keys; CSV columns
are the keys of the first row, in order.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np

from . import __version__


def config_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def report_header(digest: str, seed: int) -> dict:
    return {
        "tool": "scaleflow",
        "version": __version__,
        "seed": seed,
        "config_sha256": digest,
    }


# the comparison each sense names; a NaN value fails all three
_SENSES = {"<=": lambda v, b: v <= b, ">=": lambda v, b: v >= b, ">": lambda v, b: v > b}


@dataclasses.dataclass(frozen=True)
class Verdict:
    """One judged number: it passes when ``value <sense> bound`` holds."""

    name: str
    value: float
    bound: float
    sense: str  # "<=", ">=" or ">"

    @property
    def passed(self) -> bool:
        return bool(_SENSES[self.sense](self.value, self.bound))

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.name} {self.value:.3e} {self.sense} {self.bound:g}"


def verdict_fields(verdicts) -> dict:
    """A JSON report's top-level ``passed`` and ``verdicts``, from ``verdicts`` alone."""
    return {"passed": all(v.passed for v in verdicts),
            "verdicts": [{**dataclasses.asdict(v), "passed": v.passed} for v in verdicts]}


def _format(value):
    if isinstance(value, np.generic):
        # np.float64 and np.complex128 subclass float and complex but repr
        # with their type name; np.bool_ subclasses nothing
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    return value


def write_csv(path: str, rows, header: dict) -> None:
    fieldnames = list(rows[0]) if rows else []
    buffer = io.StringIO()
    for key, value in header.items():
        buffer.write(f"# {key}: {value}\n")
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format(row.get(k)) for k in fieldnames})
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())


def _sanitize(obj):
    """``obj`` in JSON types, in one pass: dataclasses become dicts, numpy
    values their ``tolist()``, complex numbers {"re", "im"} pairs and
    non-finite floats their repr ("inf", "nan"), so the text is valid JSON."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        return {"re": _sanitize(obj.real), "im": _sanitize(obj.imag)}
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def write_json(path: str, payload: dict, header: dict) -> None:
    text = json.dumps(_sanitize({"header": header, **payload}), sort_keys=True, indent=2,
                      allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def write_curve(path: str, points, header: dict) -> None:
    """Two-column whitespace-separated plot data, one file per curve."""
    with open(path, "w", encoding="utf-8") as handle:
        for key, value in header.items():
            handle.write(f"# {key}: {value}\n")
        for x, y in points:
            handle.write(f"{_format(float(x))} {_format(float(y))}\n")


def emit(out: str, header: dict, verdicts, files: dict) -> None:
    """Write a run's report ``files`` into directory ``out``, each by the suffix
    of its name: a ``.json`` payload gains the run's ``passed`` and
    ``verdicts``, a ``.csv`` one is rows and a ``.dat`` one curve points."""
    os.makedirs(out, exist_ok=True)
    fields = verdict_fields(verdicts)
    for name, payload in files.items():
        path = os.path.join(out, name)
        if name.endswith(".json"):
            write_json(path, {**payload, **fields}, header)
        elif name.endswith(".csv"):
            write_csv(path, payload, header)
        else:
            write_curve(path, payload, header)


def log_error_curve(rows, err_key: str = "abs_err"):
    """(log |eps|, log error) per row, an error of 0 read as 1e-300."""
    return [
        (math.log(abs(row["eps"])), math.log(max(row[err_key], 1e-300)))
        for row in rows
    ]
