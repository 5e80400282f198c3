"""Report schema: the JSON keys and CSV columns every CLI report carries.

Each report is written by ``reports.emit`` from the files a CLI runner
returns; the keys below are the byte-level format that downstream readers
(and the benchmark's verdict reader) rely on.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
import yaml

from scaleflow.cli import main
from scaleflow.reports import Verdict, _format, verdict_fields, write_json

BASE = {
    "seed": 0,
    "group": {"kind": "positive-multiplicative", "weight_param": 1.0},
    "action": {"variant": "diagonal-scaling", "exponents": [1]},
    "ladder": {"count": 6},
}

GROUP_LAW = {"check", "worst_violation", "tolerance", "sample_count", "seed"}
ABSORPTION = {"check", "source", "target", "threshold", "sample_evidence", "exact_bounds"}
ESCAPE = {"check", "threshold", "radius", "norms"}
SUBMULTIPLICATIVE = {"check", "worst_excess", "decay", "decay_monotone", "decay_final",
                     "bounded"}
CENTER_NULL = {"check", "passed", "trivial", "masses"}
CONVERGENCE = {"limit", "fitted_order", "rows"}
COMPARISON = {"difference", "tolerance"}
VERDICT = {"name", "value", "bound", "sense", "passed"}


def run(tmp_path, subcommand, extra):
    path = tmp_path / f"{subcommand}.yaml"
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump({**BASE, **extra}, handle)
    out = tmp_path / subcommand
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    return out


def load(out, name):
    """A JSON report, after checking its verdicts array and top-level passed."""
    with open(out / name, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["verdicts"] and all(set(v) == VERDICT for v in doc["verdicts"])
    assert doc["passed"] == all(v["passed"] for v in doc["verdicts"])
    return doc


def columns(out, name):
    with open(out / name, encoding="utf-8", newline="") as handle:
        lines = [line for line in handle if not line.startswith("# ")]
    return next(csv.reader(lines))


def test_action_certificate_schema(tmp_path):
    out = run(tmp_path, "verify-action", {
        "absorption": {"source_radius": 10.0, "target_radius": 1.0},
        "escape": {"point": [1.0], "radius": 10.0},
    })
    doc = load(out, "action_certificates.json")
    assert set(doc) == {"header", "passed", "verdicts", "results"}
    results = doc["results"]
    assert set(results) == {"group_law", "absorption", "escape"}
    for name, keys, tag in (("group_law", GROUP_LAW, "group-law"),
                            ("absorption", ABSORPTION, "absorption"),
                            ("escape", ESCAPE, "escape")):
        assert set(results[name]) == keys, name
        assert results[name]["check"] == tag
    absorption = results["absorption"]
    assert absorption["source"] == {"center": [0.0], "radius": 10.0}
    assert absorption["target"] == {"center": [0.0], "radius": 1.0}
    assert all(len(pair) == 2 for pair in absorption["sample_evidence"])
    assert columns(out, "action_summary.csv") == ["check", "passed"]


def test_contraction_schema(tmp_path):
    out = run(tmp_path, "contract", {"contraction": {"starts": 2, "pairs": 16}})
    doc = load(out, "contraction.json")
    assert set(doc) == {"header", "passed", "verdicts", "submultiplicative", "fixed_point"}
    assert set(doc["submultiplicative"]) == SUBMULTIPLICATIVE
    assert doc["submultiplicative"]["check"] == "submultiplicative"
    assert all(len(pair) == 2 for pair in doc["submultiplicative"]["decay"])
    assert columns(out, "fixed_point.csv") == [
        "start", "iterations", "residual", "center_distance", "passed"
    ]


def test_homogeneity_schema(tmp_path):
    out = run(tmp_path, "homogeneity", {
        "ladder": {"values": [0.5, 0.25, 0.125]},
        "grid": {"rule": "midpoint", "base_nodes": 256},
        "homogenizer": {"measure": "lebesgue"},
    })
    doc = load(out, "homogeneity.json")
    assert set(doc) == {"header", "passed", "verdicts", "worst_rel_err",
                        "factor_multiplicative_defect", "center_null", "decay"}
    assert set(doc["center_null"]) == CENTER_NULL
    assert doc["center_null"]["check"] == "center-null"
    assert columns(out, "homogeneity.csv") == [
        "eps", "phi", "lhs", "rhs", "abs_err", "rel_err", "quad_est"
    ]


def test_mean_schema_with_infinite_order(tmp_path):
    # a constant function sits at its mean on every rung: every error is
    # below the quadrature floor and the fitted order is infinite
    out = run(tmp_path, "mean", {
        "ladder": {"count": 4},
        "grid": {"rule": "gauss", "base_nodes": 128, "panel_order": 16},
        "homogenizer": {"measure": "lebesgue"},
        "mean": {
            "function": {"class": "periodic", "terms": [[[0.0], 1.0, 0.0]]},
            "shift": [0.3],
            "kernel": {"kind": "gaussian", "center": [0.0], "sigma": 0.5},
        },
    })
    doc = load(out, "mean.json")
    assert set(doc) == {"header", "passed", "verdicts", "results"}
    results = doc["results"]
    assert set(results) == {"empirical", "closed_form", "translated", "translation",
                            "convolved", "convolution"}
    empirical = results["empirical"]
    assert set(empirical) == CONVERGENCE
    assert empirical["fitted_order"] == "inf"
    assert empirical["limit"] == {"re": 1.0, "im": 0.0}
    assert set(empirical["rows"][0]) == {"eps", "value", "abs_err", "quad_est"}
    for name in ("translation", "convolution"):
        assert set(results[name]) == COMPARISON, name
    for name in ("translated", "convolved"):
        assert set(results[name]) == CONVERGENCE, name
    # each of the three sweeps is written once: both comparisons reuse u's
    assert (out / "mean.json").read_text().count('"rows"') == 3
    assert columns(out, "mean.csv") == ["eps", "value", "abs_err", "quad_est"]
    text = (out / "mean.json").read_text()
    assert '"fitted_order": "inf"' in text
    assert {"name": "empirical-mean-order", "value": "inf", "bound": 0.9, "sense": ">=",
            "passed": True} in doc["verdicts"]
    assert "Infinity" not in text


def test_sigma_schema(tmp_path):
    cfg = {
        "ladder": {"count": 3},
        "grid": {"rule": "gauss", "base_nodes": 128, "panel_order": 16,
                 "max_nodes": 1 << 16},
        "tolerances": {"rel": 1.0, "decay_order": -100.0},
        "sigma": {
            "algebra": {"kind": "periodic", "dimension": 1},
            "u0": {"name": "u0", "terms": [
                {"macro": {"kind": "gaussian", "center": [0.5], "sigma": 0.15},
                 "element": [[[1.0], 1.0, 0.0]]},
            ]},
            "battery": [{"name": "conj", "terms": [
                {"macro": {"kind": "gaussian", "center": [0.5], "sigma": 0.15},
                 "element": [[[-1.0], 1.0, 0.0]]},
            ]}],
        },
    }
    out = run(tmp_path, "sigma", cfg)
    assert columns(out, "sigma.csv") == [
        "psi", "eps", "lhs", "rhs", "abs_err", "rel_err", "quad_est", "nodes",
        "oscillation_free",
    ]
    doc = load(out, "sigma.json")
    assert set(doc) == {"header", "passed", "verdicts", "per_test", "norm_bound"}
    assert set(doc["norm_bound"][0]) == {"eps", "lhs", "rhs", "passed", "field"}


def test_csv_format_unwraps_numpy_scalars():
    # verdict rows mix Python and numpy scalars; both must write alike
    assert _format(np.float64(1.25)) == _format(1.25) == "1.25"
    assert _format(np.complex128(0.5 + 0j)) == _format(0.5 + 0j) == "(0.5+0j)"
    assert _format(np.bool_(True)) == _format(True) == "true"
    assert _format(np.int64(3)) == 3
    assert _format("g-half") == "g-half"


def _no_constants(token):
    raise ValueError(f"bare JSON constant {token}")


def test_json_writer_emits_strict_json(tmp_path):
    # non-finite floats, numpy or not and inside complex numbers and arrays,
    # become their repr; numpy scalars their Python values
    @dataclasses.dataclass
    class Row:
        value: float

    path = tmp_path / "doc.json"
    write_json(str(path), {
        "a": np.array([np.inf, 1.5]), "z": complex(math.nan, 1.0), "g": np.float64("nan"),
        "b": np.bool_(True), "c": np.complex128(complex(0.5, -math.inf)), "i": np.int64(3),
        "row": Row(-math.inf),
    }, {"tool": "scaleflow"})
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle, parse_constant=_no_constants)
    assert doc == {
        "header": {"tool": "scaleflow"}, "a": ["inf", 1.5], "z": {"re": "nan", "im": 1.0},
        "g": "nan", "b": True, "c": {"re": 0.5, "im": "-inf"}, "i": 3,
        "row": {"value": "-inf"},
    }
    # a value JSON cannot hold fails before the file is opened
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "bad.json"), {"o": object()}, {})
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("sense, below, equal, above", [
    ("<=", True, True, False),
    (">=", False, True, True),
    (">", False, False, True),
])
def test_verdict_passed_by_sense(sense, below, equal, above):
    def passed(value, bound=1.0):
        return Verdict("v", value, bound, sense).passed

    assert (passed(0.5), passed(1.0), passed(2.0)) == (below, equal, above)
    assert (passed(-math.inf), passed(math.inf)) == (below, above)
    assert passed(math.inf, math.inf) == passed(-math.inf, -math.inf) == equal
    assert (passed(1.0, math.inf), passed(1.0, -math.inf)) == (below, above)
    # a NaN value fails every sense, and so does a NaN bound
    assert not passed(math.nan) and not passed(np.float64("nan")) and not passed(1.0, math.nan)
    assert isinstance(passed(np.float64(0.5)), bool)


def test_verdict_line_and_fields_come_from_its_four_fields():
    verdicts = [Verdict("a", 0, 0, "<="), Verdict("b", math.nan, 1e-2, "<=")]
    assert [v.line() for v in verdicts] == ["[pass] a 0.000e+00 <= 0", "[FAIL] b nan <= 0.01"]
    fields = verdict_fields(verdicts)
    assert fields["passed"] is False
    assert [(v["name"], v["passed"]) for v in fields["verdicts"]] == [("a", True), ("b", False)]
    assert verdict_fields([])["passed"] is True
