"""Seeded workloads for the scaleflow benchmark and the verdict errors they judge.

A workload is a list of CLI invocations.  Seed 0 runs the committed
``configs/*.yaml`` unchanged plus one generated 2-D mean-value config; any
other seed writes jittered copies into the run's scratch directory.  The
jitter moves test-function centres and widths and the config ``seed`` only:
grid rules, grid caps, ladder lengths and term counts stay fixed, so every
seed asks for comparable work.  Two kinds of test function stay put:

- the mean configs' ``phi``: its width sizes the grid (node counts are
  rounded to whole panels, so a new width changes the work itself), and
  moving its centre spread ``accuracy_margin`` over seeds (convolution margin
  1.61-1.95 decades on the 2-D mean for seeds 1-5, against 1.84-1.89 for
  seeds 0-9 with it fixed);
- compact quartic bumps, whose second derivative jumps at the support edge:
  where that edge falls between quadrature nodes sets the construct-measure
  error, so moving it would make ``accuracy_margin`` a lottery over seeds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
from dataclasses import dataclass

import yaml

# Relative jitter of a width and absolute jitter of a centre coordinate.
WIDTH_JITTER = 0.05
CENTER_JITTER = 0.05

# Decades of margin reported when a judged error is exactly zero or tiny.
MARGIN_CAP = 6.0

# Slack `contraction.certify_submultiplicative` judges worst_excess against
# (scaleflow.contraction.SUBMULT_SLACK); the report does not carry it.
SUBMULT_SLACK = 1e-9

# Periodic trig polynomial on R^2 against a 2-D mollifier on a Gauss grid.
# At the last ladder rung (eps = 1/32) the fine grid has 1024^2 nodes.
MEAN_2D = {
    "seed": 0,
    "group": {"kind": "positive-multiplicative", "weight_param": 1.0},
    "action": {"variant": "diagonal-scaling", "exponents": [1, 1]},
    "ladder": {"count": 5},
    "grid": {"rule": "gauss", "base_nodes": 64, "panel_order": 16, "max_nodes": 4096},
    "tolerances": {"rel": 1.0e-2, "decay_order": 0.9},
    "homogenizer": {"measure": "lebesgue"},
    "mean": {
        "function": {
            "class": "periodic",
            "terms": [
                [[0.0, 0.0], 0.5, 0.0],
                [[1.0, 2.0], -0.25, 0.0],
                [[-1.0, -2.0], -0.25, 0.0],
                [[2.0, -1.0], 0.1, 0.05],
                [[-2.0, 1.0], 0.1, -0.05],
            ],
        },
        "phi": {"kind": "mollifier", "center": [0.3, 0.2], "width": 0.5},
        "shift": [0.3, 0.1],
        "kernel": {"kind": "gaussian", "center": [0.0, 0.0], "sigma": 0.5},
    },
}


def _default_battery(dim: int) -> list:
    """The battery `measures.default_battery(dim)` builds when a config has none."""
    center = [0.3] * dim
    return [
        {"kind": "gaussian", "center": center, "sigma": 0.5},
        {"kind": "gaussian", "center": center, "sigma": 1.0},
        {"kind": "gaussian", "center": center, "sigma": 2.0},
        {"kind": "bump", "center": center, "width": 2.0},
    ]


# Per-layer spans each workload must fire in a traced run, beside the
# config and report layers that every workload fires.
_COMMON_FIRED = ("config", "reports")

FIRED = {
    "orbit_sweep": (
        "actions.apply", "groups.weight", "measures.ConstructedMeasure.pairing",
        "measures.TestFunction.call", "actions.certify_group_law",
        "actions.certify_absorption", "contraction.certify_submultiplicative",
        "contraction.fixed_point",
    ),
    "tensor_grids": (
        "measures.TestFunction.call", "measures.pushforward_pairing",
        "quadrature.boundary_mass_fraction", "quadrature.points_and_weights",
        "quadrature.integrate_with_refinement", "kernels.pairwise_dot",
        "kernels.trig_eval", "meanvalue.empirical_mean", "meanvalue.convolve",
        "cli.battery",
    ),
    "oscillating_traces": (
        "quadrature.integrate_with_refinement", "kernels.trig_eval",
        "trig.TrigPolynomial.call", "algebra.spectral_pairing", "sigma.envelope_norm",
        "sigma.sigma_pairing_lhs", "sigma.sigma_pairing_rhs",
        "sigma.trace_norm_bound_check", "sigma.TwoScaleField.trace_values",
        "meanvalue.empirical_mean", "meanvalue.convolve",
    ),
}

# (subcommand, committed config or None for MEAN_2D, --jobs)
_PLANS = {
    "orbit_sweep": [
        ("construct-measure", "construct_measure", 1),
        ("verify-action", "verify_action", 1),
        ("contract", "contract", 1),
    ],
    "tensor_grids": [
        ("homogeneity", "homogeneity_r2", 2),
        ("mean", None, 2),
    ],
    "oscillating_traces": [
        ("sigma", "sigma_periodic", 1),
        ("sigma", "sigma_quasiperiodic", 1),
        ("mean", "mean_periodic", 1),
    ],
}

NAMES = tuple(_PLANS)

# Subcommands whose verdicts judge errors against the config's tolerances.rel;
# the certificate reports carry their own tolerance.
_JUDGED_AGAINST_REL = {"construct-measure", "homogeneity", "sigma", "mean"}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``scaleflow <subcommand> --config <config> --jobs <jobs>``."""

    label: str
    subcommand: str
    config: str  # path of the YAML file the CLI reads
    jobs: int
    tolerance: float | None  # the config's rel tolerance, if the verdict judges against it

    def argv(self, out: str) -> list:
        return [self.subcommand, "--config", self.config, "--out", out,
                "--jobs", str(self.jobs)]


def _jitter_width(rng: random.Random, value: float) -> float:
    return float(value) * (1.0 + rng.uniform(-WIDTH_JITTER, WIDTH_JITTER))


def _jitter_center(rng: random.Random, center):
    if isinstance(center, (list, tuple)):
        return [float(c) + rng.uniform(-CENTER_JITTER, CENTER_JITTER) for c in center]
    return float(center) + rng.uniform(-CENTER_JITTER, CENTER_JITTER)


def _jitter_function(rng: random.Random, block: dict) -> dict:
    """Move a test function's centre and width; bumps stay put."""
    out = dict(block)
    if out.get("kind") == "bump":
        return out
    if "center" in out:
        out["center"] = _jitter_center(rng, out["center"])
    for key in ("sigma", "width"):
        if key in out:
            out[key] = _jitter_width(rng, out[key])
    return out


def _jitter_config(cfg: dict, rng: random.Random) -> dict:
    cfg = copy.deepcopy(cfg)
    cfg["seed"] = rng.randrange(1, 1 << 16)
    if cfg.get("battery"):
        cfg["battery"] = [_jitter_function(rng, b) for b in cfg["battery"]]
    mean = cfg.get("mean")
    if mean and "kernel" in mean:  # phi stays put, see the module docstring
        mean["kernel"] = _jitter_function(rng, mean["kernel"])
    sigma = cfg.get("sigma")
    if sigma:
        for field in [sigma["u0"], *sigma.get("battery", [])]:
            for term in field["terms"]:
                term["macro"] = _jitter_function(rng, term["macro"])
    return cfg


def generate(name: str, seed: int, root: str, workdir: str) -> list:
    """Invocations of workload ``name`` for ``seed``; configs go to ``workdir``."""
    if name not in _PLANS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")
    invocations = []
    for i, (sub, stem, jobs) in enumerate(_PLANS[name]):
        if stem is None:
            cfg, path = copy.deepcopy(MEAN_2D), None
            stem = "mean_2d"
        else:
            path = os.path.join(root, "configs", f"{stem}.yaml")
            with open(path, "r", encoding="utf-8") as handle:
                cfg = yaml.safe_load(handle)
        if seed != 0:
            if sub == "homogeneity" and not cfg.get("battery"):
                cfg["battery"] = _default_battery(len(cfg["action"]["exponents"]))
            cfg = _jitter_config(cfg, random.Random(f"{seed}:{stem}"))
            path = None
        if path is None:
            path = os.path.join(workdir, f"{i}_{stem}.yaml")
            with open(path, "w", encoding="utf-8") as handle:
                yaml.safe_dump(cfg, handle, sort_keys=True)
        rel = float(cfg["tolerances"]["rel"]) if sub in _JUDGED_AGAINST_REL else None
        invocations.append(Invocation(f"{i}_{stem}", sub, path, jobs, rel))
    return invocations


def expected_spans(name: str) -> tuple:
    return FIRED[name] + _COMMON_FIRED


# -- accuracy margin ------------------------------------------------------------


def _load(out: str, filename: str) -> dict:
    with open(os.path.join(out, filename), "r", encoding="utf-8") as handle:
        return json.load(handle)


def judged_errors(inv: Invocation, out: str) -> list:
    """(label, error, tolerance) for the errors the invocation's verdicts judge.

    The mean translation check is left out: it judges |v_a - v_b| against
    2 (e_a + e_b), where e is each value's error against the shared limit, so
    by the triangle inequality its margin is never below log10 2 and reads
    exactly that whenever the two errors have opposite signs, whatever their
    size: the check cannot fail, so as the minimum it would hide the others.
    """
    sub = inv.subcommand
    if sub == "verify-action":
        law = _load(out, "action_certificates.json")["results"]["group_law"]
        return [("group_law.worst_violation", law["worst_violation"], law["tolerance"])]
    if sub == "contract":
        sub_rep = _load(out, "contraction.json")["submultiplicative"]
        return [("submultiplicative.worst_excess", sub_rep["worst_excess"], SUBMULT_SLACK)]
    if sub == "construct-measure":
        doc = _load(out, "construct_homogeneity.json")
        return [("worst_rel_err", doc["worst_rel_err"], inv.tolerance)]
    if sub == "homogeneity":
        doc = _load(out, "homogeneity.json")
        return [("worst_rel_err", doc["worst_rel_err"], inv.tolerance)]
    if sub == "sigma":
        doc = _load(out, "sigma.json")
        return [
            (f"per_test.{name}.final_rel_err", info["final_rel_err"], inv.tolerance)
            for name, info in sorted(doc["per_test"].items())
        ]
    if sub == "mean":
        results = _load(out, "mean.json")["results"]
        errors = [("empirical.last_abs_err", results["empirical"]["rows"][-1]["abs_err"],
                   inv.tolerance)]
        if "convolution" in results:
            conv = results["convolution"]
            errors.append(("convolution.difference", conv["difference"], conv["tolerance"]))
        return errors
    raise ValueError(f"no judged errors known for subcommand {sub!r}")


def margin(error, tolerance) -> float:
    """log10(tolerance / error) in decades, capped at MARGIN_CAP."""
    error, tolerance = abs(float(error)), float(tolerance)
    if error == 0.0 or not math.isfinite(error):
        return MARGIN_CAP if error == 0.0 else -MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tolerance / error))
