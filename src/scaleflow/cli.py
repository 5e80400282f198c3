"""Config-driven experiment runner.

Subcommands mirror the verification surfaces: ``verify-action``,
``contract``, ``homogeneity``, ``construct-measure``, ``mean`` and
``sigma``.  Each reads one YAML config, writes CSV/JSON/plot reports into
the output directory and exits 0 only when every verdict passes (2 for
config errors, 3 for numerical resolution failures, 1 for verification
failures).  Reports are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import random
import sys

import numpy as np

from . import config as cfg_mod
from . import reports
from .actions import certify_absorption, certify_escape, certify_group_law
from .config import ConfigError
from .contraction import certify_submultiplicative, fixed_point
from .meanvalue import (
    convolve,
    empirical_mean,
    verify_convolution,
    verify_translation_invariance,
)
from .measures import (
    SupportEscapeError,
    check_factor_multiplicative,
    verify_center_null,
    verify_homogeneity,
)
from .quadrature import Box, UnderResolvedError
from .sigma import trace_norm_bound_rows, validate_ladder, verify_sigma_convergence

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3


def _parallel(fn, items, jobs: int):
    # the one battery map, in order on the calling thread; jobs is ignored.
    # perfbench/spans.py wraps this function by name to time battery entries
    return [fn(item) for item in items]


def _homogeneity_battery(hz, ladder, battery, tol: float, jobs: int):
    """verify_homogeneity per battery entry: (partials, rows, passed, worst rel_err)."""
    partials = _parallel(
        lambda phi: verify_homogeneity(hz, ladder, [phi], tol_rel=tol), battery, jobs
    )
    rows = [row for part in partials for row in part.rows]
    passed = all(part.passed for part in partials)
    return partials, rows, passed, max(row["rel_err"] for row in rows)


def _status(name: str, passed: bool, detail: str = "") -> None:
    flag = "pass" if passed else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[{flag}] {name}{suffix}")


def _run_verify_action(cfg, header, out, jobs) -> bool:
    action = cfg_mod.build_action(cfg)
    ladder = cfg_mod.build_ladder(cfg, action.group)
    absorption = cfg.get("absorption")
    if absorption:
        source, target = cfg_mod.build_absorption(absorption, action)
    escape = cfg.get("escape")
    if escape:
        escape_point = cfg_mod.build_escape(escape, action)
    results = {}
    law = certify_group_law(action, sample_count=256, seed=cfg.get("seed", 0))
    results["group_law"] = law
    _status("group-law", law.passed, f"worst={law.worst_violation:.3e}")
    ok = law.passed
    if absorption:
        cert = certify_absorption(
            action, source, target, ladder,
            directions_per_dim=absorption.get("directions_per_dim", 64),
        )
        results["absorption"] = cert
        _status("absorption", cert.passed, f"threshold={cert.threshold}")
        ok = ok and cert.passed
    if escape:
        rep = certify_escape(action, escape_point, ladder, escape["radius"])
        results["escape"] = rep
        _status("escape", rep.passed, f"threshold={rep.threshold}")
        ok = ok and rep.passed
    reports.write_json(f"{out}/action_certificates.json", {"passed": ok, "results": results}, header)
    rows = [{"check": name, "passed": payload.passed} for name, payload in results.items()]
    reports.write_csv(f"{out}/action_summary.csv", rows, header)
    return ok


def _run_contract(cfg, header, out, jobs) -> bool:
    action = cfg_mod.build_action(cfg)
    ladder = cfg_mod.build_ladder(cfg, action.group)
    block = cfg_mod.build_contraction(cfg, action.group)
    starts, eps = block["starts"], block["eps"]
    seed = cfg.get("seed", 0)
    sub = certify_submultiplicative(action, sample_count=block["pairs"], seed=seed, ladder=ladder)
    _status("submultiplicative", sub.passed, f"worst_excess={sub.worst_excess:.3e}")
    rng = random.Random(seed)
    x0 = np.array([[rng.uniform(-8.0, 8.0) for _ in range(action.dimension)]
                   for _ in range(starts)])
    try:
        outcomes = fixed_point(action, eps, x0, tol=block["tol"], max_iter=block["max_iter"])
    except ValueError as exc:  # not a contraction: every start fails alike
        outcomes = [exc] * starts
    fp_rows = []
    ok = sub.passed
    for i, result in enumerate(outcomes):
        if isinstance(result, Exception):
            fp_rows.append({"start": i, "iterations": 0, "residual": float("nan"),
                            "center_distance": float("nan"), "passed": False})
            _status("fixed-point", False, str(result))
            ok = False
        else:
            fp_rows.append(
                {
                    "start": i,
                    "iterations": result.iterations,
                    "residual": result.residual,
                    "center_distance": result.center_distance,
                    "passed": True,
                }
            )
    fp_ok = all(r["passed"] for r in fp_rows)
    _status("fixed-point", fp_ok, f"starts={starts} eps={eps}")
    reports.write_json(
        f"{out}/contraction.json",
        {"passed": ok and fp_ok, "submultiplicative": sub, "fixed_point": fp_rows},
        header,
    )
    reports.write_csv(f"{out}/fixed_point.csv", fp_rows, header)
    return ok and fp_ok


def _run_homogeneity(cfg, header, out, jobs) -> bool:
    action = cfg_mod.build_action(cfg)
    hz = cfg_mod.build_homogenizer(cfg, action)
    ladder = cfg_mod.build_ladder(cfg, action.group)
    battery = cfg_mod.build_battery(cfg, action.dimension, edge_checked=True)
    tol = cfg.get("tolerances", {}).get("rel", 1e-6)
    partials, rows, passed, worst = _homogeneity_battery(hz, ladder, battery, tol, jobs)
    mult_defect = check_factor_multiplicative(hz, seed=cfg.get("seed", 0))
    null = verify_center_null(hz)
    ok = passed and mult_defect <= 1e-9 and null.passed
    _status("homogeneity", passed, f"worst_rel={worst:.3e} tol={tol:g}")
    _status("factor-multiplicative", mult_defect <= 1e-9, f"defect={mult_defect:.3e}")
    _status("center-null", null.passed)
    reports.write_csv(f"{out}/homogeneity.csv", rows, header)
    reports.write_json(
        f"{out}/homogeneity.json",
        {
            "passed": ok,
            "worst_rel_err": worst,
            "factor_multiplicative_defect": mult_defect,
            "center_null": null,
            "decay": partials[0].factor_decay,
        },
        header,
    )
    return ok


def _run_construct(cfg, header, out, jobs) -> bool:
    action = cfg_mod.build_action(cfg)
    hz = cfg_mod.build_constructed_measure(cfg, action).as_homogenizer()
    ladder = cfg_mod.build_ladder(cfg, action.group)
    battery = cfg_mod.build_battery(cfg, action.dimension)
    tol = cfg.get("tolerances", {}).get("rel", 1e-5)
    _, rows, passed, worst = _homogeneity_battery(hz, ladder, battery, tol, jobs)
    _status("construct-homogeneity", passed, f"worst_rel={worst:.3e} tol={tol:g}")
    reports.write_csv(f"{out}/construct_homogeneity.csv", rows, header)
    reports.write_json(
        f"{out}/construct_homogeneity.json", {"passed": passed, "worst_rel_err": worst}, header
    )
    return passed


def _run_mean(cfg, header, out, jobs) -> bool:
    action = cfg_mod.build_action(cfg)
    dim = action.dimension
    hz = cfg_mod.build_homogenizer(cfg, action)
    if "mean" not in cfg:
        raise ConfigError("mean runs need a mean block")
    block = cfg["mean"]
    u = cfg_mod.build_mean_function(block["function"], dim)
    phi = cfg_mod.build_test_function(
        block.get("phi", {"kind": "triangle", "center": [0.3], "width": 0.7}), dim, "mean.phi"
    )
    if "shift" in block:
        cfg_mod.check_dimension("mean.shift", len(block["shift"]), dim)
    if "kernel" in block:
        kernel = cfg_mod.build_test_function(block["kernel"], dim, "mean.kernel")
    ladder = cfg_mod.build_ladder(cfg, action.group, min_rungs=2)
    tolerances = cfg.get("tolerances", {})
    tol = tolerances.get("rel", 1e-2)
    order_floor = tolerances.get("decay_order", 0.9)
    # u, its translate and its convolution share one sweep of the ladder
    functions = [u]
    if "shift" in block:
        functions.append(u.translate(block["shift"]))
    if "kernel" in block:
        functions.append(convolve(kernel, u, hz.grid_spec))
    report, *others = empirical_mean(functions, hz, phi, ladder)
    # the closed-form mean is the limit the sweep measured against
    print(f"closed-form mean: {report.limit}")
    ok = report.final_error <= tol and report.fitted_order >= order_floor
    _status(
        "empirical-mean", ok,
        f"final_err={report.final_error:.3e} order={report.fitted_order:.2f}",
    )
    results = {"empirical": report, "closed_form": report.limit}
    if "shift" in block:
        trans = verify_translation_invariance(report, others.pop(0))
        results["translation"] = trans
        _status("translation-invariance", trans.passed, f"diff={trans.difference:.3e}")
        ok = ok and trans.passed
    if "kernel" in block:
        conv = verify_convolution(report, others.pop(0))
        results["convolution"] = conv
        _status("convolution", conv.passed, f"diff={conv.difference:.3e}")
        ok = ok and conv.passed
    reports.write_csv(f"{out}/mean.csv", report.rows, header)
    reports.write_json(f"{out}/mean.json", {"passed": ok, "results": results}, header)
    reports.write_curve(f"{out}/mean_error.dat", reports.log_error_curve(report.rows), header)
    return ok


def _run_sigma(cfg, header, out, jobs) -> bool:
    action = cfg_mod.build_action(cfg)
    dim = action.dimension
    spec = cfg_mod.build_grid_spec(cfg)
    if "sigma" not in cfg:
        raise ConfigError("sigma runs need a sigma block")
    block = cfg["sigma"]
    algebra = cfg_mod.build_algebra(block.get("algebra", {"kind": "periodic"}), dim)
    domain = block.get("domain", Box((0.0,) * dim, (1.0,) * dim))
    cfg_mod.check_dimension("sigma.domain", domain.dim, dim)
    u = cfg_mod.build_field(block["u0"], algebra, domain, "sigma.u0")
    battery = [
        cfg_mod.build_field(b, algebra, domain, f"sigma.battery[{i}]")
        for i, b in enumerate(block.get("battery", []))
    ]
    if not battery:
        raise ConfigError("sigma runs need a non-empty battery")
    ladder = cfg_mod.build_ladder(cfg, action.group, min_rungs=2)
    try:  # a sigma ladder must also stay at or below the identity
        validate_ladder(action.group, ladder)
    except ValueError as exc:
        raise ConfigError(f"ladder: {exc}") from exc
    tolerances = cfg.get("tolerances", {})
    tol = tolerances.get("rel", 1e-2)
    order_floor = tolerances.get("decay_order", 0.9)
    p = block.get("p", 2.0)
    if not 1.0 < p < float("inf"):
        raise ConfigError(f"sigma.p must satisfy 1 < p < inf, got {p}")
    partials = _parallel(
        lambda psi: verify_sigma_convergence(u, [psi], action, ladder, spec, tol=tol, p=p),
        battery, jobs,
    )
    rows = [row for part in partials for row in part.rows]
    per_test = {}
    for part in partials:
        per_test.update(part.per_test)
    norm_rows = trace_norm_bound_rows([u, *battery], action, ladder, p, spec)
    norm_ok = all(r["passed"] for r in norm_rows)
    passed = all(part.passed for part in partials) and norm_ok
    orders_ok = all(
        info["fitted_order"] >= order_floor for info in per_test.values()
    )
    ok = passed and orders_ok
    for name, info in sorted(per_test.items()):
        _status(
            f"sigma[{name}]",
            info["final_rel_err"] <= tol and info["fitted_order"] >= order_floor,
            f"final_rel={info['final_rel_err']:.3e} order={info['fitted_order']:.2f}",
        )
    _status("trace-norm-bound", norm_ok)
    reports.write_csv(f"{out}/sigma.csv", rows, header)
    reports.write_json(
        f"{out}/sigma.json",
        {"passed": ok, "per_test": per_test, "norm_bound": norm_rows},
        header,
    )
    for name in sorted(per_test):
        curve = reports.log_error_curve(
            [r for r in rows if r["psi"] == name], err_key="rel_err"
        )
        reports.write_curve(f"{out}/sigma_{name}.dat", curve, header)
    return ok


_RUNNERS = {
    "verify-action": _run_verify_action,
    "contract": _run_contract,
    "homogeneity": _run_homogeneity,
    "construct-measure": _run_construct,
    "mean": _run_mean,
    "sigma": _run_sigma,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scaleflow",
        description="verify scaling-group flow identities from a YAML config",
    )
    parser.add_argument("subcommand", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--out", default="out", help="report output directory")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="ignored: every battery runs on the calling thread",
    )
    parser.add_argument(
        "--tol-override", action="append", default=[], metavar="KEY=VALUE",
        help="override a tolerances entry",
    )
    args = parser.parse_args(argv)
    try:
        raw = cfg_mod.load_config(args.config)
        cfg_mod.apply_overrides(raw, args.tol_override)
        cfg = cfg_mod.validate_config(raw)
        header = reports.report_header(reports.config_digest(args.config), cfg.get("seed", 0))
        passed = _RUNNERS[args.subcommand](cfg, header, args.out, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnderResolvedError, SupportEscapeError) as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    print("PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
