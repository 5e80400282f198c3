"""Config-driven experiment runner.

Subcommands mirror the verification surfaces: ``verify-action``,
``contract``, ``homogeneity``, ``construct-measure``, ``mean`` and
``sigma``.  Each reads one YAML config, writes CSV/JSON/plot reports into
the output directory and exits 0 only when every verdict passes (2 for
config errors, 3 for numerical resolution failures, 1 for verification
failures).  Reports are byte-identical across repeated runs.

``_RUNNERS`` gives each subcommand its runner and the config blocks it
reads.  The config module raises every config error, so a runner takes the
validated config alone, computes and returns its :class:`reports.Verdict`
list and its report files, file name to payload; :func:`reports.emit` writes
them, adding the run's ``passed`` and ``verdicts`` to every JSON report.  The
stdout lines and the exit code come from the verdicts alone, and a run
stopped by an error writes no report.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

from . import config as cfg_mod
from . import reports
from .actions import certify_absorption, certify_escape, certify_group_law
from .config import ConfigError
from .contraction import SUBMULT_SLACK, certify_submultiplicative, fixed_point
from .meanvalue import (
    convolve,
    empirical_mean,
    verify_convolution,
    verify_translation_invariance,
)
from .measures import (
    FACTOR_DEFECT_TOL,
    SupportEscapeError,
    check_factor_multiplicative,
    factor_decay,
    verify_center_null,
    verify_homogeneity,
)
from .quadrature import UnderResolvedError
from .sigma import trace_norm_bound_rows, verify_sigma_convergence

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3

# the tolerances.rel each runner judges against when its config names none,
# and the floor of a fitted decay order
HOMOGENEITY_REL = 1e-6
CONSTRUCT_REL = 1e-5
CONVERGENCE_REL = 1e-2  # mean and sigma
DECAY_ORDER = 0.9


def _bounds(cfg, rel: float) -> tuple:
    """(rel, decay_order) from tolerances, ``rel`` or DECAY_ORDER where unset."""
    tolerances = cfg.get("tolerances", {})
    return tolerances.get("rel", rel), tolerances.get("decay_order", DECAY_ORDER)


def _failures(flags) -> int:
    """How many of the library's own pass flags read false."""
    return sum(not flag for flag in flags)


def _parallel(fn, items, jobs: int):
    # the one battery map, in order on the calling thread; jobs is ignored.
    # perfbench/spans.py wraps this function by name to time battery entries
    return [fn(item) for item in items]


def _homogeneity_battery(hz, ladder, battery, tol: float, name: str):
    """verify_homogeneity per battery entry: (rows, worst rel_err, verdicts),
    with the ladder's factor decay judged once.  The worst is np.max's, so a
    NaN row reads NaN wherever it sits."""
    parts = _parallel(lambda phi: verify_homogeneity(hz, ladder, [phi]), battery, 1)
    rows = [row for part in parts for row in part]
    worst = float(np.max([row["rel_err"] for row in rows]))
    _, decay_ok = factor_decay(hz, ladder)
    return rows, worst, [
        reports.Verdict(name, worst, tol, "<="),
        reports.Verdict(f"{name}-decay", _failures([decay_ok]), 0, "<="),
    ]


def _run_verify_action(cfg) -> tuple[list, dict]:
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
    verdicts = [reports.Verdict("group-law", law.worst_violation, law.tolerance, "<=")]
    # a certificate's threshold exists exactly when its last rung passes
    if absorption:
        cert = certify_absorption(
            action, source, target, ladder,
            directions_per_dim=absorption.get("directions_per_dim", 64),
        )
        results["absorption"] = cert
        verdicts.append(
            reports.Verdict("absorption", cert.sample_evidence[-1][1], target.radius, "<="))
    if escape:
        rep = certify_escape(action, escape_point, ladder, escape["radius"])
        results["escape"] = rep
        verdicts.append(reports.Verdict("escape", rep.norms[-1][1], rep.radius, ">"))
    return verdicts, {
        "action_certificates.json": {"results": results},
        "action_summary.csv": [{"check": v.name, "passed": v.passed} for v in verdicts],
    }


def _run_contract(cfg) -> tuple[list, dict]:
    action = cfg_mod.build_action(cfg)
    ladder = cfg_mod.build_ladder(cfg, action.group)
    block = cfg_mod.build_contraction(cfg, action.group)
    starts, eps = block["starts"], block["eps"]
    seed = cfg.get("seed", 0)
    sub = certify_submultiplicative(action, sample_count=block["pairs"], seed=seed, ladder=ladder)
    rng = random.Random(seed)
    x0 = np.array([[rng.uniform(-8.0, 8.0) for _ in range(action.dimension)]
                   for _ in range(starts)])
    try:
        outcomes = fixed_point(action, eps, x0, tol=block["tol"], max_iter=block["max_iter"])
    except ValueError as exc:  # not a contraction: every start fails alike
        outcomes = [exc] * starts
    for reason in sorted({str(result) for result in outcomes if isinstance(result, Exception)}):
        print(f"fixed-point: {reason}", file=sys.stderr)
    fp_rows = []
    for i, result in enumerate(outcomes):
        if isinstance(result, Exception):
            fp_rows.append({"start": i, "iterations": 0, "residual": float("nan"),
                            "center_distance": float("nan"), "passed": False})
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
    verdicts = [
        reports.Verdict("submultiplicative", sub.worst_excess, SUBMULT_SLACK, "<="),
        reports.Verdict("submultiplicative-decay", _failures([sub.decay_ok]), 0, "<="),
        reports.Verdict("fixed-point", _failures(r["passed"] for r in fp_rows), 0, "<="),
    ]
    return verdicts, {
        "contraction.json": {"submultiplicative": sub, "fixed_point": fp_rows},
        "fixed_point.csv": fp_rows,
    }


def _run_homogeneity(cfg) -> tuple[list, dict]:
    action = cfg_mod.build_action(cfg)
    hz = cfg_mod.build_homogenizer(cfg, action)
    ladder = cfg_mod.build_ladder(cfg, action.group)
    battery = cfg_mod.build_battery(cfg, action.dimension, edge_checked=True)
    tol, _ = _bounds(cfg, HOMOGENEITY_REL)
    rows, worst, verdicts = _homogeneity_battery(hz, ladder, battery, tol, "homogeneity")
    mult_defect = check_factor_multiplicative(hz, seed=cfg.get("seed", 0))
    null = verify_center_null(hz)
    verdicts += [
        reports.Verdict("factor-multiplicative", mult_defect, FACTOR_DEFECT_TOL, "<="),
        reports.Verdict("center-null", _failures([null.passed]), 0, "<="),
    ]
    return verdicts, {
        "homogeneity.csv": rows,
        "homogeneity.json": {
            "worst_rel_err": worst,
            "factor_multiplicative_defect": mult_defect,
            "center_null": null,
            "decay": factor_decay(hz, ladder)[0],
        },
    }


def _run_construct(cfg) -> tuple[list, dict]:
    action = cfg_mod.build_action(cfg)
    hz = cfg_mod.build_constructed_measure(cfg, action).as_homogenizer()
    ladder = cfg_mod.build_ladder(cfg, action.group)
    battery = cfg_mod.build_battery(cfg, action.dimension)
    tol, _ = _bounds(cfg, CONSTRUCT_REL)
    rows, worst, verdicts = _homogeneity_battery(hz, ladder, battery, tol, "construct-homogeneity")
    return verdicts, {
        "construct_homogeneity.csv": rows,
        "construct_homogeneity.json": {"worst_rel_err": worst},
    }


def _run_mean(cfg) -> tuple[list, dict]:
    action = cfg_mod.build_action(cfg)
    hz = cfg_mod.build_homogenizer(cfg, action)
    u, phi, shift, kernel = cfg_mod.build_mean(cfg["mean"], action.dimension)
    ladder = cfg_mod.build_ladder(cfg, action.group, min_rungs=2)
    # u, its translate and its convolution share one sweep of the ladder
    functions = [u]
    if shift is not None:
        functions.append(u.translate(shift))
    if kernel is not None:
        functions.append(convolve(kernel, u, hz.grid_spec))
    tol, order_floor = _bounds(cfg, CONVERGENCE_REL)
    report, *others = empirical_mean(functions, hz, phi, ladder)
    # the closed-form mean is the limit the sweep measured against
    print(f"closed-form mean: {report.limit}")
    verdicts = [
        reports.Verdict("empirical-mean", report.final_error, tol, "<="),
        reports.Verdict("empirical-mean-order", report.fitted_order, order_floor, ">="),
    ]
    results = {"empirical": report, "closed_form": report.limit}
    if shift is not None:
        results["translated"] = others.pop(0)
        trans = verify_translation_invariance(report, results["translated"])
        results["translation"] = trans
        verdicts.append(
            reports.Verdict("translation-invariance", trans.difference, trans.tolerance, "<="))
    if kernel is not None:
        results["convolved"] = others.pop(0)
        conv = verify_convolution(report, results["convolved"])
        results["convolution"] = conv
        verdicts.append(reports.Verdict("convolution", conv.difference, conv.tolerance, "<="))
    return verdicts, {
        "mean.csv": report.rows,
        "mean.json": {"results": results},
        "mean_error.dat": reports.log_error_curve(report.rows),
    }


def _run_sigma(cfg) -> tuple[list, dict]:
    action = cfg_mod.build_action(cfg)
    spec = cfg_mod.build_grid_spec(cfg)
    u, battery, ladder, p = cfg_mod.build_sigma(cfg, action)
    tol, order_floor = _bounds(cfg, CONVERGENCE_REL)
    report = verify_sigma_convergence(u, battery, action, ladder, spec, p=p)
    norm_rows = trace_norm_bound_rows([u, *battery], action, ladder, p, spec)
    verdicts = []
    files = {"sigma.csv": report.rows,
             "sigma.json": {"per_test": report.per_test, "norm_bound": norm_rows}}
    for name, info in sorted(report.per_test.items()):
        verdicts += [
            reports.Verdict(f"sigma[{name}]", info["final_rel_err"], tol, "<="),
            reports.Verdict(f"sigma-order[{name}]", info["fitted_order"], order_floor, ">="),
        ]
        files[f"sigma_{name}.dat"] = reports.log_error_curve(
            [r for r in report.rows if r["psi"] == name], err_key="rel_err")
    failures = _failures(row["passed"] for row in norm_rows)
    verdicts.append(reports.Verdict("trace-norm-bound", failures, 0, "<="))
    return verdicts, files


_RUNNERS = {  # each subcommand's runner and its blocks beside config.COMMON_BLOCKS
    "verify-action": (_run_verify_action, ("absorption", "escape")),
    "contract": (_run_contract, ("contraction",)),
    "homogeneity": (_run_homogeneity, ("grid", "tolerances.rel", "homogenizer", "battery")),
    "construct-measure": (_run_construct, ("tolerances.rel", "construct", "battery")),
    "mean": (_run_mean, ("grid", "tolerances", "homogenizer", "mean")),
    "sigma": (_run_sigma, ("grid", "tolerances", "sigma")),
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
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        parser.error(f"--out {args.out} is a file, not a directory")
    run, blocks = _RUNNERS[args.subcommand]
    try:
        raw = cfg_mod.load_config(args.config)
        cfg_mod.apply_overrides(raw, args.tol_override)
        cfg = cfg_mod.validate_config(raw, blocks)
        header = reports.report_header(reports.config_digest(args.config), cfg.get("seed", 0))
        verdicts, files = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnderResolvedError, SupportEscapeError) as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    reports.emit(args.out, header, verdicts, files)
    for verdict in verdicts:
        print(verdict.line())
    passed = all(verdict.passed for verdict in verdicts)
    print("PASS" if passed else "FAIL")
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
