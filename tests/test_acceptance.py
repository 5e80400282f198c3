"""End-to-end acceptance criteria, one test per criterion.

A pass/fail line per criterion is printed in the terminal summary (see
conftest).  Tolerances are pinned here, not configurable.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import record_criterion
from scaleflow import (
    parabola,
    Ball,
    DiagonalScaling,
    ExpSemigroup,
    GridSpec,
    HAlgebra,
    Homogenizer,
    MeanFunction,
    PointMass,
    POSITIVE_MULTIPLICATIVE,
    RGroup,
    TrigPolynomial,
    TwoScaleField,
    bump,
    certify_absorption,
    certify_group_law,
    certify_submultiplicative,
    construct_measure,
    default_battery,
    empirical_mean,
    fixed_point,
    gaussian,
    gelfand_mean,
    mean,
    mollifier,
    product,
    triangle,
    verify_convolution,
    verify_homogeneity,
    verify_sigma_convergence,
    verify_translation_invariance,
)
from scaleflow.algebra import spectral_pairing
from scaleflow.cli import main as cli_main
from scaleflow.meanvalue import convolve
from scaleflow.measures import factor_decay
from scaleflow.quadrature import Box
from scaleflow.sigma import trace_norm_bound_rows

MODULE_START = time.monotonic()
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
ROOT2 = math.sqrt(2.0)
OSC_SPEC = GridSpec(base_nodes=256, panel_order=16, max_nodes=1 << 21)


def _check(number, ok, detail):
    record_criterion(number, bool(ok), detail)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_group_action_axioms():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    p = rng.normal(size=(3, 3))
    actions = [
        DiagonalScaling((1, 2)),
        ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p),
        product([DiagonalScaling((1,)), DiagonalScaling((2, 1))]),
        product([
            ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p),
            ExpSemigroup.from_matrix(2.0, np.zeros((1, 1))),
        ]),
    ]
    certificates = [certify_group_law(a, sample_count=256) for a in actions]
    worst = max(cert.worst_violation for cert in certificates)
    passed = all(cert.worst_violation <= cert.tolerance for cert in certificates)
    elapsed = time.monotonic() - start
    _check(
        1,
        passed and worst <= 1e-9 and elapsed < 1.0,
        f"worst violation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_absorption():
    action = DiagonalScaling((1,))
    ladder = [2.0**-n for n in range(1, 21)]
    cert = certify_absorption(action, Ball((0.0,), 10.0), Ball((0.0,), 1.0), ladder)
    # closed form: the inverse image of the source ball has radius 10 eps,
    # so the threshold is eps <= 0.1; one dyadic step brackets it
    within_step = cert.threshold is not None and cert.threshold <= 0.1 < 2.0 * cert.threshold
    rejected = False
    try:
        certify_absorption(action, Ball((0.0,), 10.0), Ball((0.5,), 1.0), ladder)
    except ValueError:
        rejected = True
    _check(2, within_step and rejected,
           f"threshold {cert.threshold} vs closed form 0.1; off-center target rejected")


def test_criterion_3_contraction():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(3, 3))
    generic = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p)
    sub = certify_submultiplicative(generic, sample_count=1000)
    scalar_actions = [
        (DiagonalScaling((1, 1)), 0.5),
        (ExpSemigroup.from_matrix(1.0, np.zeros((2, 2))), -1.0),
    ]
    residual_ok = True
    ratio_ok = True
    for action, eps in scalar_actions:
        bound = action.operator_norm(action.group.inverse(eps))
        for i in range(10):
            x0 = rng.uniform(-10.0, 10.0, size=action.dimension)
            result = fixed_point(action, eps, x0, tol=1e-12)
            residual_ok = residual_ok and result.residual <= 1e-12
            ratio_ok = ratio_ok and all(
                abs(r - bound) <= 1e-9 for r in result.step_ratios
            )
    for i in range(10):
        x0 = rng.uniform(-10.0, 10.0, size=3)
        result = fixed_point(generic, -1.0, x0, tol=1e-12)
        residual_ok = residual_ok and result.residual <= 1e-12
        bound = generic.operator_norm(1.0)
        ratio_ok = ratio_ok and all(r <= bound + 1e-9 for r in result.step_ratios)
    _check(
        3,
        sub.decay_ok and sub.worst_excess <= 1e-9 and residual_ok and ratio_ok,
        f"submult excess {sub.worst_excess:.2e}, 10 starts converge with matching rate",
    )


def test_criterion_4_homogeneity_r2():
    start = time.monotonic()
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=512))
    ladder = [4.0, 2.0, 1.0, 0.5, 0.25]
    rows = verify_homogeneity(hz, ladder, default_battery(2))
    worst = max(row["rel_err"] for row in rows)
    _, decay_ok = factor_decay(hz, ladder)
    elapsed = time.monotonic() - start
    _check(4, worst <= 1e-6 and decay_ok and elapsed < 10.0,
           f"worst rel err {worst:.2e} over 5 eps x 4 functions, {elapsed:.1f}s")


def test_criterion_5_constructive_measure():
    group = RGroup(POSITIVE_MULTIPLICATIVE, 2.0)
    action = DiagonalScaling((1,), group=group)
    measure = construct_measure(action, PointMass([1.0]))
    battery = [gaussian([3.0], 0.5), gaussian([2.0], 0.25), bump([4.0], 2.0)]
    worst = 0.0
    for phi in battery:
        value, _ = measure.pairing(phi)
        hi = phi.support.highs[0]
        oracle, _ = quad(lambda t, f=phi: (f(np.array([[t]])) * t)[0].real, 0.0, hi,
                         limit=400)
        worst = max(worst, abs(value - oracle) / abs(oracle))
    hz = measure.as_homogenizer()
    ladder = [2.0**-n for n in range(1, 9)]
    homogeneity_worst = max(row["rel_err"] for row in verify_homogeneity(hz, ladder, battery))
    _, decay_ok = factor_decay(hz, ladder)
    factor_ok = hz.factor_map(0.5) == pytest.approx(0.25, rel=1e-12)
    _check(5, worst <= 1e-5 and homogeneity_worst <= 1e-5 and decay_ok and factor_ok,
           f"density oracle rel err {worst:.2e}; homogeneity with c(s)=s^2 passed")


def test_criterion_6_mean_values():
    sin2 = MeanFunction.periodic_trig(TrigPolynomial.sine([1.0]) * TrigPolynomial.sine([1.0]))
    closed_ok = abs(mean(sin2) - 0.5) <= 1e-10
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)), OSC_SPEC)
    (report,) = empirical_mean([sin2], hz, triangle(0.0, 0.7), [2.0**-n for n in range(1, 11)])
    empirical_ok = report.final_error <= 1e-2 and report.fitted_order >= 0.9
    character = MeanFunction.almost_periodic(TrigPolynomial.character([1.0]))
    (rl,) = empirical_mean([character], hz, gaussian([0.3], 1.0), [2.0**-12])
    rl_ok = abs(rl.rows[-1]["value"]) <= 1e-3
    _check(
        6,
        closed_ok and empirical_ok and rl_ok,
        f"mean error {abs(mean(sin2) - 0.5):.1e}; empirical err "
        f"{report.final_error:.1e} order {report.fitted_order:.2f}; "
        f"pairing {abs(rl.rows[-1]['value']):.1e} at 2^-12",
    )


def test_criterion_7_translation_convolution():
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)), OSC_SPEC)
    phi = triangle(0.0, 0.7)
    ladder = [2.0**-n for n in range(1, 10)]
    periodic = MeanFunction.periodic_trig(
        TrigPolynomial.sine([1.0]) * TrigPolynomial.sine([1.0])
    )
    trig = MeanFunction.almost_periodic(
        TrigPolynomial.from_terms([([0.0], 0.5), ([1.0], 0.3), ([ROOT2], 0.2),
                                   ([-ROOT2], 0.2)])
    )
    results = []
    for u in (periodic, trig):
        convolved = convolve(gaussian([0.0], 0.5), u, hz.grid_spec)
        functions = [u, u.translate([0.3]), convolved]
        report, shifted, smoothed = empirical_mean(functions, hz, phi, ladder)
        results.append(verify_translation_invariance(report, shifted))
        results.append(verify_convolution(report, smoothed))
    _check(7, all(r.difference <= r.tolerance for r in results),
           "translation and convolution limits agree on periodic and trig batteries")


def test_criterion_8_algebra_mean_match():
    rng = np.random.default_rng(8)
    integer = HAlgebra.periodic_lattice(1)
    quasip = HAlgebra.subgroup([[1.0], [ROOT2]], degree=8)
    matches = 0
    parseval_ok = True
    for i in range(100):
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        if i % 2 == 0:
            freqs = rng.choice(np.arange(-6, 7), size=4, replace=False).astype(float)
            u = integer.from_terms([([f], c) for f, c in zip(freqs, coeffs)])
            reference = mean(MeanFunction.periodic_trig(u.poly))
        else:
            za = rng.integers(-4, 5, size=4)
            zb = rng.integers(-4, 5, size=4)
            u = quasip.from_terms(
                [([a + b * ROOT2], c) for a, b, c in zip(za, zb, coeffs)]
            )
            reference = mean(MeanFunction.almost_periodic(u.poly))
        if gelfand_mean(u) == reference:
            matches += 1
        pairing = spectral_pairing(u, u.conjugate())
        mags = [complex(c.real * c.real + c.imag * c.imag) for c in u.poly.coeffs]
        parseval_ok = parseval_ok and pairing == complex(np.sum(mags))
    _check(8, matches == 100 and parseval_ok,
           f"{matches}/100 exact mean matches; Parseval identity exact")


def _sigma_setup(periodic: bool):
    omega = Box((0.0,), (1.0,))
    g = gaussian([0.5], 0.15, name="G")
    if periodic:
        alg = HAlgebra.periodic_lattice(1)
        u = TwoScaleField(domain=omega, terms=[(g, alg.element(TrigPolynomial.sine([1.0])))],
                          name="u0")
        battery = [
            TwoScaleField(domain=omega,
                          terms=[(parabola(omega), alg.element(TrigPolynomial.sine([1.0])))],
                          name="matched"),
            TwoScaleField(domain=omega,
                          terms=[(parabola(omega),
                                  alg.element(TrigPolynomial.character([-1.0])))],
                          name="conj"),
            TwoScaleField(domain=omega,
                          terms=[(mollifier([0.5], 0.4, name="plain"), alg.constant(1.0))],
                          name="plain"),
        ]
    else:
        alg = HAlgebra.subgroup([[1.0], [ROOT2]], degree=8)
        u = TwoScaleField(
            domain=omega,
            terms=[(g, alg.from_terms([([1.0], 0.5), ([-1.0], 0.5),
                                       ([ROOT2], 0.5), ([-ROOT2], 0.5)]))],
            name="u0",
        )
        battery = [
            TwoScaleField(domain=omega,
                          terms=[(parabola(omega), alg.from_terms([([-1.0], 1.0)]))],
                          name="int-freq"),
            TwoScaleField(domain=omega,
                          terms=[(parabola(omega), alg.from_terms([([-ROOT2], 1.0)]))],
                          name="root2-freq"),
            TwoScaleField(domain=omega,
                          terms=[(mollifier([0.5], 0.4, name="plain"), alg.constant(1.0))],
                          name="plain"),
        ]
    return u, battery


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "quasiperiodic"])
def test_criterion_9_sigma_convergence(periodic):
    u, battery = _sigma_setup(periodic)
    ladder = [2.0**-n for n in range(1, 13)]
    report = verify_sigma_convergence(u, battery, DiagonalScaling((1,)), ladder, OSC_SPEC)
    orders_ok = all(info["fitted_order"] >= 0.9 for info in report.per_test.values())
    finals_ok = all(info["final_rel_err"] <= 1e-2 for info in report.per_test.values())
    norm_rows = trace_norm_bound_rows([u, *battery], DiagonalScaling((1,)), ladder, 2.0,
                                      OSC_SPEC)
    norm_ok = all(r["passed"] for r in norm_rows) and len(norm_rows) == 4 * len(ladder)
    worst = max(info["final_rel_err"] for info in report.per_test.values())
    _check(9, orders_ok and finals_ok and norm_ok,
           f"{'periodic' if periodic else 'quasi-periodic'} battery: final rel "
           f"{worst:.1e} at 2^-12, norm bound at every ladder point")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "sigma", "--config", os.path.join(CONFIG_DIR, "sigma_periodic.yaml"),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    _check(10, identical and names,
           f"{len(names)} report files byte-identical across two runs")


def test_acceptance_suite_runtime():
    elapsed = time.monotonic() - MODULE_START
    record_criterion(9, elapsed < 120.0, f"total acceptance runtime {elapsed:.0f}s < 120s")
    assert elapsed < 120.0
