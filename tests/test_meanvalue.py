"""Mean values: closed forms, weak-star pairings, invariances.

Oscillatory pairing oracles are one-dimensional Fourier transforms of the
test functions, evaluated in closed form or by adaptive quadrature.
"""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import yaml
from scipy.integrate import quad

from scaleflow import (
    DiagonalScaling,
    GridSpec,
    Homogenizer,
    MeanFunction,
    PointMass,
    RGroup,
    TrigPolynomial,
    bump,
    construct_measure,
    empirical_mean,
    gaussian,
    mean,
    mollifier,
    triangle,
    verify_convolution,
    verify_translation_invariance,
)
from scaleflow import cli
from scaleflow import config as cfg_mod
from scaleflow import kernels, meanvalue, quadrature
from scaleflow.cli import main
from scaleflow.meanvalue import convolve, fit_decay_order

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

SIN2 = TrigPolynomial.sine([1.0]) * TrigPolynomial.sine([1.0])
OSC_SPEC = GridSpec(base_nodes=256, panel_order=16, max_nodes=1 << 21)
ROOT2 = math.sqrt(2.0)


def lebesgue_line(spec=OSC_SPEC):
    return Homogenizer.lebesgue(DiagonalScaling((1,)), spec)


def test_mean_closed_forms():
    # cell integral of sin^2(2 pi y) is 1/2
    assert mean(MeanFunction.periodic_trig(SIN2)) == 0.5 + 0j
    oracle, _ = quad(lambda y: math.sin(2 * math.pi * y) ** 2, 0.0, 1.0)
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert mean(MeanFunction.constant(1.0)) == 1.0
    poly = TrigPolynomial.from_terms([([0.0], 3.0), ([1.0], 2.0)])
    assert mean(MeanFunction.almost_periodic(poly)) == 3.0
    limit = 2.0 - 1.0j

    def decays(pts):
        return limit + 1.0 / (1.0 + np.sum(np.atleast_2d(pts) ** 2, axis=1))

    assert mean(MeanFunction.vanishing(decays, limit, 1)) == limit


def test_mean_bounded_by_sup_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        poly = TrigPolynomial.from_terms(
            [([k], c) for k, c in zip([-2.0, 0.0, 1.0], coeffs)]
        )
        u = MeanFunction.almost_periodic(poly)
        sup = float(np.max(np.abs(poly(np.linspace(0, 50, 20001)))))
        assert abs(mean(u)) <= sup + 1e-9


def test_mean_linear_and_positive():
    a, b = 1.5 - 0.5j, -2.0
    p = TrigPolynomial.from_terms([([0.0], 0.25), ([1.0], 1.0)])
    q = TrigPolynomial.from_terms([([0.0], b), ([2.0], 3.0)])
    left = mean(MeanFunction.almost_periodic(p * a + q))
    assert left == a * 0.25 + b
    nonneg = MeanFunction.periodic_trig(SIN2)  # sin^2 >= 0
    assert mean(nonneg).real >= 0.0


def _pairing_oracle_sin2(phi_fn, support, eps):
    """r(eps) for sin^2(2 pi x / eps) against phi, by adaptive quadrature."""
    lo, hi = support
    base, _ = quad(phi_fn, lo, hi, limit=800)
    osc, _ = quad(
        lambda x: phi_fn(x) * math.cos(4.0 * math.pi * x / eps), lo, hi, limit=4000
    )
    return 0.5 * (1.0 - osc / base)


def test_empirical_mean_matches_oscillatory_oracle():
    hz = lebesgue_line()
    u = MeanFunction.periodic_trig(SIN2)
    phi = triangle(0.3, 0.7)
    (report,) = empirical_mean([u], hz, phi, [2.0**-3, 2.0**-4, 2.0**-5])
    fn = lambda x: max(0.0, 1.0 - abs(x - 0.3) / 0.7)
    for row in report.rows:
        oracle = _pairing_oracle_sin2(fn, (-0.4, 1.0), row["eps"])
        assert row["value"].real == pytest.approx(oracle, abs=1e-9)
        assert abs(row["value"].imag) <= 1e-12


def _mean_periodic_config():
    raw = cfg_mod.load_config(os.path.join(CONFIG_DIR, "mean_periodic.yaml"))
    return cfg_mod.validate_config(raw, cli._RUNNERS["mean"][1])


def test_mean_periodic_rows_match_the_triangle_closed_form():
    # the triangle phi of half-width w about c has integral(phi e(k x)) /
    # integral(phi) = sinc^2(w k) e(k c), so the pairing of u(x / eps) =
    # sum_k c_k e(k x / eps) is that transform summed over u's terms at k / eps
    cfg = _mean_periodic_config()
    action = cfg_mod.build_action(cfg)
    block = cfg["mean"]
    assert block["phi"]["kind"] == "triangle"
    (c,), w = block["phi"]["center"], block["phi"]["width"]
    u, phi, _, _ = cfg_mod.build_mean(block, 1)
    ladder = cfg_mod.build_ladder(cfg, action.group)
    (report,) = empirical_mean([u], cfg_mod.build_homogenizer(cfg, action), phi, ladder)
    assert len(report.rows) == len(ladder) == 10
    for row in report.rows:
        eps = row["eps"]
        closed = sum(coeff * np.sinc(w * k / eps) ** 2 * np.exp(2j * np.pi * k * c / eps)
                     for (k,), coeff in u.poly.terms())
        assert abs(row["value"] - closed) <= 1e-13


def test_empirical_mean_periodic_converges_with_order():
    # a centred hat function has transform >= 0, so the dyadic errors decay
    # without phase-driven wiggles
    hz = lebesgue_line()
    u = MeanFunction.periodic_trig(SIN2)
    phi = triangle(0.0, 0.7)
    ladder = [2.0**-n for n in range(1, 11)]
    (report,) = empirical_mean([u], hz, phi, ladder)
    assert report.limit == 0.5 + 0j
    assert report.final_error <= 1e-2
    errors = [r["abs_err"] for r in report.rows]
    # monotone decay with 10% slack down to the quadrature floor
    informative = [e for e in errors if e > 1e-12]
    assert all(b <= 1.1 * a for a, b in zip(informative, informative[1:]))
    assert report.fitted_order >= 0.9


def test_empirical_mean_constant_exact():
    hz = lebesgue_line()
    u = MeanFunction.constant(1.0)
    phi = gaussian([0.3], 1.0)
    (report,) = empirical_mean([u], hz, phi, [0.5, 0.25, 0.125])
    for row in report.rows:
        assert row["value"] == pytest.approx(1.0, rel=1e-14)


def test_empirical_mean_riemann_lebesgue():
    hz = lebesgue_line()
    u = MeanFunction.almost_periodic(TrigPolynomial.character([1.0]))
    phi = gaussian([0.3], 1.0)
    (report,) = empirical_mean([u], hz, phi, [2.0**-12])
    assert abs(report.rows[-1]["value"]) <= 1e-3
    assert report.limit == 0j


def test_empirical_mean_integrable_function_pairs_to_zero():
    # compactly supported u: the pairing scales like the pushforward factor
    hz = lebesgue_line()
    profile = bump([0.0], 1.0)
    u = MeanFunction.vanishing(profile.fn, 0.0, 1)
    phi = gaussian([0.3], 1.0)
    (report,) = empirical_mean([u], hz, phi, [2.0**-n for n in range(1, 11)])
    errors = [r["abs_err"] for r in report.rows]
    assert errors[-1] <= 1e-3
    assert errors[-1] <= errors[0] * 1e-2
    assert report.fitted_order >= 0.9  # the pairing scales like eps itself


def test_fit_decay_order_informative_and_floor():
    eps = [2.0**-n for n in range(1, 7)]
    errs = [e**2 for e in eps]
    assert fit_decay_order(eps, errs) == pytest.approx(2.0, abs=1e-6)
    assert math.isinf(fit_decay_order(eps, [1e-16] * 6))


def test_fit_decay_order_is_the_least_squares_slope():
    # ragged errors, some at the floor, on ladders shorter and longer than
    # the window: the closed-form slope is numpy's least-squares line
    rng = np.random.default_rng(7)
    for count in (2, 3, 5, 6, 9, 12):
        eps = np.sort(rng.uniform(1e-4, 1.0, count))[::-1].tolist()
        errors = (10.0 ** rng.uniform(-12.0, -1.0, count)).tolist()
        errors[count // 2] = 1e-15
        tail = [(e, v) for e, v in list(zip(eps, errors))[-6:] if v > 1e-13]
        order = fit_decay_order(eps, errors)
        if len(tail) < 2:
            assert math.isinf(order)
            continue
        x, y = np.log([abs(e) for e, _ in tail]), np.log([v for _, v in tail])
        assert abs(order - np.polyfit(x, y, 1)[0]) <= 1e-12


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.75])
def test_fit_decay_order_recovers_power_laws(k):
    eps = [2.0**-n for n in range(1, 9)]
    assert abs(fit_decay_order(eps, [3.0 * e**k for e in eps]) - k) <= 1e-14


def test_fit_decay_order_needs_two_rungs():
    # two rungs at the floor: decay below measurement; one rung: no slope at all
    assert math.isinf(fit_decay_order([0.5, 0.25], [1e-16, 1e-16]))
    for errors in ([1e-3], [1e-16]):
        with pytest.raises(ValueError, match="at least two ladder rungs"):
            fit_decay_order([0.5], errors)


def test_empirical_mean_one_rung_fits_no_decay_order():
    u = MeanFunction.almost_periodic(TrigPolynomial.character([1.0]))
    (report,) = empirical_mean([u], lebesgue_line(), gaussian([0.3], 1.0), [0.25])
    assert len(report.rows) == 1 and report.fitted_order is None


def test_translation_invariance():
    hz = lebesgue_line()
    u = MeanFunction.periodic_trig(SIN2)
    phi = triangle(0.3, 0.7)
    functions = [u, u.translate([0.0]), u.translate([0.3])]
    report, unmoved, moved = empirical_mean(functions, hz, phi, [2.0**-n for n in range(1, 9)])
    trivial = verify_translation_invariance(report, unmoved)
    assert trivial.difference <= trivial.tolerance and trivial.difference == 0.0
    shifted = verify_translation_invariance(report, moved)
    assert shifted.difference <= shifted.tolerance
    assert shifted.tolerance == meanvalue._combined_tolerance(report, moved)
    assert [row["eps"] for row in moved.rows] == [row["eps"] for row in report.rows]
    assert report.limit == moved.limit == 0.5 + 0j
    # translation multiplies coefficients by unit phases: means agree exactly
    assert mean(u.translate([0.3])) == mean(u)


def test_convolution_constant_and_characters():
    hz = lebesgue_line()
    phi = triangle(0.3, 0.7)
    ladder = [2.0**-n for n in range(1, 8)]
    # unit-mass kernel with constant input reproduces the constant
    kernel_mass = 16.0 * 0.5 / 15.0  # quartic bump mass at width 1/2
    raw = bump([0.0], 0.5)
    unit = type(raw)("unit-kernel", lambda p: raw.fn(p) / kernel_mass, raw.support)
    const = MeanFunction.constant(2.5)
    sweep = empirical_mean([const, convolve(unit, const, OSC_SPEC)], hz, phi, ladder)
    report = verify_convolution(*sweep)
    assert report.difference <= report.tolerance
    # Fourier multiplier: kernel * e = F(kernel)(1) e keeps the zero mean
    char = MeanFunction.almost_periodic(TrigPolynomial.character([1.0]))
    convolved = convolve(gaussian([0.0], 0.5), char, OSC_SPEC)
    char_report, convolved_report = empirical_mean([char, convolved], hz, phi, ladder)
    report = verify_convolution(char_report, convolved_report)
    assert report.difference <= report.tolerance
    assert report.tolerance == meanvalue._combined_tolerance(convolved_report, char_report)
    assert mean(char) == 0j


def test_convolution_doubling_kernel():
    # kernel of total mass 2 against mean-1/2 input gives limit 1
    hz = lebesgue_line()
    phi = triangle(0.3, 0.7)
    ladder = [2.0**-n for n in range(1, 9)]
    raw = bump([0.0], 0.5)
    mass = 16.0 * 0.5 / 15.0
    doubler = type(raw)("double-kernel", lambda p: 2.0 * raw.fn(p) / mass, raw.support)
    u = MeanFunction.periodic_trig(SIN2)
    sweep = empirical_mean([u, convolve(doubler, u, OSC_SPEC)], hz, phi, ladder)
    report = verify_convolution(*sweep)
    assert report.difference <= report.tolerance
    convolved_final = sweep[1].rows[-1]["value"]
    assert convolved_final == pytest.approx(1.0, abs=1e-6)


def test_empirical_mean_two_dimensional():
    # tensor product of two mean-1/2 oscillations has mean 1/4
    spec = GridSpec(base_nodes=64, panel_order=16, max_nodes=1 << 12)
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), spec)
    tensor = (TrigPolynomial.sine([1.0, 0.0]) * TrigPolynomial.sine([1.0, 0.0])) * (
        TrigPolynomial.sine([0.0, 1.0]) * TrigPolynomial.sine([0.0, 1.0])
    )
    u = MeanFunction.periodic_trig(tensor)
    assert mean(u) == 0.25 + 0j
    phi = bump([0.3, 0.3], 2.0)
    (report,) = empirical_mean([u], hz, phi, [2.0**-n for n in range(1, 4)])
    assert report.limit == 0.25 + 0j
    assert report.final_error <= 5e-3


def test_weighted_power_mean_run_passes_its_convolution_check(tmp_path):
    # the predicted mean of kernel * u is c_0 T(0), the Lebesgue mass the
    # convolution uses, not the kernel's mass under the power density
    cfg = cfg_mod.load_config(os.path.join(CONFIG_DIR, "mean_periodic.yaml"))
    cfg["homogenizer"] = {"measure": "weighted-power", "power": 1.0}
    cfg["mean"]["phi"] = {"kind": "triangle", "center": [0.8], "width": 0.7}
    sigma = cfg["mean"]["kernel"]["sigma"]
    assert sigma == 0.5
    path = tmp_path / "weighted.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["mean", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "mean.json", encoding="utf-8") as handle:
        results = json.load(handle)["results"]
    conv = results["convolution"]
    assert conv["difference"] <= conv["tolerance"]
    limit = results["convolved"]["limit"]
    assert abs(limit["re"] - 0.5 * sigma * math.sqrt(2.0 * math.pi)) <= 1e-12
    assert limit["im"] == 0.0


def _gaussian_transform(sigma, k):
    # integral exp(-|x|^2 / (2 sigma^2)) e(-k x) dx over R^d
    k = np.asarray(k, dtype=np.float64)
    return (2.0 * np.pi * sigma**2) ** (len(k) / 2) * np.exp(-2.0 * np.pi**2 * sigma**2 * (k @ k))


def _transforms(kernel, freqs, spec):
    # the transform convolve applies at each frequency: the coefficients of
    # kernel * sum_k e(k x)
    ones = MeanFunction.almost_periodic(TrigPolynomial(freqs, np.ones(len(freqs))))
    poly = convolve(kernel, ones, spec).poly
    return dict(zip(map(tuple, poly.freqs.tolist()), poly.coeffs))


def test_convolve_transforms_match_the_gaussian_closed_form_at_any_frequency():
    # Filon weights do not resolve the oscillation, so 2^20 costs what 2 does
    cfg = _mean_periodic_config()
    block = cfg["mean"]["kernel"]
    kernel = cfg_mod.build_test_function(block, 1, "mean.kernel")
    freqs = [[0.0], [2.0], [-2.0], [2.0**20], [-(2.0**20)]]
    transforms = _transforms(kernel, freqs, cfg_mod.build_grid_spec(cfg))
    assert len(transforms) == len(freqs)
    for k, value in transforms.items():
        assert abs(value - _gaussian_transform(block["sigma"], k)) <= 1e-15, k


def test_convolve_transforms_match_the_gaussian_closed_form_in_two_dimensions():
    # the kernel, grid and frequencies of the benchmark's 2-D mean run
    freqs = [[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]]
    transforms = _transforms(gaussian([0.0, 0.0], 0.5), freqs, GridSpec(64, 16, 4096))
    assert len(transforms) == len(freqs)
    for k, value in transforms.items():
        assert abs(value - _gaussian_transform(0.5, k)) <= 1e-13, k


def test_convolve_evaluates_the_kernel_once_per_row_block():
    spec = GridSpec(256, 16, 4096)
    raw = gaussian([0.0, 0.0], 0.5)
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return raw.fn(pts)

    kernel = type(raw)("counted", counted, raw.support)
    freqs = [[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]]
    _transforms(kernel, freqs, spec)
    grid = spec.build(raw.support).refined()
    assert len(quadrature._row_blocks(grid)) > 1
    assert len(calls) == len(quadrature._row_blocks(grid))
    assert sum(calls) == grid.total_points


def test_convolving_a_real_function_keeps_it_real():
    # T(-k) is conj T(k) bit for bit for a real kernel, so the convolved
    # coefficients stay conjugate-symmetric
    one_d, _, _, _ = cfg_mod.build_mean(_mean_periodic_config()["mean"], 1)
    two_d = MeanFunction.periodic_trig(TrigPolynomial.from_terms([
        ([0.0, 0.0], 0.5), ([1.0, 2.0], -0.25), ([-1.0, -2.0], -0.25),
        ([2.0, -1.0], 0.1 + 0.05j), ([-2.0, 1.0], 0.1 - 0.05j)]))
    for u, spec in ((one_d, OSC_SPEC), (two_d, GridSpec(64, 16, 4096))):
        assert u.poly.real_form() is not None
        kernel = gaussian([0.0] * u.dimension, 0.5)
        assert convolve(kernel, u, spec).poly.real_form() is not None


def _stack_case(name):
    # (homogenizer, u, phi, kernel, shift, ladder) of one stacked sweep
    line = DiagonalScaling((1,))
    ladder = [2.0**-n for n in range(1, 7)]
    u = MeanFunction.periodic_trig(SIN2)
    if name == "lebesgue-1d":
        return lebesgue_line(), u, triangle(0.3, 0.7), gaussian([0.0], 0.5), [0.3], ladder
    if name == "lebesgue-1d-complex":
        poly = TrigPolynomial.from_terms([([0.0], 0.5), ([1.0], 0.3j), ([-ROOT2], 0.2)])
        return (lebesgue_line(), MeanFunction.almost_periodic(poly), triangle(0.3, 0.7),
                gaussian([0.0], 0.5), [0.3], ladder)
    if name == "lebesgue-2d":  # the shape of the benchmark's 2-D mean run
        poly = TrigPolynomial.from_terms([
            ([0.0, 0.0], 0.5), ([1.0, 2.0], -0.25), ([-1.0, -2.0], -0.25),
            ([2.0, -1.0], 0.1 + 0.05j), ([-2.0, 1.0], 0.1 - 0.05j),
        ])
        hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(64, 16, 4096))
        return (hz, MeanFunction.periodic_trig(poly), mollifier([0.3, 0.2], 0.5),
                gaussian([0.0, 0.0], 0.5), [0.3, 0.1], ladder[:4])
    if name == "weighted-power":
        hz = Homogenizer.weighted_power(line, 1.0, OSC_SPEC)
        return hz, u, triangle(0.8, 0.7), gaussian([0.0], 0.5), [0.3], ladder
    assert name == "dirac"
    hz = Homogenizer.point_mass(line, [0.3], OSC_SPEC)
    return hz, u, triangle(0.3, 0.7), gaussian([0.0], 0.5), [0.3], ladder


@pytest.mark.parametrize(
    "name", ["dirac", "lebesgue-1d", "lebesgue-1d-complex", "lebesgue-2d", "weighted-power"]
)
def test_stacked_sweep_has_the_bits_of_each_function_alone(name):
    hz, u, phi, kernel, shift, ladder = _stack_case(name)
    functions = [u, u.translate(shift), convolve(kernel, u, hz.grid_spec)]
    reports = empirical_mean(functions, hz, phi, ladder)
    assert len(reports) == len(functions)
    for f, report in zip(functions, reports):
        (alone,) = empirical_mean([f], hz, phi, ladder)
        assert repr(report.rows) == repr(alone.rows)
        assert repr((report.limit, report.fitted_order)) == repr((alone.limit, alone.fitted_order))
    # the translate moves the pairings, so the rows are not one function's thrice
    assert reports[0].rows[0]["value"] != reports[1].rows[0]["value"]


def test_stacked_sweep_over_a_constructed_measure_matches_each_own_sweep():
    # the orbit sweep of a constructed measure reduces each row of the
    # (J, M) stack alone: every function's rows have the bits of its own sweep
    action = DiagonalScaling((1,), group=RGroup("positive-multiplicative", 2.0))
    hz = construct_measure(action, PointMass([1.0])).as_homogenizer()
    u = MeanFunction.periodic_trig(SIN2)
    functions = [u, u.translate([0.3]), MeanFunction.constant(2.0)]
    phi, ladder = gaussian([0.5], 0.3), [0.5, 0.25]
    together = empirical_mean(functions, hz, phi, ladder)
    for function, report in zip(functions, together):
        (alone,) = empirical_mean([function], hz, phi, ladder)
        assert repr(report.rows) == repr(alone.rows)


def _pairing_functions(case):
    # the functions of one _Pairings bit case on R^2
    real = MeanFunction.periodic_trig(TrigPolynomial.from_terms([
        ([0.0, 0.0], 0.5), ([1.0, 2.0], -0.25), ([-1.0, -2.0], -0.25)]))
    if case == "three-real":
        return [real, real.translate([0.3, 0.1]), MeanFunction.constant(2.0, 2)]
    if case == "real-and-complex":
        wave = TrigPolynomial.from_terms([([0.0, 0.0], 0.5), ([1.0, -ROOT2], 0.3j)])
        return [real, MeanFunction.almost_periodic(wave), real.translate([0.3, 0.1])]
    assert case == "vanishing"
    decay = MeanFunction.vanishing(
        lambda pts: 1.0 / (1.0 + np.sum(np.asarray(pts) ** 2, axis=1)), 0.0, 2)
    return [decay]


@pytest.mark.parametrize("case", ["three-real", "real-and-complex", "vanishing"])
def test_pairings_rows_have_the_bits_of_the_stacked_products(case):
    # each product is written into its row of one buffer; the stack is
    # np.stack's, in dtype and bits, on a grid block and on scattered points
    functions = _pairing_functions(case)
    action, phi, eps = DiagonalScaling((1, 1)), mollifier([0.3, 0.2], 0.5), 2.0**-3
    pairings = meanvalue._Pairings(phi, tuple(functions), action, eps)
    grid = quadrature.QuadratureGrid(phi.support, (64, 64), panel_order=16)
    block, _ = grid.points_and_weights(16, 48)
    scattered = np.random.default_rng(3).uniform(-0.3, 0.9, size=(500, 2))
    for pts in (block, scattered):
        expected = np.stack([phi(pts) * u(action.apply(eps, pts)) for u in functions])
        values = pairings(pts)
        assert values.dtype == expected.dtype and values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()
    assert np.iscomplexobj(values) == (case == "real-and-complex")


def test_a_mean_sweep_block_fits_under_the_heap_trim_threshold():
    # one 65,536-node block of the benchmark's 2-D mean sweep at its last
    # rung: the pairings peak at 2.75 MiB of new allocations (3.51 MiB with
    # a list of products stacked into a copy), and the reduction weights one
    # row at a time
    hz, u, phi, kernel, shift, _ = _stack_case("lebesgue-2d")
    functions = (u, u.translate(shift), convolve(kernel, u, hz.grid_spec))
    eps = 2.0**-5
    bound = np.max([f.oscillation_bound() for f in functions], axis=0)
    grid = hz.grid_spec.build(phi.support, hz.action.frequency_bound(eps, bound)).refined()
    assert grid.nodes_per_axis == (1024, 1024)
    blocks = quadrature._row_blocks(grid)
    start, stop = blocks[len(blocks) // 2]  # the mollifier's widest rows
    pts, w = grid.points_and_weights(start, stop)
    assert pts.shape[0] == 1 << 16
    pairings = meanvalue._Pairings(phi, functions, hz.action, eps)
    pairings(pts)  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        values = pairings(pts)
        block_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        kernels.pairwise_dot(w, values)
        reduction = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert values.shape == (3, 1 << 16)
    assert block_peak <= 2.75 * 2**20
    assert reduction <= 1.05 * values[0].nbytes
