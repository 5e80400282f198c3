"""Traces, two-scale pairings and the convergence verdicts."""

import cmath
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from scaleflow import (
    parabola,
    DiagonalScaling,
    GridSpec,
    HAlgebra,
    MeanFunction,
    TestFunction,
    TrigPolynomial,
    TwoScaleField,
    UnderResolvedError,
    gaussian,
    sigma_pairing_lhs,
    sigma_pairing_rhs,
    trace_norm_bound_check,
    verify_sigma_convergence,
)
from scaleflow import config as cfg_mod
from scaleflow import sigma as sigma_module
from scaleflow.meanvalue import convolve
from scaleflow.quadrature import Box
from scaleflow.sigma import trace_norm_bound_rows, validate_ladder

ROOT2 = math.sqrt(2.0)
OMEGA = Box((0.0,), (1.0,))
ALG = HAlgebra.periodic_lattice(1)
SCALING = DiagonalScaling((1,))
SPEC = GridSpec(base_nodes=256, panel_order=16, max_nodes=1 << 20)

SIN_EL = ALG.element(TrigPolynomial.sine([1.0]))
ONE_EL = ALG.constant(1.0)


def ident(name="id"):
    return TestFunction(name, lambda p: np.ones(np.atleast_2d(p).shape[0]), OMEGA)


def field(terms, name):
    return TwoScaleField(domain=OMEGA, terms=terms, name=name)


def norm_bound_holds(fields, action, ladder, spec):
    """The trace norm bound at every ladder entry of every field: one row each, all passed."""
    rows = trace_norm_bound_rows(fields, action, ladder, 2.0, spec)
    return len(rows) == len(fields) * len(ladder) and all(r["passed"] for r in rows)


def test_trace_values():
    xs = np.linspace(0.1, 0.9, 7)
    macro = gaussian([0.5], 0.15, name="G")
    # no oscillation slot dependence: the trace is the macro factor
    u_plain = field([(macro, ONE_EL)], "plain")
    assert np.max(np.abs(u_plain.trace_values(SCALING, 0.25, xs[:, None]) - macro(xs[:, None]))) <= 1e-13
    # pure character: u0(x, y) = exp(2 pi i y) traces to exp(2 pi i x / eps)
    u_char = field([(ident(), ALG.element(TrigPolynomial.character([1.0])))], "char")
    eps = 0.125
    expected = np.exp(2j * np.pi * xs / eps)
    assert np.max(np.abs(u_char.trace_values(SCALING, eps, xs[:, None]) - expected)) <= 1e-12
    # identity parameter: the trace is u0(x, x)
    at_identity = u_char.trace_values(SCALING, 1.0, xs[:, None])
    assert np.max(np.abs(at_identity - np.exp(2j * np.pi * xs))) <= 1e-12


def test_trace_norm_bound_closed_forms():
    g = gaussian([0.5], 0.15, name="G")
    norm_g = math.sqrt(quad(lambda x: math.exp(-((x - 0.5) ** 2) / 0.0225), 0, 1)[0])
    # oscillation-free field: equality of trace and envelope norms
    u_plain = field([(g, ONE_EL)], "plain")
    entry = trace_norm_bound_check(u_plain, SCALING, 0.25, 2.0, SPEC)
    assert entry["passed"]
    assert entry["lhs"] == pytest.approx(norm_g, rel=1e-6)
    assert entry["rhs"] == pytest.approx(norm_g, rel=1e-4)
    # oscillating field: |a| / sqrt(2) against |a| envelope
    u_osc = field([(g, SIN_EL)], "osc")
    entry = trace_norm_bound_check(u_osc, SCALING, 2.0**-6, 2.0, SPEC)
    assert entry["passed"]
    assert entry["lhs"] == pytest.approx(norm_g / math.sqrt(2.0), rel=1e-3)
    assert entry["rhs"] == pytest.approx(norm_g, rel=1e-4)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_trace_norm_bound_away_from_p2(p):
    # u = G(x) sin 2 pi y: the trace norm tends to ||G||_p m_p^(1/p), where
    # m_p = Gamma((p + 1) / 2) / (sqrt(pi) Gamma(p / 2 + 1)) is the mean of
    # |sin|^p, below the envelope norm ||G||_p
    g = gaussian([0.5], 0.15, name="G")
    norm_g = quad(lambda x: math.exp(-((x - 0.5) ** 2) / 0.045) ** p, 0, 1,
                  epsabs=0.0, epsrel=1e-13)[0] ** (1.0 / p)
    m_p = math.gamma((p + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(p / 2.0 + 1.0))
    limit = norm_g * m_p ** (1.0 / p)
    ladder = [2.0**-4, 2.0**-6, 2.0**-8, 2.0**-10]
    rows = trace_norm_bound_rows([field([(g, SIN_EL)], "osc")], SCALING, ladder, p, SPEC)
    assert len(rows) == len(ladder) and all(r["passed"] for r in rows)
    assert rows[0]["rhs"] == pytest.approx(norm_g, rel=1e-6)
    # at 2^-4 the base grid gives 32 nodes per period
    assert rows[0]["lhs"] == pytest.approx(limit, rel=1e-6)
    # finer rungs get the resolved grid's 8 nodes per period, doubled: too
    # few for the cusp of |sin|^p at its zeros when p is not an even integer,
    # so the relative error stops falling, at 1.8e-3 for p = 1.5 and 2.6e-4
    # for p = 3 (p = 2 and p = 4 reach about 1e-11)
    for row in rows[2:]:
        assert abs(row["lhs"] - limit) <= 5e-3 * limit


def _counted(phi: TestFunction, seen: list) -> TestFunction:
    # phi, appending the number of points of each call to ``seen``
    def fn(pts):
        seen.append(pts.shape[0])
        return phi.fn(pts)

    return TestFunction(phi.name, fn, phi.support)


def test_integrals_without_an_estimate_evaluate_only_the_doubled_grid():
    # envelope and trace norms, the spectral side and kernel transforms
    # report the doubled grid's value alone, so they evaluate no coarse
    # grid: 512 nodes on a 256-node spec, not 256 + 512
    seen = []
    u = field([(_counted(gaussian([0.5], 0.15, name="G"), seen), SIN_EL)], "u")
    psi = field([(parabola(OMEGA), SIN_EL)], "psi")
    u.envelope_norm(2.0, SPEC)
    assert sum(seen) == 512
    seen.clear()
    trace_norm_bound_check(u, SCALING, 1.0, 2.0, SPEC)  # the envelope norm is cached
    assert sum(seen) == 512
    seen.clear()
    sigma_pairing_rhs(u, psi, SPEC)
    assert sum(seen) == 512
    seen.clear()
    kernel = _counted(gaussian([0.0], 0.1), seen)
    convolve(kernel, MeanFunction.periodic_trig(TrigPolynomial.character([1.0])), SPEC)
    assert sum(seen) == 512


def test_norm_bound_rows_compute_each_envelope_once(monkeypatch):
    samples = []
    cell_sample = sigma_module._cell_sample

    def counted(algebra, count):
        samples.append(count)
        return cell_sample(algebra, count)

    monkeypatch.setattr(sigma_module, "_cell_sample", counted)
    g = gaussian([0.5], 0.15, name="G")
    fields = [
        field([(g, SIN_EL)], "osc"),
        field([(g, ONE_EL)], "plain"),
        field([(ident(), SIN_EL)], "flat-osc"),
        field([(g, ALG.element(TrigPolynomial.character([1.0])))], "char"),
    ]
    ladder = [2.0**-n for n in range(1, 13)]
    rows = trace_norm_bound_rows(fields, SCALING, ladder, 2.0, SPEC)
    assert len(rows) == 48 and all(r["passed"] for r in rows)
    assert len(samples) == 4
    # the memoised norm is the one a fresh computation gives
    fresh = TwoScaleField.envelope_norm.__wrapped__(fields[0], 2.0, SPEC)
    assert rows[0]["rhs"] == fresh


ALG_AP = HAlgebra.subgroup([[1.0], [ROOT2]], degree=8)
ZERO = TestFunction("zero", lambda p: np.zeros(np.atleast_2d(p).shape[0]), OMEGA)


def _one_term_fields():
    # (field, whether its oscillation factor is real)
    g = gaussian([0.5], 0.15, name="G")
    return [
        (field([(g, SIN_EL)], "sin"), True),
        (field([(parabola(OMEGA), ALG.element(TrigPolynomial.character([1.0])))], "char"), False),
        (field([(g, ALG_AP.from_terms([([ROOT2], 1.0)]))], "ap-char"), False),
    ]


@pytest.mark.parametrize("p", [2.0, 1.5])
@pytest.mark.parametrize("index", range(3), ids=["sin", "char", "ap-char"])
def test_one_term_envelope_is_the_per_node_sup(index, p):
    # a second term with a zero macro factor sends the same field down the
    # per-node sup over the sample; the one-term path factors the sup
    u, real = _one_term_fields()[index]
    other = ALG_AP.constant(1.0) if u.algebra is ALG_AP else ONE_EL
    general = replace(u, terms=(*u.terms, (ZERO, other)))
    one, many = (TwoScaleField.envelope_norm.__wrapped__(f, p, SPEC) for f in (u, general))
    if real:
        assert one == many
    else:
        assert abs(one - many) <= 4 * np.spacing(many)


def test_one_term_envelope_closed_form():
    # sup |sin 2 pi y| = 1, so the envelope at p = 2 is ||G||_2 on [0, 1]
    u, _ = _one_term_fields()[0]
    sigma = 0.15
    exact = math.sqrt(sigma * math.sqrt(math.pi) * math.erf(0.5 / sigma))
    assert abs(TwoScaleField.envelope_norm.__wrapped__(u, 2.0, SPEC) - exact) <= 1e-12


def test_one_term_envelope_samples_the_oscillation_once():
    # no (nodes x samples) field block: one quasi-periodic envelope stays
    # below 2 MB of traced allocations (the per-node sup peaks near 9 MB)
    u, _ = _one_term_fields()[2]
    tracemalloc.start()
    try:
        TwoScaleField.envelope_norm.__wrapped__(u, 2.0, SPEC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_lhs_oscillation_free_is_parameter_independent():
    a = gaussian([0.5], 0.2, name="a")
    b = parabola(OMEGA)
    u = field([(a, ONE_EL)], "u")
    psi = field([(b, ONE_EL)], "psi")
    values = []
    for eps in (0.5, 0.125, 2.0**-6):
        value, _, _ = sigma_pairing_lhs(u, psi, SCALING, eps, SPEC)
        values.append(value)
    oracle, _ = quad(
        lambda x: math.exp(-((x - 0.5) ** 2) / 0.08) * x * (1 - x) / 0.25, 0, 1
    )
    for value in values:
        assert value == pytest.approx(oracle, rel=1e-10)


def test_lhs_conjugate_characters_give_constant_one():
    u = field([(ident(), ALG.element(TrigPolynomial.character([1.0])))], "u")
    psi = field([(ident(), ALG.element(TrigPolynomial.character([-1.0])))], "psi")
    for eps in (0.5, 0.125, 2.0**-7):
        value, _, _ = sigma_pairing_lhs(u, psi, SCALING, eps, SPEC)
        assert value == pytest.approx(1.0, rel=1e-12)


def test_lhs_pure_character_oscillatory_oracle():
    # closed form: integral of exp(2 pi i x / eps) over (0, 1)
    u = field([(ident(), ALG.element(TrigPolynomial.character([1.0])))], "u")
    psi = field([(ident(), ONE_EL)], "psi")
    for eps in (0.3, 0.11, 0.043):
        value, _, _ = sigma_pairing_lhs(u, psi, SCALING, eps, SPEC)
        w = 2.0 * math.pi / eps
        oracle = (cmath.exp(1j * w) - 1.0) / (1j * w)
        assert value == pytest.approx(oracle, abs=1e-12)


def test_lhs_over_a_ladder_is_the_lhs_at_each_entry():
    # one call over an array of eps evaluates each macro factor once per grid
    # and gives every entry's value and estimate bit for bit
    calls = []

    def counted(pts):
        calls.append(pts.shape[0])
        return parabola(OMEGA)(pts)

    u = field([(gaussian([0.5], 0.15, name="G"), SIN_EL), (ident(), ONE_EL)], "u")
    psi = field([(TestFunction("counted", counted, OMEGA), ALG.element(TrigPolynomial.character([-1.0])))], "psi")
    ladder = [0.5, 0.3, 2.0**-9]
    values, estimates, nodes = sigma_pairing_lhs(u, psi, SCALING, np.array(ladder), SPEC)
    assert calls == [256, 256, 512, 512]  # two term pairs on each grid
    assert values.shape == estimates.shape == (3,) and nodes == 256
    for eps, value, estimate in zip(ladder, values, estimates):
        single = sigma_pairing_lhs(u, psi, SCALING, eps, SPEC)
        assert single == (value, estimate, 256)
        assert type(single[0]) is complex and type(single[1]) is float


def _periodic_battery():
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "sigma_periodic.yaml")
    cfg = cfg_mod.validate_config(cfg_mod.load_config(config))
    action, spec, block = cfg_mod.build_action(cfg), cfg_mod.build_grid_spec(cfg), cfg["sigma"]
    algebra = cfg_mod.build_algebra(block["algebra"], 1)
    u = cfg_mod.build_field(block["u0"], algebra, block["domain"], "sigma.u0")
    battery = {b["name"]: cfg_mod.build_field(b, algebra, block["domain"], "sigma.battery")
               for b in block["battery"]}
    return action, spec, u, battery


def _gp(x):
    # G(x) P(x): the macro factors of u0 and of the matched test fields
    return math.exp(-((x - 0.5) ** 2) / (2.0 * 0.15**2)) * 4.0 * x * (1.0 - x)


def _qawo_sin_squared(eps):
    # integral of G P sin^2(2 pi x / eps) and of G P sin(2 pi x / eps) exp(-2 pi i x / eps)
    opts = {"epsabs": 1e-17, "epsrel": 1e-13, "limit": 200}
    plain, _ = quad(_gp, 0.0, 1.0, **opts)
    cos2, _ = quad(_gp, 0.0, 1.0, weight="cos", wvar=4.0 * math.pi / eps, **opts)
    sin2, _ = quad(_gp, 0.0, 1.0, weight="sin", wvar=4.0 * math.pi / eps, **opts)
    return {"matched-sin": 0.5 * (plain - cos2), "conj-character": 0.5 * sin2 - 0.5j * (plain - cos2)}


def test_lhs_matches_qawo_on_the_sigma_periodic_battery():
    # u0 = G(x) sin(2 pi y) against matched-sin, P(x) sin(2 pi y), and
    # conj-character, P(x) exp(-2 pi i y), with the edge-zero parabola
    # P(x) = 4 x (1 - x).  With t = 2 pi x / eps, sin^2 t = (1 - cos 2t) / 2 and
    # sin t exp(-i t) = sin(2t) / 2 - i (1 - cos 2t) / 2, so both pairings are
    # G P integrals with cos and sin weights at 4 pi / eps: QUADPACK's QAWO
    action, spec, u, battery = _periodic_battery()
    eps = 2.0**-12
    for name, oracle in _qawo_sin_squared(eps).items():
        value, _, _ = sigma_pairing_lhs(u, battery[name], action, eps, spec)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("eps", [2.0**-16, 2.0**-20])
def test_lhs_matches_qawo_below_any_resolvable_eps(eps):
    # a grid spec capped at its base grid: any resolved grid would raise, so
    # the pairing runs on the 256 base nodes however fine the oscillation
    action, spec, u, battery = _periodic_battery()
    capped = replace(spec, max_nodes=spec.base_nodes)
    for name, oracle in _qawo_sin_squared(eps).items():
        value, estimate, nodes = sigma_pairing_lhs(u, battery[name], action, eps, capped)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)
        assert nodes == spec.base_nodes and estimate <= 1e-12 * abs(oracle)
    with pytest.raises(UnderResolvedError):
        trace_norm_bound_check(u, action, eps, 2.0, capped)


def test_rhs_spectral_pairings():
    g = gaussian([0.5], 0.15, name="G")
    b = parabola(OMEGA)
    inner, _ = quad(
        lambda x: math.exp(-((x - 0.5) ** 2) / 0.045) * x * (1 - x) / 0.25, 0, 1
    )
    u = field([(g, SIN_EL)], "u")
    psi_sin = field([(b, SIN_EL)], "psi-sin")
    # beta pairing of sin with itself is the mean of sin^2 = 1/2
    assert sigma_pairing_rhs(u, psi_sin, SPEC) == pytest.approx(inner / 2.0, rel=1e-9)
    psi_conj = field([(b, ALG.element(TrigPolynomial.character([-1.0])))], "psi-conj")
    # zero coefficient of sin(2 pi y) exp(-2 pi i y) is 1/(2i)
    assert sigma_pairing_rhs(u, psi_conj, SPEC) == pytest.approx(inner / 2j, rel=1e-9)
    psi_plain = field([(b, ONE_EL)], "psi-plain")
    assert sigma_pairing_rhs(u, psi_plain, SPEC) == 0.0


def test_rhs_mean_compatibility():
    # an oscillation-free test field pairs with the mean projection of u
    g = gaussian([0.5], 0.15, name="G")
    cos_el = ALG.element(TrigPolynomial.from_terms([([0.0], 0.25), ([1.0], 0.5), ([-1.0], 0.5)]))
    u = field([(g, cos_el)], "u")
    phi = parabola(OMEGA)
    psi = field([(phi, ONE_EL)], "psi")
    rhs = sigma_pairing_rhs(u, psi, SPEC)
    # direct quadrature against the mean projection x -> 0.25 g(x) of u
    oracle, _ = quad(lambda x: (0.25 * g(np.array([[x]])) * phi(np.array([[x]])))[0].real, 0, 1)
    assert rhs.real == pytest.approx(oracle, rel=1e-8)
    assert abs(rhs.imag) <= 1e-12


def test_pairings_bilinear():
    g = gaussian([0.5], 0.2, name="g")
    b = parabola(OMEGA)
    u1 = field([(g, SIN_EL)], "u1")
    u2 = field([(b, ONE_EL)], "u2")
    psi = field([(b, SIN_EL)], "psi")
    a = 1.7 - 0.4j
    combo = field([(g, a * SIN_EL), (b, ONE_EL)], "combo")
    eps = 2.0**-5
    lhs_combo, _, _ = sigma_pairing_lhs(combo, psi, SCALING, eps, SPEC)
    lhs_1, _, _ = sigma_pairing_lhs(u1, psi, SCALING, eps, SPEC)
    lhs_2, _, _ = sigma_pairing_lhs(u2, psi, SCALING, eps, SPEC)
    assert abs(lhs_combo - (a * lhs_1 + lhs_2)) <= 1e-10 * max(1.0, abs(lhs_combo))
    rhs_combo = sigma_pairing_rhs(combo, psi, SPEC)
    rhs_1 = sigma_pairing_rhs(u1, psi, SPEC)
    rhs_2 = sigma_pairing_rhs(u2, psi, SPEC)
    assert abs(rhs_combo - (a * rhs_1 + rhs_2)) <= 1e-10 * max(1.0, abs(rhs_combo))


def test_under_resolution_raises():
    # the pairing needs no resolved grid; the trace norm bound still does
    u = field([(ident(), ALG.element(TrigPolynomial.character([1.0])))], "u")
    tiny = GridSpec(base_nodes=64, panel_order=16, max_nodes=256)
    with pytest.raises(UnderResolvedError):
        trace_norm_bound_check(u, SCALING, 2.0**-10, 2.0, tiny)


def test_refinement_stability():
    g = gaussian([0.5], 0.2, name="g")
    u = field([(g, SIN_EL)], "u")
    psi = field([(parabola(OMEGA), SIN_EL)], "psi")
    eps = 2.0**-4
    coarse_value, estimate, _ = sigma_pairing_lhs(u, psi, SCALING, eps, SPEC)
    finer = GridSpec(base_nodes=1024, panel_order=16, max_nodes=1 << 20)
    fine_value, _, _ = sigma_pairing_lhs(u, psi, SCALING, eps, finer)
    assert abs(fine_value - coarse_value) <= max(estimate, 1e-14)


def test_validate_ladder():
    group = SCALING.group
    assert validate_ladder(group, [0.5, 0.25]) == [0.5, 0.25]
    with pytest.raises(ValueError):
        validate_ladder(group, [])
    with pytest.raises(ValueError):
        validate_ladder(group, [2.0, 1.0])  # exceeds the identity
    with pytest.raises(ValueError):
        validate_ladder(group, [0.25, 0.5])  # not decreasing


def test_verify_sigma_convergence_periodic():
    g = gaussian([0.5], 0.15, name="G")
    u = field([(g, SIN_EL)], "u0")
    battery = [
        field([(parabola(OMEGA), SIN_EL)], "matched"),
        field([(parabola(OMEGA), ALG.element(TrigPolynomial.character([-1.0])))], "conj"),
        field([(gaussian([0.5], 0.2, name="plain"), ONE_EL)], "plain"),
    ]
    ladder = [2.0**-n for n in range(1, 13)]
    report = verify_sigma_convergence(u, battery, SCALING, ladder, SPEC, tol=1e-2)
    assert report.passed
    for info in report.per_test.values():
        assert info["final_rel_err"] <= 1e-2
        assert info["fitted_order"] >= 0.9
    rows = trace_norm_bound_rows([u, *battery], SCALING, ladder, 2.0, SPEC)
    assert all(r["passed"] for r in rows) and len(rows) == 4 * len(ladder)
    # the oscillation-free member doubles as the weak-limit check
    assert any(r["oscillation_free"] for r in report.rows)


def test_verify_sigma_convergence_quasiperiodic():
    alg = HAlgebra.subgroup([[1.0], [ROOT2]], degree=8)
    cos_both = alg.from_terms(
        [([1.0], 0.5), ([-1.0], 0.5), ([ROOT2], 0.5), ([-ROOT2], 0.5)]
    )
    g = gaussian([0.5], 0.15, name="G")
    u = TwoScaleField(domain=OMEGA, terms=[(g, cos_both)], name="u0")
    battery = [
        TwoScaleField(domain=OMEGA,
                      terms=[(parabola(OMEGA), alg.from_terms([([1.0], 1.0)]))],
                      name="int-freq"),
        TwoScaleField(domain=OMEGA,
                      terms=[(parabola(OMEGA), alg.from_terms([([-ROOT2], 1.0)]))],
                      name="root2-freq"),
    ]
    ladder = [2.0**-n for n in range(1, 13)]
    report = verify_sigma_convergence(u, battery, SCALING, ladder, SPEC, tol=1e-2)
    assert report.passed and norm_bound_holds([u, *battery], SCALING, ladder, SPEC)
    # matched characters keep half the macro inner product
    for name in ("int-freq", "root2-freq"):
        rhs = report.per_test[name]["rhs"]
        inner, _ = quad(
            lambda x: math.exp(-((x - 0.5) ** 2) / 0.045) * x * (1 - x) / 0.25, 0, 1
        )
        assert rhs == pytest.approx(inner / 2.0, rel=1e-8)


def test_verify_sigma_constant_in_oscillation_slot():
    g = gaussian([0.5], 0.2, name="g")
    u = field([(g, ONE_EL)], "u0")
    psi = field([(parabola(OMEGA), ONE_EL)], "psi")
    ladder = [2.0**-n for n in range(1, 7)]
    report = verify_sigma_convergence(u, [psi], SCALING, ladder, SPEC, tol=1e-9)
    assert report.passed and norm_bound_holds([u, psi], SCALING, ladder, SPEC)
    rhs = report.per_test["psi"]["rhs"]
    for row in report.rows:
        assert abs(row["lhs"] - rhs) <= 1e-10 * abs(rhs)


def test_sigma_two_dimensional_periodic():
    # tensor oscillation sin(2 pi y1) sin(2 pi y2) on the unit square
    alg2 = HAlgebra.periodic_lattice(2)
    omega2 = Box((0.0, 0.0), (1.0, 1.0))
    action = DiagonalScaling((1, 1))
    tensor = TrigPolynomial.sine([1.0, 0.0]) * TrigPolynomial.sine([0.0, 1.0])
    g2 = gaussian([0.5, 0.5], 0.15, name="G2")
    u = TwoScaleField(domain=omega2, terms=[(g2, alg2.element(tensor))], name="u2")
    psi = TwoScaleField(domain=omega2,
                        terms=[(parabola(omega2), alg2.element(tensor))],
                        name="matched2")
    spec = GridSpec(base_nodes=64, panel_order=16, max_nodes=1 << 11)
    ladder = [2.0**-n for n in range(1, 6)]
    report = verify_sigma_convergence(u, [psi], action, ladder, spec, tol=1e-2)
    assert report.passed and norm_bound_holds([u, psi], action, ladder, spec)
    # matched pairing keeps the squared-sine mean (1/2)^2 per axis
    inner, _ = quad(
        lambda x: math.exp(-((x - 0.5) ** 2) / 0.045) * x * (1 - x) / 0.25, 0, 1
    )
    # both macros are tensor products, so the plane integral is the square
    expected = inner**2 * 0.25
    assert report.per_test["matched2"]["rhs"] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("eps", [2.0**-3, 2.0**-7, 2.0**-14])
def test_two_dimensional_lhs_matches_qawo(eps):
    # the case of test_sigma_two_dimensional_periodic: the tensor Filon weights
    # give the square of the one-dimensional matched-sin pairing
    alg2 = HAlgebra.periodic_lattice(2)
    omega2 = Box((0.0, 0.0), (1.0, 1.0))
    tensor = alg2.element(TrigPolynomial.sine([1.0, 0.0]) * TrigPolynomial.sine([0.0, 1.0]))
    u = TwoScaleField(domain=omega2, terms=[(gaussian([0.5, 0.5], 0.15, name="G2"), tensor)], name="u2")
    psi = TwoScaleField(domain=omega2, terms=[(parabola(omega2), tensor)], name="matched2")
    spec = GridSpec(base_nodes=64, panel_order=16, max_nodes=1 << 11)
    value, estimate, nodes = sigma_pairing_lhs(u, psi, DiagonalScaling((1, 1)), eps, spec)
    oracle = _qawo_sin_squared(eps)["matched-sin"] ** 2
    assert nodes == 64**2 and value.imag == 0.0
    assert abs(value - oracle) <= 1e-13 * oracle and estimate <= 1e-12 * oracle
