"""Separable test functions integrated by their own tensor rules.

A test function is separable when its formula is a ``quadrature.Product``
(the Gaussian, the parabola and the 1-D triangle) or a ``QuarticBump``
(the bump).  A tensor rule applied to a product is the product of the 1-D
rules on each axis (sum factorisation); the bump's rule sums its last axis
in closed form from prefix sums.  The oracles are the node-by-node grid
path itself (the same formula with its type hidden), closed-form masses and
the outer-layer mass fraction of the full tensor grid.
"""

import dataclasses
import math

import numpy as np
import pytest

from scaleflow import (
    DiagonalScaling,
    GridSpec,
    Homogenizer,
    LinearFamily,
    RGroup,
    SupportEscapeError,
    TestFunction,
    bump,
    default_battery,
    gaussian,
    integrate,
    parabola,
    pushforward_pairing,
    triangle,
    verify_homogeneity,
)
from scaleflow import measures, quadrature
from scaleflow.measures import Lebesgue
from scaleflow.quadrature import Box, Product, QuadratureGrid, QuarticBump, integrate_separable

CENTER = (0.3, -0.2, 0.1)
EXPONENTS = (1, 2, 3)
RULES = {"midpoint": 1, "gauss": 16}
# nodes per axis of the path comparisons, whole 16-node panels
NODES = {1: 256, 2: 256, 3: 48}


def _functions(kind: str, dim: int) -> list:
    center = CENTER[:dim]
    if kind == "gaussian":
        return [gaussian(center, 0.5), gaussian(center, 1.3)]
    if kind == "parabola":
        return [parabola(Box((-1.0, -0.5, -0.8)[:dim], (1.2, 0.9, 0.6)[:dim]))]
    if kind == "bump":
        return [bump(center, 1.3)]
    return [triangle(center[0], 0.8)]


# the triangle is one-dimensional
CASES = [pytest.param(kind, dim, id=f"{kind}-{dim}")
         for kind in ("gaussian", "parabola", "bump", "triangle")
         for dim in ((1,) if kind == "triangle" else (1, 2, 3))]
PLANAR_CASES = [case for case in CASES if case.values[1] < 3]


def _hidden(phi: TestFunction) -> TestFunction:
    # the same formula with its type hidden, so it takes the grid path
    return TestFunction(phi.name, lambda pts: phi.fn(pts), phi.support)


def _close(got, expected, scale) -> bool:
    return abs(got - expected) <= 1e-13 * abs(scale)


def _spec(dim: int, rule: str) -> GridSpec:
    return GridSpec(base_nodes=NODES[dim], panel_order=RULES[rule])


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("kind, dim", CASES)
def test_paths_agree(kind, dim, rule):
    hz = Homogenizer.lebesgue(DiagonalScaling((1,) * dim), _spec(dim, rule))
    for phi in _functions(kind, dim):
        assert isinstance(phi.fn, (Product, QuarticBump))
        value, estimate = integrate(hz, phi)
        grid_value, grid_estimate = integrate(hz, _hidden(phi))
        assert _close(value, grid_value, grid_value)
        assert _close(estimate, grid_estimate, grid_value)


def _pushforward_escapes(kind: str, dim: int, rule: str) -> bool:
    # a parabola and a hat vanish only on their box's edge, so its nodes
    # carry mass; 48 midpoint nodes leave more than measures.BOUNDARY_MASS_TOL
    # of the 3-D bump on the edge
    return kind in ("parabola", "triangle") or (kind, dim, rule) == ("bump", 3, "midpoint")


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("eps", [4.0, 1.7, 0.3])
@pytest.mark.parametrize("kind, dim", CASES)
def test_pushforward_paths_agree(kind, dim, eps, rule):
    # unequal exponents: each axis has its own scale and its own image box
    hz = Homogenizer.lebesgue(DiagonalScaling(EXPONENTS[:dim]), _spec(dim, rule))
    for phi in _functions(kind, dim):
        if _pushforward_escapes(kind, dim, rule):
            for candidate in (phi, _hidden(phi)):
                with pytest.raises(SupportEscapeError):
                    pushforward_pairing(hz, eps, candidate)
            continue
        value, estimate = pushforward_pairing(hz, eps, phi)
        grid_value, grid_estimate = pushforward_pairing(hz, eps, _hidden(phi))
        assert _close(value, grid_value, grid_value)
        assert _close(estimate, grid_estimate, grid_value)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_one_dimensional_products_have_the_grid_path_bits(rule):
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)), GridSpec(96, RULES[rule]))
    for kind in ("gaussian", "parabola", "triangle"):
        for phi in _functions(kind, 1):
            assert repr(integrate(hz, phi)) == repr(integrate(hz, _hidden(phi)))
    for phi in _functions("gaussian", 1):
        for eps in (0.3, 1.7):
            expected = pushforward_pairing(hz, eps, _hidden(phi))
            assert repr(pushforward_pairing(hz, eps, phi)) == repr(expected)


def _mass_cases():
    # (test function, closed-form mass, grid spec, relative tolerance,
    # whether its pushforwards pass the edge check)
    for dim in (1, 2, 3):
        center = CENTER[:dim]
        for sigma in (0.5, 2.0):
            # (2 pi sigma^2)^(d/2); the default 1024 nodes per axis would
            # be a 1024^3 tensor grid in 3-D, which the product rule never builds
            yield pytest.param(gaussian(center, sigma), (2.0 * math.pi * sigma**2) ** (dim / 2),
                               GridSpec(), 1e-12, True, id=f"gaussian-{sigma}-{dim}")
        # int (1 - |x|^2 / w^2)^2 dx = S_(d-1) 8 / (d (d + 2) (d + 4)) w^d, with
        # S_(d-1) the area of the unit sphere: 16 w / 15, pi w^2 / 3, 32 pi w^3 / 105;
        # observed relative error on 256 midpoint nodes per axis at w = 1.5:
        # 1.3e-11 (1-D), 3.7e-10 (2-D), 1.2e-11 (3-D)
        sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]
        mass = sphere * 8.0 / (dim * (dim + 2) * (dim + 4)) * 1.5**dim
        tol = {1: 2e-11, 2: 5e-10, 3: 2e-11}[dim]
        yield pytest.param(bump(center, 1.5), mass, GridSpec(base_nodes=256), tol, True,
                           id=f"bump-{dim}")
        # 4h/3 per axis of half-side h; Gauss panels integrate its quadratic
        # factors exactly, so only rounding is left
        box = Box(tuple(c - 0.7 for c in center), tuple(c + 0.4 + 0.3 * a for a, c in enumerate(center)))
        yield pytest.param(parabola(box), math.prod(4.0 * s / 6.0 for s in box.sides),
                           GridSpec(base_nodes=64, panel_order=16), 1e-14, False,
                           id=f"parabola-{dim}")
    # its width: with an even node count the kink falls on a cell edge, where
    # the midpoint rule integrates each linear half exactly
    yield pytest.param(triangle(0.3, 0.8), 0.8, GridSpec(base_nodes=256), 1e-14, False,
                       id="triangle-1")


@pytest.mark.parametrize("phi, exact, spec, tol, pushed", _mass_cases())
def test_mass_matches_the_closed_form(phi, exact, spec, tol, pushed):
    dim = phi.support.dim
    hz = Homogenizer.lebesgue(DiagonalScaling(EXPONENTS[:dim]), spec)
    value, _ = integrate(hz, phi)
    assert abs(value - exact) <= tol * exact
    for eps in (4.0, 0.25) if pushed else ():
        value, _ = pushforward_pairing(hz, eps, phi)
        assert abs(value / hz.factor_map(eps) - exact) <= tol * exact


def _shrunk(box: Box, factor: float) -> Box:
    # the box scaled about its middle
    middle = [(lo + hi) / 2.0 for lo, hi in zip(box.lows, box.highs)]
    return Box(tuple(m - factor * s / 2.0 for m, s in zip(middle, box.sides)),
               tuple(m + factor * s / 2.0 for m, s in zip(middle, box.sides)))


@pytest.mark.parametrize("kind, dim", PLANAR_CASES)
def test_cut_support_escapes_on_both_paths(kind, dim):
    # a Gaussian of sigma 0.5 cut at 2 sigma, the others at 0.8 of their box
    hz = Homogenizer.lebesgue(DiagonalScaling((1,) * dim), GridSpec(base_nodes=256))
    phi = _functions(kind, dim)[0]
    cut = dataclasses.replace(phi, support=_shrunk(phi.support, 1 / 6 if kind == "gaussian" else 0.8))
    for candidate in (cut, _hidden(cut)):
        with pytest.raises(SupportEscapeError):
            pushforward_pairing(hz, 1.0, candidate)


EDGE_CASES = {
    # a box that cuts each function on one side, and the relative margin of
    # the edge tolerances about the tensor grid's fraction: the bump's
    # fraction is a difference of two totals
    "gaussian": (gaussian([0.0, 0.0], 1.0), Box((-3.0, -2.5), (3.0, 2.5)), 1e-12),
    "parabola": (parabola(Box((-1.0, -0.5), (1.2, 0.9))), Box((-1.0, -0.5), (1.2, 0.8)), 1e-12),
    "bump": (bump((0.0, 0.0), 1.0), Box((-1.0, -0.97), (1.0, 1.0)), 1e-9),
    "triangle": (triangle(0.3, 0.8), Box((-0.5,), (0.9,)), 1e-12),
}


@pytest.mark.parametrize("kind", list(EDGE_CASES))
def test_edge_fraction_is_the_tensor_grids_own(kind):
    # the tensor grid's outer-layer |f| fraction F sits between edge
    # tolerances just below and just above it
    phi, box, margin = EDGE_CASES[kind]
    grid = QuadratureGrid(box, (64, 80)[: box.dim], panel_order=16)
    pts, _ = grid.points_and_weights()
    fraction = quadrature.boundary_mass_fraction(phi(pts), grid)
    assert fraction > 1e-6
    with pytest.raises(SupportEscapeError):
        integrate_separable(phi.fn, grid, edge_tol=fraction * (1.0 - margin))
    value, _ = integrate_separable(phi.fn, grid, edge_tol=fraction * (1.0 + margin))
    assert _close(value, quadrature.integrate_on_grid(phi, grid.refined()), value)


def test_rules_without_mass_judge_no_edge():
    grid = QuadratureGrid(Box((-3.0, -2.5), (3.0, 2.5)), (64, 80), panel_order=16)
    # a factor that vanishes on its axis leaves the tensor grid no mass at all
    vanishing = Product((gaussian([0.0, 0.0], 1.0).fn.parts[0], np.zeros_like))
    assert integrate_separable(vanishing, grid, edge_tol=1e-6) == (0.0, 0.0)
    # a box the ball misses: no mass, so nothing to judge
    far = QuadratureGrid(Box((2.0, 2.0), (3.0, 3.0)), (16, 16))
    assert integrate_separable(bump((0.0, 0.0), 1.0).fn, far, edge_tol=1e-6) == (0.0, 0.0)


COUNTED = {
    # the formula, its part, the box's half-side, the nodes per axis, the
    # exact value and the nodes each axis sees: n coarse, n - 2 inner for
    # the bump's edge check (a product keeps its coarse values) and 2 n refined
    "gaussian": (Product, lambda x: np.exp(-(x**2)), 6.0, 48, math.pi, 48 + 2 * 48, 1e-12),
    "bump": (QuarticBump, lambda x: x**2, 1.0, 512, math.pi / 3.0, 512 + 510 + 2 * 512, 1e-9),
}


@pytest.mark.parametrize("kind", list(COUNTED))
def test_each_axis_is_evaluated_on_its_own_nodes_only(kind):
    # a counting part sees one 1-D node vector per call, never the n_1 n_2
    # nodes of the grid
    rule, part, half, nodes, exact, seen, rel = COUNTED[kind]
    calls = {0: [], 1: []}

    def counting(axis):
        def counted(x):
            calls[axis].append(np.shape(x))
            return part(x)
        return counted

    phi = TestFunction("counted", rule((counting(0), counting(1))), Box((-half,) * 2, (half,) * 2))
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=nodes))
    value, _ = pushforward_pairing(hz, 1.0, phi)
    assert value == pytest.approx(exact, rel=rel)
    for shapes in calls.values():
        assert all(len(shape) == 1 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == seen


DROPPED = {
    # battery, ladder, nodes per axis and the elements whose scale the
    # dropped pullback misses
    "gaussian": (default_battery(2)[:3], [2.0, 1.0, 0.5], 128, {2.0, 0.5}),
    "bump": ([bump((0.3, 0.3), 2.0)], [4.0, 2.0, 1.0], 256, {4.0, 2.0}),
}


@pytest.mark.parametrize("kind", list(DROPPED))
def test_homogeneity_fails_when_the_pullback_drops_its_scale(monkeypatch, kind):
    battery, ladder, nodes, failing = DROPPED[kind]
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=nodes))
    assert verify_homogeneity(hz, ladder, battery).passed
    # x_a -> f_a(x_a): the image box still follows H_eps, the integrand not
    monkeypatch.setattr(DiagonalScaling, "pullback_factors", lambda self, eps, parts: parts)
    report = verify_homogeneity(hz, ladder, battery)
    assert not report.passed
    assert {row["eps"] for row in report.rows if not row["passed"]} == failing


SHEARED = {
    # test function, nodes per axis, its mass and the absolute tolerance
    "gaussian": (gaussian([0.0, 0.0], 0.5), 128, 2.0 * math.pi * 0.25, 1e-12),
    "bump": (bump((0.0, 0.0), 1.0), 256, math.pi / 3.0, 1e-6),
}


@pytest.mark.parametrize("kind", list(SHEARED))
def test_mixing_actions_keep_the_grid_path(monkeypatch, kind):
    # a shear mixes the axes: no pulled-back parts, so the composed function
    # is evaluated node by node, and Lebesgue measure is still invariant
    shear = LinearFamily(RGroup("real-additive"), 2, lambda e: np.array([[1.0, e], [0.0, 1.0]]))
    assert shear.pullback_factors(0.5, (abs, abs)) is None
    assert DiagonalScaling((1, 2)).pullback_factors(0.5, (abs, abs)) is not None
    phi, nodes, exact, tol = SHEARED[kind]
    hz = Homogenizer.lebesgue(shear, GridSpec(base_nodes=nodes))
    grids = []
    on_grid = measures.integrate_with_refinement
    monkeypatch.setattr(measures, "integrate_with_refinement",
                        lambda f, grid, tol: grids.append(grid) or on_grid(f, grid, tol))
    monkeypatch.setattr(measures, "integrate_separable", None)  # never reached
    value, _ = pushforward_pairing(hz, 0.5, phi)
    assert len(grids) == 1
    assert abs(value - exact) <= tol


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("kind, dim", PLANAR_CASES)
def test_domain_clipped_paths_agree(monkeypatch, kind, dim, rule):
    # the domain x_a >= 0 cuts each function: the box holds part of it, and
    # the base integral (no edge check) still takes the separable rule
    domain = Box((0.0,) * dim, (math.inf,) * dim)
    hz = Homogenizer(DiagonalScaling((1,) * dim), Lebesgue(domain=domain), lambda eps: 1.0,
                     _spec(dim, rule))
    calls = []
    on_separable = measures.integrate_separable
    monkeypatch.setattr(measures, "integrate_separable",
                        lambda *args: calls.append(args) or on_separable(*args))
    for phi in _functions(kind, dim):
        calls.clear()
        value, estimate = integrate(hz, phi)
        assert len(calls) == 1 and calls[0][1].box.lows == (0.0,) * dim
        grid_value, grid_estimate = integrate(hz, _hidden(phi))
        assert len(calls) == 1
        assert _close(value, grid_value, grid_value)
        assert _close(estimate, grid_estimate, grid_value)
