"""The quartic bump integrated by prefix sums over the last grid axis.

The bump is g(sum_a q_a(x_a)), g(t) = (1 - t)^2 for t < 1, so the tensor
rule's sum over the last axis is tau^2 M0 - 2 tau M1 + M2 from prefix sums
M_k of v_j p_j^k.  The oracles are the tensor-grid path itself (the same
bump with its radial terms dropped), the closed-form bump mass and the
outer-layer mass fraction of the full tensor grid.  The product test
functions, the other separable integrands, are tested in
test_sum_factorisation.py.
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
    integrate,
    pushforward_pairing,
    verify_homogeneity,
)
from scaleflow import measures, quadrature
from scaleflow.measures import Lebesgue
from scaleflow.quadrature import (
    Box,
    QuadratureGrid,
    QuarticBump,
    integrate_separable,
    integrate_with_refinement,
)

CENTER = (0.3, -0.2, 0.1)
EXPONENTS = (1, 2, 3)
# nodes per axis for which the bump of width 1.3 passes the pushforward's
# edge check on both rules; every count is whole 16-node panels
NODES = {1: 256, 2: 256, 3: 48}
RULES = {"midpoint": 1, "gauss": 16}


def _plain(phi: TestFunction) -> TestFunction:
    # the same bump without its terms, so it takes the tensor-grid path
    return dataclasses.replace(phi, separable=None)


def _close(got, expected, scale) -> bool:
    return abs(got - expected) <= 1e-13 * abs(scale)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_path_agrees_with_the_tensor_grid(dim, rule):
    # 48 midpoint nodes in 3-D put 1.9e-5 of the mass on the edge, so both
    # paths are judged against a looser edge tolerance than the pushforward's
    phi = bump(CENTER[:dim], 1.3)
    grid = QuadratureGrid(phi.support, NODES[dim], RULES[rule])
    value, estimate = integrate_separable(phi.separable, grid, 1e-4)
    grid_value, grid_estimate = integrate_with_refinement(phi, grid, 1e-4)
    assert _close(value, grid_value, grid_value)
    assert _close(estimate, grid_estimate, grid_value)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pushforward_bump_path_agrees_with_the_tensor_grid(dim, rule):
    # unequal exponents: each axis has its own scale and its own image box
    spec = GridSpec(base_nodes=NODES[dim], panel_order=RULES[rule])
    hz = Homogenizer.lebesgue(DiagonalScaling(EXPONENTS[:dim]), spec)
    phi = bump(CENTER[:dim], 1.3)
    if dim == 3 and rule == "midpoint":
        # 48 midpoint nodes leave more than measures.BOUNDARY_MASS_TOL on the edge
        for candidate in (phi, _plain(phi)):
            with pytest.raises(SupportEscapeError):
                pushforward_pairing(hz, 1.0, candidate)
        return
    for eps in (4.0, 1.0, 0.25):
        value, estimate = pushforward_pairing(hz, eps, phi)
        grid_value, grid_estimate = pushforward_pairing(hz, eps, _plain(phi))
        assert _close(value, grid_value, grid_value)
        assert _close(estimate, grid_estimate, grid_value)


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("dim", [1, 2])
def test_bump_clipped_by_the_domain_agrees_with_the_tensor_grid(monkeypatch, dim, rule):
    # the domain x_a >= 0 cuts the ball: the box holds part of it, and the
    # base integral (no edge check) still takes the bump path
    spec = GridSpec(base_nodes=NODES[dim], panel_order=RULES[rule])
    domain = Box((0.0,) * dim, (math.inf,) * dim)
    hz = Homogenizer(DiagonalScaling((1,) * dim), Lebesgue(domain=domain), lambda eps: 1.0, spec)
    phi = bump(CENTER[:dim], 1.3)
    calls = []
    on_separable = measures.integrate_separable
    monkeypatch.setattr(measures, "integrate_separable",
                        lambda *args: calls.append(args) or on_separable(*args))
    value, estimate = integrate(hz, phi)
    assert len(calls) == 1 and calls[0][1].box.lows == (0.0,) * dim
    grid_value, grid_estimate = integrate(hz, _plain(phi))
    assert _close(value, grid_value, grid_value)
    assert _close(estimate, grid_estimate, grid_value)


# observed relative error on 256 midpoint nodes per axis at width 1.5:
# 1.3e-11 (1-D), 3.7e-10 (2-D), 1.2e-11 (3-D)
MASS_TOL = {1: 2e-11, 2: 5e-10, 3: 2e-11}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_mass_matches_the_closed_form(dim):
    # int (1 - |x|^2 / w^2)^2 dx = S_(d-1) 8 / (d (d + 2) (d + 4)) w^d, with
    # S_(d-1) the area of the unit sphere: 16 w / 15, pi w^2 / 3, 32 pi w^3 / 105
    sphere = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]
    width = 1.5
    exact = sphere * 8.0 / (dim * (dim + 2) * (dim + 4)) * width**dim
    hz = Homogenizer.lebesgue(DiagonalScaling(EXPONENTS[:dim]), GridSpec(base_nodes=256))
    phi = bump(CENTER[:dim], width)
    value, _ = integrate(hz, phi)
    assert abs(value - exact) <= MASS_TOL[dim] * exact
    for eps in (4.0, 0.25):
        pushed, _ = pushforward_pairing(hz, eps, phi)
        assert abs(pushed / hz.factor_map(eps) - exact) <= MASS_TOL[dim] * exact


def test_edge_fraction_is_the_tensor_grids_own():
    # a box that cuts the ball on one side: the tensor grid's outer-layer
    # fraction F sits between edge tolerances just below and just above it
    phi = bump((0.0, 0.0), 1.0)
    grid = QuadratureGrid(Box((-1.0, -0.97), (1.0, 1.0)), (64, 80), panel_order=16)
    pts, _ = grid.points_and_weights()
    fraction = quadrature.boundary_mass_fraction(phi(pts), grid)
    assert fraction > 1e-6
    with pytest.raises(SupportEscapeError):
        integrate_separable(phi.separable, grid, edge_tol=fraction * (1.0 - 1e-9))
    value, _ = integrate_separable(phi.separable, grid, edge_tol=fraction * (1.0 + 1e-9))
    assert _close(value, quadrature.integrate_on_grid(phi, grid.refined()), value)
    # a box the ball misses: no mass, so nothing to judge
    far = QuadratureGrid(Box((2.0, 2.0), (3.0, 3.0)), (16, 16))
    assert integrate_separable(phi.separable, far, edge_tol=1e-6) == (0.0, 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_box_that_cuts_the_ball_escapes_on_both_paths(dim):
    hz = Homogenizer.lebesgue(DiagonalScaling((1,) * dim), GridSpec(base_nodes=256))
    phi = bump(CENTER[:dim], 1.0)
    cut = dataclasses.replace(phi, support=Box(tuple(c - 0.8 for c in CENTER[:dim]),
                                               tuple(c + 0.8 for c in CENTER[:dim])))
    for candidate in (cut, _plain(cut)):
        with pytest.raises(SupportEscapeError):
            pushforward_pairing(hz, 1.0, candidate)


def test_each_axis_is_evaluated_on_its_own_nodes_only():
    # a counting term sees one 1-D node vector per call: per axis n coarse,
    # n - 2 inner (the edge check) and 2 n refined nodes, never the n_1 n_2
    # nodes of the grid; fn itself is never called
    calls = {0: [], 1: []}

    def counting(axis):
        def term(x):
            calls[axis].append(np.shape(x))
            return x**2
        return term

    def opaque(pts):
        raise AssertionError("the bump path evaluated the tensor grid")

    phi = TestFunction("counted", opaque, Box((-1.0, -1.0), (1.0, 1.0)),
                       QuarticBump((counting(0), counting(1))))
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=512))
    value, _ = pushforward_pairing(hz, 1.0, phi)
    assert value == pytest.approx(math.pi / 3.0, rel=1e-9)
    for shapes in calls.values():
        assert all(len(shape) == 1 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == 512 + 510 + 2 * 512


def test_homogeneity_fails_when_the_radial_pullback_drops_its_scale(monkeypatch):
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=256))
    ladder = [4.0, 2.0, 1.0]
    battery = [bump((0.3, 0.3), 2.0)]
    assert verify_homogeneity(hz, ladder, battery).passed
    # x_a -> q_a(x_a): the image box still follows H_eps, the integrand not
    monkeypatch.setattr(DiagonalScaling, "pullback_factors", lambda self, eps, terms: terms)
    report = verify_homogeneity(hz, ladder, battery)
    assert {row["eps"] for row in report.rows if not row["passed"]} == {4.0, 2.0}


def test_mixing_actions_keep_the_tensor_grid_path(monkeypatch):
    # a shear mixes the axes: no bump terms, so the composed bump is
    # evaluated on the tensor grid, and Lebesgue measure is still invariant
    shear = LinearFamily(RGroup("real-additive"), 2, lambda e: np.array([[1.0, e], [0.0, 1.0]]))
    hz = Homogenizer.lebesgue(shear, GridSpec(base_nodes=256))
    phi = bump((0.0, 0.0), 1.0)
    grids = []
    on_grid = measures.integrate_with_refinement
    monkeypatch.setattr(measures, "integrate_with_refinement",
                        lambda f, grid, tol: grids.append(grid) or on_grid(f, grid, tol))
    monkeypatch.setattr(measures, "integrate_separable", None)  # never reached
    value, _ = pushforward_pairing(hz, 0.5, phi)
    assert len(grids) == 1
    assert abs(value - math.pi / 3.0) <= 1e-6
