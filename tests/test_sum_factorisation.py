"""Product test functions integrated axis by axis (sum factorisation).

A tensor rule applied to f(x) = prod_a f_a(x_a) is the product of the 1-D
rules on each axis.  The oracles are the tensor-grid path itself (the same
test function with its factors dropped), closed-form Gaussian masses and
the outer-layer mass fraction of the full tensor grid.  The quartic bump,
the other separable integrand, is tested in test_bump_prefix_sums.py.
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
    default_battery,
    gaussian,
    integrate,
    parabola,
    pushforward_pairing,
    verify_homogeneity,
)
from scaleflow import quadrature
from scaleflow.quadrature import Box, Product, QuadratureGrid, integrate_separable

SPECS = {
    "midpoint": GridSpec(base_nodes=96),
    "gauss": GridSpec(base_nodes=96, panel_order=16),
}


def _plain(phi: TestFunction) -> TestFunction:
    # the same function without its factors, so it takes the tensor-grid path
    return dataclasses.replace(phi, separable=None)


def _functions(dim: int) -> list:
    center = [0.3, -0.2, 0.1][:dim]
    return [
        gaussian(center, 0.5),
        gaussian(center, 1.3),
        parabola(Box((-1.0, -0.5, -0.8)[:dim], (1.2, 0.9, 0.6)[:dim])),
    ]


@pytest.mark.parametrize("rule", sorted(SPECS))
@pytest.mark.parametrize("dim", [2, 3])
def test_product_path_agrees_with_the_tensor_grid(dim, rule):
    hz = Homogenizer.lebesgue(DiagonalScaling((1,) * dim), SPECS[rule])
    for phi in _functions(dim):
        value, estimate = integrate(hz, phi)
        grid_value, grid_estimate = integrate(hz, _plain(phi))
        assert abs(value - grid_value) <= 1e-13 * abs(grid_value)
        assert abs(estimate - grid_estimate) <= 1e-13 * abs(grid_value)


@pytest.mark.parametrize("rule", sorted(SPECS))
@pytest.mark.parametrize("eps", [0.3, 1.7])
def test_pushforward_product_path_agrees_with_the_tensor_grid(eps, rule):
    # unequal exponents: each axis has its own scale, and its own image box
    # (a parabola has mass on its box's edge nodes, so only the Gaussians
    # pass the pushforward's edge check)
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 2)), SPECS[rule])
    for phi in _functions(2)[:2]:
        value, estimate = pushforward_pairing(hz, eps, phi)
        grid_value, grid_estimate = pushforward_pairing(hz, eps, _plain(phi))
        assert abs(value - grid_value) <= 1e-13 * abs(grid_value)
        assert abs(estimate - grid_estimate) <= 1e-13 * abs(grid_value)


@pytest.mark.parametrize("rule", sorted(SPECS))
def test_one_dimensional_product_path_has_the_grid_path_bits(rule):
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)), SPECS[rule])
    for phi in _functions(1):
        assert repr(integrate(hz, phi)) == repr(integrate(hz, _plain(phi)))
    for phi in _functions(1)[:2]:
        for eps in (0.3, 1.7):
            expected = pushforward_pairing(hz, eps, _plain(phi))
            assert repr(pushforward_pairing(hz, eps, phi)) == repr(expected)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_gaussian_mass_matches_the_closed_form(dim, sigma):
    # (2 pi sigma^2)^(d/2); the default 1024 nodes per axis would be a
    # 1024^3 tensor grid in 3-D, which the product path never builds
    hz = Homogenizer.lebesgue(DiagonalScaling((1,) * dim))
    value, _ = integrate(hz, gaussian([0.3] * dim, sigma))
    exact = (2.0 * math.pi * sigma**2) ** (dim / 2)
    assert abs(value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("dim", [1, 2])
def test_support_cut_at_two_sigma_escapes_on_both_paths(dim):
    hz = Homogenizer.lebesgue(DiagonalScaling((1,) * dim))
    phi = gaussian([0.3] * dim, 0.5)
    cut = dataclasses.replace(phi, support=Box((0.3 - 1.0,) * dim, (0.3 + 1.0,) * dim))
    for candidate in (cut, _plain(cut)):
        with pytest.raises(SupportEscapeError):
            pushforward_pairing(hz, 1.0, candidate)


def test_edge_fraction_is_the_tensor_grids_own():
    # a product cut at 3 sigma on one axis and 2.5 sigma on the other: the
    # tensor grid's outer-layer |f| fraction F sits between edge
    # tolerances just below and just above it
    phi = gaussian([0.0, 0.0], 1.0)
    grid = QuadratureGrid(Box((-3.0, -2.5), (3.0, 2.5)), (64, 80), panel_order=16)
    pts, _ = grid.points_and_weights()
    fraction = quadrature.boundary_mass_fraction(phi(pts), grid)
    assert fraction > 1e-6
    with pytest.raises(SupportEscapeError):
        integrate_separable(phi.separable, grid, edge_tol=fraction * (1.0 - 1e-12))
    value, _ = integrate_separable(phi.separable, grid, edge_tol=fraction * (1.0 + 1e-12))
    assert value == pytest.approx(quadrature.integrate_on_grid(phi, grid.refined()), rel=1e-13)
    # a factor that vanishes on its axis leaves the tensor grid no mass at all
    vanishing = Product((phi.separable.parts[0], np.zeros_like))
    assert integrate_separable(vanishing, grid, edge_tol=1e-6) == (0.0, 0.0)


def test_each_axis_is_evaluated_on_its_own_nodes_only():
    # a counting factor sees one 1-D node vector per call: n_a coarse and
    # 2 n_a refined nodes per axis, never the n_1 n_2 nodes of the grid;
    # fn itself is never called
    calls = {0: [], 1: []}

    def counting(axis):
        def factor(x):
            calls[axis].append(np.shape(x))
            return np.exp(-(x**2))
        return factor

    def opaque(pts):
        raise AssertionError("the product path evaluated the tensor grid")

    phi = TestFunction("counted", opaque, Box((-6.0, -6.0), (6.0, 6.0)),
                       Product((counting(0), counting(1))))
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=48))
    value, _ = pushforward_pairing(hz, 1.0, phi)
    assert value == pytest.approx(math.pi, rel=1e-12)
    for shapes in calls.values():
        assert all(len(shape) == 1 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == 48 + 2 * 48


def test_homogeneity_fails_when_the_factor_pullback_drops_its_scale(monkeypatch):
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=128))
    ladder = [2.0, 1.0, 0.5]
    gaussians = default_battery(2)[:3]
    assert verify_homogeneity(hz, ladder, gaussians).passed
    # x_a -> f_a(x_a): the image box still follows H_eps, the integrand not
    monkeypatch.setattr(DiagonalScaling, "pullback_factors", lambda self, eps, factors: factors)
    report = verify_homogeneity(hz, ladder, gaussians)
    assert not report.passed
    assert {row["eps"] for row in report.rows if not row["passed"]} == {2.0, 0.5}


def test_mixing_actions_keep_the_tensor_grid_path():
    # a shear mixes the axes: no factors, so the composed Gaussian is
    # evaluated on the tensor grid, and Lebesgue measure is still invariant
    shear = LinearFamily(RGroup("real-additive"), 2, lambda e: np.array([[1.0, e], [0.0, 1.0]]))
    assert shear.pullback_factors(0.5, (abs, abs)) is None
    assert DiagonalScaling((1, 2)).pullback_factors(0.5, (abs, abs)) is not None
    hz = Homogenizer.lebesgue(shear, GridSpec(base_nodes=128))
    phi = gaussian([0.0, 0.0], 0.5)
    value, _ = pushforward_pairing(hz, 0.5, phi)
    assert abs(value - 2.0 * math.pi * 0.25) <= 1e-12
