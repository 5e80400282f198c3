"""Grids, rules, refinement estimates and the numeric kernels."""

import math

import numpy as np
import pytest

from scaleflow import kernels
from scaleflow.quadrature import (
    Box,
    GAUSS,
    QuadratureGrid,
    SupportEscapeError,
    UnderResolvedError,
    _axis_rule,
    _legendre_rule,
    boundary_mass_fraction,
    integrate_on_grid,
    integrate_with_refinement,
    resolved_nodes,
)


def test_box_basics():
    box = Box((0.0, -1.0), (2.0, 1.0))
    assert box.dim == 2
    assert box.sides == (2.0, 2.0)
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


def test_gauss_exact_for_polynomials():
    # a 16-point panel integrates degree <= 31 exactly
    grid = QuadratureGrid(box=Box((0.0,), (1.0,)), nodes_per_axis=(16,), rule=GAUSS)
    value = integrate_on_grid(lambda p: np.asarray(p)[:, 0] ** 5, grid)
    assert value.real == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_gauss_axis_rule_shares_one_legendre_rule():
    # composite 8-point rule on four panels of [-1, 3], built from scratch
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(-1.0, 3.0, 5)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    expected_nodes = (mid[:, None] + half[:, None] * ref_nodes[None, :]).ravel()
    expected_weights = (half[:, None] * ref_weights[None, :]).ravel()
    for _ in range(3):
        nodes, weights, (offsets, local) = _axis_rule(-1.0, 3.0, 32, GAUSS, 8)
        np.testing.assert_array_equal(nodes, expected_nodes)
        np.testing.assert_array_equal(weights, expected_weights)
        # the panel split: midpoints plus one shared set of local offsets
        np.testing.assert_array_equal(offsets, mid)
        np.testing.assert_array_equal(local, 0.5 * ref_nodes)
        split_nodes = (offsets[:, None] + local[None, :]).ravel()
        assert np.max(np.abs(split_nodes - expected_nodes)) <= 4.0 * np.spacing(3.0)
        # callers own what they get back; scribbling on it must not leak
        nodes *= 2.0
        weights[:] = 0.0
        local *= 2.0
    shared = _legendre_rule(8)
    assert _legendre_rule(8) is shared
    assert not any(array.flags.writeable for array in shared)
    with pytest.raises(ValueError):
        shared[0][0] = 0.0


def test_midpoint_weights_sum_to_volume():
    grid = QuadratureGrid(box=Box((0.0, 0.0), (2.0, 3.0)), nodes_per_axis=(32, 16))
    _, w = grid.points_and_weights()
    assert float(np.sum(w)) == pytest.approx(6.0, rel=1e-14)


def test_gaussian_integral_2d():
    # closed form: integral of exp(-|x|^2 / 2) over R^2 equals 2*pi
    grid = QuadratureGrid(box=Box((-10.0, -10.0), (10.0, 10.0)), nodes_per_axis=(256, 256))
    value, estimate = integrate_with_refinement(
        lambda p: np.exp(-0.5 * np.sum(np.asarray(p) ** 2, axis=1)), grid
    )
    assert abs(value.real - 2.0 * math.pi) <= 1e-8
    assert estimate <= 1e-8


def test_refinement_estimate_tracks_error():
    # a kinked integrand converges slowly; the doubling estimate must
    # bound the distance between successive refinements
    grid = QuadratureGrid(box=Box((-1.0,), (1.0,)), nodes_per_axis=(37,))
    f = lambda p: np.abs(np.asarray(p)[:, 0])
    value, estimate = integrate_with_refinement(f, grid)
    finer = integrate_on_grid(f, grid.refined(4))
    assert abs(value - finer) <= 2.0 * estimate + 1e-12


def test_non_finite_integrand_rejected():
    grid = QuadratureGrid(box=Box((0.0,), (1.0,)), nodes_per_axis=(8,))
    with pytest.raises(ValueError):
        integrate_on_grid(lambda p: np.where(np.asarray(p)[:, 0] > 0.5, np.inf, 1.0), grid)


def test_boundary_mass_detection():
    # the fraction is read off the values already computed on the grid
    grid = QuadratureGrid(box=Box((-1.0,), (1.0,)), nodes_per_axis=(64,))
    x = np.asarray(grid.points_and_weights()[0])[:, 0]
    centered = boundary_mass_fraction(np.exp(-20 * x**2), grid)
    assert centered < 1e-6
    shifted = boundary_mass_fraction(np.exp(-20 * (x - 1.0) ** 2), grid)
    assert shifted > 1e-3


def test_refinement_evaluates_each_grid_once_and_judges_the_edge_on_the_coarse():
    grid = QuadratureGrid(box=Box((-1.0, -1.0), (1.0, 1.0)), nodes_per_axis=(16, 24))
    sizes = []

    def centered(p):
        sizes.append(p.shape[0])
        return np.exp(-20 * np.sum(np.asarray(p) ** 2, axis=1))

    value, _ = integrate_with_refinement(centered, grid, edge_tol=1e-6)
    assert sizes == [16 * 24, 32 * 48]
    assert value == integrate_with_refinement(centered, grid)[0]
    sizes.clear()
    with pytest.raises(SupportEscapeError, match="grid boundary"):
        integrate_with_refinement(lambda p: centered(np.asarray(p) - 1.0), grid, edge_tol=1e-6)
    assert sizes == [16 * 24]  # rejected before the fine grid is built


def test_boundary_mass_fraction_two_dimensional():
    # uniform mass on an n x m grid: the outer layer holds 1 - (n-2)(m-2)/(nm)
    grid = QuadratureGrid(box=Box((0.0, 0.0), (1.0, 2.0)), nodes_per_axis=(8, 5))
    fraction = boundary_mass_fraction(np.ones(40), grid)
    assert fraction == pytest.approx(1.0 - 6 * 3 / 40, rel=1e-14)
    assert boundary_mass_fraction(np.zeros(40), grid) == 0.0


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2048, 3 * 1024 + 7, 1 << 20])
def test_pairwise_dot_is_within_the_pairwise_bound_of_fsum(n):
    # np.sum's pairwise error is O(u log2 n) sum |w_i v_i| (Higham 1993)
    rng = np.random.default_rng(1000 + n)
    weights = rng.uniform(0.5, 1.5, size=n)
    for values in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        products = weights * values
        exact = complex(math.fsum(products.real), math.fsum(products.imag))
        total = kernels.pairwise_dot(weights, values)
        assert abs(total - exact) <= 1e-15 * np.sum(np.abs(products))


def test_resolved_nodes_rule():
    # 8 nodes per period on a unit side with frequency 100 needs 800 nodes
    assert resolved_nodes(1.0, 100.0, base=64) == 800
    assert resolved_nodes(1.0, 1.0, base=64) == 64
    assert resolved_nodes(1.0, 100.0, base=64, multiple_of=16) == 800
    assert resolved_nodes(1.0, 101.0, base=64, multiple_of=16) == 816
    with pytest.raises(UnderResolvedError):
        resolved_nodes(1.0, 1e6, base=64, cap=4096)


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("n", [1, 7, 1023, 1024, 1025, 2048, 2049, 4097, 1 << 16])
def test_pairwise_backends_agree(n):
    """``pairwise_dot`` is ``np.sum`` of the product, bit for bit, real or complex.

    Real values sum in float64 and the result's imaginary part is +0.0.
    """
    rng = np.random.default_rng(n)
    weights = rng.uniform(1e-3, 2.0, size=n)
    real = rng.normal(size=n)
    real[::5] = -0.0
    real[1::5] = 0.0
    for values in (real, real + 1j * rng.normal(size=n)):
        dot = kernels.pairwise_dot(weights, values)
        assert _bits(dot) == _bits(complex(np.sum(weights * values)))
        assert _bits(dot) == _bits(kernels.pairwise_dot(weights, values))  # deterministic
    assert _bits(kernels.pairwise_dot(weights, real))[1] == "0x0.0p+0"


@pytest.mark.parametrize("n", [1, 7, 1025, 4097])
def test_pairwise_dot_of_real_values_has_the_bits_of_the_complex_product(n):
    # real values stay real through the weighted product and its sum, and the
    # sum is promoted once: the result has the bits of complex(np.sum(w * v))
    # with imaginary part +0.0, and lies within the pairwise bound of the sum
    # of the product promoted to complex128 before the sum
    rng = np.random.default_rng(70 + n)
    weights = rng.uniform(1e-3, 2.0, size=n)
    values = rng.normal(size=n)
    values[::5] = -0.0
    values[1::5] = 0.0
    real = kernels.pairwise_dot(weights, values)
    product = complex(np.sum(weights * values))
    assert repr(real) == repr(product)
    assert _bits(real) == _bits(product)
    assert _bits(real)[1] == "0x0.0p+0"
    promoted = kernels.pairwise_dot(weights, values.astype(complex))
    assert _bits(promoted)[1] == "0x0.0p+0"
    assert abs(real - promoted) <= 1e-15 * np.sum(np.abs(weights * values))


def test_trig_eval_backends_agree():
    """``trig_eval`` agrees with a direct ``exp`` evaluation."""
    rng = np.random.default_rng(0)
    freqs = rng.uniform(-3, 3, size=(5, 2))
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    pts = rng.uniform(-2, 2, size=(257, 2))
    values = kernels.trig_eval(freqs, coeffs, pts)
    direct = (np.exp(2j * np.pi * (pts @ freqs.T)) @ coeffs)
    assert np.max(np.abs(values - direct)) <= 1e-12
