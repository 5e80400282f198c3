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


def _recursive_pairwise(values):
    """The pairwise reduction as first written: one np.sum call per leaf."""
    n = values.shape[0]
    if n <= 1024:
        return complex(np.sum(values))
    half = max(1, n // 2048) * 1024
    return _recursive_pairwise(values[:half]) + _recursive_pairwise(values[half:])


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2048, 3 * 1024 + 7, 1_500_000])
def test_pairwise_sum_matches_recursive_reference_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    expected = _recursive_pairwise(values) if n else 0j
    total = kernels.pairwise_sum(values)
    assert (total.real, total.imag) == (expected.real, expected.imag)


def test_resolved_nodes_rule():
    # 8 nodes per period on a unit side with frequency 100 needs 800 nodes
    assert resolved_nodes(1.0, 100.0, base=64) == 800
    assert resolved_nodes(1.0, 1.0, base=64) == 64
    assert resolved_nodes(1.0, 100.0, base=64, multiple_of=16) == 800
    assert resolved_nodes(1.0, 101.0, base=64, multiple_of=16) == 816
    with pytest.raises(UnderResolvedError):
        resolved_nodes(1.0, 1e6, base=64, cap=4096)


@pytest.mark.parametrize("n", [1, 7, 1023, 1024, 1025, 2048, 2049, 4097, 1 << 16])
def test_pairwise_backends_agree(n):
    """The pairwise kernels agree with the ``np.sum`` oracle and rerun bit for bit."""
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    weights = rng.uniform(0.5, 1.5, size=n)
    total = kernels.pairwise_sum(values)
    dot = kernels.pairwise_dot(weights, values)
    assert total == kernels.pairwise_sum(values)  # deterministic
    ref = complex(np.sum(weights * values))
    assert abs(dot - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("n", [1, 7, 1025, 4097])
def test_pairwise_dot_of_real_values_has_the_bits_of_the_complex_product(n):
    # real values stay real through the weighted product and are promoted
    # once; with positive weights the sum equals the complex product's
    rng = np.random.default_rng(70 + n)
    weights = rng.uniform(1e-3, 2.0, size=n)
    values = rng.normal(size=n)
    values[::5] = -0.0
    values[1::5] = 0.0
    real = kernels.pairwise_dot(weights, values)
    promoted = kernels.pairwise_dot(weights, values.astype(complex))
    assert repr(real) == repr(promoted)
    assert (real.real, real.imag) == (promoted.real, promoted.imag)


def test_trig_eval_backends_agree():
    """``trig_eval`` agrees with a direct ``exp`` evaluation."""
    rng = np.random.default_rng(0)
    freqs = rng.uniform(-3, 3, size=(5, 2))
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    pts = rng.uniform(-2, 2, size=(257, 2))
    values = kernels.trig_eval(freqs, coeffs, pts)
    direct = (np.exp(2j * np.pi * (pts @ freqs.T)) @ coeffs)
    assert np.max(np.abs(values - direct)) <= 1e-12
