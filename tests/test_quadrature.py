"""Grids, rules, refinement estimates and the numeric kernels."""

import math

import cmath

import numpy as np
import pytest
from scipy.special import spherical_jn

from scaleflow import kernels, quadrature
from scaleflow.quadrature import (
    Box,
    GridSpec,
    QuadratureGrid,
    SupportEscapeError,
    UnderResolvedError,
    _axis_rule,
    _legendre_projection,
    _legendre_rule,
    _row_blocks,
    _spherical_bessel,
    boundary_mass_fraction,
    integrate_on_grid,
    integrate_oscillatory,
    integrate_with_refinement,
)
from scaleflow.trig import TrigPolynomial


def test_box_basics():
    box = Box((0.0, -1.0), (2.0, 1.0))
    assert box.dim == 2
    assert box.sides == (2.0, 2.0)
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


def test_gauss_exact_for_polynomials():
    # a 16-point panel integrates degree <= 31 exactly
    grid = QuadratureGrid(box=Box((0.0,), (1.0,)), nodes_per_axis=(16,), panel_order=16)
    value = integrate_on_grid(lambda p: np.asarray(p)[:, 0] ** 5, grid)
    assert value.real == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_gauss_axis_rule_shares_one_legendre_rule():
    # composite 8-point rule on four panels of one width 2h, built from
    # scratch, on [-1, 3] and on a box whose edges are not binary-exact
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
    for lo, hi in ((-1.0, 3.0), (-0.4, 1.0)):
        width = (hi - lo) / 4
        mid = lo + (np.arange(4) + 0.5) * width
        h = 0.5 * width
        expected_nodes = (mid[:, None] + h * ref_nodes[None, :]).ravel()
        expected_weights = np.tile(h * ref_weights, 4)
        # the layout agrees with panels cut at linspace edges to rounding
        edges = np.linspace(lo, hi, 5)
        linspace_nodes = (0.5 * (edges[1:] + edges[:-1])[:, None]
                          + 0.5 * (edges[1:] - edges[:-1])[:, None] * ref_nodes[None, :]).ravel()
        assert np.max(np.abs(expected_nodes - linspace_nodes)) <= 4.0 * np.spacing(hi - lo)
        for _ in range(3):
            nodes, weights, (offsets, local) = _axis_rule(lo, hi, 32, 8)
            np.testing.assert_array_equal(nodes, expected_nodes)
            np.testing.assert_array_equal(weights, expected_weights)
            # the panel split: midpoints plus one shared set of local
            # offsets, which add up to the nodes bit for bit
            np.testing.assert_array_equal(offsets, mid)
            np.testing.assert_array_equal(local, h * ref_nodes)
            np.testing.assert_array_equal((offsets[:, None] + local[None, :]).ravel(), nodes)
            # callers own what they get back; scribbling on it must not leak
            nodes *= 2.0
            weights[:] = 0.0
            local *= 2.0
    shared = _legendre_rule(8)
    assert _legendre_rule(8) is shared
    assert not any(array.flags.writeable for array in shared)
    with pytest.raises(ValueError):
        shared[0][0] = 0.0


@pytest.mark.parametrize("q", range(1, 65))
def test_legendre_rule_has_the_bits_of_numpy_leggauss(q):
    # the in-house rule is numpy's algorithm step for step, so its nodes and
    # weights are leggauss's bit for bit, and the weights still sum to 2
    nodes, weights = _legendre_rule(q)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(q)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    assert math.fsum(weights) == pytest.approx(2.0, abs=1e-14)


def _never_called(pts):
    raise AssertionError("an oversized grid was evaluated")


def test_node_by_node_grids_are_capped_before_their_first_block():
    # a 3-D grid past MAX_GRID_NODES fails at once, naming its total and the
    # cap, and a coarse grid under the cap fails when its doubling is over
    cap = quadrature.MAX_GRID_NODES
    assert cap == 1 << 24
    box = Box((0.0,) * 3, (1.0,) * 3)
    over = QuadratureGrid(box, (257, 256, 256))
    assert over.total_points > cap >= QuadratureGrid(box, (256,) * 3).total_points
    message = f"a grid of {over.total_points} nodes is evaluated node by node, cap is {cap}"
    with pytest.raises(UnderResolvedError, match=message):
        integrate_on_grid(_never_called, over)
    with pytest.raises(UnderResolvedError, match=message):
        integrate_oscillatory(_never_called, over, [TrigPolynomial.constant(1.0, 3)])
    coarse = QuadratureGrid(box, (129, 128, 128))  # 2.1e6 nodes, 1.7e7 doubled
    assert coarse.total_points <= cap < coarse.refined().total_points
    with pytest.raises(UnderResolvedError, match=f"{coarse.refined().total_points} nodes"):
        integrate_with_refinement(_never_called, coarse)


def test_separable_rules_are_not_capped():
    # the separable rules evaluate each axis alone, so a tensor grid past the
    # cap still integrates: a product of Gaussians and a quartic bump
    grid = QuadratureGrid(Box((-1.0,) * 3, (1.0,) * 3), (512,) * 3, panel_order=16)
    assert grid.total_points > quadrature.MAX_GRID_NODES
    gauss = quadrature.Product((lambda x: np.exp(-50.0 * x * x),) * 3)
    value, estimate = integrate_with_refinement(gauss, grid)
    assert value.real == pytest.approx((math.pi / 50.0) ** 1.5, rel=1e-12)
    assert estimate <= 1e-12
    ball = quadrature.QuarticBump((lambda x: (x / 0.9) ** 2,) * 3)
    value, _ = integrate_with_refinement(ball, grid)
    # the quartic bump of radius w in 3-D has mass 4 pi * 8 / 105 * w^3
    assert value.real == pytest.approx(4.0 * math.pi * 8.0 / 105.0 * 0.9**3, rel=1e-6)


def test_gauss_node_counts_fill_whole_panels():
    # 24 nodes would be read as two 16-node panels, 32 nodes in all
    with pytest.raises(ValueError, match="axis 0 has 24 nodes, not a multiple of panel_order 16"):
        QuadratureGrid(Box((0.0,), (1.0,)), (24,), panel_order=16)
    with pytest.raises(ValueError, match="axis 1 has 40 nodes"):
        QuadratureGrid(Box((0.0, 0.0), (1.0, 1.0)), (32, 40), panel_order=16)
    grid = QuadratureGrid(Box((0.0,), (1.0,)), (48,), panel_order=16)
    assert len(grid.axes()[0][0]) == grid.total_points == 48
    for order in (0, -16):
        with pytest.raises(ValueError, match="panel_order must be positive"):
            QuadratureGrid(Box((0.0,), (1.0,)), (48,), panel_order=order)


def test_midpoint_grid_is_one_node_panels_with_the_midpoint_bits():
    # q = 1 on a box whose edges are not binary-exact: the nodes and weights
    # are those of lo + (i + 1/2) h and h, bit for bit, and there is no split
    lo, hi, n = -0.4, 1.0, 37
    (nodes, weights, split), = QuadratureGrid(Box((lo,), (hi,)), (n,)).axes()
    h = (hi - lo) / n
    assert nodes.tobytes() == (lo + (np.arange(n) + 0.5) * h).tobytes()
    assert weights.tobytes() == np.full(n, h).tobytes()
    assert split is None


@pytest.mark.parametrize("kappa", [0.0, 1e-8, math.pi, 2 * math.pi, 5 * math.pi, 15.5, 16.0, 804.0, 1e5])
def test_spherical_bessel_matches_scipy(kappa):
    # j_0 vanishes at m pi, where Miller's recurrence must not be normalised by it
    expected = spherical_jn(np.arange(16), kappa)
    np.testing.assert_allclose(_spherical_bessel(16, kappa), expected, rtol=1e-13, atol=1e-15)


def test_legendre_projection_is_shared_and_read_only():
    projection = _legendre_projection(16)
    assert _legendre_projection(16) is projection and not projection.flags.writeable
    # it recovers the Legendre coefficients of a polynomial of degree < q
    t, _ = _legendre_rule(16)
    coeffs = np.arange(1.0, 17.0) / 16.0
    values = np.polynomial.legendre.legval(t, coeffs)
    np.testing.assert_allclose(np.sum(projection * values, axis=1), coeffs, atol=1e-14)


FILON_GRIDS = {
    "gauss-4-panels": QuadratureGrid(Box((-0.4,), (1.0,)), (64,), panel_order=16),
    "gauss-1-panel": QuadratureGrid(Box((0.0,), (1.0,)), (16,), panel_order=16),
    "midpoint": QuadratureGrid(Box((-1.0,), (2.0,)), (37,)),
    "gauss-2d": QuadratureGrid(Box((-1.3, -0.9), (1.7, 1.2)), (24, 16), panel_order=8),
}


@pytest.mark.parametrize("name", sorted(FILON_GRIDS))
def test_filon_weights_at_zero_frequency_are_the_grid_weights(name):
    grid = FILON_GRIDS[name]
    filon = grid.filon_weights(np.zeros((1, grid.box.dim)))
    for (_, weights, _), axis in zip(grid.axes(), filon, strict=True):
        assert axis.shape == (1, len(weights))
        assert axis[0].real.tobytes() == weights.tobytes()
        assert not axis[0].imag.any()


def _monomial_oscillatory(m: int, omega: float, lo: float, hi: float) -> complex:
    # integral of x^m e(omega x) over [lo, hi], by parts m times
    if omega == 0.0:
        return (hi ** (m + 1) - lo ** (m + 1)) / (m + 1)
    a = 2j * math.pi * omega

    def antiderivative(x):
        return cmath.exp(a * x) * sum(
            (-1) ** r * math.perm(m, r) * x ** (m - r) / a ** (r + 1) for r in range(m + 1))

    return antiderivative(hi) - antiderivative(lo)


def _character(freq) -> TrigPolynomial:
    return TrigPolynomial([freq], [1.0])


@pytest.mark.parametrize("omega", [0.0, math.sqrt(2.0), -7.5 * math.sqrt(3.0), 100.0 * math.pi, -1e4 * math.e])
def test_filon_integrates_low_degree_polynomials_exactly(omega):
    # exact for degree < q on each panel, whatever the frequency
    for name, degrees in (("gauss-4-panels", range(16)), ("gauss-1-panel", range(16)), ("midpoint", [0])):
        grid = FILON_GRIDS[name]
        lo, hi = grid.box.lows[0], grid.box.highs[0]
        for m in degrees:
            (value,) = integrate_oscillatory(lambda pts: pts.coords()[0] ** m, grid, [_character([omega])])
            assert abs(value - _monomial_oscillatory(m, omega, lo, hi)) <= 1e-14, (name, m)


def _x3_y2(pts):
    x, y = pts.coords()
    return x**3 * y**2


def test_filon_tensor_weights_factor_by_axis():
    # a product f(x) g(y) e(k . (x, y)) integrates to the product of 1-D integrals
    grid = FILON_GRIDS["gauss-2d"]
    (lo_x, lo_y), (hi_x, hi_y) = grid.box.lows, grid.box.highs
    for kx, ky in ((3.0 * math.sqrt(2.0), -40.0), (0.0, math.pi)):
        (value,) = integrate_oscillatory(_x3_y2, grid, [_character([kx, ky])])
        expected = _monomial_oscillatory(3, kx, lo_x, hi_x) * _monomial_oscillatory(2, ky, lo_y, hi_y)
        assert abs(value - expected) <= 1e-14


def test_filon_streams_in_row_blocks(monkeypatch):
    # the same integrals in many row blocks, each reduced on its own, f
    # evaluated once per block for every polynomial, and a real integrand
    # against a real polynomial has a real value
    grid = QuadratureGrid(Box((-1.3, -0.9), (1.7, 1.2)), (64, 24), panel_order=8)
    real = TrigPolynomial([[3.0, -1.5], [-3.0, 1.5], [0.0, 0.0]], [0.5 - 0.25j, 0.5 + 0.25j, 2.0])
    polys = [real, _character([2.0, math.sqrt(2.0)])]
    whole = integrate_oscillatory(_x3_y2, grid, polys)
    sizes, calls = [], []

    def recording_dot(weights, values):
        sizes.append(len(values))
        return pairwise_dot(weights, values)

    def f(pts):
        calls.append(pts.shape[0])
        return _x3_y2(pts)

    pairwise_dot = kernels.pairwise_dot
    monkeypatch.setattr(kernels, "pairwise_dot", recording_dot)
    monkeypatch.setattr(kernels, "POINT_BUDGET", 8 * 24 * 32)
    blocked = integrate_oscillatory(f, grid, polys)
    assert calls == [8 * 24] * 8  # 8 blocks of one panel, each evaluated once
    assert sizes == [8 * 24] * 8 * 3  # 2 terms of the real form and 1 character
    assert whole[0].imag == 0.0 and blocked[0].imag == 0.0
    np.testing.assert_allclose(blocked, whole, rtol=1e-15)
    # a complex integrand sums every term of the real polynomial
    sizes.clear()
    (value,) = integrate_oscillatory(lambda pts: (1.0 + 1.0j) * _x3_y2(pts), grid, [real])
    assert sizes == [8 * 24] * 8 * 3
    assert abs(value - (1.0 + 1.0j) * whole[0]) <= 1e-15 * abs(whole[0])


def test_filon_rejects_values_that_do_not_fill_the_grid():
    grid = FILON_GRIDS["gauss-2d"]
    with pytest.raises(ValueError, match="wrong-sized"):
        integrate_oscillatory(lambda pts: np.ones(383), grid, [_character([1.0, 2.0])])
    with pytest.raises(ValueError, match="non-finite"):
        integrate_oscillatory(lambda pts: np.full(384, np.nan), grid, [_character([1.0, 2.0])])


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
    finer = integrate_on_grid(f, grid.refined().refined())
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


def _spy_nodes(f, calls: list):
    # f, recording the point array of every block it is called on
    def spy(p):
        calls.append(np.asarray(p))
        return f(p)

    return spy


def _spy_edge_checks(monkeypatch) -> list:
    # the (values, grid) of every boundary_mass_fraction call
    checks = []
    original = quadrature.boundary_mass_fraction

    def spy(values, grid):
        checks.append((np.array(values), grid))
        return original(values, grid)

    monkeypatch.setattr(quadrature, "boundary_mass_fraction", spy)
    return checks


def test_refinement_evaluates_each_grid_once_and_judges_the_edge_on_the_coarse(monkeypatch):
    # each node of the coarse and then of the fine grid is evaluated exactly
    # once, block by block: the default budget takes the 16 x 24 grid and its
    # 32 x 48 refinement in one block each, a budget of 96 nodes in 4 and 16
    checks = _spy_edge_checks(monkeypatch)
    grid = QuadratureGrid(box=Box((-1.0, -1.0), (1.0, 1.0)), nodes_per_axis=(16, 24))
    coarse_pts = np.asarray(grid.points_and_weights()[0])
    fine_pts = np.asarray(grid.refined().points_and_weights()[0])
    centered = lambda p: np.exp(-20 * np.sum(np.asarray(p) ** 2, axis=1))

    def corner(p):
        # mass at the high end of the leading axis only, rows x_0 > 0.75
        x = np.asarray(p)
        return np.where(x[:, 0] > 0.75, centered(x - [1.0, 0.0]), 0.0)

    escaping = (lambda p: centered(np.asarray(p) - 1.0), corner)
    for budget, blocks in ((kernels.POINT_BUDGET, (1, 1)), (96 * 32, (4, 16))):
        monkeypatch.setattr(kernels, "POINT_BUDGET", budget)
        assert (len(_row_blocks(grid)), len(_row_blocks(grid.refined()))) == blocks
        calls = []
        checks.clear()
        value, _ = integrate_with_refinement(_spy_nodes(centered, calls), grid, edge_tol=1e-6)
        assert len(calls) == sum(blocks)
        np.testing.assert_array_equal(np.concatenate(calls), np.concatenate([coarse_pts, fine_pts]))
        # the edge is judged once, on all the coarse values
        [(values, judged)] = checks
        assert judged is grid
        np.testing.assert_array_equal(values, centered(coarse_pts))
        assert value == integrate_with_refinement(centered, grid)[0]
        assert len(checks) == 1  # no edge check without edge_tol
        for f in escaping:
            calls.clear()
            with pytest.raises(SupportEscapeError, match="grid boundary"):
                integrate_with_refinement(_spy_nodes(f, calls), grid, edge_tol=1e-6)
            # every coarse block, and not the fine grid
            assert len(calls) == blocks[0]
            np.testing.assert_array_equal(np.concatenate(calls), coarse_pts)
            np.testing.assert_array_equal(checks[-1][0], f(coarse_pts))
    # under 4 blocks, the corner's mass sits in the last block alone
    last = _row_blocks(grid)[-1][0] * 24
    assert not np.any(corner(coarse_pts[:last])) and np.any(corner(coarse_pts[last:]))


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
    # GridSpec.build: 8 nodes per period on a unit side with frequency 100
    # needs 800 nodes, at least the base, rounded up to whole panels
    def nodes(spec, freqs):
        return spec.build(Box((0.0,) * len(freqs), (1.0,) * len(freqs)), freqs).nodes_per_axis

    assert nodes(GridSpec(base_nodes=64), (100.0,)) == (800,)
    assert nodes(GridSpec(base_nodes=64), (1.0,)) == (64,)
    gauss = GridSpec(base_nodes=64, panel_order=16)
    assert nodes(gauss, (100.0,)) == (800,)
    # Action.frequency_bound gives an array, one frequency per axis
    assert nodes(gauss, np.array([101.0, -1.0])) == (816, 64)
    with pytest.raises(UnderResolvedError):
        nodes(GridSpec(base_nodes=64, max_nodes=4096), (1e6,))


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


@pytest.mark.parametrize("n", [1, 7, 128, 129, 1025, 1 << 16, 1 << 17])
def test_pairwise_dot_of_a_stack_has_the_bits_of_each_row(n):
    # a (J, M) stack reduces over its last axis, row by row with the bits of
    # np.sum(w * row), in chunks of whole rows of at most POINT_BUDGET // 32
    # values: n = 1 << 16 is a grid block's stack, one row per chunk
    rng = np.random.default_rng(90 + n)
    weights = rng.uniform(1e-3, 2.0, size=n)
    real = rng.normal(size=(3, n))
    for stack in (real, real + 1j * rng.normal(size=(3, n))):
        sums = kernels.pairwise_dot(weights, stack)
        assert sums.shape == (3,) and sums.dtype == np.complex128
        assert [_bits(z) for z in sums.tolist()] == [
            _bits(complex(np.sum(weights * row))) for row in stack]
    with pytest.raises(ValueError, match="matching shapes"):
        kernels.pairwise_dot(weights, real[:, :-1])


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


# POINT_BUDGET whose blocks take at most 256 nodes: a block of at least 128
# values is a subtree of np.sum's pairwise tree, which leaves 128 values to
# an unrolled loop
BLOCK_BUDGET = 256 * 32

# grids whose row counts, row sizes and panel counts are all powers of two
POWER_OF_TWO_GRIDS = {
    "midpoint-1d": QuadratureGrid(Box((-1.0,), (2.0,)), (1024,)),
    "midpoint-2d": QuadratureGrid(Box((-1.0, -1.0), (1.0, 2.0)), (32, 64)),
    "midpoint-3d": QuadratureGrid(Box((-1.0, 0.0, -0.5), (1.0, 1.0, 0.5)), (16, 8, 8)),
    "gauss-1d": QuadratureGrid(Box((-0.4,), (1.0,)), (512,), panel_order=16),
    "gauss-2d": QuadratureGrid(Box((-1.3, -0.9), (1.7, 1.2)), (64, 32), panel_order=8),
    "gauss-3d": QuadratureGrid(Box((-1.0, -1.0, 0.0), (1.0, 1.0, 2.0)), (16, 8, 4), panel_order=4),
}

# grids whose blocks differ in size or count: 48 x 40 rows, 3 panels, rows
# larger than the budget
UNEVEN_GRIDS = {
    "midpoint-1d": QuadratureGrid(Box((-1.0,), (2.0,)), (1000,)),
    "midpoint-2d": QuadratureGrid(Box((-1.0, -1.0), (1.0, 2.0)), (48, 40)),
    "midpoint-3d": QuadratureGrid(Box((-1.0, 0.0, -0.5), (1.0, 1.0, 0.5)), (20, 5, 7)),
    "midpoint-wide-rows": QuadratureGrid(Box((-1.0, -1.0), (1.0, 1.0)), (5, 300)),
    "gauss-1d": QuadratureGrid(Box((-0.4,), (1.0,)), (640,), panel_order=16),
    "gauss-2d-3-panels": QuadratureGrid(Box((-1.3, -0.9), (1.7, 1.2)), (24, 24), panel_order=8),
    "gauss-3d-3-panels": QuadratureGrid(Box((-1.0, -1.0, 0.0), (1.0, 1.0, 2.0)), (12, 4, 8), panel_order=4),
    "gauss-wide-panels": QuadratureGrid(Box((-1.0, -1.0), (1.0, 1.0)), (32, 48), panel_order=8),
}

BLOCK_GRIDS = {**{f"pow2-{k}": g for k, g in POWER_OF_TWO_GRIDS.items()},
               **{f"uneven-{k}": g for k, g in UNEVEN_GRIDS.items()}}


def _panel(grid) -> int:
    # the rows of one panel of a split leading axis, else 1
    split = grid.axes()[0][2]
    return 1 if split is None else len(split[1])


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
def test_row_blocks_cover_the_grid_once_within_the_budget(name, monkeypatch):
    monkeypatch.setattr(kernels, "POINT_BUDGET", BLOCK_BUDGET)
    grid = BLOCK_GRIDS[name]
    whole_pts, whole_w = grid.points_and_weights()
    rows = len(whole_pts.axes[0])
    row = whole_pts.shape[0] // rows
    panel = _panel(grid)
    # only the leading axis is ever read as its split
    assert all(split is None for _, _, split in grid.axes()[1:])
    blocks = _row_blocks(grid)
    assert len(blocks) > 1
    assert blocks[0][0] == 0 and blocks[-1][1] == rows
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for start, stop in blocks:
        assert start % panel == 0 and stop % panel == 0  # whole panels
        # the most whole panels within the budget, and at least one
        units = (stop - start) // panel
        assert units == 1 or units * panel * row <= BLOCK_BUDGET // 32
        if stop < rows:
            assert (units + 1) * panel * row > BLOCK_BUDGET // 32
    # every node is evaluated once, in C order
    calls = []
    f = lambda p: np.cos(np.asarray(p) @ np.arange(1.0, grid.box.dim + 1.0))
    integrate_on_grid(_spy_nodes(f, calls), grid)
    assert [len(c) for c in calls] == [(b - a) * row for a, b in blocks]
    np.testing.assert_array_equal(np.concatenate(calls), np.asarray(whole_pts))
    # the blocks' weights and leading splits are the whole grid's, bit for bit
    parts = [grid.points_and_weights(a, b) for a, b in blocks]
    np.testing.assert_array_equal(np.concatenate([w for _, w in parts]), whole_w)
    if panel > 1:
        offsets = np.concatenate([pts.lead[0] for pts, _ in parts])
        np.testing.assert_array_equal(offsets, whole_pts.lead[0])
        for pts, _ in parts:
            np.testing.assert_array_equal(pts.lead[1], whole_pts.lead[1])


def _integrands(dim: int):
    # a real and a complex integrand, pointwise on the point array, so a
    # block's values are the bits of the same rows of the whole grid's
    k = np.arange(1.0, dim + 1.0)
    real = lambda p: np.cos(np.asarray(p) @ k) * np.exp(-np.sum(np.asarray(p) ** 2, axis=1))
    return real, lambda p: real(p) * np.exp(1j * (np.asarray(p) @ k[::-1]))


@pytest.mark.parametrize("name", sorted(POWER_OF_TWO_GRIDS))
def test_blocked_integral_has_the_bits_of_the_whole_grid_sum(name, monkeypatch):
    grid = POWER_OF_TWO_GRIDS[name]
    pts, w = grid.points_and_weights()
    monkeypatch.setattr(kernels, "POINT_BUDGET", BLOCK_BUDGET)
    assert len(_row_blocks(grid)) & (len(_row_blocks(grid)) - 1) == 0
    for f in _integrands(grid.box.dim):
        whole = complex(np.sum(w * f(pts)))
        total = integrate_on_grid(f, grid)
        assert (total.real.hex(), total.imag.hex()) == (whole.real.hex(), whole.imag.hex())


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
def test_blocked_integral_is_within_the_pairwise_bound_of_fsum(name, monkeypatch):
    # pairwise error 2u ceil(log2 n) sum |w_i v_i| (Higham 1993)
    grid = BLOCK_GRIDS[name]
    pts, w = grid.points_and_weights()
    n = w.shape[0]
    monkeypatch.setattr(kernels, "POINT_BUDGET", BLOCK_BUDGET)
    for f in _integrands(grid.box.dim):
        products = w * f(pts)
        exact = complex(math.fsum(products.real), math.fsum(np.imag(products)))
        total = integrate_on_grid(f, grid)
        bound = 2.0 * 2.0**-53 * math.ceil(math.log2(n)) * float(np.sum(np.abs(products)))
        assert abs(total.real - exact.real) <= bound and abs(total.imag - exact.imag) <= bound


@pytest.mark.parametrize("name", sorted(BLOCK_GRIDS))
def test_points_and_weights_slices_concatenate_to_the_whole_grid(name):
    grid = BLOCK_GRIDS[name]
    whole_pts, whole_w = grid.points_and_weights()
    rows, panel = len(whole_pts.axes[0]), _panel(grid)
    cuts = [0, panel, rows - panel if rows > 2 * panel else rows, rows]
    cuts = sorted(set(cuts))
    parts = [grid.points_and_weights(a, b) for a, b in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(np.concatenate([np.asarray(p) for p, _ in parts]), np.asarray(whole_pts))
    np.testing.assert_array_equal(np.concatenate([w for _, w in parts]), whole_w)
    for pts, _ in parts:  # the other axes are the whole grid's
        for a, b in zip(pts.axes[1:], whole_pts.axes[1:]):
            np.testing.assert_array_equal(a, b)
    if panel > 1:
        with pytest.raises(ValueError, match="cut a panel"):
            grid.points_and_weights(0, panel + 1)
        with pytest.raises(ValueError, match="cut a panel"):
            grid.points_and_weights(1, rows)
    for start, stop in ((0, 0), (-1, rows), (0, rows + panel), (panel, 0)):
        with pytest.raises(ValueError, match="not a block"):
            grid.points_and_weights(start, stop)


# grids whose row blocks take their weights from the cached first block:
# midpoint, split Gauss, a one-panel Gauss axis whose second block starts
# inside its only panel, and a 3-D grid
WEIGHT_GRIDS = {
    "midpoint-1024^2": QuadratureGrid(Box((-1.0, -1.0), (1.0, 2.0)), 1024),
    "gauss-512^2": QuadratureGrid(Box((0.0, -0.5), (1.0, 0.5)), 512, panel_order=16),
    "one-panel-16x8192": QuadratureGrid(Box((0.0, 0.0), (1.0, 3.0)), (16, 8192), panel_order=16),
    "gauss-3d": QuadratureGrid(Box((0.0, -1.0, 0.5), (1.0, 2.0, 1.5)), (96, 32, 48), panel_order=16),
}


def _outer_slice(grid, start, stop):
    # the weights of rows [start, stop) as an outer product of axis slices
    _, weights, _ = zip(*grid.axes())
    w = weights[0][start:stop]
    for wi in weights[1:]:
        w = np.multiply.outer(w, wi)
    return np.asarray(w).ravel()


@pytest.mark.parametrize("name", sorted(WEIGHT_GRIDS))
def test_block_weights_have_the_bits_of_the_outer_product(name):
    grid = WEIGHT_GRIDS[name]
    blocks = _row_blocks(grid)
    assert len(blocks) > 1
    for start, stop in [*blocks, (0, len(grid.axes()[0][0]))]:
        _, w = grid.points_and_weights(start, stop)
        expected = _outer_slice(grid, start, stop)
        assert w.dtype == expected.dtype and w.tobytes() == expected.tobytes(), (start, stop)
