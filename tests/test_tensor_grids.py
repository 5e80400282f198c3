"""Tensor grids evaluated axis by axis through ``GridPoints``.

Every formula that reads coordinates must give on a grid's ``GridPoints``
the values it gives on the materialised (n^d, d) point array: bit for bit
in one dimension, within a few rounding errors beyond.  The independent
oracles are closed forms and the materialised array itself.
"""

import math
import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from scaleflow import (
    DiagonalScaling,
    LinearFamily,
    RGroup,
    TrigPolynomial,
    bump,
    gaussian,
    integrate,
    mollifier,
    parabola,
    trace_norm_bound_check,
    triangle,
)
from scaleflow import config as cfg_mod
from scaleflow import kernels
from scaleflow.cli import main
from scaleflow.groups import POSITIVE_MULTIPLICATIVE
from scaleflow.quadrature import Box, GridPoints, QuadratureGrid, integrate_on_grid

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# midpoint and Gauss grids with unequal node counts per axis, d = 1, 2, 3
GRIDS = {
    1: QuadratureGrid(Box((-1.3,), (1.7,)), (37,)),
    2: QuadratureGrid(Box((-1.3, -0.9), (1.7, 1.2)), (32, 48), panel_order=16),
    3: QuadratureGrid(Box((-1.3, -0.9, -1.1), (1.7, 1.2, 0.8)), (9, 11, 13)),
}
# the allowed deviation from the materialised evaluation, relative to its largest value
TOL = {1: 0.0, 2: 1e-14, 3: 1e-14}
TRIG_TOL = {1: 0.0, 2: 1e-13, 3: 1e-13}


def _grid_points(dim):
    pts, _ = GRIDS[dim].points_and_weights()
    assert isinstance(pts, GridPoints)
    return pts


def _assert_close(on_grid, on_array, tol):
    on_grid, on_array = np.asarray(on_grid), np.asarray(on_array)
    assert on_grid.shape == on_array.shape
    if tol == 0.0:
        np.testing.assert_array_equal(on_grid, on_array)
    else:
        scale = np.max(np.abs(on_array))
        assert np.max(np.abs(on_grid - on_array)) <= tol * scale


def test_grid_points_stand_for_the_meshgrid_array():
    pts = _grid_points(3)
    axes = [nodes for nodes, _, _ in GRIDS[3].axes()]
    expected = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert pts.shape == expected.shape == (9 * 11 * 13, 3)
    np.testing.assert_array_equal(np.asarray(pts), expected)
    coords = pts.coords()
    assert [c.shape for c in coords] == [(9, 1, 1), (1, 11, 1), (1, 1, 13)]


def _test_functions(dim):
    center = [0.2, -0.1, 0.3][:dim]
    functions = [
        gaussian(center, 0.4),
        bump(center, 0.9),
        mollifier(center, 0.9),
        parabola(Box((-1.0, -0.5, -0.8)[:dim], (1.2, 0.9, 0.6)[:dim])),
    ]
    if dim == 1:
        functions.append(triangle(center[0], 0.8))
    return functions


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_test_functions_on_grid_points_match_materialised(dim):
    pts = _grid_points(dim)
    for phi in _test_functions(dim):
        _assert_close(phi(pts), phi(np.asarray(pts)), TOL[dim])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_test_functions_match_their_formulas_on_the_point_array(dim):
    # the radial formulas written on the materialised array, row by row; the
    # bump sums the squares of (x_a - c_a) / w, its tensor rule's parts
    pts = _grid_points(dim)
    array = np.asarray(pts)
    center = np.array([0.2, -0.1, 0.3][:dim])
    r2 = np.sum((array - center) ** 2, axis=1)
    _assert_close(gaussian(center, 0.4)(pts), np.exp(-r2 / (2.0 * 0.4**2)), TOL[dim])
    t = np.sum(((array - center) / 0.9) ** 2, axis=1)
    _assert_close(bump(center, 0.9)(pts), (1.0 - np.minimum(t, 1.0)) ** 2, TOL[dim])
    u2 = r2 / 0.9**2
    inside = u2 < 1.0
    expected = np.where(inside, np.exp(1.0 - 1.0 / np.where(inside, 1.0 - u2, 1.0)), 0.0)
    _assert_close(mollifier(center, 0.9)(pts), expected, TOL[dim])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_diagonal_scaling_maps_grid_points_to_grid_points(dim):
    pts = _grid_points(dim)
    action = DiagonalScaling((1, 2, 3)[:dim])
    image = action.apply(0.37, pts)
    assert isinstance(image, GridPoints)
    np.testing.assert_array_equal(np.asarray(image), action.apply(0.37, np.asarray(pts)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linear_family_materialises_grid_points(dim):
    pts = _grid_points(dim)
    rng = np.random.default_rng(dim)
    generator = rng.normal(size=(dim, dim))
    action = LinearFamily(
        group=RGroup(POSITIVE_MULTIPLICATIVE), dimension=dim,
        matrix_fn=lambda eps: np.eye(dim) + math.log(eps) * generator,
    )
    image = action.apply(0.37, pts)
    assert isinstance(image, np.ndarray)
    np.testing.assert_array_equal(image, action.apply(0.37, np.asarray(pts)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_trig_polynomial_on_grid_points_matches_materialised(dim):
    pts = _grid_points(dim)
    rng = np.random.default_rng(10 + dim)
    poly = TrigPolynomial(rng.integers(-3, 4, size=(6, dim)).astype(float),
                          rng.normal(size=6) + 1j * rng.normal(size=6))
    _assert_close(poly(pts), poly(np.asarray(pts)), TRIG_TOL[dim])
    # composed with a scaling, as the mean-value pairings evaluate it
    image = DiagonalScaling((1,) * dim).apply(0.125, pts)
    _assert_close(poly(image), poly(np.asarray(image)), TRIG_TOL[dim])


@pytest.mark.parametrize("count", [1, 2, 257])
@pytest.mark.parametrize("dim", [2, 3])
def test_trig_eval_on_scattered_points_matches_direct_sum(dim, count):
    rng = np.random.default_rng(count)
    freqs = rng.uniform(-3, 3, size=(5, dim))
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    pts = rng.uniform(-2, 2, size=(count, dim))
    direct = np.exp(2j * np.pi * (pts @ freqs.T)) @ coeffs
    values = kernels.trig_eval(freqs, coeffs, pts)
    assert values.shape == (count,)
    assert np.max(np.abs(values - direct)) <= 1e-12


# composite Gauss grids of several panels per axis, so every axis has a split
SPLIT_GRIDS = {
    1: QuadratureGrid(Box((-0.4,), (1.0,)), (2048,), panel_order=16),
    2: QuadratureGrid(Box((-1.3, -0.9), (1.7, 1.2)), (64, 48), panel_order=16),
}


def _spy_factors(monkeypatch) -> list:
    # the grid axis of each virtual axis, per call of GridPoints.factors
    seen = []
    original = GridPoints.factors

    def spy(self):
        coords, owners = original(self)
        seen.append(owners)
        return coords, owners

    monkeypatch.setattr(GridPoints, "factors", spy)
    return seen


@pytest.mark.parametrize("dim", [1, 2])
def test_trig_eval_on_split_gauss_axes_matches_the_point_array(dim, monkeypatch):
    # the split leading axis is two virtual axes; the values move only with
    # the rounding of the phase, a few ulps of the largest |2 pi k x|
    seen = _spy_factors(monkeypatch)
    pts, _ = SPLIT_GRIDS[dim].points_and_weights()
    assert pts.lead is not None
    rng = np.random.default_rng(20 + dim)
    freqs = rng.integers(-3, 4, size=(6, dim)).astype(float)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    coeffs /= np.sum(np.abs(coeffs))
    image = DiagonalScaling((1, 2)[:dim]).apply(2.0**-9, pts)
    assert image.lead is not None
    for points in (pts, image):
        array = np.asarray(points)
        bound = 64 * np.finfo(float).eps * 2.0 * math.pi * np.max(np.abs(array @ freqs.T))
        on_grid = kernels.trig_eval(freqs, coeffs, points)
        assert np.max(np.abs(on_grid - kernels.trig_eval(freqs, coeffs, array))) <= bound
        assert seen.pop() == [0, *range(dim)]  # the leading axis is split


@pytest.mark.parametrize("dim", [1, 2])
def test_split_factors_rebuild_the_coordinates_exactly(dim):
    # the leading axis's offsets plus its local nodes are its nodes bit for
    # bit, and every other axis is its coordinate vector
    pts, _ = SPLIT_GRIDS[dim].points_and_weights()
    (offsets, local, *rest), owners = pts.factors()
    assert owners == [0, *range(dim)]
    lead, *others = pts.coords()
    assert (offsets + local).reshape(lead.shape).tobytes() == lead.tobytes()
    for vector, coord in zip(rest, others, strict=True):
        assert vector.reshape(coord.shape).tobytes() == coord.tobytes()


def test_unsplit_grids_and_linear_images_take_the_plain_path(monkeypatch):
    # midpoint grids and one-panel Gauss axes give one virtual axis per grid
    # axis, and a LinearFamily image is a point array read column by column
    seen = _spy_factors(monkeypatch)
    freqs, coeffs = np.array([[1.0, -2.0, 0.5]]), np.array([1.0 + 0.5j])
    one_panel = QuadratureGrid(Box((0.0,), (1.0,)), (16,), panel_order=16)
    for pts, dim in ((_grid_points(3), 3), (one_panel.points_and_weights()[0], 1)):
        assert pts.lead is None
        for points in (pts, DiagonalScaling((1,) * dim).apply(0.37, pts)):
            kernels.trig_eval(freqs[:, :dim], coeffs, points)
            assert seen.pop() == list(range(dim))
    action = LinearFamily(group=RGroup(POSITIVE_MULTIPLICATIVE), dimension=2,
                          matrix_fn=lambda eps: np.array([[1.0, eps], [0.0, 1.0]]))
    image = action.apply(0.37, _grid_points(2))
    assert isinstance(image, np.ndarray)
    kernels.trig_eval(freqs[:, :2], coeffs, image)
    assert seen == []


def _real_polynomial(rng, dim, pairs) -> TrigPolynomial:
    # c_0 real and c_(-k) = conj(c_k) over distinct k > 0: a real polynomial
    # whose terms merge nowhere, as every committed u0 is
    lattice = np.stack(np.meshgrid(*[np.arange(-8.0, 9.0)] * dim, indexing="ij"), -1).reshape(-1, dim)
    positive = lattice[[tuple(k) > (0.0,) * dim for k in lattice]]
    half = positive[rng.choice(len(positive), size=pairs, replace=False)]
    coeffs = rng.normal(size=pairs) + 1j * rng.normal(size=pairs)
    freqs = np.concatenate([half, -half, np.zeros((1, dim))])
    return TrigPolynomial(freqs, np.concatenate([coeffs, coeffs.conj(), [rng.normal()]]))


def _assert_real_form(poly, points):
    # float64 within a few ulps of the largest phase |2 pi k x| of the direct
    # complex sum over every term, scaled by the coefficients' total size
    array = np.asarray(points)
    phases = 2.0 * math.pi * (array @ poly.freqs.T)
    direct = np.exp(1j * phases) @ poly.coeffs
    values = poly(points)
    assert values.dtype == np.float64 and values.shape == (array.shape[0],)
    bound = 64 * np.finfo(float).eps * max(1.0, np.max(np.abs(phases))) * np.sum(np.abs(poly.coeffs))
    assert np.max(np.abs(values - direct)) <= bound


_REAL_FORM_POINTS = {
    "scattered-2d": lambda: np.random.default_rng(5).uniform(-2, 2, size=(257, 2)),
    "split-1d": lambda: SPLIT_GRIDS[1].points_and_weights()[0],
    "split-1d-image": lambda: DiagonalScaling((1,)).apply(2.0**-9, SPLIT_GRIDS[1].points_and_weights()[0]),
    "grid-2d": lambda: SPLIT_GRIDS[2].points_and_weights()[0],
    "grid-3d": lambda: _grid_points(3),
}


@pytest.mark.parametrize("name", sorted(_REAL_FORM_POINTS))
def test_real_polynomials_evaluate_in_real_arithmetic(name):
    points = _REAL_FORM_POINTS[name]()
    poly = _real_polynomial(np.random.default_rng(len(name)), points.shape[1], 4)
    _assert_real_form(poly, points)


def test_other_polynomials_keep_the_complex_path():
    # no conjugate symmetry, or c_(-k) one ulp off conj(c_k): all terms, complex
    rng = np.random.default_rng(7)
    real = _real_polynomial(rng, 1, 3)
    nudged = real.coeffs.copy()
    nudged[0] = complex(np.nextafter(nudged[0].real, np.inf), nudged[0].imag)
    polys = [
        TrigPolynomial(rng.integers(-3, 4, size=(6, 1)).astype(float),
                       rng.normal(size=6) + 1j * rng.normal(size=6)),
        TrigPolynomial(real.freqs, nudged),
        TrigPolynomial([[0.0], [1.0], [-1.0]], [0.5 + 1e-300j, 1.0, 1.0]),  # Im c_0 != 0
    ]
    points = SPLIT_GRIDS[1].points_and_weights()[0]
    for poly in polys:
        values = poly(points)
        assert values.dtype == np.complex128
        np.testing.assert_array_equal(values, kernels.trig_eval(poly.freqs, poly.coeffs, points))


def test_translates_and_linear_compositions_stay_real():
    rng = np.random.default_rng(8)
    points = rng.uniform(-2, 2, size=(65, 2))
    poly = _real_polynomial(rng, 2, 5)
    for image in (poly.translate([0.3, -0.7]), poly.compose_linear(rng.normal(size=(2, 2)))):
        _assert_real_form(image, points)
    one_d = _real_polynomial(rng, 1, 3)
    _assert_real_form(one_d.translate([0.3]), rng.uniform(-2, 2, size=(65, 1)))


def _assert_conjugate_symmetric(poly):
    for freq, coeff in poly.terms():
        assert poly.coefficient([-f for f in freq]) == coeff.conjugate()


def test_product_of_real_polynomials_takes_the_real_path():
    # the sums for c_1 and c_(-1) merge three contributions each, in
    # different orders; merged correctly rounded, they stay exact conjugates
    def real(c0, terms):
        freqs = [[0.0]] + [[s * k] for k, _ in terms for s in (1.0, -1.0)]
        coeffs = [c0] + [v for _, c in terms for v in (c, c.conjugate())]
        return TrigPolynomial(freqs, coeffs)

    a = real(0.3, [(1.0, 0.1 + 0.2j), (2.0, 0.7 - 0.1j)])
    b = real(0.1, [(1.0, 0.3 + 0.25j), (3.0, 0.15 - 0.1j)])
    product = a * b
    _assert_conjugate_symmetric(product)
    points = SPLIT_GRIDS[1].points_and_weights()[0]
    _assert_real_form(product, points)


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       pairs=st.tuples(st.integers(1, 6), st.integers(1, 6)))
@settings(max_examples=100, deadline=None)
def test_random_products_of_real_polynomials_stay_real(seed, dim, pairs):
    rng = np.random.default_rng(seed)
    a, b = (_real_polynomial(rng, dim, n) for n in pairs)
    product = a * b
    _assert_conjugate_symmetric(product)
    _assert_real_form(product, rng.uniform(-2, 2, size=(17, dim)))


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([1, 2]),
    panels=st.integers(2, 24),
    lower=st.floats(-3.0, 3.0),
    width=st.floats(0.25, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_real_form_on_random_gauss_grids(seed, dim, panels, lower, width):
    # split 1-D axes and 2-D Gauss grids of random size and placement
    rng = np.random.default_rng(seed)
    nodes = (16 * panels, 16 * int(rng.integers(1, 5)))[:dim]
    grid = QuadratureGrid(Box((lower,) * dim, (lower + width,) * dim), nodes, panel_order=16)
    points, _ = grid.points_and_weights()
    _assert_real_form(_real_polynomial(rng, dim, int(rng.integers(1, 6))), points)


def test_homogeneity_r2_gaussian_base_integrals_match_closed_form():
    # the integral of exp(-|x - c|^2 / (2 sigma^2)) over R^2 is 2 pi sigma^2
    with open(os.path.join(CONFIG_DIR, "homogeneity_r2.yaml"), encoding="utf-8") as handle:
        cfg = cfg_mod.validate_config(yaml.safe_load(handle))
    action = cfg_mod.build_action(cfg)
    hz = cfg_mod.build_homogenizer(cfg, action)
    gaussians = [phi for phi in cfg_mod.build_battery(cfg, action.dimension)
                 if phi.name.startswith("gauss-")]
    assert len(gaussians) == 3
    for phi, sigma in zip(gaussians, (0.5, 1.0, 2.0)):
        value, _ = integrate(hz, phi)
        exact = 2.0 * math.pi * sigma**2
        assert abs(value - exact) <= 1e-12 * exact


def _refuse_materialising(monkeypatch):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError(f"a {self.shape} tensor grid was materialised")

    monkeypatch.setattr(GridPoints, "__array__", refuse)


# a smaller instance of the benchmark's 2-D mean-value run
MEAN_2D = {
    "seed": 0,
    "group": {"kind": "positive-multiplicative", "weight_param": 1.0},
    "action": {"variant": "diagonal-scaling", "exponents": [1, 1]},
    "ladder": {"count": 3},
    "grid": {"rule": "gauss", "base_nodes": 64, "panel_order": 16, "max_nodes": 4096},
    "tolerances": {"rel": 1.0e-2, "decay_order": 0.9},
    "homogenizer": {"measure": "lebesgue"},
    "mean": {
        "function": {"class": "periodic", "terms": [
            [[0.0, 0.0], 0.5, 0.0], [[1.0, 2.0], -0.25, 0.0], [[-1.0, -2.0], -0.25, 0.0]]},
        "phi": {"kind": "mollifier", "center": [0.3, 0.2], "width": 0.5},
        "shift": [0.3, 0.1],
        "kernel": {"kind": "gaussian", "center": [0.0, 0.0], "sigma": 0.5},
    },
}


def test_homogeneity_r2_never_materialises_a_grid(tmp_path, monkeypatch):
    _refuse_materialising(monkeypatch)
    config = os.path.join(CONFIG_DIR, "homogeneity_r2.yaml")
    assert main(["homogeneity", "--config", config, "--out", str(tmp_path / "o")]) == 0


def test_two_dimensional_mean_never_materialises_a_grid(tmp_path, monkeypatch):
    _refuse_materialising(monkeypatch)
    path = tmp_path / "mean_2d.yaml"
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(MEAN_2D, handle)
    assert main(["mean", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_one_dimensional_gauss_sigma_trace_never_materialises_a_grid(monkeypatch):
    # the sigma_periodic trace norm bounds at a rung whose resolved Gauss
    # grids have several panels: every trig sum reads the split axis, and no
    # point array is built, for the traces or for the envelope norms
    cfg = cfg_mod.validate_config(cfg_mod.load_config(os.path.join(CONFIG_DIR, "sigma_periodic.yaml")))
    action, spec, block = cfg_mod.build_action(cfg), cfg_mod.build_grid_spec(cfg), cfg["sigma"]
    algebra = cfg_mod.build_algebra(block["algebra"], 1)
    u, *battery = [cfg_mod.build_field(b, algebra, block["domain"], "sigma")
                   for b in (block["u0"], *block["battery"])]
    assert spec.panel_order == 16
    seen = _spy_factors(monkeypatch)
    _refuse_materialising(monkeypatch)
    for f in (u, *battery):
        assert spec.build(f.domain, action.frequency_bound(2.0**-8, f.max_freq())).total_points > spec.panel_order
        assert trace_norm_bound_check(f, action, 2.0**-8, 2.0, spec)["passed"]
    assert seen and all(owners == [0, 0] for owners in seen)


def test_refusal_catches_an_opaque_integrand(monkeypatch):
    # the runs above would fail on an integrand that reads the point array
    _refuse_materialising(monkeypatch)
    with pytest.raises(AssertionError, match="materialised"):
        integrate_on_grid(lambda p: np.exp(-np.sum(np.asarray(p) ** 2, axis=1)), GRIDS[2])
