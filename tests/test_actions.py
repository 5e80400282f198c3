"""Action variants, their matrices, and the sampled certificates."""

import math
import random

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import ndtri
from scipy.stats import qmc

from scaleflow import (
    Ball,
    DiagonalScaling,
    ExpSemigroup,
    LinearFamily,
    POSITIVE_MULTIPLICATIVE,
    RGroup,
    TrigPolynomial,
    certify_absorption,
    certify_escape,
    certify_group_law,
    matrix_exponential,
    product,
)
from scaleflow.actions import Action, _halton, sphere_directions
from scaleflow.groups import INTEGER_ADDITIVE
from scaleflow.quadrature import Box, GridPoints


def test_diagonal_apply():
    a = DiagonalScaling((1, 1))
    assert np.allclose(a.apply(0.5, np.array([1.0, 2.0])), [2.0, 4.0])
    x = np.array([0.3, -1.2])
    assert np.allclose(a.apply(1.0, x), x)  # identity parameter acts trivially
    # the inverse map is H at the inverse parameter
    assert np.allclose(a.apply(a.group.inverse(2.0), np.array([3.0, 3.0])), [6.0, 6.0])
    assert np.allclose(a.apply(a.group.inverse(0.5), a.apply(0.5, x)), x)


def test_diagonal_validation():
    with pytest.raises(ValueError):
        DiagonalScaling((0,))
    with pytest.raises(ValueError):
        DiagonalScaling((1,), group=RGroup("real-additive"))
    with pytest.raises(ValueError):
        DiagonalScaling((1, 2)).apply(0.5, np.zeros(3))


def _variants():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(2, 2))
    semigroup = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 0.5, p)
    additive = semigroup.group
    rotation = LinearFamily(
        group=additive, dimension=2,
        matrix_fn=lambda e: np.array([[math.cos(e), -math.sin(e)], [math.sin(e), math.cos(e)]]),
    )
    return {
        "diagonal": DiagonalScaling((1, 2)),
        "linear-family": rotation,
        "exp-semigroup": semigroup,
        "product": product([semigroup, rotation]),
    }


@pytest.mark.parametrize("name", ["diagonal", "linear-family", "exp-semigroup", "product"])
def test_apply_many_matches_apply(name):
    # apply over a parameter column (the batched map that was apply_many)
    # equals apply at each element: bit for bit for diagonal scaling
    action = _variants()[name]
    rtol = 0.0 if name == "diagonal" else 1e-14
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(7, action.dimension))
    if action.group.kind == POSITIVE_MULTIPLICATIVE:
        params = np.exp(rng.uniform(-2.0, 2.0, 5))
    else:
        params = rng.uniform(-1.0, 1.0, 5)
    images = action.apply(params[:, None], pts)
    assert images.shape == (5, 7, action.dimension)
    for eps, image in zip(params, images):
        np.testing.assert_allclose(image, action.apply(eps, pts), rtol=rtol, atol=0.0)
    # an (L,) ladder maps one point to (L, N); paired (K,) parameters map (K, N) rowwise
    ladder_images = action.apply(params, pts[0])
    assert ladder_images.shape == (5, action.dimension)
    paired = action.apply(params, pts[:5])
    for eps, x, image, paired_image in zip(params, pts, ladder_images, paired):
        np.testing.assert_allclose(image, action.apply(eps, pts[0]), rtol=rtol, atol=0.0)
        np.testing.assert_allclose(paired_image, action.apply(eps, x), rtol=rtol, atol=0.0)
    # matrices and norms follow the parameter shape
    grid = params.reshape(5, 1)
    matrices = action.matrix(grid)
    assert matrices.shape == (5, 1, action.dimension, action.dimension)
    norms = action.operator_norm(grid)
    assert norms.shape == (5, 1)
    for eps, m, norm in zip(params, matrices[:, 0], norms[:, 0]):
        np.testing.assert_allclose(m, action.matrix(eps), rtol=rtol, atol=0.0)
        single = action.operator_norm(eps)
        assert type(single) is float
        assert norm == pytest.approx(single, rel=rtol, abs=0.0)
    # H at the inverse parameters maps the images back
    back = action.apply(action.group.inverse(params[:, None]), images)
    np.testing.assert_allclose(back, np.broadcast_to(pts, back.shape), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["diagonal", "linear-family", "exp-semigroup", "product"])
def test_image_box_and_frequency_bound_match_matrix_formulas(name):
    action = _variants()[name]
    rng = np.random.default_rng(4)
    lows = rng.uniform(-2.0, 0.0, action.dimension)
    box = Box(tuple(lows), tuple(lows + rng.uniform(0.5, 2.0, action.dimension)))
    bound = rng.uniform(0.0, 3.0, action.dimension)
    for eps in ((0.5, 2.0) if action.group.kind == POSITIVE_MULTIPLICATIVE else (-0.7, 0.4)):
        a = action.matrix(eps)
        # the image of a box is the hull of its mapped corners
        corners = np.array(np.meshgrid(*zip(box.lows, box.highs), indexing="ij"))
        mapped = corners.reshape(action.dimension, -1).T @ a.T
        image = action.image_box(eps, box)
        np.testing.assert_allclose(image.lows, mapped.min(axis=0), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(image.highs, mapped.max(axis=0), rtol=1e-13, atol=1e-13)
        # exp(2 pi i k.x) composed with H_eps has frequency a^T k
        expected = [sum(abs(a[i, j]) * bound[i] for i in range(action.dimension))
                    for j in range(action.dimension)]
        np.testing.assert_allclose(action.frequency_bound(eps, bound), expected,
                                   rtol=1e-14, atol=0.0)


def test_diagonal_apply_many_rounds_as_scalar_power():
    # every row must round as eps ** -r with a scalar eps, the formula the
    # verify-action and contract reports have always been written with
    rng = np.random.default_rng(2)
    params = np.exp(rng.uniform(-6.0, 6.0, 400))
    for exponents in ((1,), (1, 3)):
        action = DiagonalScaling(exponents)
        pts = rng.normal(size=(3, action.dimension))
        powers = -np.asarray(exponents, dtype=np.float64)
        images = action.apply(params[:, None], pts)
        for eps, image in zip(params, images):
            assert np.array_equal(image, pts * float(eps) ** powers)
            assert np.array_equal(action.apply(eps, pts), image)


def test_apply_many_validates_parameters():
    # a parameter array is validated entry by entry, points by their last
    # axis, and a tensor grid takes one element
    action = DiagonalScaling((1,))
    with pytest.raises(ValueError, match="-1.0 is not a positive real"):
        action.apply(np.array([[0.5], [-1.0]]), np.ones((2, 1)))
    with pytest.raises(ValueError):
        action.apply(np.array([[0.5]]), np.ones((2, 2)))
    with pytest.raises(ValueError):
        action.apply(0.5, 1.0)
    grid = GridPoints([np.linspace(0.0, 1.0, 4)])
    assert isinstance(action.apply(0.5, grid), GridPoints)
    with pytest.raises(ValueError, match="one element"):
        action.apply(np.array([0.5, 0.25]), grid)


def test_matrix_exponential_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = rng.integers(1, 6)
        a = rng.normal(scale=2.0, size=(n, n))
        mine = matrix_exponential(a)
        ref = scipy_expm(a)
        assert np.linalg.norm(mine - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_exp_semigroup_matrix_has_the_bits_of_each_element(dim):
    # one Taylor series over the stack, each matrix squared its own number
    # of times: every matrix has the bits of its one-element call
    rng = np.random.default_rng(dim)
    p = rng.normal(size=(dim, dim))
    action = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 0.5, p)
    params = np.linspace(-4.0, 4.0, 25)
    single = np.array([action.matrix(eps) for eps in params.tolist()])
    np.testing.assert_array_equal(action.matrix(params), single)
    np.testing.assert_array_equal(action.matrix(params.reshape(5, 5)), single.reshape(5, 5, dim, dim))
    stack = -params[:, None, None] * p
    np.testing.assert_array_equal(matrix_exponential(stack), [matrix_exponential(a) for a in stack])
    # the stack mixes matrices that take no squaring with ones that take several
    norms = np.linalg.norm(stack, 1, axis=(1, 2))
    squarings = {math.ceil(math.log2(n / 0.5)) if n > 0.5 else 0 for n in norms.tolist()}
    assert 0 in squarings and len(squarings) >= 4


def test_exp_semigroup_closed_form():
    a = ExpSemigroup.from_matrix(1.0, np.zeros((1, 1)))
    out = a.apply(math.log(2.0), np.array([4.0]))
    assert out[0] == pytest.approx(2.0, rel=1e-14)  # exp(-k eps) x with k=1
    back = a.apply(a.group.inverse(math.log(2.0)), np.array([2.0]))
    assert back[0] == pytest.approx(4.0, rel=1e-14)


def test_exp_semigroup_requires_dominant_decay():
    p = np.array([[0.0, 2.0], [-2.0, 0.0]])
    with pytest.raises(ValueError):
        ExpSemigroup.from_matrix(1.0, p)  # k must exceed the operator norm 2
    ExpSemigroup.from_matrix(2.5, p)


def test_centers():
    assert np.allclose(DiagonalScaling((1, 1, 1)).center(), np.zeros(3))
    a = ExpSemigroup.from_matrix(2.0, np.array([[0.5]]))
    assert np.allclose(a.center(), np.zeros(1))
    both = product([DiagonalScaling((1,)), DiagonalScaling((2,))])
    assert np.allclose(both.center(), np.zeros(2))
    for eps in (0.25, 1.0, 3.0):
        assert np.linalg.norm(both.apply(eps, both.center()) - both.center()) <= 1e-12


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


# (product, parameters, closed forms per element: image of x, norm, |det|)
_PRODUCTS = {
    # x -> (x_1 / eps, x_2 / eps^2)
    "diagonal": (
        product([DiagonalScaling((1,)), DiagonalScaling((2,))]),
        [0.3, 0.5, 1.0, 2.0, 7.5],
        lambda e, x: np.array([x[0] / e, x[1] / e**2]),
        lambda e: max(1.0 / e, e**-2.0),
        lambda e: e**-3.0,
    ),
    # exp(-eps) on R, and exp(-3 eps) times a rotation by eps on R^2
    "exp-semigroup": (
        product([ExpSemigroup.from_matrix(1.0, np.zeros((1, 1))),
                 ExpSemigroup.from_matrix(3.0, [[0.0, 1.0], [-1.0, 0.0]])]),
        [-0.8, -0.1, 0.0, 0.4, 1.1],
        lambda e, x: np.concatenate([[math.exp(-e) * x[0]],
                                     math.exp(-3.0 * e) * _rotation(e) @ x[1:]]),
        lambda e: max(math.exp(-e), math.exp(-3.0 * e)),
        lambda e: math.exp(-7.0 * e),
    ),
}


def test_product_action():
    # the block matrix gives the per-factor closed forms, at one element and
    # at an array of them
    for action, params, image, norm, volume in _PRODUCTS.values():
        x = np.linspace(1.3, -0.7, action.dimension)
        images = action.apply(np.asarray(params), x)
        norms = action.operator_norm(np.asarray(params))
        volumes = action.volume_factor(np.asarray(params))
        for eps, batched_image, batched_norm, batched_volume in zip(params, images, norms, volumes):
            expected = image(eps, x)
            for got in (action.apply(eps, x), batched_image):
                np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
            for got in (action.operator_norm(eps), batched_norm):
                assert got == pytest.approx(norm(eps), rel=1e-14, abs=0.0)
            for got in (action.volume_factor(eps), batched_volume):
                assert got == pytest.approx(volume(eps), rel=1e-14, abs=0.0)
    single = product([DiagonalScaling((3,))])
    x = np.array([1.7])
    assert np.allclose(single.apply(0.3, x), DiagonalScaling((3,)).apply(0.3, x))
    with pytest.raises(ValueError):
        product([DiagonalScaling((1,)), ExpSemigroup.from_matrix(1.0, np.zeros((1, 1)))])


def _pullback_actions():
    spiral = ExpSemigroup.from_matrix(1.0, [[0.0, -0.5], [0.5, 0.0]])
    shear = LinearFamily(RGroup("real-additive"), 2,
                         lambda eps: [[1.0, 0.7 * eps], [-0.4 * eps, 1.0 + eps * eps]])
    return {
        "exp-semigroup": spiral,
        "linear-family": shear,
        "product": product([spiral, ExpSemigroup.from_matrix(0.8, [[0.0]])]),
    }


@pytest.mark.parametrize("name", sorted(_pullback_actions()))
def test_pullback_agrees_with_apply_off_the_diagonal(name):
    # p(H_eps x) = sum_k c_k e(<k, B x>) = sum_k c_k e(<B^T k, x>): a matrix
    # that is not diagonal makes a transposed pullback differ
    action = _pullback_actions()[name]
    dim = action.dimension
    rng = np.random.default_rng(11)
    terms = [(rng.uniform(-2.0, 2.0, dim), complex(*rng.normal(size=2))) for _ in range(3)]
    poly = TrigPolynomial.from_terms(terms)
    x = rng.uniform(-1.5, 1.5, (64, dim))
    for eps in (0.3, -0.45, 1.1):
        matrix = action.matrix(eps)
        assert np.max(np.abs(matrix - matrix.T)) > 0.1
        expected = poly(action.apply(eps, x))
        got = action.pullback(eps, poly)(x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.sum(np.abs(poly.coeffs))


def test_group_law_certificates():
    report = certify_group_law(DiagonalScaling((1, 2)))
    assert report.worst_violation <= report.tolerance
    rng = np.random.default_rng(3)
    p = rng.normal(size=(3, 3))
    semigroup = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p)
    report = certify_group_law(semigroup)
    assert report.worst_violation <= report.tolerance and report.worst_violation <= 1e-9
    report = certify_group_law(product([DiagonalScaling((1,)), DiagonalScaling((2,))]))
    assert report.worst_violation <= report.tolerance


def test_group_law_negative_control():
    # B(eps eps') != B(eps) B(eps'): an affine-in-eps family is not an action
    group = RGroup(POSITIVE_MULTIPLICATIVE)
    bad = LinearFamily(group=group, dimension=1, matrix_fn=lambda e: np.array([[1.0 + e]]))
    report = certify_group_law(bad)
    assert not report.worst_violation <= report.tolerance


def test_integer_group_linear_family():
    group = RGroup(INTEGER_ADDITIVE, 0.5)
    act = LinearFamily(group=group, dimension=1,
                       matrix_fn=lambda n: np.array([[2.0**-n]]))
    report = certify_group_law(act)
    assert report.worst_violation <= report.tolerance
    assert np.allclose(act.apply(-2, np.array([1.0])), [4.0])


def test_absorption_threshold_matches_closed_form():
    # image of ball(0, 10) under the inverse parameter has radius 10*eps,
    # so inclusion in ball(0, 1) starts at eps <= 0.1
    action = DiagonalScaling((1,))
    ladder = [2.0**-n for n in range(1, 21)]
    cert = certify_absorption(action, Ball((0.0,), 10.0), Ball((0.0,), 1.0), ladder)
    assert cert.threshold is not None
    assert cert.threshold == pytest.approx(2.0**-4)
    assert 0.05 <= cert.threshold <= 0.1
    # the one-step-coarser ladder entry must fail the closed-form bound
    assert cert.threshold * 2.0 > 0.1
    # exact operator bounds agree with the sampled evidence for pure scaling
    for (eps, sampled), (_, bound) in zip(cert.sample_evidence, cert.exact_bounds):
        assert sampled <= bound * (1 + 1e-12)
        assert sampled == pytest.approx(10.0 * eps, rel=1e-12)


def test_absorption_rejects_off_center_target():
    action = DiagonalScaling((1,))
    with pytest.raises(ValueError):
        certify_absorption(action, Ball((0.0,), 10.0), Ball((1.0,), 1.0), [0.5, 0.25])


def test_absorption_of_center_point():
    action = DiagonalScaling((1, 1))
    cert = certify_absorption(action, Ball((0.0, 0.0), 0.0), Ball((0.0, 0.0), 1.0),
                              [0.5, 0.25, 0.125])
    assert cert.threshold == 0.5  # center maps to itself


def test_absorption_exp_semigroup_closed_form():
    # pure decay: |H_(-eps)(x)| = exp(k eps)|x|, so inclusion needs
    # eps <= -ln(10)/k
    k = 1.0
    action = ExpSemigroup.from_matrix(k, np.zeros((2, 2)))
    ladder = [-float(n) for n in range(1, 21)]
    cert = certify_absorption(action, Ball((0.0, 0.0), 10.0), Ball((0.0, 0.0), 1.0), ladder)
    exact = -math.log(10.0) / k
    assert cert.threshold is not None
    assert cert.threshold <= exact < cert.threshold + 1.0


def test_absorption_product_uses_worst_factor():
    ladder = [2.0**-n for n in range(1, 21)]
    slow = DiagonalScaling((1,))
    fast = DiagonalScaling((2,))
    pair = product([slow, fast])
    k, v = 10.0, 1.0
    cert_slow = certify_absorption(slow, Ball((0.0,), k), Ball((0.0,), v), ladder)
    cert_fast = certify_absorption(fast, Ball((0.0,), k), Ball((0.0,), v), ladder)
    cert_pair = certify_absorption(pair, Ball((0.0, 0.0), k), Ball((0.0, 0.0), v), ladder)
    assert cert_pair.threshold is not None
    assert cert_pair.threshold <= min(cert_slow.threshold, cert_fast.threshold)


def test_balanced_ball_image_nesting():
    # for eps <= eps' the eps'-image of a centred ball nests inside the
    # eps-image: radii are monotone in the parameter
    action = DiagonalScaling((1, 2))
    eps_values = [0.25, 0.5, 1.0, 2.0]
    radii = [action.operator_norm(e) for e in eps_values]
    assert all(x >= y for x, y in zip(radii, radii[1:]))


def test_escape():
    action = DiagonalScaling((1,))
    report = certify_escape(action, [1.0], [2.0**-n for n in range(1, 21)], 1000.0)
    assert report.threshold is not None
    norm_at_tiny = dict(report.norms)[2.0**-20]
    assert norm_at_tiny == pytest.approx(2.0**20, rel=1e-12)
    assert abs(action.apply(1e-6, np.array([1.0]))[0]) == pytest.approx(1e6, rel=1e-12)
    with pytest.raises(ValueError):
        certify_escape(action, [0.0], [0.5], 10.0)


def test_escape_product_any_nonzero_coordinate():
    pair = product([DiagonalScaling((1,)), DiagonalScaling((2,))])
    ladder = [2.0**-n for n in range(1, 16)]
    assert certify_escape(pair, [0.0, 1.0], ladder, 100.0).threshold is not None
    assert certify_escape(pair, [1.0, 0.0], ladder, 100.0).threshold is not None
    with pytest.raises(ValueError):
        certify_escape(pair, [0.0, 0.0], ladder, 100.0)


# -- per-sample reference loops ----------------------------------------------------
# The certificates evaluate every sample and ladder entry in one array
# expression.  These loops evaluate them one at a time through the scalar
# calls, and the reports must agree bit for bit.


def _reference_threshold(ladder, passed):
    threshold = None
    for eps, ok in zip(reversed(ladder), reversed(passed)):
        if not ok:
            break
        threshold = eps
    return threshold


def _reference_group_law(action, sample_count, seed):
    rng = random.Random(seed)
    window = action.parameter_window()
    eps1 = action.group.sample(rng, sample_count, window)
    eps2 = action.group.sample(rng, sample_count, window)
    xs = [[rng.gauss(0.0, 2.0) for _ in range(action.dimension)] for _ in range(sample_count)]
    worst = 0.0
    for a, b, x in zip(eps1, eps2, xs):
        lhs = action.apply(a, action.apply(b, x))
        rhs = action.apply(action.group.compose(a, b), x)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(x))))
    return worst


def _reference_absorption(action, source, target, ladder):
    center = action.center()
    pts = source.boundary_points(64 * action.dimension)
    evidence, exact, ok = [], [], []
    for eps in ladder:
        inv = action.group.inverse(eps)
        dist = float(np.max(np.linalg.norm(action.apply(inv, pts) - center, axis=1)))
        offset = float(np.linalg.norm(action.apply(inv, np.asarray(source.center)) - center))
        evidence.append((eps, dist))
        exact.append((eps, action.operator_norm(inv) * source.radius + offset))
        ok.append(dist <= target.radius)
    return evidence, exact, _reference_threshold(ladder, ok)


def _reference_escape(action, x, ladder, radius):
    norms = [(eps, float(np.linalg.norm(action.apply(eps, x)))) for eps in ladder]
    return norms, _reference_threshold(ladder, [n > radius for _, n in norms])


@pytest.mark.parametrize("exponents", [(1,), (1, 2), (2, 1, 3)], ids=["N=1", "N=2", "N=3"])
def test_batched_certificates_match_per_sample_loops(exponents):
    action = DiagonalScaling(exponents)
    dim = action.dimension
    law = certify_group_law(action, sample_count=256, seed=4)
    assert law.worst_violation == _reference_group_law(action, 256, 4)
    ladder = [2.0**-n for n in range(1, 21)]
    source = Ball(tuple(np.linspace(0.7, -1.3, dim)), 10.0)
    target = Ball((0.0,) * dim, 1.0)
    cert = certify_absorption(action, source, target, ladder)
    evidence, exact, threshold = _reference_absorption(action, source, target, ladder)
    assert (cert.sample_evidence, cert.exact_bounds, cert.threshold) == (evidence, exact, threshold)
    assert threshold is not None and threshold != ladder[0]  # both verdicts occur
    x = np.linspace(0.4, -0.9, dim)
    report = certify_escape(action, x, ladder, 1000.0)
    norms, threshold = _reference_escape(action, x, ladder, 1000.0)
    assert (report.norms, report.threshold) == (norms, threshold)
    assert threshold is not None and threshold != ladder[0]


def test_group_law_draws_are_pinned(monkeypatch):
    # all of eps1, then all of eps2, then the points row by row, from
    # random.Random(seed); Python keeps only random()'s stream across
    # versions, not gauss's, so a change there must fail here
    calls = []
    apply = Action.apply

    def recording(self, eps, x):
        calls.append((np.array(eps), np.array(x)))
        return apply(self, eps, x)

    monkeypatch.setattr(Action, "apply", recording)
    certify_group_law(DiagonalScaling((1, 2)), sample_count=3, seed=0)
    (eps2, xs), (eps1, _), (_, again) = calls
    assert eps1.tolist() == [3.9657199151167384, 2.8061617146668896, 0.7278111478907403]
    assert eps2.tolist() == [0.3812374007467805, 1.0461313019842904, 0.6836812695184208]
    assert xs.tolist() == [[0.35839297454971375, -1.6621984305419764],
                           [-2.6180747289187174, 0.3877754824982082],
                           [1.9864994070703943, -1.2939632610950096]]
    assert again.tolist() == xs.tolist()


def test_volume_factor_matches_determinant():
    rng = np.random.default_rng(11)
    p = rng.normal(size=(2, 2))
    action = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 0.5, p)
    for eps in (-1.0, 0.3, 2.0):
        det = abs(np.linalg.det(action.matrix(eps)))
        assert action.volume_factor(eps) == pytest.approx(det, rel=1e-12)


@pytest.mark.parametrize("name", ["diagonal", "product", "exp-semigroup"])
def test_volume_factor_takes_one_element_or_an_array(name):
    # an array of parameters gives, in its shape, the bits of one-element calls
    action, params = {
        "diagonal": (DiagonalScaling((1, 2)), np.exp(np.linspace(-3.0, 3.0, 12))),
        "product": (product([DiagonalScaling((1,)), DiagonalScaling((2,))]),
                    np.exp(np.linspace(-3.0, 3.0, 12))),
        "exp-semigroup": (_PRODUCTS["exp-semigroup"][0], np.linspace(-0.8, 1.1, 12)),
    }[name]
    single = np.array([action.volume_factor(eps) for eps in params.tolist()])
    assert all(isinstance(action.volume_factor(eps), float) for eps in params[:2].tolist())
    np.testing.assert_array_equal(action.volume_factor(params), single)
    np.testing.assert_array_equal(action.volume_factor(params.reshape(3, 4)), single.reshape(3, 4))
    determinants = np.abs(np.linalg.det(action.matrix(params)))
    np.testing.assert_allclose(single, determinants, rtol=1e-14, atol=0.0)


def test_halton_matches_scipy():
    for dim in range(2, 6):
        for count in (1, 9, 64, 520):
            ref = qmc.Halton(d=dim, scramble=False).random(count)
            assert np.array_equal(_halton(dim, count), ref), (dim, count)


def test_sphere_directions_match_ndtri_construction():
    # the former construction: scipy's Halton points mapped through ndtri
    for dim in (2, 3, 4):
        for count in (2 * dim, 2 * dim + 1, 64 * dim):
            extra = count - 2 * dim
            u = qmc.Halton(d=dim, scramble=False).random(extra + 8)
            z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
            z = z[np.linalg.norm(z, axis=1) > 1e-8][:extra]
            ref = np.concatenate(
                [np.eye(dim), -np.eye(dim), z / np.linalg.norm(z, axis=1, keepdims=True)]
            )
            dirs = sphere_directions(dim, count)
            assert dirs.shape == ref.shape
            assert np.max(np.abs(dirs - ref)) <= 1e-14, (dim, count)
    for count in (1, 2, 64):
        assert np.array_equal(sphere_directions(1, count), [[1.0], [-1.0]])
