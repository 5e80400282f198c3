"""Measures, pushforwards, the homogeneity battery and the constructed measure.

Every derived expectation is recomputed here by an independent oracle:
scipy adaptive quadrature or a closed form worked out by substitution.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from scaleflow import (
    DiagonalScaling,
    ExpSemigroup,
    GridSpec,
    Homogenizer,
    INTEGER_ADDITIVE,
    Lebesgue,
    LinearFamily,
    POSITIVE_MULTIPLICATIVE,
    PointMass,
    RGroup,
    SupportEscapeError,
    TestFunction,
    bump,
    construct_measure,
    default_battery,
    gaussian,
    integrate,
    mollifier,
    parabola,
    pushforward_pairing,
    verify_center_null,
    triangle,
    verify_homogeneity,
)
from scaleflow import kernels, measures, quadrature
from scaleflow.measures import check_factor_multiplicative, factor_decay
from scaleflow.quadrature import Box, QuadratureGrid, UnderResolvedError


def test_integrate_unit_mass_bump():
    # quartic bump mass in 1d: width * integral of (1-u^2)^2 = 16 w / 15
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)))
    w = 1.0
    phi = bump([0.3], w)
    mass_oracle = 16.0 * w / 15.0
    oracle, _ = quad(lambda t: max(0.0, 1.0 - (t - 0.3) ** 2 / w**2) ** 2, -0.7, 1.3)
    assert oracle == pytest.approx(mass_oracle, rel=1e-12)
    unit = TestFunction("unit-bump", lambda p: phi(p) / mass_oracle, phi.support)
    value, estimate = integrate(hz, unit)
    assert abs(value - 1.0) <= 1e-8
    assert estimate <= 1e-8


def test_bump_has_the_bits_of_the_selected_square():
    # t = sum_a ((x_a - c_a) / w)^2, the parts of the tensor rule, at a
    # width that is not a power of two; computed in place, without the
    # select: off the ball 1 - min(t, 1) is +0.0 already
    phi = bump([0.3, -0.2], 0.7)
    grid = QuadratureGrid(phi.support, (48, 40), panel_order=8)
    scattered = np.random.default_rng(3).uniform(-1.0, 1.5, (4096, 2))
    for pts in (grid.points_and_weights()[0], scattered):
        x, y = np.asarray(pts).T
        t = ((x - 0.3) / 0.7) ** 2 + ((y + 0.2) / 0.7) ** 2
        selected = np.where(t < 1.0, (1.0 - np.minimum(t, 1.0)) ** 2, 0.0)
        values = phi(pts)
        assert values.tobytes() == selected.tobytes()
        assert (t >= 1.0).any() and not np.signbit(values).any()


def test_real_test_functions_keep_float64():
    # values keep the dtype their formula gives, on arrays and on tensor grids
    pts = np.array([[0.1, 0.2], [1.0, -0.5], [2.5, 0.3]])
    grid, _ = QuadratureGrid(Box((-1.0, -1.0), (1.0, 2.0)), (4, 5)).points_and_weights()
    battery = default_battery(2) + [mollifier([0.0, 0.5], 1.0),
                                     parabola(Box((0.0, 0.0), (1.0, 2.0)))]
    for phi in battery:
        assert phi(pts).dtype == np.float64
        assert phi(grid).dtype == np.float64 and phi(grid).shape == (20,)
    assert triangle(0.3, 0.7)(np.array([[0.1], [0.5]])).dtype == np.float64


def test_integrate_dirac():
    hz = Homogenizer.point_mass(DiagonalScaling((1, 1)), point=[0.5, -0.25])
    phi = gaussian([0.0, 0.0], 1.0)
    value, estimate = integrate(hz, phi)
    assert value == pytest.approx(math.exp(-(0.5**2 + 0.25**2) / 2.0), rel=1e-14)
    assert estimate == 0.0


def test_integrate_gaussian_2d_unit_mass():
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)))
    sigma = 0.8
    phi = gaussian([0.3, 0.3], sigma)

    def normalized(p):
        return phi(p) / (2.0 * math.pi * sigma**2)

    value, _ = integrate(hz, TestFunction("unit-gauss", normalized, phi.support))
    assert abs(value - 1.0) <= 1e-8


def test_pushforward_scaling_factor():
    # Lebesgue in 2d under x -> x/eps scales by eps^2: eps = 1/2 gives 1/4
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)))
    phi = gaussian([0.3, 0.3], 1.0)
    base, _ = integrate(hz, phi)
    for eps, factor in [(0.5, 0.25), (1.0, 1.0), (2.0, 4.0)]:
        value, _ = pushforward_pairing(hz, eps, phi)
        assert value == pytest.approx(factor * base, rel=1e-10)
        assert hz.factor_map(eps) == pytest.approx(factor, rel=1e-14)


def test_pushforward_dirac_center_invariant():
    hz = Homogenizer.point_mass(DiagonalScaling((1,)))
    phi = gaussian([0.0], 1.0)
    for eps in (0.25, 1.0, 4.0):
        value, _ = pushforward_pairing(hz, eps, phi)
        assert value == pytest.approx(1.0, rel=1e-14)  # phi(center) every time


def _homogeneous(hz, ladder, battery, tol: float) -> bool:
    """Every verify_homogeneity row's rel_err within tol, and the factor decays."""
    rows = verify_homogeneity(hz, ladder, battery)
    return all(row["rel_err"] <= tol for row in rows) and factor_decay(hz, ladder)[1]


def test_homogeneity_pass_and_negative_control():
    action = DiagonalScaling((1,))
    hz = Homogenizer.lebesgue(action, GridSpec(base_nodes=512))
    ladder = [2.0**-n for n in range(1, 9)]
    battery = default_battery(1)
    assert _homogeneous(hz, ladder, battery, 1e-6)
    wrong = dataclasses.replace(hz, factor_map=lambda eps: float(eps) ** 2)
    assert factor_decay(wrong, ladder)[1]
    assert not _homogeneous(wrong, ladder, battery, 1e-6)


def test_homogeneity_weighted_power_density():
    # substitution oracle: integral of phi(t/eps) t^(r-1) dt
    #                    = eps^r * integral of phi(u) u^(r-1) du, here r = 2
    action = DiagonalScaling((1,))
    hz = Homogenizer.weighted_power(action, power=1.0, grid_spec=GridSpec(base_nodes=1024))
    phi = gaussian([3.0], 0.5)
    base, _ = integrate(hz, phi)
    oracle_base, _ = quad(lambda t: math.exp(-((t - 3.0) ** 2) / 0.5) * t, 0.0, 10.0)
    assert base == pytest.approx(oracle_base, rel=1e-9)
    eps = 0.5
    value, _ = pushforward_pairing(hz, eps, phi)
    oracle_push, _ = quad(
        lambda t: math.exp(-((t / eps - 3.0) ** 2) / 0.5) * t, 0.0, 10.0
    )
    assert value == pytest.approx(oracle_push, rel=1e-9)
    assert value == pytest.approx(eps**2 * base, rel=1e-9)
    assert _homogeneous(hz, [0.5, 0.25, 0.125], [phi], 1e-6)


def test_no_invariant_measure_restated():
    # whenever the factor is away from 1 some battery entry must move
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)), GridSpec(base_nodes=512))
    battery = default_battery(1)
    for eps in (0.25, 0.5, 2.0):
        assert abs(hz.factor_map(eps) - 1.0) > 0.1
        worst = 0.0
        for phi in battery:
            base, _ = integrate(hz, phi)
            value, _ = pushforward_pairing(hz, eps, phi)
            worst = max(worst, abs(value - base) / abs(base))
        assert worst > 0.05


def test_factor_multiplicative():
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 2)))
    assert check_factor_multiplicative(hz) <= 1e-9


def test_homogeneity_error_within_refinement_estimate():
    # the semigroup path exercises genuine quadrature error; the identity
    # defect must stay within 3x the reported refinement estimates (plus a
    # roundoff floor: both integrals are exact well past the estimate)
    import numpy as np

    from scaleflow import ExpSemigroup

    p = np.array([[0.0, 0.4], [-0.3, 0.1]])
    action = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p)
    hz = Homogenizer.lebesgue(action, GridSpec(base_nodes=256))
    battery = default_battery(2)
    ladder = [-0.5, -1.0, -1.5]
    assert _homogeneous(hz, ladder, battery, 1e-6)
    for row in verify_homogeneity(hz, ladder, battery):
        floor = 1e-13 * max(abs(row["rhs"]), 1.0)
        assert row["abs_err"] <= 3.0 * row["quad_est"] * abs(row["rhs"]) + floor


def test_support_escape_detection():
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)))
    phi = gaussian([0.3], 1.0)
    # lie about the support so the integrand leaks past the grid boundary
    lying = TestFunction("lying", phi.fn, Box((-0.5,), (0.5,)))
    with pytest.raises(SupportEscapeError):
        pushforward_pairing(hz, 1.0, lying)


def test_support_outside_measure_domain_raises():
    # the power density lives on t >= 0; the bump sits on [-4, -2]
    hz = Homogenizer.weighted_power(DiagonalScaling((1,)), power=1.0)
    phi = bump([-3.0], 1.0)
    with pytest.raises(SupportEscapeError, match="misses the measure domain"):
        integrate(hz, phi)
    with pytest.raises(SupportEscapeError, match="misses the measure domain"):
        pushforward_pairing(hz, 0.5, phi)


# -- constructed measures -----------------------------------------------------


def _half_line_setup():
    group = RGroup(POSITIVE_MULTIPLICATIVE, 2.0)
    action = DiagonalScaling((1,), group=group)
    measure = construct_measure(action, PointMass([1.0]))
    return group, action, measure


def test_constructed_measure_matches_density_oracle():
    # substituting t = 1/eps in the orbit integral of the seed at 1 gives
    # the density t^(r-1) dt on the half line; r = 2 means the weight t
    _, _, measure = _half_line_setup()
    for center, sigma in [(3.0, 0.5), (2.0, 0.25), (5.0, 1.0)]:
        phi = gaussian([center], sigma)
        value, estimate = measure.pairing(phi)
        oracle, _ = quad(
            lambda t: math.exp(-((t - center) ** 2) / (2 * sigma**2)) * t,
            0.0, center + 14.0 * sigma,
        )
        assert abs(value - oracle) <= 1e-9 * abs(oracle)
        assert abs(value - oracle) <= max(estimate, 1e-12 * abs(oracle))


def test_constructed_measure_homogeneity():
    group, _, measure = _half_line_setup()
    hz = measure.as_homogenizer()
    battery = [gaussian([3.0], 0.5), gaussian([2.0], 0.25), bump([4.0], 2.0)]
    ladder = [2.0**-n for n in range(1, 9)]
    assert _homogeneous(hz, ladder, battery, 1e-5)
    assert hz.factor_map(0.5) == pytest.approx(0.25, rel=1e-14)  # c(s) = s^2


def test_constructed_measure_off_orbit_vanishes():
    # orbits of the seed at 1 fill the positive half line only; a compactly
    # supported test function on the negative axis pairs to exactly zero
    _, _, measure = _half_line_setup()
    phi = bump([-3.0], 1.0)
    value, _ = measure.pairing(phi)
    assert value == 0.0


def test_constructed_measure_linear_and_positive():
    _, _, measure = _half_line_setup()
    phi = gaussian([3.0], 0.5)
    psi = bump([2.0], 1.0)
    a = 2.5 - 1.5j
    left, _ = measure.pairing(
        TestFunction("combo", lambda p: a * phi(p) + psi(p), phi.support)
    )
    vp, _ = measure.pairing(phi)
    vq, _ = measure.pairing(psi)
    assert abs(left - (a * vp + vq)) <= 1e-10 * max(1.0, abs(a * vp + vq))
    assert vp.real >= 0.0 and vq.real >= 0.0


def test_constructed_measure_exhausted_sweep_raises(monkeypatch):
    # two blocks end the sweep far above the orbit radii that reach phi
    _, _, measure = _half_line_setup()
    monkeypatch.setattr(measures, "MAX_ORBIT_BLOCKS", 2)
    with pytest.raises(UnderResolvedError, match="after 2 blocks"):
        measure.pairing(gaussian([3.0], 0.5))


def _gauss_profile(center, sigma):
    return lambda t: math.exp(-((t - center) ** 2) / (2 * sigma**2))


@pytest.mark.parametrize("center, sigma", [(1.0, 0.25), (0.6, 0.15)])
def test_constructed_measure_real_additive_oracle(center, sigma):
    # H_eps x = exp(-2.5 eps) x with weight exp(-eps): substituting
    # t = exp(-2.5 eps) turns the orbit integral into 0.4 * phi(t) t^-0.6 dt
    action = ExpSemigroup.from_matrix(2.0, [[0.5]])
    measure = construct_measure(action, PointMass([1.0]))
    value, _ = measure.pairing(gaussian([center], sigma))
    profile = _gauss_profile(center, sigma)
    integral, _ = quad(
        lambda t: profile(t) * t**-0.6, 0.0, center + 14.0 * sigma, epsabs=0.0, epsrel=1e-12
    )
    oracle = 0.4 * integral
    assert abs(value - oracle) <= 1e-7 * oracle


def _uniform_seed_measure():
    group = RGroup(POSITIVE_MULTIPLICATIVE, 2.0)
    action = DiagonalScaling((1,), group=group)
    seed = Lebesgue(domain=Box((1.0,), (2.0,)))
    return construct_measure(action, seed)


def test_constructed_measure_uniform_seed_oracle():
    # each seed point s carries the density s^-2 * t dt (t = s / eps), so the
    # pairing is sum_k w_k s_k^-2 times the integral of phi(t) t
    measure = _uniform_seed_measure()
    assert measure.seed_nodes.shape == (128, 1)
    center, sigma = 3.0, 0.5
    value, _ = measure.pairing(gaussian([center], sigma))
    profile = _gauss_profile(center, sigma)
    moment, _ = quad(lambda t: profile(t) * t, 0.0, center + 14.0 * sigma,
                     epsabs=0.0, epsrel=1e-13)
    seed_mass = float(np.sum(measure.seed_weights * measure.seed_nodes[:, 0] ** -2))
    oracle = seed_mass * moment
    assert abs(value - oracle) <= 1e-12 * oracle


def test_constructed_measure_density_seed_scales_the_pairing():
    # a density 2 on the uniform seed's box doubles every seed weight, so
    # every block and the pairing double bit for bit
    group = RGroup(POSITIVE_MULTIPLICATIVE, 2.0)
    action = DiagonalScaling((1,), group=group)
    box = Box((1.0,), (2.0,))
    uniform = construct_measure(action, Lebesgue(domain=box))
    doubled = construct_measure(action, Lebesgue(lambda pts: np.full(len(pts), 2.0), box))
    phi = gaussian([3.0], 0.5)
    value, _ = doubled.pairing(phi)
    assert value == 2.0 * uniform.pairing(phi)[0]
    assert value.real == pytest.approx(3.7599089457378, rel=1e-12)


@pytest.mark.parametrize("seed", [Lebesgue.power_density(1.0), Lebesgue()],
                         ids=["half-line", "no-domain"])
def test_construct_measure_rejects_an_unbounded_seed(seed):
    action = DiagonalScaling((1,), group=RGroup(POSITIVE_MULTIPLICATIVE, 2.0))
    with pytest.raises(ValueError, match="seed measures need a finite domain box"):
        construct_measure(action, seed)


def test_constructed_measure_rejects_non_finite_orbit_value():
    # the orbit of 1 under n -> 2^-n passes 4 exactly (n = -2)
    group = RGroup(INTEGER_ADDITIVE, 0.5)
    action = LinearFamily(group=group, dimension=1,
                          matrix_fn=lambda n: np.array([[2.0**-n]]))
    measure = construct_measure(action, PointMass([1.0]))
    phi = gaussian([2.0], 0.5)
    spiked = TestFunction(
        "spiked", lambda p: np.where(p[:, 0] == 4.0, np.inf, phi.fn(p)), Box((0.0,), (8.0,))
    )
    with pytest.raises(ValueError, match="non-finite"):
        measure.pairing(spiked)


def test_constructed_measure_point_budget_slices_blocks(monkeypatch):
    # a small point budget splits each Haar block across several phi calls
    # without changing a bit of the result; should the budget constant be
    # renamed, raising=False leaves the sweep unbounded and the size check fails
    measure = _uniform_seed_measure()
    phi = gaussian([3.0], 0.5)
    expected = measure.pairing(phi)
    sizes = []

    def recording(pts):
        sizes.append(len(pts))
        return phi.fn(pts)

    monkeypatch.setattr(kernels, "POINT_BUDGET", 1000, raising=False)
    value = measure.pairing(TestFunction("recording", recording, phi.support))
    assert value == expected
    assert max(sizes) <= 1000


def test_constructed_measure_pairing_applies_parameter_columns(monkeypatch):
    # the sweep maps the seed nodes under a column of Haar nodes at a time:
    # every apply call carries an (E, 1) parameter column, and there is at
    # most one call per point-budget chunk (one phi call each)
    measure = _uniform_seed_measure()
    k = measure.seed_nodes.shape[0]
    calls = []
    apply = type(measure.action).apply

    def counting(self, eps, x):
        calls.append((np.shape(eps), np.shape(x)))
        return apply(self, eps, x)

    phi = gaussian([3.0], 0.5)
    chunks = []

    def recording(pts):
        chunks.append(len(pts))
        return phi.fn(pts)

    monkeypatch.setattr(kernels, "POINT_BUDGET", 1000, raising=False)
    monkeypatch.setattr(type(measure.action), "apply", counting)
    value, _ = measure.pairing(TestFunction("recording", recording, phi.support))
    assert value.real > 0.0
    assert 0 < len(calls) <= len(chunks)
    for eps_shape, x_shape in calls:
        assert x_shape == measure.seed_nodes.shape
        assert len(eps_shape) == 2 and eps_shape[1] == 1
        assert 1 <= eps_shape[0] <= 1000 // k


class _Stack:
    """J test functions on one support, evaluated as one (J, M) stack."""

    def __init__(self, rows, support):
        self.rows, self.support = rows, support

    def __call__(self, pts):
        return np.stack([np.ravel(row(pts)) for row in self.rows])


def test_constructed_measure_sweeps_each_row_of_a_stack_alone():
    # rows 0 and 2 fall quiet once the orbits pass the Gaussian at 3, while
    # row 1's mass near 1e6 keeps the sweep going: each row keeps the sums
    # its own sweep stopped at, so row 0 never takes the 1e-26 far tail
    # (about ten units in its last place) that its own sweep stops short of
    _, _, measure = _half_line_setup()
    g, far = gaussian([3.0], 0.5), gaussian([1e6], 2e5)
    rows = [lambda p: g(p) + 1e-26 * far(p), far, lambda p: np.cos(p[:, 0]) * g(p)]
    support = Box((2.5,), (3.5,))
    values, estimates = measure.pairing(_Stack(rows, support))
    assert values.shape == estimates.shape == (3,)
    for row, value, estimate in zip(rows, values, estimates):
        alone = measure.pairing(TestFunction("row", row, support))
        assert repr((complex(value), float(estimate))) == repr(alone)


def _integer_orbit_measure():
    # n -> 2^-n x on the integers, seeded at 1
    group = RGroup(INTEGER_ADDITIVE, 0.5)
    action = LinearFamily(group=group, dimension=1, matrix_fn=lambda n: np.array([[2.0**-n]]))
    return construct_measure(action, PointMass([1.0]))


def _factor_case(name):
    """A homogenizer whose factor map the one-pass check must match."""
    if name == "lebesgue":  # configs/homogeneity_r2.yaml
        return Homogenizer.lebesgue(DiagonalScaling((1, 1)))
    if name == "lebesgue-exp-semigroup":
        group = RGroup("real-additive", 4.0)
        return Homogenizer.lebesgue(ExpSemigroup.from_matrix(2.0, [[0.5, 0.2], [-0.1, 0.4]], group))
    if name == "weighted-power":
        return Homogenizer.weighted_power(DiagonalScaling((1,)), 1.5)
    if name == "additive-character":
        hz = Homogenizer.lebesgue(ExpSemigroup.from_matrix(1.0, [[0.0]]))
        return dataclasses.replace(hz, factor_map=hz.action.group.character(-1.3))
    if name == "point-mass":
        return Homogenizer.point_mass(DiagonalScaling((1, 2)), point=[0.3, -0.4])
    if name == "constructed":  # configs/construct_measure.yaml
        return _half_line_setup()[2].as_homogenizer()
    assert name == "constructed-integer"
    return _integer_orbit_measure().as_homogenizer()


def _reference_factor_defect(hz, sample_count, seed):
    # the per-pair loop the one-pass check must agree with bit for bit
    rng = random.Random(seed)
    group = hz.action.group
    eps1 = group.sample(rng, sample_count)
    eps2 = group.sample(rng, sample_count)
    worst = 0.0
    for a, b in zip(eps1.tolist(), eps2.tolist()):
        lhs = hz.factor_map(group.compose(a, b))
        rhs = hz.factor_map(a) * hz.factor_map(b)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return float(worst)


@pytest.mark.parametrize("name", ["lebesgue", "lebesgue-exp-semigroup", "weighted-power",
                                  "additive-character", "point-mass", "constructed",
                                  "constructed-integer"])
def test_factor_multiplicative_matches_per_pair_loop(name):
    # one pass of the factor map over all pairs reports the loop's defect
    hz = _factor_case(name)
    defect = check_factor_multiplicative(hz, seed=5)
    assert type(defect) is float
    assert repr(defect) == repr(_reference_factor_defect(hz, 128, 5))
    assert defect <= 1e-9
    params = hz.action.group.sample(random.Random(1), 6)
    single = [float(hz.factor_map(eps)) for eps in params.tolist()]
    assert hz.factor_map(params).tolist() == single


def _stack_case(name):
    """(homogenizer, ladder, battery) of one setting of the stacked pairing."""
    if name == "dirac-seed":  # configs/construct_measure.yaml
        _, _, measure = _half_line_setup()
        battery = [gaussian([3.0], 0.5), gaussian([2.0], 0.25), bump([4.0], 2.0)]
        return measure.as_homogenizer(), [2.0**-n for n in range(1, 9)], battery
    if name == "far-tail":
        # a tail of 1e-26 of a far Gaussian beyond the stated support: a row
        # that sweeps past its own stop picks it up in its last bits
        _, _, measure = _half_line_setup()
        g, far = gaussian([3.0], 0.5), gaussian([1e6], 2e5)
        tailed = TestFunction("tailed", lambda p: g(p) + 1e-26 * far(p), g.support)
        return measure.as_homogenizer(), [2.0**-n for n in range(1, 9)], [tailed]
    if name == "uniform-seed":
        measure = _uniform_seed_measure()
        battery = [gaussian([3.0], 0.5), bump([4.0], 2.0)]
        return measure.as_homogenizer(), [0.5, 0.25, 0.125], battery
    if name == "exp-semigroup-2d":
        group = RGroup("real-additive", 4.0)
        action = ExpSemigroup.from_matrix(2.0, [[0.5, 0.2], [-0.1, 0.4]], group)
        measure = construct_measure(action, PointMass([1.0, 0.5]))
        return measure.as_homogenizer(), [-0.5, -1.0, -1.5], [gaussian([1.5, 0.5], 0.4)]
    if name == "integer-group":
        measure = _integer_orbit_measure()
        battery = [bump([3.0], 1.5), gaussian([2.0], 0.5)]
        return measure.as_homogenizer(), [-1.0, -2.0, -3.0, -4.0], battery
    if name == "point-mass":
        hz = Homogenizer.point_mass(DiagonalScaling((1, 2)), point=[0.3, -0.4])
        return hz, [0.5, 0.25, 2.0], [bump([0.6, -0.6], 1.0), gaussian([0.5, -0.5], 2.0)]
    assert name == "lebesgue"
    hz = Homogenizer.lebesgue(DiagonalScaling((1,)), GridSpec(base_nodes=256))
    return hz, [0.5, 0.25], [bump([0.3], 1.0), mollifier([0.3], 0.7), gaussian([0.3], 0.5)]


STACK_CASES = ["dirac-seed", "far-tail", "uniform-seed", "exp-semigroup-2d", "integer-group",
               "point-mass", "lebesgue"]


@pytest.mark.parametrize("name", STACK_CASES)
def test_stacked_pushforward_rows_have_the_bits_of_each_element_alone(name):
    # one call over the ladder pairs every element, each row with the value
    # and estimate of its own call, on every measure type
    hz, ladder, battery = _stack_case(name)
    for phi in battery:
        values, estimates = pushforward_pairing(hz, np.array(ladder), phi)
        assert values.shape == estimates.shape == (len(ladder),)
        assert values.dtype == np.complex128 and estimates.dtype == np.float64
        for eps, value, estimate in zip(ladder, values.tolist(), estimates.tolist()):
            assert repr((value, estimate)) == repr(pushforward_pairing(hz, eps, phi))
    # the rows of the last entry are not one element's value repeated
    assert len(set(values.tolist())) == len(ladder)


def test_stacked_pushforward_sweeps_the_orbits_once(monkeypatch):
    # a constructed measure pairs the whole ladder by two orbit sweeps, the
    # coarse one and the refined one, whatever the ladder's length
    hz, ladder, (phi, *_) = _stack_case("dirac-seed")
    sweeps = []
    sweep = measures.ConstructedMeasure._sweep

    def counting(self, phi, radii, nodes_per_unit):
        sweeps.append(len(radii))
        return sweep(self, phi, radii, nodes_per_unit)

    monkeypatch.setattr(measures.ConstructedMeasure, "_sweep", counting)
    pushforward_pairing(hz, np.array(ladder), phi)
    assert sweeps == [len(ladder), len(ladder)]


def test_stacked_pushforward_point_budget_counts_every_row(monkeypatch):
    # with a small budget no phi call sees more values than the budget
    # across all rows of the stack, and no bit of any row moves
    hz, ladder, _ = _stack_case("uniform-seed")
    phi = gaussian([3.0], 0.5)
    expected = pushforward_pairing(hz, np.array(ladder), phi)
    sizes = []

    def recording(pts):
        sizes.append(len(pts))
        return phi.fn(pts)

    budget = 128 * len(ladder) * 5
    monkeypatch.setattr(kernels, "POINT_BUDGET", budget)
    recorded = TestFunction("recording", recording, phi.support)
    assert repr(pushforward_pairing(hz, np.array(ladder), recorded)) == repr(expected)
    assert max(sizes) <= budget
    assert max(sizes) == 128 * len(ladder) * 5  # five Haar nodes of every row per call


def test_orbit_sweep_rejects_a_support_per_row_of_the_wrong_count():
    _, _, measure = _half_line_setup()
    phi = gaussian([3.0], 0.5)
    stack = _Stack([phi, phi], (phi.support,) * 3)
    with pytest.raises(ValueError, match="3 supports for a stack of 2 rows"):
        measure.pairing(stack)


def test_constructed_measure_rejects_center_support():
    group = RGroup(POSITIVE_MULTIPLICATIVE, 2.0)
    action = DiagonalScaling((1,), group=group)
    with pytest.raises(ValueError):
        construct_measure(action, PointMass([0.0]))


# -- vanishing mass at the center ------------------------------------------------


def test_center_null_lebesgue_2d():
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=256))
    report = verify_center_null(hz)
    assert report.passed and not report.trivial
    # smoothed-indicator mass oracle on the disk: pi rho^2 / 3
    for rho, mass in report.masses:
        assert mass == pytest.approx(math.pi * rho**2 / 3.0, rel=1e-6)


def test_center_null_masses_are_integrates_values(monkeypatch):
    # each ball is paired by integrate, whatever the measure, so its mass is
    # integrate's value bit for bit, with or without a density
    radii = [1.0, 0.5, 0.25]
    spec = GridSpec(base_nodes=64)
    lebesgue = Homogenizer.lebesgue(DiagonalScaling((1, 1)), spec)
    weighted = Homogenizer.weighted_power(DiagonalScaling((1,)), power=1.0, grid_spec=spec)
    for hz in (lebesgue, weighted):
        report = verify_center_null(hz, radii)
        for (rho, mass), radius in zip(report.masses, radii):
            value, _ = integrate(hz, bump(hz.action.center(), radius))
            assert rho == radius and mass == abs(value)
    # a Lebesgue ball without a density takes the bump's own tensor rule,
    # never the node-by-node rule on the tensor grid
    masses = verify_center_null(lebesgue, radii).masses

    def tensor_grid(*args):
        raise AssertionError("a ball reached the tensor grid")

    monkeypatch.setattr(quadrature, "_node_rule", tensor_grid)
    assert verify_center_null(lebesgue, radii).masses == masses


def test_center_null_weighted_density():
    hz = Homogenizer.weighted_power(DiagonalScaling((1,)), power=1.0)
    report = verify_center_null(hz)
    assert report.passed
    # oracle: integral of (1-(t/rho)^2)^2 t dt over (0, rho) = rho^2 / 6
    for rho, mass in report.masses:
        assert mass == pytest.approx(rho**2 / 6.0, rel=1e-6)


def test_center_null_flags_point_mass():
    hz = Homogenizer.point_mass(DiagonalScaling((1, 1)))
    report = verify_center_null(hz)
    assert report.trivial and not report.passed
    assert all(m == pytest.approx(1.0) for _, m in report.masses)


def test_constructed_measure_integer_group():
    # counting-measure orbit sum: sum over n of phi(2^-n) * (1/2)^n
    import numpy as np

    from scaleflow import INTEGER_ADDITIVE, LinearFamily

    group = RGroup(INTEGER_ADDITIVE, 0.5)
    action = LinearFamily(group=group, dimension=1,
                          matrix_fn=lambda n: np.array([[2.0**-n]]))
    measure = construct_measure(action, PointMass([1.0]))
    phi = gaussian([2.0], 0.5)
    value, _ = measure.pairing(phi)
    oracle = sum(
        math.exp(-((2.0**-n - 2.0) ** 2) / 0.5) * 0.5**n for n in range(-90, 90)
    )
    assert value == pytest.approx(oracle, rel=1e-12)
    hz = measure.as_homogenizer()
    assert _homogeneous(hz, [-1.0, -2.0, -3.0, -4.0], [phi], 1e-8)
    assert hz.factor_map(-1.0) == pytest.approx(0.5, rel=1e-14)


def test_product_action_homogenizer():
    # componentwise scalings multiply their volume factors
    from scaleflow import product

    pair = product([DiagonalScaling((1,)), DiagonalScaling((2,))])
    hz = Homogenizer.lebesgue(pair, GridSpec(base_nodes=256))
    assert hz.factor_map(0.5) == pytest.approx(0.5**3, rel=1e-14)
    assert _homogeneous(hz, [0.5, 0.25, 0.125], default_battery(2), 1e-6)


def _mollifier_by_two_selects(center, width, pts):
    # the mollifier's formula with its exp taken at every point
    r2 = sum((x - c) ** 2 for x, c in zip(kernels.coordinates(pts), center)) / width**2
    inside = r2 < 1.0
    safe = np.where(inside, 1.0 - r2, 1.0)
    return np.ravel(np.where(inside, np.exp(1.0 - 1.0 / safe), 0.0))


def test_mollifier_has_the_bits_of_the_two_select_formula():
    # exp is taken on the support only and +0.0 written elsewhere; nodes at
    # r = 1 exactly and beyond it read +0.0 both ways
    c, width = 17 / 64, 0.5  # a midpoint node, and so is c + width
    center = [c, c]
    phi = mollifier(center, width)
    grid = QuadratureGrid(Box((-1.0, -1.0), (1.0, 1.0)), (64, 64))
    block, _ = grid.points_and_weights(8, 56)
    rng = np.random.default_rng(8)
    scattered = np.vstack([rng.uniform(-0.5, 1.0, size=(400, 2)),
                           [[c + width, c], [c, c - width], [0.9, 0.9]]])
    for pts in (block, scattered):
        r2 = np.ravel(sum((x - c) ** 2 for x, c in zip(kernels.coordinates(pts), center)))
        assert (r2 == width**2).any() and (r2 > width**2).any() and (r2 < width**2).any()
        assert phi(pts).tobytes() == _mollifier_by_two_selects(center, width, pts).tobytes()
    assert not np.signbit(phi(scattered)).any()


def test_homogeneity_quad_est_bounds_each_of_its_parts():
    # quad_est is (lhs_est + c base_est) / scale: at least each nonnegative
    # part over scale, so neither estimate can cancel the other
    hz = Homogenizer.lebesgue(DiagonalScaling((1, 1)), GridSpec(base_nodes=512))
    ladder = [2.0, 1.0, 0.5]
    battery = [gaussian([0.3, 0.3], 0.5), bump([0.3, 0.3], 2.0)]
    rows = verify_homogeneity(hz, ladder, battery)
    both = 0
    for i, phi in enumerate(battery):
        base, base_est = integrate(hz, phi)
        _, lhs_ests = pushforward_pairing(hz, np.asarray(ladder), phi)
        for row, eps, lhs_est in zip(rows[3 * i : 3 * i + 3], ladder, lhs_ests.tolist()):
            c = float(hz.factor_map(eps))
            scale = max(abs(c * base), 1e-300)
            assert row["quad_est"] >= lhs_est / scale
            assert row["quad_est"] >= c * base_est / scale
            both += lhs_est > 0.0 and c * base_est > 0.0
    assert both  # some row has two positive parts, so a sign flip shows


def test_constructed_measure_estimate_bounds_its_tail_and_its_refinement():
    # the estimate is |fine - coarse| + tail_cut * peak: at least each part
    cm = construct_measure(DiagonalScaling((1,)), PointMass([1.0]))
    phi = gaussian([3.0], 0.5)
    radii = [measures._bounding_radius(phi.support)]
    coarse, peak = cm._sweep(phi, radii, measures.ORBIT_NODES_PER_UNIT)
    fine, _ = cm._sweep(phi, radii, 2 * measures.ORBIT_NODES_PER_UNIT)
    value, estimate = cm.pairing(phi)
    assert value == fine
    assert abs(fine - coarse) > 0.0 and cm.tail_cut * peak > 0.0
    assert estimate >= abs(fine - coarse) and estimate >= cm.tail_cut * peak
