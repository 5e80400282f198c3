"""Lipschitz bounds, submultiplicativity and fixed-point location."""

import math
import random

import numpy as np
import pytest

from scaleflow import (
    DiagonalScaling,
    ExpSemigroup,
    certify_submultiplicative,
    fixed_point,
    product,
)
from scaleflow.actions import Action
from scaleflow.contraction import SUBMULT_SLACK
from scaleflow.groups import POSITIVE_MULTIPLICATIVE, RGroup


def test_lipschitz_exact_values():
    action = DiagonalScaling((1, 2))
    # operator norm of diag(1/eps, 1/eps^2) at eps = 1/2
    assert action.operator_norm(0.5) == pytest.approx(4.0, rel=1e-14)
    assert action.operator_norm(1.0) == pytest.approx(1.0, abs=1e-14)  # identity parameter
    decay = ExpSemigroup.from_matrix(1.0, np.zeros((1, 1)))
    assert decay.operator_norm(1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
    assert decay.operator_norm(0.0) == pytest.approx(1.0, abs=1e-13)


def test_submultiplicative_reports():
    report = certify_submultiplicative(DiagonalScaling((1,)))
    assert report.worst_excess <= SUBMULT_SLACK and report.decay_ok
    rng = np.random.default_rng(5)
    p = rng.normal(size=(3, 3))
    semigroup = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p)
    report = certify_submultiplicative(semigroup, sample_count=400)
    assert report.worst_excess <= SUBMULT_SLACK and report.decay_ok
    assert report.worst_excess <= 1e-9
    assert report.decay_monotone and report.bounded
    # identity factor reduces the inequality to equality
    action = DiagonalScaling((1, 3))
    group = action.group
    for eps in (0.3, 1.0, 2.5):
        lab = action.operator_norm(group.compose(eps, group.identity))
        assert lab == pytest.approx(action.operator_norm(eps), rel=1e-14)


def _reference_submultiplicative(action, sample_count, seed, ladder):
    # the per-pair loop the batched certificate must agree with bit for bit
    group = action.group
    rng = random.Random(seed)
    eps1 = group.sample(rng, sample_count)
    eps2 = group.sample(rng, sample_count)
    worst = 0.0
    for a, b in zip(eps1, eps2):
        lab = action.operator_norm(group.compose(a, b))
        la, lb = action.operator_norm(a), action.operator_norm(b)
        worst = max(worst, float((lab - la * lb) / max(la * lb, 1e-300)))
    decay = [(float(e), action.operator_norm(group.inverse(e))) for e in ladder]
    return worst, decay


@pytest.mark.parametrize("exponents", [(1,), (1, 2), (2, 1, 3)], ids=["N=1", "N=2", "N=3"])
def test_submultiplicative_matches_per_pair_loop(exponents):
    action = DiagonalScaling(exponents)
    ladder = action.group.ladder(12)
    report = certify_submultiplicative(action, sample_count=500, seed=7, ladder=ladder)
    worst, decay = _reference_submultiplicative(action, 500, 7, ladder)
    assert (report.worst_excess, report.decay) == (worst, decay)
    assert report.decay_final == decay[-1][1]
    assert type(report.worst_excess) is float and type(report.decay_final) is float


def test_submultiplicative_rejects_no_samples():
    with pytest.raises(ValueError, match="sample_count"):
        certify_submultiplicative(DiagonalScaling((1,)), sample_count=0)


def test_fixed_point_diagonal_halving():
    action = DiagonalScaling((1,))
    result = fixed_point(action, 0.5, np.array([8.0]), tol=1e-12)
    assert np.linalg.norm(result.point) <= 1e-11
    assert result.residual <= 1e-12
    # the inverse parameter scales by exactly 1/2 per step
    assert result.contraction_bound == pytest.approx(0.5, rel=1e-14)
    assert all(abs(r - 0.5) <= 1e-9 for r in result.step_ratios)
    assert result.cross_parameter_distance <= 2e-12


def test_fixed_point_exp_semigroup_any_start():
    rng = np.random.default_rng(2)
    p = rng.normal(size=(3, 3))
    action = ExpSemigroup.from_matrix(np.linalg.norm(p, 2) + 1.0, p)
    bound = action.operator_norm(1.0)  # parameter -1 has inverse +1
    for _ in range(5):
        x0 = rng.uniform(-10, 10, size=3)
        result = fixed_point(action, -1.0, x0, tol=1e-12)
        assert np.linalg.norm(result.point) <= 1e-11
        assert all(r <= bound + 1e-9 for r in result.step_ratios)


def test_fixed_point_rejects_expanding_parameter():
    action = DiagonalScaling((1,))
    with pytest.raises(ValueError):
        fixed_point(action, 2.0, np.array([1.0]))  # l(eps^-1) = 2 >= 1


# (action, eps) with l(eps^-1) < 1: the diagonal maps scale each row alone,
# the others map it by its matrix
_FIXED_POINT_CASES = {
    "diagonal-N=1": (DiagonalScaling((1,)), 0.5),
    "diagonal-N=2": (DiagonalScaling((1, 2)), 0.5),
    "diagonal-N=3": (DiagonalScaling((2, 1, 3)), 0.7),
    "exp-semigroup-2d": (ExpSemigroup.from_matrix(2.0, [[0.5, 0.2], [-0.1, 0.4]]), -1.0),
    "product": (product([DiagonalScaling((1,)), DiagonalScaling((2,))]), 0.5),
}


@pytest.mark.parametrize("name", sorted(_FIXED_POINT_CASES))
def test_batched_fixed_point_rows_have_the_bits_of_one_start_calls(name):
    # a stack of starts iterates as one, each row stopping at its own step
    action, eps = _FIXED_POINT_CASES[name]
    starts = np.random.default_rng(len(name)).uniform(-8.0, 8.0, size=(6, action.dimension))
    starts[2] = action.center()
    results = fixed_point(action, eps, starts)
    assert isinstance(results, list) and len(results) == len(starts)
    for start, result in zip(starts, results):
        assert repr(result) == repr(fixed_point(action, eps, start))
    # the start at the center stops at once; the others take their own counts
    assert (results[2].iterations, results[2].step_ratios) == (1, [])
    assert len({r.iterations for r in results}) > 2


def test_batched_fixed_point_fails_a_row_alone():
    # with too few iterations for the far starts, each fails with its own
    # one-start error while the near starts and the center pass
    action = DiagonalScaling((1,))
    starts = np.array([[8.0], [1e-10], [0.0], [-6.0]])
    results = fixed_point(action, 0.5, starts, max_iter=20)
    for start, result in zip(starts, results):
        if abs(start[0]) > 1.0:
            with pytest.raises(RuntimeError) as alone:
                fixed_point(action, 0.5, start, max_iter=20)
            assert type(result) is RuntimeError and str(result) == str(alone.value)
            assert str(result) == "no convergence after 20 iterations: contraction fails at eps=0.5"
        else:
            assert repr(result) == repr(fixed_point(action, 0.5, start, max_iter=20))


def test_batched_fixed_point_rejects_an_expanding_parameter_once():
    with pytest.raises(ValueError, match="not a contraction"):
        fixed_point(DiagonalScaling((1,)), 2.0, np.ones((3, 1)))
    with pytest.raises(ValueError, match="stack"):
        fixed_point(DiagonalScaling((1,)), 0.5, np.ones((2, 3, 1)))


class _OpaqueScaling(Action):
    """Linear map exposed only through pointwise application."""

    def __init__(self, factor_map):
        self.group = RGroup(POSITIVE_MULTIPLICATIVE)
        self.dimension = 1
        self._factor = factor_map

    def apply(self, eps, x):
        return np.asarray(x) * self._factor(eps)


def test_lipschitz_without_matrix_raises():
    # a sampled ratio would only bound the constant from below
    action = _OpaqueScaling(lambda e: 1.0 / e)
    with pytest.raises(NotImplementedError):
        action.operator_norm(0.25)
