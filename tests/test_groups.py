"""Group structure, weight homomorphisms and tail masses.

Tail-mass oracles are recomputed here by adaptive quadrature / series
summation, independently of the closed forms under test.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from scaleflow import (
    INTEGER_ADDITIVE,
    POSITIVE_MULTIPLICATIVE,
    REAL_ADDITIVE,
    RGroup,
)

ALL_KINDS = [REAL_ADDITIVE, POSITIVE_MULTIPLICATIVE, INTEGER_ADDITIVE]


def sample_elements(group, count=24):
    rng = np.random.default_rng(1)
    if group.kind == POSITIVE_MULTIPLICATIVE:
        return np.exp(rng.uniform(-3, 3, count))
    if group.kind == INTEGER_ADDITIVE:
        return rng.integers(-8, 9, count).astype(float)
    return rng.uniform(-5, 5, count)


def test_identities_and_infima():
    assert RGroup(REAL_ADDITIVE).identity == 0.0
    assert RGroup(REAL_ADDITIVE).theta == -math.inf
    assert RGroup(POSITIVE_MULTIPLICATIVE).identity == 1.0
    assert RGroup(POSITIVE_MULTIPLICATIVE).theta == 0.0
    assert RGroup(INTEGER_ADDITIVE).identity == 0.0
    assert RGroup(INTEGER_ADDITIVE).theta == -math.inf


def test_compose_inverse_compare():
    g = RGroup(REAL_ADDITIVE)
    assert g.compose(2.0, 3.0) == 5.0
    m = RGroup(POSITIVE_MULTIPLICATIVE)
    assert m.compose(0.5, 4.0) == 2.0
    assert m.inverse(4.0) == 0.25
    assert g.inverse(3.0) == -3.0
    for kind in ALL_KINDS:
        grp = RGroup(kind)
        e = grp.identity
        assert grp.compose(2.0 if kind != INTEGER_ADDITIVE else 2, e) in (2.0, 2)
    assert m.compare(0.1, 1.0) == -1
    assert m.compare(1.0, 0.1) == 1
    assert m.compare(1.0, 1.0) == 0


def test_weight_values():
    # weight at the identity is 1 for every homomorphism
    assert RGroup(REAL_ADDITIVE, 1.0).weight(0.0) == 1.0
    assert RGroup(POSITIVE_MULTIPLICATIVE, 2.0).weight(0.5) == pytest.approx(4.0, abs=0)
    assert RGroup(INTEGER_ADDITIVE, 0.5).weight(3) == pytest.approx(0.125, abs=0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weights_match_weight(kind):
    # weight of an array is the weight of each entry, bit for bit; one
    # element gives a Python float
    group = RGroup(kind)
    elems = sample_elements(group, 64)
    singles = [group.weight(e) for e in elems]
    assert all(type(w) is float for w in singles)
    batched = group.weight(elems)
    assert batched.dtype == np.float64 and batched.shape == (64,)
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(group.weight(elems.reshape(8, 8)), batched.reshape(8, 8))


_NON_MEMBERS = [
    (REAL_ADDITIVE, math.nan), (REAL_ADDITIVE, math.inf),
    (POSITIVE_MULTIPLICATIVE, math.nan), (POSITIVE_MULTIPLICATIVE, math.inf),
    (POSITIVE_MULTIPLICATIVE, 0.0), (POSITIVE_MULTIPLICATIVE, -2.0),
    (INTEGER_ADDITIVE, math.nan), (INTEGER_ADDITIVE, -math.inf), (INTEGER_ADDITIVE, 0.5),
]


@pytest.mark.parametrize("kind,bad", _NON_MEMBERS)
def test_validate_many_rejects_what_validate_rejects(kind, bad):
    # an array is validated as its entries are: it rejects exactly the
    # non-members, naming the first bad entry
    group = RGroup(kind)
    elems = list(sample_elements(group, 4))
    checked = group.validate(elems)
    assert checked.dtype == np.float64
    np.testing.assert_array_equal(checked, elems)
    assert type(group.validate(elems[0])) is float
    assert type(group.validate(np.float64(elems[0]))) is float
    with pytest.raises(ValueError):
        group.validate(bad)
    with pytest.raises(ValueError) as list_error:
        group.validate(elems[:2] + [bad] + elems[2:])
    later = {REAL_ADDITIVE: math.nan, POSITIVE_MULTIPLICATIVE: -7.0, INTEGER_ADDITIVE: 2.5}[kind]
    with pytest.raises(ValueError) as column_error:
        group.validate(np.array(elems[:2] + [bad, later] + elems[2:])[:, None])
    if math.isfinite(bad):
        assert str(list_error.value).startswith(f"{bad} is not")
        assert str(column_error.value).startswith(f"{bad} is not")


def test_domain_validation():
    m = RGroup(POSITIVE_MULTIPLICATIVE)
    with pytest.raises(ValueError):
        m.validate(-1.0)
    with pytest.raises(ValueError):
        m.validate(0.0)
    z = RGroup(INTEGER_ADDITIVE)
    with pytest.raises(ValueError):
        z.validate(0.5)
    with pytest.raises(ValueError):
        RGroup(INTEGER_ADDITIVE, 1.5)
    with pytest.raises(ValueError):
        RGroup(REAL_ADDITIVE, -2.0)
    with pytest.raises(ValueError):
        RGroup("bogus")


def test_tail_mass_against_quadrature_oracles():
    # real-additive, r=1, alpha=0: integral of exp(-t) over [0, inf) = 1
    g = RGroup(REAL_ADDITIVE, 1.0)
    oracle, _ = quad(lambda t: math.exp(-t), 0.0, np.inf)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert g.tail_mass(0.0) == pytest.approx(oracle, rel=1e-12)

    # positive-multiplicative, r=2, alpha=1: integral of t^-2 * dt/t = 1/2
    m = RGroup(POSITIVE_MULTIPLICATIVE, 2.0)
    oracle, _ = quad(lambda t: t**-3, 1.0, np.inf)
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert m.tail_mass(1.0) == pytest.approx(oracle, rel=1e-12)

    # integer-additive, a=1/2, alpha=0: geometric series sums to 2
    z = RGroup(INTEGER_ADDITIVE, 0.5)
    oracle = sum(0.5**n for n in range(0, 200))
    assert oracle == pytest.approx(2.0, abs=1e-12)
    assert z.tail_mass(0) == pytest.approx(oracle, rel=1e-12)

    # generic parameters stay consistent with quadrature
    g = RGroup(REAL_ADDITIVE, 1.7)
    oracle, _ = quad(lambda t: math.exp(-1.7 * t), -2.0, np.inf)
    assert g.tail_mass(-2.0) == pytest.approx(oracle, rel=1e-10)
    m = RGroup(POSITIVE_MULTIPLICATIVE, 0.8)
    oracle, _ = quad(lambda t: t ** (-0.8 - 1.0), 3.0, np.inf)
    assert m.tail_mass(3.0) == pytest.approx(oracle, rel=1e-10)


def test_tail_threshold_inverts_tail_mass():
    for group in (RGroup(REAL_ADDITIVE, 2.0), RGroup(POSITIVE_MULTIPLICATIVE, 1.5)):
        alpha = group.tail_threshold(1e-10)
        assert group.tail_mass(alpha) == pytest.approx(1e-10, rel=1e-9)
    z = RGroup(INTEGER_ADDITIVE, 0.5)
    alpha = z.tail_threshold(1e-10)
    assert z.tail_mass(alpha) <= 1e-10
    assert z.tail_mass(alpha - 1) > 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_group_axioms_on_samples(kind):
    group = RGroup(kind)
    elems = sample_elements(group, 12)
    e = group.identity
    for a in elems:
        assert group.compose(a, group.inverse(a)) == pytest.approx(e, abs=1e-12)
        assert group.compose(a, e) == pytest.approx(a, abs=1e-12)
        for b in elems[:6]:
            assert group.compose(a, b) == pytest.approx(group.compose(b, a), abs=1e-12)
            for c in elems[:3]:
                lhs = group.compose(group.compose(a, b), c)
                rhs = group.compose(a, group.compose(b, c))
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_order_compatibility(kind):
    group = RGroup(kind)
    elems = sorted(sample_elements(group, 10))
    for s in elems[:5]:
        composed = [group.compose(a, s) for a in elems]
        assert all(x <= y + 1e-12 for x, y in zip(composed, composed[1:]))


@given(
    a=st.floats(min_value=-3, max_value=3, allow_nan=False),
    b=st.floats(min_value=-3, max_value=3, allow_nan=False),
    r=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_weight_homomorphism_real_additive(a, b, r):
    group = RGroup(REAL_ADDITIVE, r)
    lhs = group.weight(group.compose(a, b))
    rhs = group.weight(a) * group.weight(b)
    assert abs(lhs - rhs) <= 1e-12 * rhs


@given(
    a=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    b=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    r=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_weight_homomorphism_multiplicative(a, b, r):
    group = RGroup(POSITIVE_MULTIPLICATIVE, r)
    lhs = group.weight(group.compose(a, b))
    rhs = group.weight(a) * group.weight(b)
    assert abs(lhs - rhs) <= 1e-12 * rhs


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_tail_mass_decreasing_and_vanishing(kind):
    group = RGroup(kind)
    alphas = [float(v) for v in ([-4, -2, 0, 2, 4, 8, 16] if kind != POSITIVE_MULTIPLICATIVE
                                 else [0.25, 1, 4, 16, 64, 256, 1024])]
    masses = [group.tail_mass(a) for a in alphas]
    assert all(math.isfinite(m) and m > 0 for m in masses)
    assert all(x > y for x, y in zip(masses, masses[1:]))
    assert masses[-1] < 1e-2 * masses[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_ladder_shapes(kind):
    group = RGroup(kind)
    ladder = group.ladder(10)
    assert len(ladder) == 10
    assert all(x > y for x, y in zip(ladder, ladder[1:]))
    assert all(group.compare(x, group.identity) <= 0 for x in ladder)
    if kind == POSITIVE_MULTIPLICATIVE:
        assert ladder[0] == 0.5 and ladder[-1] == 2.0**-10


def _reference_sample(group, rng, count, window=None):
    # the parameter sampler drawn one element at a time from random.Random
    if group.kind == POSITIVE_MULTIPLICATIVE:
        w = 2.0 if window is None else window
        return np.exp(np.array([rng.uniform(-w, w) for _ in range(count)]))
    if group.kind == REAL_ADDITIVE:
        w = 3.0 if window is None else window
        return np.array([rng.uniform(-w, w) for _ in range(count)])
    hi = 6 if window is None else max(1, int(window))
    return np.array([float(rng.randrange(-hi, hi + 1)) for _ in range(count)])


@pytest.mark.parametrize("window", [None, 0.7, 2.5])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_matches_reference_bit_for_bit(kind, window):
    group = RGroup(kind)
    got = group.sample(random.Random(3), 50, window)
    want = _reference_sample(group, random.Random(3), 50, window)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    group.validate(got)


# First draws of seed 0, two calls in a row as the certificates take eps1
# and then eps2.  Python keeps only random()'s stream across versions, not
# uniform's or randrange's, so a change there must fail here.
PINNED_SAMPLES = {
    REAL_ADDITIVE: ([2.0665311091502883, 1.5477264176418153, -0.47657051501493],
                    [-1.44649949824222, 0.0676483282116509]),
    POSITIVE_MULTIPLICATIVE: ([3.9657199151167384, 2.8061617146668896, 0.7278111478907403],
                              [0.3812374007467805, 1.0461313019842904]),
    INTEGER_ADDITIVE: ([0.0, 6.0, 0.0], [-6.0, -2.0]),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_draws_are_pinned(kind):
    rng = random.Random(0)
    group = RGroup(kind)
    got = (group.sample(rng, 3).tolist(), group.sample(rng, 2).tolist())
    assert got == PINNED_SAMPLES[kind]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_haar_blocks_integrate_the_weight(kind):
    # the blocks tile the group downward from tail_threshold(mass), so their
    # weighted sum is the closed-form Haar mass of h between the block ends
    group = RGroup(kind, 0.5 if kind == INTEGER_ADDITIVE else 1.5)
    blocks = list(group.haar_blocks(1e-6, nodes_per_unit=48, count=3))
    assert len(blocks) == 3
    total = sum(float(np.dot(w, group.weight(params))) for params, w in blocks)
    top = group.tail_threshold(1e-6)
    upper = top
    if kind == INTEGER_ADDITIVE:
        # counting measure: the top block ends at top itself
        lowest, upper = float(blocks[-1][0][0]), top + 1.0
        assert [b[0][-1] for b in blocks] == [top, top - 8, top - 16]
        assert all(np.all(np.diff(params) == 1.0) and np.all(w == 1.0) for params, w in blocks)
    else:
        lowest = top * math.exp(-12.0) if kind == POSITIVE_MULTIPLICATIVE else top - 12.0
        assert all(np.all(params > lowest * (1 - 1e-12) - 1e-12) for params, _ in blocks)
    expected = group.tail_mass(lowest) - group.tail_mass(upper)
    assert total == pytest.approx(expected, rel=1e-12)


def test_ladder_scale_and_character():
    m, g, z = RGroup(POSITIVE_MULTIPLICATIVE), RGroup(REAL_ADDITIVE), RGroup(INTEGER_ADDITIVE)
    # log of the scale is the Haar coordinate: log(eps) on R+*, eps otherwise
    assert m.ladder_scale(0.25) == 0.25
    assert g.ladder_scale(-2.0) == math.exp(-2.0)
    assert z.ladder_scale(-3.0) == math.exp(-3.0)
    for group, a, b in ((m, 0.3, 4.0), (g, -1.2, 0.7), (z, -2.0, 5.0)):
        chi = group.character(1.7)
        assert chi(group.identity) == 1.0
        assert chi(group.compose(a, b)) == pytest.approx(chi(a) * chi(b), rel=1e-14)
    assert m.character(2.0)(0.5) == 0.25
    assert g.character(2.0)(-1.0) == math.exp(-2.0)
