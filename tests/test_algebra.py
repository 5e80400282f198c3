"""Trigonometric polynomials and spectral homogenization algebras."""

import math

import numpy as np
import pytest

from scaleflow import (
    HAlgebra,
    TrigPolynomial,
    TruncationOverflowError,
    spectral_pairing,
    gelfand_mean,
)
from scaleflow.meanvalue import MeanFunction, mean

ROOT2 = math.sqrt(2.0)


# -- trig polynomials -------------------------------------------------------


def test_trig_evaluation_matches_direct_sum():
    p = TrigPolynomial.from_terms([([1.0], 2.0), ([-1.0], 2.0), ([0.0], -1.0)])
    xs = np.linspace(-1, 1, 17)
    direct = 2 * np.exp(2j * np.pi * xs) + 2 * np.exp(-2j * np.pi * xs) - 1.0
    assert np.max(np.abs(p(xs) - direct)) <= 1e-13


def test_trig_terms_and_repr_are_plain_python_numbers():
    p = TrigPolynomial.from_terms([([0.5, -1.0], 2.0), ([0.0, 0.0], 1j)])
    terms = p.terms()
    assert terms == [((0.0, 0.0), 1j), ((0.5, -1.0), 2 + 0j)]
    assert all(type(f) is float for freq, _ in terms for f in freq)
    assert all(type(c) is complex for _, c in terms)
    assert repr(p) == "TrigPolynomial(0+1j*e((0.0, 0.0)), 2+0j*e((0.5, -1.0)))"


def test_trig_merges_duplicates_and_sorts():
    p = TrigPolynomial.from_terms([([1.0], 1.0), ([1.0], 2.0), ([0.0], 1.0)])
    assert p.freqs.shape == (2, 1)
    assert p.coefficient([1.0]) == 3.0 + 0j


def test_sine_cosine_spectra():
    # Euler expansion: sin(2 pi x) has frequencies +-1 with coefficients -+ i/2
    s = TrigPolynomial.sine([1.0])
    assert s.coefficient([1.0]) == pytest.approx(-0.5j)
    assert s.coefficient([-1.0]) == pytest.approx(0.5j)
    xs = np.linspace(0, 1, 9)
    assert np.max(np.abs(s(xs) - np.sin(2 * np.pi * xs))) <= 1e-13


def test_trig_product_by_hand():
    # (1 + e)^2 = 1 + 2 e + e^2 with e the unit character
    one_plus_e = TrigPolynomial.from_terms([([0.0], 1.0), ([1.0], 1.0)])
    squared = one_plus_e * one_plus_e
    assert squared.coefficient([0.0]) == 1.0
    assert squared.coefficient([1.0]) == 2.0
    assert squared.coefficient([2.0]) == 1.0
    assert squared.coefficient([3.0]) == 0.0


def test_trig_translate_phases():
    p = TrigPolynomial.from_terms([([0.0], 3.0), ([1.0], 2.0)])
    shifted = p.translate([0.25])
    assert shifted.coefficient([0.0]) == 3.0  # zero frequency is unmoved
    assert shifted.coefficient([1.0]) == pytest.approx(2.0 * np.exp(-0.5j * np.pi))
    xs = np.linspace(-1, 1, 11)
    assert np.max(np.abs(shifted(xs) - p(xs - 0.25))) <= 1e-13


def test_trig_translate_phases_are_summed_left_to_right():
    # <k, shift> is f_0 s_0 + f_1 s_1 in that order, not a BLAS product,
    # whose bits can differ with the kernel
    rng = np.random.default_rng(11)
    p = TrigPolynomial(rng.uniform(-50.0, 50.0, size=(200, 2)),
                       rng.normal(size=200) + 1j * rng.normal(size=200))
    s0, s1 = rng.uniform(-1.0, 1.0, size=2).tolist()
    phases = np.array([f0 * s0 + f1 * s1 for f0, f1 in p.freqs.tolist()])
    expected = p.coeffs * np.exp(-2j * np.pi * phases)
    assert np.array_equal(p.translate([s0, s1]).coeffs, expected)


def test_trig_conjugate_and_compose():
    p = TrigPolynomial.from_terms([([1.0, 0.0], 1 + 2j), ([0.0, 2.0], -1j)])
    q = p.conjugate()
    pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
    assert np.max(np.abs(q(pts) - np.conj(p(pts)))) <= 1e-13
    a = np.array([[2.0, 0.0], [1.0, 1.0]])
    composed = p.compose_linear(a)
    assert np.max(np.abs(composed(pts) - p(pts @ a.T))) <= 1e-12


def test_compose_linear_sums_frequencies_in_order():
    # the pulled-back frequencies are sum_i k_i a_ij added left to right, the
    # same bits on every BLAS kernel, not those of a matrix product
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3))
    freqs = rng.integers(-5, 6, size=(6, 3)).astype(float)
    composed = TrigPolynomial(freqs, np.ones(6)).compose_linear(a)
    expected = [[sum(k[i] * a[i, j] for i in range(3)) for j in range(3)] for k in freqs]
    assert sorted(map(tuple, composed.freqs.tolist())) == sorted(map(tuple, expected))


# -- algebras ----------------------------------------------------------------


def test_periodic_admissibility():
    alg = HAlgebra.periodic_lattice(1)
    assert alg.admissible([3.0])
    assert alg.admissible([0.0])
    assert not alg.admissible([0.5])
    # the message names the frequency as plain floats, not numpy reprs
    with pytest.raises(ValueError) as err:
        alg.element(TrigPolynomial.character([-0.5]))
    assert str(err.value) == "frequency (-0.5,) is not admissible in this algebra"


def test_subgroup_admissibility():
    alg = HAlgebra.subgroup([[1.0], [ROOT2]], degree=8)
    assert alg.admissible([1.0])
    assert alg.admissible([ROOT2])
    assert alg.admissible([1.0 + ROOT2])
    assert alg.admissible([3.0 - 2.0 * ROOT2])
    assert not alg.admissible([0.5])
    assert alg.coordinates([2.0 + 3.0 * ROOT2]) == (2, 3)


def test_subgroup_rejects_zero_generator():
    # a zero generator spans nothing and leaves no oscillation to sample
    with pytest.raises(ValueError, match="nonzero entry"):
        HAlgebra.subgroup([[0.0]])
    with pytest.raises(ValueError, match="nonzero entry"):
        HAlgebra.subgroup([[1.0, 0.0], [0.0, 1e-13]])
    assert HAlgebra.subgroup([[1.0, 0.0], [0.0, ROOT2]]).admissible([1.0, ROOT2])


def test_constants_and_conjugation_closed():
    for alg in (HAlgebra.periodic_lattice(2), HAlgebra.subgroup([[1.0], [ROOT2]])):
        assert alg.admissible([0.0] * alg.dimension)  # constants always present
        u = alg.constant(1.0)
        assert gelfand_mean(u) == 1.0
        v = alg.from_terms([([1.0] + [0.0] * (alg.dimension - 1), 2.0 + 1j)])
        assert gelfand_mean(v.conjugate()) == np.conj(gelfand_mean(v))


def test_multiply_character_law():
    alg = HAlgebra.periodic_lattice(1)
    e_plus = alg.element(TrigPolynomial.character([1.0]))
    e_minus = alg.element(TrigPolynomial.character([-1.0]))
    product = e_plus * e_minus
    assert product.poly.coefficient([0.0]) == 1.0
    one = alg.constant(1.0)
    u = alg.from_terms([([2.0], 3.0 - 1j), ([0.0], 0.5)])
    assert np.allclose((u * one).poly.coeffs, u.poly.coeffs)


def test_multiply_truncation_overflow():
    alg = HAlgebra.subgroup([[1.0]], degree=2)
    edge = alg.element(TrigPolynomial.character([2.0]))
    with pytest.raises(TruncationOverflowError):
        edge * edge
    inside = alg.element(TrigPolynomial.character([1.0]))
    assert (inside * inside).poly.coefficient([2.0]) == 1.0


def test_gelfand_mean_values():
    alg = HAlgebra.periodic_lattice(1)
    assert gelfand_mean(alg.constant(5.0)) == 5.0
    sub = HAlgebra.subgroup([[ROOT2]], degree=4)
    assert gelfand_mean(sub.element(TrigPolynomial.character([ROOT2]))) == 0.0
    u = alg.from_terms([([0.0], 2.0), ([1.0], 3.0), ([-1.0], 3.0)])
    assert gelfand_mean(u) == 2.0


def test_spectral_pairing_small_cases():
    alg = HAlgebra.periodic_lattice(1)
    e_plus = alg.element(TrigPolynomial.character([1.0]))
    e_minus = alg.element(TrigPolynomial.character([-1.0]))
    assert spectral_pairing(e_plus, e_plus) == 0.0  # product frequency 2 is not 0
    assert spectral_pairing(e_plus, e_minus) == 1.0
    a, b = alg.constant(3.0 - 1j), alg.constant(2.0 + 5j)
    assert spectral_pairing(a, b) == (3.0 - 1j) * (2.0 + 5j)


def test_spectral_pairing_parseval_exact():
    rng = np.random.default_rng(9)
    alg = HAlgebra.periodic_lattice(1)
    for _ in range(20):
        freqs = rng.choice(np.arange(-4, 5), size=4, replace=False).astype(float)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = alg.from_terms([([f], c) for f, c in zip(freqs, coeffs)])
        pairing = spectral_pairing(u, u.conjugate())
        # |c|^2 accumulated in the same canonical order with scalar arithmetic
        mags = [complex(c.real * c.real + c.imag * c.imag) for c in u.poly.coeffs]
        expected = complex(np.sum(mags))
        assert pairing == expected
        assert pairing.imag == 0.0
        assert pairing.real >= 0.0


def test_gelfand_mean_equals_mean_value_exactly():
    rng = np.random.default_rng(21)
    integer = HAlgebra.periodic_lattice(1)
    quasip = HAlgebra.subgroup([[1.0], [ROOT2]], degree=6)
    for _ in range(25):
        freqs = rng.choice(np.arange(-5, 6), size=3, replace=False).astype(float)
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        u = integer.from_terms([([f], c) for f, c in zip(freqs, coeffs)])
        assert gelfand_mean(u) == mean(MeanFunction.periodic_trig(u.poly))
        za = rng.integers(-3, 4, size=3)
        zb = rng.integers(-3, 4, size=3)
        v = quasip.from_terms(
            [([a + b * ROOT2], c) for a, b, c in zip(za, zb, coeffs)]
        )
        assert gelfand_mean(v) == mean(MeanFunction.almost_periodic(v.poly))


def test_positivity_on_certified_nonnegative():
    alg = HAlgebra.periodic_lattice(1)
    v = alg.from_terms([([0.0], 1.0), ([1.0], 0.5 + 0.25j)])
    u = v * v.conjugate()  # |v|^2 >= 0 pointwise
    value = gelfand_mean(u)
    assert value.imag == pytest.approx(0.0, abs=1e-15)
    assert value.real >= 0.0


def test_gelfand_mean_linear():
    alg = HAlgebra.periodic_lattice(1)
    rng = np.random.default_rng(4)
    u = alg.from_terms([([0.0], 1.5), ([2.0], 1j)])
    v = alg.from_terms([([0.0], -0.5), ([1.0], 2.0)])
    a = complex(rng.normal(), rng.normal())
    assert gelfand_mean(a * u + v) == a * gelfand_mean(u) + gelfand_mean(v)
    assert gelfand_mean(alg.constant(1.0)) == 1.0


def test_multiply_commutative_associative():
    alg = HAlgebra.subgroup([[1.0], [ROOT2]], degree=8)
    u = alg.from_terms([([1.0], 1.0), ([ROOT2], 0.5j)])
    v = alg.from_terms([([0.0], 2.0), ([-1.0], 1.0 - 1j)])
    w = alg.from_terms([([ROOT2], -0.25)])
    uv, vu = u * v, v * u
    assert np.allclose(uv.poly.coeffs, vu.poly.coeffs, atol=1e-14)
    assert np.allclose(((u * v) * w).poly.coeffs, (u * (v * w)).poly.coeffs, atol=1e-14)
