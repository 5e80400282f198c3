"""Finite spectral homogenization algebras and their representing measure.

Two admissible frequency systems are supported: the integer lattice
(periodic functions on the unit cell) and the truncated subgroup generated
by finitely many real frequency vectors (quasi-periodic functions).  All
integrals over the algebra spectrum reduce to coefficient extraction, which
is exact for trigonometric representations; products that would leave the
truncated frequency set are rejected instead of silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from .trig import TrigPolynomial, _freq_key

PERIODIC = "periodic"
AP_SUBGROUP = "ap-subgroup"

SPECTRUM_TOL = 1e-14
GENERATOR_TOL = 1e-12  # generator entries at most this large count as zero


class TruncationOverflowError(RuntimeError):
    """A coefficient product left the truncated frequency set."""


@dataclass(frozen=True)
class HAlgebra:
    kind: str
    dimension: int
    generators: tuple = ()  # tuples of length `dimension`, ap-subgroup only
    degree: int = 8

    def __post_init__(self):
        if self.kind not in (PERIODIC, AP_SUBGROUP):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        gens = tuple(tuple(float(g) for g in row) for row in self.generators)
        object.__setattr__(self, "generators", gens)
        if self.kind == AP_SUBGROUP:
            if not gens:
                raise ValueError("subgroup algebras need at least one generator")
            if any(len(g) != self.dimension for g in gens):
                raise ValueError("generator dimension mismatch")
            if any(max(map(abs, g)) <= GENERATOR_TOL for g in gens):
                raise ValueError("a generator must have a nonzero entry")
            if self.degree < 1:
                raise ValueError("truncation degree must be >= 1")

    @classmethod
    def periodic_lattice(cls, dimension: int) -> "HAlgebra":
        return cls(kind=PERIODIC, dimension=dimension)

    @classmethod
    def subgroup(cls, generators, degree: int = 8) -> "HAlgebra":
        generators = [tuple(np.atleast_1d(np.asarray(g, dtype=np.float64))) for g in generators]
        return cls(
            kind=AP_SUBGROUP,
            dimension=len(generators[0]),
            generators=tuple(generators),
            degree=degree,
        )

    @cached_property
    def _table(self) -> dict:
        """Frequency key -> lattice coordinates for the truncated subgroup."""
        gens = np.asarray(self.generators, dtype=np.float64)
        table: dict[tuple, tuple] = {}
        rng = range(-self.degree, self.degree + 1)
        for z in iter_product(rng, repeat=len(self.generators)):
            freq = np.asarray(z, dtype=np.float64) @ gens
            table.setdefault(_freq_key(freq), z)
        return table

    def coordinates(self, freq) -> tuple | None:
        """Lattice coordinates of a frequency, or None when inadmissible."""
        freq = np.atleast_1d(np.asarray(freq, dtype=np.float64))
        if self.kind == PERIODIC:
            rounded = np.round(freq)
            if np.max(np.abs(freq - rounded)) > 1e-9:
                return None
            return tuple(int(v) for v in rounded)
        return self._table.get(_freq_key(freq))

    def sample_window(self) -> float:
        """Side of the cube whose dense sample stands for the oscillation
        slot: the unit cell of the lattice, else eight periods of the
        slowest generator entry, since irrational generators have no exact
        period."""
        if self.kind == PERIODIC:
            return 1.0
        gens = np.asarray(self.generators, dtype=np.float64)
        return float(8.0 / np.min(np.abs(gens[np.abs(gens) > GENERATOR_TOL])))

    def admissible(self, freq) -> bool:
        return self.coordinates(freq) is not None

    def element(self, poly: TrigPolynomial) -> "AlgebraElement":
        return AlgebraElement(algebra=self, poly=poly)

    def from_terms(self, terms) -> "AlgebraElement":
        return self.element(TrigPolynomial.from_terms(terms, dim=self.dimension))

    def constant(self, value) -> "AlgebraElement":
        return self.element(TrigPolynomial.constant(value, self.dimension))


@dataclass(frozen=True)
class AlgebraElement:
    algebra: HAlgebra
    poly: TrigPolynomial

    def __post_init__(self):
        if self.poly.dim != self.algebra.dimension:
            raise ValueError("element dimension does not match the algebra")
        for freq, coeff in self.poly.terms():
            if abs(coeff) > SPECTRUM_TOL and not self.algebra.admissible(freq):
                raise ValueError(f"frequency {freq} is not admissible in this algebra")

    def __call__(self, pts):
        return self.poly(pts)

    def _same_algebra(self, other: "AlgebraElement") -> None:
        if other.algebra != self.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            self._same_algebra(other)
            return AlgebraElement(self.algebra, self.poly + other.poly)
        return AlgebraElement(self.algebra, self.poly + other)

    def __mul__(self, other) -> "AlgebraElement":
        if np.isscalar(other):
            return AlgebraElement(self.algebra, self.poly * other)
        self._same_algebra(other)
        _check_products(self, other)
        return AlgebraElement(self.algebra, self.poly * other.poly)

    __rmul__ = __mul__

    def conjugate(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.poly.conjugate())


def _check_products(u: AlgebraElement, v: AlgebraElement) -> None:
    algebra = u.algebra
    if algebra.kind == PERIODIC:
        return  # the integer lattice is closed under addition
    for fu, cu in u.poly.terms():
        if abs(cu) <= SPECTRUM_TOL:
            continue
        zu = algebra.coordinates(fu)
        for fv, cv in v.poly.terms():
            if abs(cv) <= SPECTRUM_TOL:
                continue
            zv = algebra.coordinates(fv)
            total = tuple(a + b for a, b in zip(zu, zv))
            if any(abs(t) > algebra.degree for t in total):
                raise TruncationOverflowError(
                    f"product frequency {total} exceeds degree {algebra.degree}; "
                    "raise the truncation degree"
                )


def gelfand_mean(u: AlgebraElement) -> complex:
    """Spectral-side mean: the coefficient of the zero frequency."""
    return u.poly.zero_coefficient()


def spectral_pairing(u: AlgebraElement, v: AlgebraElement) -> complex:
    """Spectral pairing: zero-frequency coefficient of the product u*v.

    Computed directly as sum_k u_k v_(-k) in the canonical term order of u,
    after validating that the full product stays inside the truncation.
    """
    u._same_algebra(v)
    _check_products(u, v)
    contributions = []
    for freq, coeff in u.poly.terms():
        partner = v.poly.coefficient([-f for f in freq])
        contributions.append(coeff * partner)
    return complex(np.sum(contributions))
