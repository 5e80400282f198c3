"""Canonical scaling groups of reals and their weight homomorphisms.

Three groups are supported: the additive reals, the multiplicative positive
reals, and the additive integers.  Each carries the natural total order, an
identity ``e``, a greatest lower bound ``theta`` (possibly ``-inf``), a
positive weight homomorphism ``h`` and the closed-form mass of the upper
tail ``{eps >= alpha}`` under the weighted Haar measure ``h * m``.

Group elements are floats.  ``validate``, ``weight``, ``compose`` and
``inverse`` take one element or an array of them and act elementwise; the
integer group validates integrality.
Every decision that depends on the kind of group is made here: samplers,
ladders, the Haar coordinate of the orbit sweep and the scale of decay fits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .quadrature import _axis_rule

REAL_ADDITIVE = "real-additive"
POSITIVE_MULTIPLICATIVE = "positive-multiplicative"
INTEGER_ADDITIVE = "integer-additive"

KINDS = (REAL_ADDITIVE, POSITIVE_MULTIPLICATIVE, INTEGER_ADDITIVE)

_DEFAULT_PARAM = {
    REAL_ADDITIVE: 1.0,
    POSITIVE_MULTIPLICATIVE: 1.0,
    INTEGER_ADDITIVE: 0.5,
}

_INTEGER_TOL = 1e-9

HAAR_BLOCK_WIDTH = 4.0  # width of one orbit-sweep block in the Haar coordinate


def as_scalar_or_array(values):
    """A 0-d result as a Python float; an array result unchanged."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class RGroup:
    """One of the three canonical scaling groups.

    ``weight_param`` is the decay rate r > 0 of the weight homomorphism for
    the real kinds, and the geometric ratio a in (0, 1) for the integers.
    """

    kind: str
    weight_param: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.weight_param is None:
            object.__setattr__(self, "weight_param", _DEFAULT_PARAM[self.kind])
        p = self.weight_param
        if self.kind == INTEGER_ADDITIVE:
            if not 0.0 < p < 1.0:
                raise ValueError("integer-additive ratio must lie in (0, 1)")
        elif p <= 0.0:
            raise ValueError("weight rate must be positive")

    # -- structure ---------------------------------------------------------

    @property
    def identity(self) -> float:
        return 1.0 if self.kind == POSITIVE_MULTIPLICATIVE else 0.0

    @property
    def theta(self) -> float:
        """Greatest lower bound of the group inside the extended reals."""
        return 0.0 if self.kind == POSITIVE_MULTIPLICATIVE else -math.inf

    def validate(self, params):
        """Check membership of one element or of every entry of an array.

        A scalar comes back as a Python float, an array as float64; the
        error names the first entry that is not a group element."""
        values = np.asarray(params, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("group elements must be finite")
        if self.kind == REAL_ADDITIVE:
            return as_scalar_or_array(values)
        if self.kind == POSITIVE_MULTIPLICATIVE:
            bad, noun = values[values <= 0.0], "a positive real"
        else:
            bad, noun = values[np.abs(values - np.round(values)) > _INTEGER_TOL], "an integer"
        if bad.size:
            raise ValueError(f"{bad[0]} is not {noun}")
        return as_scalar_or_array(values)

    def _from_haar(self, v: np.ndarray) -> np.ndarray:
        """Elements at Haar coordinates ``v``: exp(v) on R+*, v itself otherwise."""
        return np.exp(v) if self.kind == POSITIVE_MULTIPLICATIVE else v

    def parameter_window(self) -> float:
        """Default half-width, in the Haar coordinate, of certificate samples."""
        return 2.0 if self.kind == POSITIVE_MULTIPLICATIVE else 3.0

    def sample(self, rng: random.Random, count: int, window: float | None = None) -> np.ndarray:
        """``count`` uniform draws within ``window`` of the identity in the Haar
        coordinate, by ``rng.uniform``; the integers draw from -hi..hi by
        ``rng.randrange``, hi = max(1, int(window)) or 6."""
        if self.kind == INTEGER_ADDITIVE:
            hi = 6 if window is None else max(1, int(window))
            return np.array([rng.randrange(-hi, hi + 1) for _ in range(count)], dtype=np.float64)
        w = self.parameter_window() if window is None else window
        return self._from_haar(np.array([rng.uniform(-w, w) for _ in range(count)]))

    def compose(self, eps: float, other: float) -> float:
        eps, other = self.validate(eps), self.validate(other)
        return eps * other if self.kind == POSITIVE_MULTIPLICATIVE else eps + other

    def inverse(self, eps: float) -> float:
        eps = self.validate(eps)
        return 1.0 / eps if self.kind == POSITIVE_MULTIPLICATIVE else -eps

    def compare(self, eps: float, other: float) -> int:
        """Natural real order: -1, 0 or +1."""
        eps, other = self.validate(eps), self.validate(other)
        return (eps > other) - (eps < other)

    # -- weight and tails --------------------------------------------------

    def weight(self, params):
        """The positive weight homomorphism h at one element or at every
        entry of an array (a float or an array, as ``validate`` returns)."""
        params = self.validate(params)
        r = self.weight_param
        if self.kind == REAL_ADDITIVE:
            values = np.exp(-r * params)
        elif self.kind == POSITIVE_MULTIPLICATIVE:
            values = np.power(params, -r)
        else:
            values = np.power(r, np.round(params))
        return as_scalar_or_array(values)

    def tail_mass(self, alpha: float) -> float:
        """Closed-form mass of ``{eps >= alpha}`` for the measure h * m.

        Haar measure m is Lebesgue on the additive reals, ``d eps / eps`` on
        the multiplicative reals, and counting measure on the integers, so
        the tails integrate to ``exp(-r*alpha)/r``, ``alpha**(-r)/r`` and
        ``a**alpha/(1-a)`` respectively.
        """
        alpha = self.validate(alpha)
        r = self.weight_param
        if self.kind == REAL_ADDITIVE:
            return math.exp(-r * alpha) / r
        if self.kind == POSITIVE_MULTIPLICATIVE:
            return alpha ** (-r) / r
        return r ** round(alpha) / (1.0 - r)

    def tail_threshold(self, mass: float) -> float:
        """Smallest ``alpha`` with ``tail_mass(alpha) <= mass``."""
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        r = self.weight_param
        if self.kind == REAL_ADDITIVE:
            return -math.log(mass * r) / r
        if self.kind == POSITIVE_MULTIPLICATIVE:
            return (mass * r) ** (-1.0 / r)
        return float(math.ceil(math.log(mass * (1.0 - r)) / math.log(r)))

    def haar_blocks(self, mass: float, nodes_per_unit: int, count: int):
        """Yield ``count`` (elements, Haar quadrature weights) blocks, descending
        from ``tail_threshold(mass)``.

        Haar measure is Lebesgue in the coordinate v = eps (additive reals) or
        v = log(eps) (multiplicative reals); a block there is a composite Gauss
        rule over HAAR_BLOCK_WIDTH of v.  On the integers a block is eight
        consecutive elements with unit counting weights.
        """
        top = self.tail_threshold(mass)
        if self.kind == INTEGER_ADDITIVE:
            hi, width = int(top), 8
            for j in range(count):
                block = np.arange(hi - (j + 1) * width + 1, hi - j * width + 1, dtype=np.float64)
                yield block, np.ones_like(block)
            return
        v_hi = math.log(top) if self.kind == POSITIVE_MULTIPLICATIVE else top
        q = 8
        nodes = q * max(1, int(round(HAAR_BLOCK_WIDTH * nodes_per_unit / q)))
        for j in range(count):
            hi = v_hi - j * HAAR_BLOCK_WIDTH
            v, w, _ = _axis_rule(v_hi - (j + 1) * HAAR_BLOCK_WIDTH, hi, nodes, q)
            yield self._from_haar(v), w

    def ladder_scale(self, eps: float) -> float:
        """Positive scale of an element for log-log decay fits: eps on R+*,
        exp(eps) on the additive groups, so its log is the Haar coordinate."""
        return float(eps) if self.kind == POSITIVE_MULTIPLICATIVE else math.exp(float(eps))

    def character(self, rate: float):
        """The homomorphism into R+* with exponent ``rate``: eps -> eps**rate on
        R+*, eps -> exp(rate * eps) on the additive groups.  It maps one
        element to a float and an array element by element, as
        ``DiagonalScaling.volume_factor`` does, so every entry has the bits
        of its one-element call."""
        multiplicative = self.kind == POSITIVE_MULTIPLICATIVE

        def chi(params):
            values = [eps**rate if multiplicative else float(np.exp(rate * eps))
                      for eps in np.ravel(params).tolist()]
            return as_scalar_or_array(np.reshape(values, np.shape(params)))

        return chi

    # -- ladders ------------------------------------------------------------

    def ladder(self, count: int = 12, step: float | None = None) -> np.ndarray:
        """Decreasing sequence of elements <= e heading toward theta.

        Multiplicative groups use the geometric ladder ``step**-n`` (default
        step 2); additive groups use ``-n * step`` (default step 1).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        n = np.arange(1, count + 1, dtype=np.float64)
        if self.kind == POSITIVE_MULTIPLICATIVE:
            s = 2.0 if step is None else float(step)
            if s <= 1.0:
                raise ValueError("multiplicative ladder step must exceed 1")
            return s ** (-n)
        s = 1.0 if step is None else float(step)
        if s <= 0.0:
            raise ValueError("additive ladder step must be positive")
        if self.kind == INTEGER_ADDITIVE:
            if s < 1.0:
                raise ValueError("integer ladder steps below 1 repeat entries")
            return -np.round(n * s)
        return -n * s
