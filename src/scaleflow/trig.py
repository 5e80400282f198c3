"""Finite trigonometric polynomials sum_k c_k exp(2 pi i <k, x>) on R^N.

The frequency list is kept canonical (lexicographically sorted, duplicates
merged) so coefficient extraction is exact and reproducible.  Duplicates
merge by a correctly rounded sum (``math.fsum``), which does not depend on
their order, so the coefficients at k and -k of a product of real
polynomials stay exact conjugates.  Evaluation on
point arrays and tensor grids goes through ``kernels.trig_eval``; a real
(conjugate-symmetric) polynomial is evaluated in its real form.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .quadrature import GridPoints

_FREQ_DECIMALS = 9  # frequencies closer than 1e-9 are treated as equal


def _freq_key(freq) -> tuple:
    return tuple(round(float(f), _FREQ_DECIMALS) for f in freq)


def _rounded_sum(parts) -> complex:
    # correctly rounded by real and imaginary part, so independent of the
    # order of the parts: a product of real polynomials stays real
    return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))


class TrigPolynomial:
    """Immutable frequency/coefficient representation of an almost-periodic map.

    A polynomial whose coefficients are exactly conjugate-symmetric, c_(-k)
    equal to conj(c_k) for every k (so c_0 is real), is real.  Construction
    detects this once and keeps its real form: c_0 and 2 c_k over the
    frequencies k > 0 (first nonzero entry positive), which
    ``kernels.trig_eval`` sums as c_0 + 2 Re sum_(k>0) c_k e(k x).  Such a
    polynomial evaluates to float64 from half the terms; its values are
    within a few ulps of the largest phase |2 pi k x| of the full complex
    sum, whose real parts they are.  Any other polynomial evaluates to
    complex128 through all its terms.
    """

    __slots__ = ("freqs", "coeffs", "_index", "_real")

    def __init__(self, freqs, coeffs):
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
        coeffs = np.asarray(coeffs, dtype=np.complex128).ravel()
        if freqs.shape[0] != coeffs.shape[0]:
            raise ValueError("one coefficient per frequency required")
        merged: dict[tuple, list] = {}
        rep: dict[tuple, np.ndarray] = {}
        for f, c in zip(freqs, coeffs):
            key = _freq_key(f)
            merged.setdefault(key, []).append(complex(c))
            rep.setdefault(key, f)
        keys = sorted(merged)
        if not keys:
            keys = [(0.0,) * freqs.shape[1]]
            merged = {keys[0]: []}
            rep = {keys[0]: np.zeros(freqs.shape[1])}
        self.freqs = np.array([rep[k] for k in keys], dtype=np.float64)
        self.coeffs = np.array([_rounded_sum(merged[k]) for k in keys], dtype=np.complex128)
        self._index = {k: i for i, k in enumerate(keys)}
        self._real = self._real_form(keys)

    def _real_form(self, keys):
        # (freqs, coeffs) of c_0 and 2 c_k over k > 0, or None unless every
        # c_(-k) equals conj(c_k); the keys negate exactly, as rounding does
        zero = (0.0,) * len(keys[0])
        half = []
        for i, key in enumerate(keys):
            partner = self._index.get(tuple(-f for f in key))
            if partner is None or self.coeffs[partner] != self.coeffs[i].conjugate():
                return None
            if key >= zero:
                half.append(i)
        scale = np.where([keys[i] == zero for i in half], 1.0, 2.0)
        form = (self.freqs[half], self.coeffs[half] * scale)
        for array in form:  # handed out by real_form
            array.flags.writeable = False
        return form

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, dim: int = 1) -> "TrigPolynomial":
        return cls(np.zeros((1, dim)), [value])

    @classmethod
    def character(cls, freq) -> "TrigPolynomial":
        freq = np.atleast_1d(np.asarray(freq, dtype=np.float64))
        return cls(freq[None, :], [1.0])

    @classmethod
    def sine(cls, freq) -> "TrigPolynomial":
        freq = np.atleast_1d(np.asarray(freq, dtype=np.float64))
        return cls(np.stack([freq, -freq]), [-0.5j, 0.5j])

    @classmethod
    def from_terms(cls, terms, dim: int | None = None) -> "TrigPolynomial":
        """Build from ``[(freq_vector, coefficient), ...]``."""
        freqs = [np.atleast_1d(np.asarray(f, dtype=np.float64)) for f, _ in terms]
        coeffs = [c for _, c in terms]
        if not terms:
            return cls.constant(0.0, dim or 1)
        return cls(np.stack(freqs), coeffs)

    # -- basic queries --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    def coefficient(self, freq) -> complex:
        i = self._index.get(_freq_key(np.atleast_1d(freq)))
        return 0j if i is None else complex(self.coeffs[i])

    def zero_coefficient(self) -> complex:
        return self.coefficient(np.zeros(self.dim))

    def max_abs_freq(self) -> np.ndarray:
        """Per-axis maximum |frequency|; used by resolution rules."""
        return np.max(np.abs(self.freqs), axis=0)

    def terms(self):
        return [(tuple(f), complex(c)) for f, c in zip(self.freqs.tolist(), self.coeffs)]

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x) -> np.ndarray | complex | float:
        if isinstance(x, GridPoints):
            return self._eval(x)
        pts = np.asarray(x, dtype=np.float64)
        single_point = False
        if pts.ndim == 0:
            pts = pts.reshape(1, 1)
            single_point = True
        elif pts.ndim == 1:
            if self.dim == 1:
                pts = pts[:, None]
            else:
                pts = pts[None, :]
                single_point = True
        out = self._eval(pts)
        return out[0].item() if single_point else out

    def real_form(self):
        """``(freqs, coeffs)`` of c_0 and 2 c_k over k > 0 for a real
        polynomial, whose values are c_0 + 2 Re sum_(k>0) c_k e(k x), else None."""
        return self._real

    def _eval(self, pts) -> np.ndarray:
        if self._real is None:
            return kernels.trig_eval(self.freqs, self.coeffs, pts)
        freqs, coeffs = self._real
        return kernels.trig_eval(freqs, coeffs, pts, real=True)

    # -- algebra -----------------------------------------------------------------

    def __add__(self, other) -> "TrigPolynomial":
        other = self._coerce(other)
        return TrigPolynomial(
            np.concatenate([self.freqs, other.freqs]),
            np.concatenate([self.coeffs, other.coeffs]),
        )

    def __sub__(self, other) -> "TrigPolynomial":
        return self + (self._coerce(other) * (-1.0))

    def __mul__(self, other) -> "TrigPolynomial":
        if np.isscalar(other):
            return TrigPolynomial(self.freqs, self.coeffs * complex(other))
        other = self._coerce(other)
        freqs = (self.freqs[:, None, :] + other.freqs[None, :, :]).reshape(-1, self.dim)
        coeffs = (self.coeffs[:, None] * other.coeffs[None, :]).ravel()
        return TrigPolynomial(freqs, coeffs)

    __rmul__ = __mul__

    def conjugate(self) -> "TrigPolynomial":
        return TrigPolynomial(-self.freqs, np.conj(self.coeffs))

    def translate(self, shift) -> "TrigPolynomial":
        """The map x -> p(x - shift): c_k picks up the unit phase
        e(-<k, shift>), with <k, shift> by ``np.sum``, not BLAS ``@``."""
        shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
        phases = np.exp(-2j * np.pi * np.sum(self.freqs * shift, axis=1))
        return TrigPolynomial(self.freqs, self.coeffs * phases)

    def compose_linear(self, matrix) -> "TrigPolynomial":
        """The map x -> p(A x); frequencies transform by the transpose.

        The new frequencies are products and ``np.sum``, not ``@``, so
        their bits do not depend on the BLAS kernel.
        """
        a = np.asarray(matrix, dtype=np.float64)
        return TrigPolynomial(np.sum(self.freqs[:, :, None] * a[None], axis=1), self.coeffs)

    def _coerce(self, other) -> "TrigPolynomial":
        if isinstance(other, TrigPolynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        if np.isscalar(other):
            return TrigPolynomial.constant(other, self.dim)
        raise TypeError(f"cannot combine TrigPolynomial with {type(other)!r}")

    def __repr__(self) -> str:
        inner = ", ".join(f"{c:.3g}*e({f})" for f, c in self.terms())
        return f"TrigPolynomial({inner})"
