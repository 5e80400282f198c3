"""Mean values of bounded functions along a scaling flow.

Three function classes carry a closed-form mean: trigonometric polynomials
periodic on a cell and almost periodic ones (the zero-frequency
coefficient) and functions with a limit at infinity (that limit).  The
empirical machinery pairs u(H_eps(x)) against fixed test functions along a
parameter ladder and fits the decay order of the error, which verifies the
weak-star convergence that defines the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import Homogenizer, TestFunction, integrate
from .quadrature import Box, GridPoints, GridSpec, integrate_oscillatory
from .trig import TrigPolynomial

ERROR_FLOOR = 1e-13


@dataclass(frozen=True)
class MeanFunction:
    """A trig polynomial ``poly``, or an ``evaluator`` with a ``limit`` at infinity."""

    dimension: int
    evaluator: object = None
    poly: TrigPolynomial | None = None
    limit: complex | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def periodic_trig(cls, poly: TrigPolynomial) -> "MeanFunction":
        """A trig polynomial periodic on the unit cell: integer frequencies."""
        for f, _ in poly.terms():
            if any(abs(v - round(v)) > 1e-9 for v in f):
                raise ValueError(f"frequency {f} is not periodic on the cell")
        return cls(dimension=poly.dim, poly=poly)

    @classmethod
    def vanishing(cls, evaluator, limit: complex, dimension: int) -> "MeanFunction":
        return cls(dimension=dimension, evaluator=evaluator, limit=complex(limit))

    @classmethod
    def almost_periodic(cls, poly: TrigPolynomial) -> "MeanFunction":
        return cls(dimension=poly.dim, poly=poly)

    @classmethod
    def constant(cls, value: complex, dimension: int = 1) -> "MeanFunction":
        return cls.almost_periodic(TrigPolynomial.constant(value, dimension))

    # -- evaluation -----------------------------------------------------------

    def __call__(self, pts) -> np.ndarray:
        if not isinstance(pts, GridPoints):
            pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        if self.poly is not None:
            return self.poly(pts)
        return np.ravel(self.evaluator(pts))

    def oscillation_bound(self) -> np.ndarray:
        """Per-axis frequency bound used by grid-resolution rules."""
        if self.poly is not None:
            return self.poly.max_abs_freq()
        return np.ones(self.dimension)

    def translate(self, shift) -> "MeanFunction":
        shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
        if self.poly is not None:
            return replace(self, poly=self.poly.translate(shift))
        ev = self.evaluator
        return replace(self, evaluator=lambda pts: ev(np.atleast_2d(pts) - shift))


def mean(u: MeanFunction) -> complex:
    """Closed-form mean: the limit at infinity or the zero-frequency coefficient."""
    if u.poly is None:
        return complex(u.limit)
    return u.poly.zero_coefficient()


# -- empirical verification ------------------------------------------------------


@dataclass
class ConvergenceReport:
    rows: list  # dicts: eps, value, abs_err, quad_est
    limit: complex
    fitted_order: float | None  # None for a one-rung ladder, which gives no slope

    @property
    def final_error(self) -> float:
        return self.rows[-1]["abs_err"]


# ladder rungs, the last ones, that a decay order is fitted to
DECAY_FIT_WINDOW = 6


def fit_decay_order(eps_values, errors, floor: float = ERROR_FLOOR) -> float:
    """Least-squares slope of log(error) against log(eps-scale).

    Only the informative tail is used: entries whose error already sits at
    the quadrature floor are excluded, and if fewer than two informative
    points remain the decay is reported as infinite (below measurement).
    Fewer than two rungs give no slope at all: a ValueError.

    The slope is the closed form sum (x - x_bar)(y - y_bar) / sum
    (x - x_bar)^2, every sum by ``math.fsum`` and every log by ``math.log``,
    so it does not depend on the BLAS kernel or on numpy's SIMD dispatch.
    """
    eps_values = list(eps_values)[-DECAY_FIT_WINDOW:]
    errors = list(errors)[-DECAY_FIT_WINDOW:]
    if len(eps_values) < 2:
        raise ValueError(f"a decay order needs at least two ladder rungs, got {len(eps_values)}")
    pts = [(e, v) for e, v in zip(eps_values, errors) if v > floor]
    if len(pts) < 2:
        return math.inf
    x = [math.log(abs(e)) for e, _ in pts]
    y = [math.log(v) for _, v in pts]
    x_bar, y_bar = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - x_bar for xi in x]
    return math.fsum(d * (yi - y_bar) for d, yi in zip(dx, y)) / math.fsum(d * d for d in dx)


@dataclass(frozen=True)
class _Pairings:
    """The integrands x -> phi(x) u(H_eps x), one per u of ``functions``,
    as one (J, M) stack: phi and H_eps are evaluated once for all of them,
    and row j has the bits of phi(x) * u_j(H_eps x) alone when every row
    has the same dtype (a real row stacked with complex ones is complex).

    Each product is written into its row of one (J, M) buffer, so a block
    holds no list of rows and no stacked copy of them.  The buffer is real
    until a complex row arrives, which casts the rows before it once, as
    ``np.stack`` would.
    """

    phi: TestFunction
    functions: tuple
    action: object
    eps: float

    @property
    def support(self) -> Box:
        return self.phi.support

    def __call__(self, pts) -> np.ndarray:
        weight = self.phi(pts)
        mapped = self.action.apply(self.eps, pts)
        out = None
        for j, u in enumerate(self.functions):
            row = u(mapped)
            if out is None:
                out = np.empty((len(self.functions), *weight.shape), np.result_type(weight, row))
            elif np.result_type(out, row) != out.dtype:  # a complex row after real ones
                out = out.astype(np.result_type(out, row))
            np.multiply(weight, row, out=out[j])
            del row  # u_j's values go before u_(j+1)'s are made
        return out


def empirical_mean(
    functions,
    hz: Homogenizer,
    phi: TestFunction,
    ladder,
) -> list:
    """Pair u(H_eps(x)) against phi along the ladder and track the error,
    for every u of ``functions``: one :class:`ConvergenceReport` each.

    The pairing r(eps) = integral(phi * u(H_eps .)) / integral(phi) must
    approach the closed-form mean.  phi is integrated once; at each eps one
    grid, built from ``hz.grid_spec`` and sized so the composed oscillation
    of every u stays resolved, takes all the functions at once.  Functions
    of one frequency bound and dtype (u, its translate and its convolution)
    get the bits of their own sweeps.
    """
    functions = tuple(functions)
    base, base_est = integrate(hz, phi)
    if abs(base) == 0.0:
        raise ValueError("test function must have nonzero integral")
    limits = [mean(u) for u in functions]
    action = hz.action
    bound = np.max([u.oscillation_bound() for u in functions], axis=0)
    rows = [[] for _ in functions]
    for eps in ladder:
        eps = action.group.validate(eps)
        pairings = _Pairings(phi, functions, action, eps)
        values, ests = integrate(hz, pairings, action.frequency_bound(eps, bound))
        # one function's stack integrates to a scalar pair
        values, ests = np.reshape(values, -1).tolist(), np.reshape(ests, -1).tolist()
        for limit, value, est, out in zip(limits, values, ests, rows):
            r = value / base
            out.append(
                {
                    "eps": float(eps),
                    "value": r,
                    "abs_err": abs(r - limit),
                    "quad_est": (est + abs(r) * base_est) / abs(base),
                }
            )
    return [_report(action, out, limit) for limit, out in zip(limits, rows)]


def _report(action, rows: list, limit: complex) -> ConvergenceReport:
    order = None
    if len(rows) > 1:
        order = fit_decay_order(
            [action.group.ladder_scale(row["eps"]) for row in rows],
            [row["abs_err"] for row in rows],
        )
    return ConvergenceReport(rows=rows, limit=limit, fitted_order=order)


@dataclass
class ComparisonReport:
    difference: float
    tolerance: float


def _combined_tolerance(a: ConvergenceReport, b: ConvergenceReport) -> float:
    slack_a = max(a.final_error, a.rows[-1]["quad_est"], ERROR_FLOOR)
    slack_b = max(b.final_error, b.rows[-1]["quad_est"], ERROR_FLOOR)
    return 2.0 * (slack_a + slack_b)


def verify_translation_invariance(
    report: ConvergenceReport,
    shifted: ConvergenceReport,
) -> ComparisonReport:
    """Empirical means of u and of its translate must share the same limit.

    ``report`` and ``shifted`` are :func:`empirical_mean`'s reports of u
    and of ``u.translate(shift)`` against one phi along one ladder.
    """
    diff = abs(report.rows[-1]["value"] - shifted.rows[-1]["value"])
    tol = _combined_tolerance(report, shifted)
    return ComparisonReport(difference=diff, tolerance=tol)


def convolve(kernel: TestFunction, u: MeanFunction, grid_spec: GridSpec) -> MeanFunction:
    """Convolution kernel * u for trig-backed u via Fourier coefficients.

    Coefficient c_k is scaled by T(k) = integral kernel(x) e(-k x) dx, all
    K of them by Filon weights on one doubled ``grid_spec`` grid over the
    kernel support, which does not grow with |k|.
    """
    if u.poly is None:
        raise ValueError("convolution needs a trig-backed function")
    grid = grid_spec.build(kernel.support).refined()
    waves = [TrigPolynomial.character(-k) for k in u.poly.freqs]
    transforms = integrate_oscillatory(kernel, grid, waves)
    return replace(u, poly=TrigPolynomial(u.poly.freqs, u.poly.coeffs * transforms))


def verify_convolution(
    report: ConvergenceReport,
    convolved: ConvergenceReport,
) -> ComparisonReport:
    """Mean of kernel * u must equal mean(u) times the kernel's total mass.

    ``report`` and ``convolved`` are :func:`empirical_mean`'s reports of u
    and of :func:`convolve`'s kernel * u against one phi along one ladder.
    The prediction is the convolved report's limit, c_0 T(0), with T(0) the
    Lebesgue mass the convolution itself uses, whatever measure the sweep
    took.  The check is still the triangle-inequality bound that
    perfbench/workloads.judged_errors describes; only a kernel mass known
    independently of the transforms would test them.
    """
    diff = abs(convolved.rows[-1]["value"] - convolved.limit)
    tol = _combined_tolerance(convolved, report)
    return ComparisonReport(difference=diff, tolerance=tol)
