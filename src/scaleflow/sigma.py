"""Two-scale (sigma) convergence of oscillating traces on a bounded domain.

A two-scale field u0(x, y) = sum_j a_j(x) w_j(y) couples smooth macroscopic
factors on a box with algebra elements in the oscillation slot.  Its trace
at parameter eps is x -> u0(x, H_eps(x)); pairing traces of u0 against
traces of a test field must converge, as eps heads to the group infimum,
to the spectral pairing of the two fields.  The pairing of traces
integrates each oscillation exactly against the panelwise interpolant of
the smooth macro factors (Filon weights), on the same grid at every eps.
Only the trace norm bound still resolves the oscillation, on grids gated by
an explicit nodes-per-oscillation-period rule.

All pairings integrate against Lebesgue measure on the domain box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .actions import Action
from .algebra import spectral_pairing
from .meanvalue import ERROR_FLOOR, fit_decay_order
from .quadrature import Box, GridSpec, integrate_on_grid, integrate_oscillatory

ENVELOPE_CELL_SAMPLES = 2048


@dataclass(frozen=True)
class TwoScaleField:
    """Finite sum of (macro factor on the domain) x (algebra element)."""

    domain: Box
    terms: tuple  # of (TestFunction, AlgebraElement)
    name: str = "field"

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a field needs at least one term")
        algebra = self.terms[0][1].algebra
        for _, w in self.terms:
            if w.algebra != algebra:
                raise ValueError("all oscillation factors must share one algebra")

    @property
    def algebra(self):
        return self.terms[0][1].algebra

    def max_freq(self) -> np.ndarray:
        """Per-axis oscillation-slot frequency bound."""
        bounds = [w.poly.max_abs_freq() for _, w in self.terms]
        return np.max(np.stack(bounds), axis=0)

    def trace_values(self, action: Action, eps: float, pts: np.ndarray) -> np.ndarray:
        images = action.apply(eps, pts)
        return sum(macro(pts) * w.poly(images) for macro, w in self.terms)

    # every ladder entry of a norm-bound check asks for the same few norms
    @functools.lru_cache(maxsize=64)
    def envelope_norm(self, p: float, grid_spec: GridSpec) -> float:
        """(integral over the domain of sup_y |u0(x, y)|^p)^(1/p).

        The sup in the oscillation slot is taken over a dense deterministic
        sample of the algebra's almost-period window, so on either path the
        result is a lower bound of the true envelope: the sample can miss the
        sup.  A one-term field a(x) w(y) factors:
        sup_y |a(x) w(y)| = |a(x)| max |w|, with max |w| taken once over the
        sample.  For real w this is bit for bit the per-node sup, since
        rounding |a| |w| is monotone in |w|; for complex w it may differ by
        an ulp.  A field of several terms takes the sup over the sample at
        every node.  Each (field, p, grid spec) is computed once; the cache
        keeps its fields alive.
        """
        y = _cell_sample(self.algebra, ENVELOPE_CELL_SAMPLES)
        values = np.stack([w.poly(y) for _, w in self.terms])  # (J, My)

        if len(self.terms) == 1:
            (macro, _), = self.terms
            peak = np.max(np.abs(values[0]))

            def fn(pts):
                return (np.abs(macro(pts)) * peak) ** p

        else:

            def fn(pts):
                macro = np.stack([m(pts) for m, _ in self.terms])  # (J, Mx)
                out = np.empty(pts.shape[0])
                # blocks of about POINT_BUDGET / 8 samples bound the field temporaries
                step = max(1, kernels.POINT_BUDGET // (8 * values.shape[1]))
                for start in range(0, pts.shape[0], step):
                    stop = min(pts.shape[0], start + step)
                    field = sum(a[start:stop, None] * w for a, w in zip(macro, values))  # (block, My)
                    out[start:stop] = np.max(np.abs(field), axis=1)
                return out**p

        value = integrate_on_grid(fn, grid_spec.build(self.domain).refined())
        return float(abs(value)) ** (1.0 / p)


def _cell_sample(algebra, count: int) -> np.ndarray:
    """Deterministic dense sample of one (almost-)period window."""
    dim = algebra.dimension
    width = algebra.sample_window()
    if dim == 1:
        return np.linspace(0.0, width, count, endpoint=False)[:, None]
    per_axis = max(8, int(round(count ** (1.0 / dim))))
    axes = [np.linspace(0.0, width, per_axis, endpoint=False)] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def trace_norm_bound_check(
    u: TwoScaleField,
    action: Action,
    eps: float,
    p: float,
    grid_spec: GridSpec,
) -> dict:
    """Compare the L^p norm of the trace with the field's envelope norm."""
    if not 1.0 <= p < math.inf:
        raise ValueError("p must lie in [1, inf)")
    bound = action.frequency_bound(eps, u.max_freq().astype(float))
    grid = grid_spec.build(u.domain, bound).refined()
    value = integrate_on_grid(lambda pts: np.abs(u.trace_values(action, eps, pts)) ** p, grid)
    lhs = float(abs(value)) ** (1.0 / p)
    rhs = u.envelope_norm(p, grid_spec)
    return {"eps": float(eps), "lhs": lhs, "rhs": rhs, "passed": lhs <= rhs * (1.0 + 1e-6)}


def trace_norm_bound_rows(fields, action: Action, ladder, p: float, grid_spec: GridSpec) -> list:
    """:func:`trace_norm_bound_check` of every field at every ladder entry."""
    rows = []
    for field in fields:
        for eps in ladder:
            entry = trace_norm_bound_check(field, action, eps, p, grid_spec)
            entry["field"] = field.name
            rows.append(entry)
    return rows


def sigma_pairing_lhs(
    u: TwoScaleField,
    psi: TwoScaleField,
    action: Action,
    eps,
    grid_spec: GridSpec,
) -> tuple:
    """Domain integral of trace(u) * trace(psi); returns (value, estimate, nodes).

    ``eps`` is one group element or an array of them, as ``Action.apply``
    takes; for an array, value and estimate are arrays over it, and every
    entry shares one evaluation of the macro products.

    The integrand is sum_(j,l) a_j(x) b_l(x) (w_j w'_l)(H_eps x): each
    product of macro factors, which does not depend on eps, times a trig
    polynomial in x, the product of the two oscillation factors pulled back
    through H_eps.  Filon weights integrate each of its terms exactly
    against the panelwise interpolant of the macro product
    (``quadrature.integrate_oscillatory``), so every eps uses the base grid
    ``grid_spec.build(domain)`` and its doubling, and no eps is too fine.
    The estimate is the difference between the two; ``nodes`` counts the
    base grid.
    """
    if psi.domain != u.domain:
        raise ValueError("fields live on different domains")
    eps = action.group.validate(eps)
    ladder = np.atleast_1d(eps).tolist()
    integrands = []
    for a, w_u in u.terms:
        for b, w_psi in psi.terms:
            product = w_u.poly * w_psi.poly
            integrands.append((_product(a, b), [action.pullback(e, product) for e in ladder]))
    base = grid_spec.build(u.domain)
    coarse, fine = (
        sum(integrate_oscillatory(macro, grid, polys) for macro, polys in integrands).tolist()
        for grid in (base, base.refined())
    )
    estimates = [abs(f - c) for f, c in zip(fine, coarse)]
    if np.ndim(eps) == 0:
        return fine[0], estimates[0], base.total_points
    return np.array(fine), np.array(estimates), base.total_points


def _product(a, b):
    # the macro product a(x) b(x), one of the smooth factors of a pairing
    return lambda pts: a(pts) * b(pts)


def sigma_pairing_rhs(
    u: TwoScaleField,
    psi: TwoScaleField,
    grid_spec: GridSpec,
) -> complex:
    """Spectral-side pairing: macro inner products times beta pairings."""
    if psi.domain != u.domain:
        raise ValueError("fields live on different domains")
    grid = grid_spec.build(u.domain).refined()
    total = 0j
    for macro_u, w_u in u.terms:
        for macro_psi, w_psi in psi.terms:
            spectral = spectral_pairing(w_u, w_psi)
            if spectral == 0j:
                continue
            inner = integrate_on_grid(_product(macro_u, macro_psi), grid)
            total += inner * spectral
    return total


def validate_ladder(group, ladder) -> list:
    """A fundamental ladder: decreasing entries at or below the identity."""
    values = [group.validate(e) for e in ladder]
    if not values:
        raise ValueError("ladder is empty")
    if any(group.compare(e, group.identity) > 0 for e in values):
        raise ValueError("ladder entries must not exceed the identity")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("ladder must decrease strictly")
    return values


@dataclass
class SigmaReport:
    rows: list
    per_test: dict  # psi name -> {"fitted_order", "final_rel_err", "rhs"}
    passed: bool


def verify_sigma_convergence(
    u: TwoScaleField,
    psi_battery,
    action: Action,
    ladder,
    grid_spec: GridSpec,
    tol: float = 1e-2,
    p: float = 2.0,
) -> SigmaReport:
    """Pair u against every test field along the ladder and judge the limits.

    Relative errors are measured against the spectral pairing when it is
    away from zero and against the product of the fields' envelope norms
    otherwise.  The verdict requires the final-ladder relative error of
    every test field to sit below ``tol``; oscillation-free test fields
    double as the weak-limit check against the mean projection of u.  The
    trace norm bound is a separate verdict: :func:`trace_norm_bound_rows`.
    """
    if not 1.0 < p < math.inf:
        raise ValueError("the pairing exponent must satisfy 1 < p < inf")
    ladder = validate_ladder(action.group, ladder)
    scale_u = u.envelope_norm(p, grid_spec)
    rows = []
    per_test = {}
    passed = True
    for psi in psi_battery:
        rhs = sigma_pairing_rhs(u, psi, grid_spec)
        scale = max(abs(rhs), scale_u * psi.envelope_norm(p / (p - 1.0), grid_spec))
        errors = []
        values, estimates, nodes = sigma_pairing_lhs(u, psi, action, np.array(ladder), grid_spec)
        for eps, lhs, estimate in zip(ladder, values.tolist(), estimates.tolist()):
            abs_err = abs(lhs - rhs)
            rel_err = abs_err / max(scale, 1e-300)
            errors.append(rel_err)
            rows.append(
                {
                    "psi": psi.name,
                    "eps": float(eps),
                    "lhs": lhs,
                    "rhs": rhs,
                    "abs_err": abs_err,
                    "rel_err": rel_err,
                    "quad_est": estimate,
                    "nodes": nodes,
                    "oscillation_free": bool(np.all(psi.max_freq() == 0.0)),
                }
            )
        order = fit_decay_order(
            [action.group.ladder_scale(e) for e in ladder], errors, floor=ERROR_FLOOR / max(scale, 1e-300)
        )
        final = errors[-1]
        per_test[psi.name] = {"fitted_order": order, "final_rel_err": final, "rhs": rhs}
        passed = passed and final <= tol
    return SigmaReport(rows=rows, per_test=per_test, passed=passed)
