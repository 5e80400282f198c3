"""Homogeneous measures on R^N and their verification by quadrature.

The central object is the :class:`Homogenizer` triple (domain, action,
measure) together with the positive factor map c(eps) satisfying
``pushforward by H_eps = c(eps) * measure``.  Beside Lebesgue, weighted
power densities and point masses, a measure can be *constructed* from any
compactly supported seed away from the center by integrating orbit
evaluations against the weighted Haar measure of the acting group; the
construction is checked by the same homogeneity battery as the built-ins.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .actions import Action, DiagonalScaling
from .groups import as_scalar_or_array
from .quadrature import (
    Box,
    GridPoints,
    GridSpec,
    Product,
    QuadratureGrid,
    QuarticBump,
    SupportEscapeError,
    UnderResolvedError,
    integrate_with_refinement,
)

BOUNDARY_MASS_TOL = 1e-6
DEFAULT_TAIL_CUT = 1e-10
SEED_NODES_PER_AXIS = 128
# Haar nodes per unit of the group parameter in an orbit sweep's coarse pass
# (the refined pass takes twice as many), and the most blocks a sweep takes
ORBIT_NODES_PER_UNIT = 96
MAX_ORBIT_BLOCKS = 120


# -- test functions ----------------------------------------------------------
# Each formula reads its points through kernels.coordinates, so it runs on an
# (M, N) array of scattered points and on a tensor grid's GridPoints alike.  A
# separable one is a quadrature.Product or QuarticBump of per-axis parts,
# whose own tensor rule integrate_with_refinement applies to a pairing with
# Lebesgue measure.


@dataclass(frozen=True)
class TestFunction:
    """A named vectorised integrand with a known numerical support box.

    ``fn`` gets an (M, N) array or a tensor grid's :class:`GridPoints`; its
    values come back raveled in C order, in the dtype the formula gives.
    An ``fn`` that is a :class:`Product` or a :class:`QuarticBump` makes the
    test function separable.
    """

    __test__ = False  # plain data, despite the pytest-like name

    name: str
    fn: object
    support: Box

    def __call__(self, pts) -> np.ndarray:
        if not isinstance(pts, GridPoints):
            pts = np.atleast_2d(pts)
        return np.ravel(self.fn(pts))


def _separable(phi) -> bool:
    # phi's own formula has a tensor rule; a (J, M) stack has no fn
    return isinstance(getattr(phi, "fn", None), (Product, QuarticBump))


def gaussian(center, sigma: float, name: str | None = None) -> TestFunction:
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    radius = 12.0 * sigma
    box = Box(tuple(center - radius), tuple(center + radius))
    factors = tuple(lambda x, c=c: np.exp(-((x - c) ** 2) / (2.0 * sigma**2)) for c in center)
    return TestFunction(name or f"gauss-{sigma:g}", Product(factors), box)


def bump(center, width: float, name: str | None = None) -> TestFunction:
    """Compactly supported quartic bump (1 - (r/width)^2)^2 on a ball.

    It is the :class:`QuarticBump` of the terms ((x_a - c_a) / width)^2, whose
    sum is (r/width)^2, so a Lebesgue pairing sums its last axis in closed
    form.
    """
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    box = Box(tuple(center - width), tuple(center + width))
    terms = tuple(lambda x, c=c: ((x - c) / width) ** 2 for c in center)
    return TestFunction(name or f"bump-{width:g}", QuarticBump(terms), box)


def triangle(center: float, width: float, name: str | None = None) -> TestFunction:
    """One-dimensional hat function, Fourier transform ~ f^-2."""
    box = Box((center - width,), (center + width,))
    hat = Product((lambda x: np.maximum(0.0, 1.0 - np.abs(x - center) / width),))
    return TestFunction(name or f"triangle-{width:g}", hat, box)


def mollifier(center, width: float, name: str | None = None) -> TestFunction:
    """Infinitely smooth compact bump exp(1 - 1/(1 - r^2)) on a ball.

    All derivatives vanish at the support edge, so oscillatory pairings
    against it decay faster than any power.
    """
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    box = Box(tuple(center - width), tuple(center + width))

    def fn(pts):
        r2 = sum((x - c) ** 2 for x, c in zip(kernels.coordinates(pts), center)) / width**2
        inside = r2 < 1.0
        out = np.zeros(r2.shape)  # +0.0 off the support
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    return TestFunction(name or f"mollifier-{width:g}", fn, box)


def parabola(box: Box, name: str | None = None) -> TestFunction:
    """Product of normalized edge-vanishing parabolas on a box."""
    lows = np.asarray(box.lows)
    highs = np.asarray(box.highs)
    half = (highs - lows) / 2.0
    # each factor is negative off its side, so the clip zeroes the outside
    factors = tuple(lambda x, lo=lo, hi=hi, h=h: np.maximum((x - lo) * (hi - x) / h**2, 0.0)
                    for lo, hi, h in zip(lows, highs, half))
    return TestFunction(name or "parabola", Product(factors), box)


def default_battery(dim: int) -> list:
    """Three tensor Gaussians plus one compact bump, all centered at 0.3 on
    every axis, off the origin."""
    center = np.full(dim, 0.3)
    return [
        gaussian(center, 0.5),
        gaussian(center, 1.0),
        gaussian(center, 2.0),
        bump(center, 2.0),
    ]


# -- measures and homogenizers ------------------------------------------------


@dataclass(frozen=True)
class Lebesgue:
    """Lebesgue measure, times ``density`` if one is given, on ``domain`` if
    one is given; its dimension is that of the boxes it integrates over.

    The domain's bounds may be infinite; the effective quadrature box clips
    a candidate support box against them.
    """

    density: object = None
    domain: Box | None = None

    @classmethod
    def power_density(cls, power: float) -> "Lebesgue":
        """Density t^power on the positive half line."""

        def density(pts):
            (t,) = kernels.coordinates(pts)
            return np.maximum(t, 0.0) ** power

        return cls(density, Box((0.0,), (math.inf,)))

    def clip(self, box: Box) -> Box:
        if self.domain is None:
            return box
        lows = tuple(map(max, box.lows, self.domain.lows))
        highs = tuple(map(min, box.highs, self.domain.highs))
        if any(h <= l for l, h in zip(lows, highs)):
            raise SupportEscapeError(f"support {box} misses the measure domain {self.domain}")
        return Box(lows, highs)

    def weighted(self, phi):
        """The integrand of the pairing with phi: phi times the density."""
        if self.density is None:
            return phi
        return lambda pts: self.density(pts) * phi(pts)


@dataclass(frozen=True)
class PointMass:
    """The unit mass at ``point``."""

    point: tuple

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(float(p) for p in np.atleast_1d(self.point)))

    def pairing(self, phi) -> tuple[complex, float]:
        """phi(point), exactly: its error estimate is 0.  A phi that returns
        a (J, 1) stack pairs to J values and J zero estimates."""
        value = np.asarray(phi(np.asarray(self.point)[None, :]))[..., 0]
        if value.ndim:
            return value.astype(np.complex128), np.zeros(value.shape)
        return complex(value), 0.0


@dataclass(frozen=True)
class Homogenizer:
    """Action plus measure plus the positive factor map of the pushforward."""

    action: Action
    measure: object  # Lebesgue, PointMass or ConstructedMeasure
    factor_map: object  # callable: an element -> positive float, an array -> array
    grid_spec: GridSpec = field(default_factory=GridSpec)

    @classmethod
    def lebesgue(cls, action: Action, grid_spec: GridSpec | None = None) -> "Homogenizer":
        # volume change of a linear map gives the factor directly
        return cls(
            action=action,
            measure=Lebesgue(),
            factor_map=lambda eps: 1.0 / action.volume_factor(eps),
            grid_spec=grid_spec or GridSpec(),
        )

    @classmethod
    def weighted_power(
        cls, action: DiagonalScaling, power: float, grid_spec: GridSpec | None = None
    ) -> "Homogenizer":
        if action.dimension != 1:
            raise ValueError("power densities are one-dimensional")
        return cls(
            action=action,
            measure=Lebesgue.power_density(power),
            factor_map=action.group.character(action.exponents[0] * (power + 1.0)),
            grid_spec=grid_spec or GridSpec(),
        )

    @classmethod
    def point_mass(
        cls, action: Action, point=None, grid_spec: GridSpec | None = None
    ) -> "Homogenizer":
        point = action.center() if point is None else point
        return cls(
            action=action,
            measure=PointMass(point),
            factor_map=lambda eps: as_scalar_or_array(np.ones(np.shape(eps))),
            grid_spec=grid_spec or GridSpec(),
        )


def integrate(hz: Homogenizer, phi: TestFunction, max_freqs=None, edge_tol=None):
    """Pair the measure with a test function; returns (value, error estimate).

    A :class:`Lebesgue` measure integrates on a ``hz.grid_spec`` grid over
    phi's clipped support that resolves per-axis frequencies ``max_freqs``;
    with ``edge_tol`` that grid also rejects an integrand whose mass reaches
    its boundary.  It makes one :func:`integrate_with_refinement` call:
    without a density, a phi whose ``fn`` is a :class:`Product` or a
    :class:`QuarticBump` passes that formula, which takes its own tensor
    rule there, and every other phi passes ``measure.weighted(phi)``.
    Every other measure pairs by its own ``pairing``, without a grid.  A phi
    that returns a (J, M) stack pairs to J values and J estimates.
    """
    measure = hz.measure
    if not isinstance(measure, Lebesgue):
        return measure.pairing(phi)
    grid = hz.grid_spec.build(measure.clip(phi.support), max_freqs)
    if measure.density is None and _separable(phi):
        phi = phi.fn  # the formula itself, which takes its own tensor rule
    return integrate_with_refinement(measure.weighted(phi), grid, edge_tol)


class _Pushforwards:
    """The integrands x -> phi(H_eps x), one per element of ``eps``, as one
    (J, M) stack: H maps the points under all J elements in one
    ``Action.apply`` call and phi is called once on the images, so row j
    has the bits of the integrand of element j alone wherever a batched
    apply has the bits of single calls.  ``support`` holds one box per
    row, the image of phi's support under the inverse map."""

    def __init__(self, phi: TestFunction, action: Action, eps: np.ndarray):
        self.phi, self.action, self.eps = phi, action, eps  # eps: (J,) validated elements

    @property
    def support(self) -> tuple:
        inverse, box = self.action.group.inverse, self.phi.support
        return tuple(self.action.image_box(inverse(e), box) for e in self.eps.tolist())

    def __call__(self, pts) -> np.ndarray:
        images = self.action.apply(self.eps[:, None], pts)
        return self.phi(images.reshape(-1, images.shape[-1])).reshape(len(self.eps), -1)


def pushforward_pairing(hz: Homogenizer, eps, phi: TestFunction):
    """Quadrature of x -> phi(H_eps(x)) against the measure.

    The quadrature box follows the composed integrand's support (the image
    of the support of phi under the inverse map); mass detected on the box
    boundary raises :class:`SupportEscapeError`.  A separable phi's
    composed integrand is its formula with the parts pulled back, and so
    separable too, when H_eps maps axis by axis (``Action.pullback_factors``).

    ``eps`` is one group element or a 1-D array of them, as ``Action.apply``
    takes; for an array, value and estimate are arrays over it, entry j
    with the bits of the call at element j.  A :class:`Lebesgue` measure
    pairs each element on its own grid; every other measure pairs them all
    as one (J, M) stack by one :func:`integrate`, so a constructed measure
    sweeps its orbits once for the whole array.
    """
    eps = hz.action.group.validate(eps)
    if not np.ndim(eps):
        return _pushforward(hz, eps, phi)
    if not isinstance(hz.measure, Lebesgue):
        return integrate(hz, _Pushforwards(phi, hz.action, eps))
    values, estimates = zip(*(_pushforward(hz, e, phi) for e in eps.tolist()))
    return np.array(values, dtype=np.complex128), np.array(estimates)


def _pushforward(hz: Homogenizer, eps: float, phi: TestFunction):
    # pushforward_pairing at one validated element
    action = hz.action
    parts = action.pullback_factors(eps, phi.fn.parts) if _separable(phi) else None
    fn = replace(phi.fn, parts=parts) if parts is not None else lambda pts: phi(action.apply(eps, pts))
    support = action.image_box(action.group.inverse(eps), phi.support)
    return integrate(hz, TestFunction(f"{phi.name}@{eps:g}", fn, support), edge_tol=BOUNDARY_MASS_TOL)


def verify_homogeneity(hz: Homogenizer, ladder, battery) -> list:
    """Rows comparing pushforward(eps, phi) with c(eps) * integral(phi) over a
    battery: dicts of eps, phi, lhs, rhs, abs_err, rel_err and quad_est.

    Each battery entry pairs its pushforwards along the whole ladder by one
    :func:`pushforward_pairing` call.  The caller judges rel_err.
    """
    rows = []
    for phi in battery:
        base, base_est = integrate(hz, phi)
        lhs_all, lhs_ests = pushforward_pairing(hz, np.asarray(ladder), phi)
        for eps, lhs, lhs_est in zip(ladder, lhs_all.tolist(), lhs_ests.tolist()):
            c = float(hz.factor_map(eps))
            rhs = c * base
            scale = max(abs(rhs), 1e-300)
            rows.append(
                {
                    "eps": float(eps),
                    "phi": getattr(phi, "name", "phi"),
                    "lhs": lhs,
                    "rhs": rhs,
                    "abs_err": abs(lhs - rhs),
                    "rel_err": abs(lhs - rhs) / scale,
                    "quad_est": (lhs_est + c * base_est) / scale,
                }
            )
    return rows


def factor_decay(hz: Homogenizer, ladder) -> tuple[list, bool]:
    """(eps, c(eps)) along the ladder, ordered toward the group infimum, and
    whether c decreases strictly and at least halves overall, which together
    with the certified multiplicativity forces the vanishing limit."""
    factors = [(float(e), float(hz.factor_map(e))) for e in ladder]
    values = [c for _, c in factors]
    return factors, all(b < a for a, b in zip(values, values[1:])) and values[-1] <= 0.5 * values[0]


# sampled pairs (e, e') of the factor map's multiplicativity check, and the
# worst relative defect it allows
FACTOR_SAMPLES = 128
FACTOR_DEFECT_TOL = 1e-9


def check_factor_multiplicative(hz: Homogenizer, seed: int = 0) -> float:
    """Worst relative defect of c(e e') = c(e) c(e') on sampled pairs, all
    pairs in one pass of the factor map."""
    rng = random.Random(seed)
    group = hz.action.group
    eps1 = group.sample(rng, FACTOR_SAMPLES)
    eps2 = group.sample(rng, FACTOR_SAMPLES)
    lhs = hz.factor_map(group.compose(eps1, eps2))
    rhs = hz.factor_map(eps1) * hz.factor_map(eps2)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs), initial=0.0))


# -- the constructive measure --------------------------------------------------


def _bounding_radius(box: Box) -> float:
    """Radius of the smallest origin-centred ball that holds ``box``."""
    corners = np.abs(np.stack([np.asarray(box.lows), np.asarray(box.highs)]))
    return float(np.linalg.norm(np.max(corners, axis=0)))


@dataclass
class ConstructedMeasure:
    """Measure built by pairing orbits of a seed measure with weighted Haar mass.

    ``pairing(phi)`` evaluates the double integral of phi along orbits of
    the seed nodes against the weight h on the group, truncated where the
    closed-form tail mass drops below ``tail_cut`` and extended on the
    other side until successive blocks stop contributing.
    """

    action: Action
    seed_nodes: np.ndarray  # (K, N)
    seed_weights: np.ndarray  # (K,)
    tail_cut: float = DEFAULT_TAIL_CUT

    def _block_value(self, phi, params: np.ndarray, w: np.ndarray, height: int):
        """One-block contribution, the largest |phi| seen, the smallest orbit norm.

        phi sees the orbit points of many Haar nodes in one call, at most
        ``kernels.POINT_BUDGET`` values in all ``height`` rows of its stack
        (or one node's seed images).  Each node's seed sum is a row sum, the
        same whatever the budget, and the block total is one
        ``kernels.pairwise_dot`` over the node sums; all stay in the dtype
        phi returns.  A phi that returns a (J, M) stack gives J totals and J
        peaks, each row reduced as phi's row alone.
        """
        k, dim = self.seed_nodes.shape
        step = max(1, kernels.POINT_BUDGET // (height * k))
        node_sums = []
        peak = 0.0
        min_norm = math.inf
        for start in range(0, len(params), step):
            part = params[start : start + step]
            images = self.action.apply(part[:, None], self.seed_nodes)
            min_norm = min(min_norm, float(np.min(np.linalg.norm(images, axis=2))))
            values = np.asarray(phi(images.reshape(-1, dim)))
            values = values.reshape(values.shape[:-1] + (len(part), k))
            if not np.all(np.isfinite(values)):
                raise ValueError("integrand returned non-finite values")
            peak = np.maximum(peak, np.max(np.abs(values), axis=(-2, -1)))
            node_sums.append(np.sum(values * self.seed_weights, axis=-1))
        weights = w * self.action.group.weight(params)
        total = kernels.pairwise_dot(weights, np.concatenate(node_sums, axis=-1))
        return total, peak, min_norm

    def _sweep(self, phi, radii: list, nodes_per_unit: int):
        # Blocks descend from the tail cutoff; orbits run from the center
        # outward, so a row's sweep may stop only after they have crossed
        # its integrand's bounding radius, ``radii[j]`` or the one radius
        # all rows share.  Each row of a (J, M) stack stops where its own
        # sweep would, and the sweep ends with the last row.
        rows = None  # per row: [total, peak, quiet blocks]
        blocks = self.action.group.haar_blocks(self.tail_cut, nodes_per_unit, MAX_ORBIT_BLOCKS)
        for params, w in blocks:
            height = len(radii) if rows is None else len(rows)
            block, block_peak, min_norm = self._block_value(phi, params, w, height)
            stacked = np.ndim(block) > 0
            block, block_peak = np.atleast_1d(block).tolist(), np.atleast_1d(block_peak).tolist()
            if rows is None:
                rows = [[0j, 0.0, 0] for _ in block]
                radii = radii * len(rows) if len(radii) == 1 else radii
                if len(radii) != len(rows):
                    raise ValueError(f"{len(radii)} supports for a stack of {len(rows)} rows")
            for row, radius, value, value_peak in zip(rows, radii, block, block_peak):
                if row[2] >= 2:
                    continue
                row[0] += value
                row[1] = max(row[1], value_peak)
                if min_norm > radius and abs(value) <= 1e-14 * (1.0 + abs(row[0])):
                    row[2] += 1
                else:
                    row[2] = 0
            if all(row[2] >= 2 for row in rows):
                break
        else:
            raise UnderResolvedError(
                f"orbit sweep still contributing after {MAX_ORBIT_BLOCKS} blocks"
            )
        total, peak, _ = zip(*rows)
        if stacked:
            return np.array(total, dtype=np.complex128), np.array(peak)
        return total[0], peak[0]

    def pairing(self, phi) -> tuple[complex, float]:
        """The pairing with phi and its error estimate: J of each, as
        arrays, for a phi that returns a (J, M) stack.

        phi's ``support`` is one box, or for a stack one box per row, whose
        bounding radius lets that row's sweep stop.  The point budget
        counts every row of a stack, from the first block when it has one
        box per row and from the second when its rows share one box.
        """
        boxes = (phi.support,) if isinstance(phi.support, Box) else phi.support
        radii = [_bounding_radius(box) for box in boxes]
        value, peak = self._sweep(phi, radii, ORBIT_NODES_PER_UNIT)
        refined, _ = self._sweep(phi, radii, 2 * ORBIT_NODES_PER_UNIT)
        estimate = abs(refined - value) + self.tail_cut * peak
        return refined, estimate

    def as_homogenizer(self) -> Homogenizer:
        # no pairing of a constructed measure reads a grid
        group = self.action.group
        return Homogenizer(
            action=self.action,
            measure=self,
            factor_map=lambda eps: group.weight(group.inverse(eps)),
        )


def construct_measure(
    action: Action,
    seed: Lebesgue | PointMass,
    tail_cut: float = DEFAULT_TAIL_CUT,
) -> ConstructedMeasure:
    """Build a homogeneous measure from a compactly supported seed off-center.

    The seed must carry positive mass and keep a positive distance from the
    action's center.
    """
    if isinstance(seed, PointMass):
        nodes = np.asarray(seed.point, dtype=np.float64)[None, :]
        weights = np.ones(1)
    else:
        box = seed.domain
        if box is None or not all(math.isfinite(v) for v in box.lows + box.highs):
            raise ValueError("seed measures need a finite domain box")
        grid = QuadratureGrid(box=box, nodes_per_axis=(SEED_NODES_PER_AXIS,) * box.dim)
        nodes, weights = grid.points_and_weights()
        nodes = np.asarray(nodes)  # the orbit sweep maps scattered seed nodes
        if seed.density is not None:
            weights = weights * np.asarray(seed.density(nodes), dtype=np.float64)
    if float(np.sum(weights)) <= 0.0:
        raise ValueError("seed measure must be nonzero")
    distances = np.linalg.norm(nodes - action.center(), axis=1)
    if float(np.min(distances)) <= 1e-9:
        raise ValueError("seed support must stay away from the center")
    return ConstructedMeasure(
        action=action,
        seed_nodes=nodes,
        seed_weights=np.asarray(weights, dtype=np.float64),
        tail_cut=tail_cut,
    )


# -- vanishing mass at the center ------------------------------------------------


@dataclass
class CenterNullReport:
    check: str = field(default="center-null", init=False)
    masses: list  # (radius, mass)
    trivial: bool
    passed: bool


def verify_center_null(hz: Homogenizer, radii=None) -> CenterNullReport:
    """Integrate smoothed ball indicators around the center for shrinking radii.

    Each ball is a :func:`bump` paired by :func:`integrate`, so every measure
    takes its one pairing path; only the masses are read, not their error
    estimates.
    """
    if radii is None:
        radii = [2.0 ** (-n) for n in range(0, 8)]
    center = hz.action.center()
    masses = []
    for rho in radii:
        value, _ = integrate(hz, bump(center, rho, name=f"ball-{rho:g}"))
        masses.append((float(rho), abs(value)))
    values = [m for _, m in masses]
    trivial = values[-1] > 0.5 * values[0] and values[0] > 0.0
    decreasing = all(b < a or a == 0.0 for a, b in zip(values, values[1:]))
    vanishing = values[0] == 0.0 or values[-1] <= 1e-2 * max(values[0], 1e-300)
    return CenterNullReport(masses=masses, trivial=trivial, passed=decreasing and vanishing and not trivial)
