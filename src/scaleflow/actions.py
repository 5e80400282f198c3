"""Concrete scaling-group actions on R^N with numeric certificates.

Every built-in variant acts linearly, so beside sampled evidence the
certificates can cross-check exact operator-norm bounds.  Set inclusions
(absorption of a ball, escape to infinity) are certified on deterministic
low-discrepancy samples of ball boundaries along a parameter ladder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .groups import POSITIVE_MULTIPLICATIVE, REAL_ADDITIVE, RGroup, as_scalar_or_array
from .quadrature import Box, GridPoints

GROUP_LAW_TOL = 1e-9
CENTER_TOL = 1e-12


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor evaluation of exp(a), for one (N, N)
    matrix or for each of a stack (..., N, N).

    The argument is halved until its 1-norm is below 1/2, a fixed-order
    Taylor sum is taken, and the result squared back; the truncation level
    keeps the series error below 1e-13 with margin.  A stack takes one
    series with stacked products, and each matrix its own squarings, so
    every matrix has the bits of its one-matrix call.
    """
    a = np.asarray(a, dtype=np.float64)
    norms = np.linalg.norm(a, 1, axis=(-2, -1))
    squarings = np.reshape(
        [math.ceil(math.log2(n / 0.5)) if n > 0.5 else 0 for n in np.ravel(norms).tolist()],
        norms.shape,
    ).astype(int)
    b = a / (2.0**squarings)[..., None, None]
    result = np.broadcast_to(np.eye(a.shape[-1]), a.shape)
    term = result
    for n in range(1, 21):
        term = term @ b / n
        result = result + term
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        result[more] = result[more] @ result[more]
    return result


def _halton(dim: int, count: int) -> np.ndarray:
    """First ``count`` points of the unscrambled Halton sequence (Halton 1960):
    coordinate j is the radical inverse of the point index in the j-th prime."""
    bases = []
    candidate = 2
    while len(bases) < dim:
        if all(candidate % p for p in bases):
            bases.append(candidate)
        candidate += 1
    out = np.zeros((count, dim))
    for j, base in enumerate(bases):
        index = np.arange(count)
        scale = 1.0 / base
        while index.any():
            out[:, j] += (index % base) * scale
            index //= base
            scale /= base
    return out


def sphere_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit directions, axes included."""
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    extra = max(0, count - 2 * dim)
    if dim == 1 or extra == 0:
        return axes
    inv_cdf = NormalDist().inv_cdf
    u = np.clip(_halton(dim, extra + 8), 1e-12, 1 - 1e-12)
    z = np.array([[inv_cdf(v) for v in row] for row in u.tolist()])
    z = z[np.linalg.norm(z, axis=1) > 1e-8][:extra]
    return np.concatenate([axes, z / np.linalg.norm(z, axis=1, keepdims=True)])


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.center)

    def boundary_points(self, count: int) -> np.ndarray:
        dirs = sphere_directions(self.dim, count)
        return np.asarray(self.center) + self.radius * dirs


class Action:
    """Base class: a parametrised family of linear maps of R^N.  Only this
    module reads the matrix: norms, volumes, image boxes, frequency bounds
    and pulled-back trig polynomials.

    ``apply``, ``matrix``, ``operator_norm`` and ``volume_factor`` take one
    group element or an array of them.  ``apply(eps, x)`` broadcasts ``eps``
    against the leading axes of the points ``x`` (..., N): an (E, 1) column
    of parameters maps (K, N) points to (E, K, N), and an (L,) ladder maps
    one point to (L, N).
    """

    group: RGroup
    dimension: int

    def matrix(self, params) -> np.ndarray:
        """The representing matrices, of shape ``np.shape(params) + (N, N)``."""
        raise NotImplementedError

    def apply(self, eps, x):
        """Images of the points ``x`` (..., N) under H at ``eps``, broadcast
        as the class docstring says.  A tensor grid's :class:`GridPoints`
        takes one element."""
        eps = self.group.validate(eps)
        if isinstance(x, GridPoints):
            if np.ndim(eps) or x.shape[1] != self.dimension:
                raise ValueError(f"a grid in R^{self.dimension} maps under one element, got {x.shape}")
            return self._apply_grid(eps, x)
        return self._apply(eps, self._points(x))

    def _points(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=np.float64)
        if pts.ndim == 0 or pts.shape[-1] != self.dimension:
            raise ValueError(f"expected points of dimension {self.dimension}, got shape {pts.shape}")
        return pts

    def _apply(self, eps, pts: np.ndarray) -> np.ndarray:
        # validated parameters and (..., N) points: broadcast matrix-vector products
        return np.einsum("...ij,...j->...i", self.matrix(eps), pts)

    def _apply_grid(self, eps: float, grid: GridPoints):
        # a general linear map mixes the axes: image of the built point array
        return self._apply(eps, np.asarray(grid))

    def center(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def operator_norm(self, params):
        """Spectral norm l(eps) of H_eps: a float for one element, an array
        for an array of them."""
        return as_scalar_or_array(np.linalg.norm(self.matrix(params), 2, axis=(-2, -1)))

    def parameter_window(self) -> float:
        """Half-width of the certificate sampling window in the group's Haar
        coordinate.  Variants whose values grow exponentially in the
        parameter narrow it so rounding stays below the certificate
        tolerance."""
        return self.group.parameter_window()

    def volume_factor(self, params):
        """|det| of the representing matrix, used by Lebesgue pushforwards:
        a float for one element, an array for an array of them."""
        return as_scalar_or_array(np.abs(np.linalg.det(self.matrix(params))))

    def image_box(self, eps: float, box: Box) -> Box:
        """Bounding box of the image of ``box`` under H_eps."""
        a = self.matrix(eps)
        lows, highs = np.asarray(box.lows), np.asarray(box.highs)
        center = a @ (0.5 * (lows + highs))
        half = np.abs(a) @ (0.5 * (highs - lows))
        return Box(tuple(center - half), tuple(center + half))

    def pullback(self, eps: float, poly):
        """The trig polynomial y -> poly(y) pulled back to x -> poly(H_eps x):
        ``poly.compose_linear`` of the matrix at ``eps``."""
        return poly.compose_linear(self.matrix(eps))

    def frequency_bound(self, eps: float, bound) -> np.ndarray:
        """Per-axis frequency bound of f(H_eps(x)) when f's per-axis
        frequencies are bounded by ``bound``: |B(eps)|^T bound."""
        return np.abs(self.matrix(eps)).T @ bound

    def pullback_factors(self, eps: float, factors):
        """Per-axis callables x_a -> factors[a]((H_eps x)_a), or None when
        H_eps mixes the axes, as a general linear map does.  They compose
        f(y) = prod_a factors[a](y_a) with H_eps, and so any f built axis by
        axis, such as the quartic bump's sum of per-axis terms."""
        return None


@dataclass(frozen=True)
class DiagonalScaling(Action):
    """Coordinatewise scaling x_i -> x_i / eps**r_i over the positive reals."""

    exponents: tuple
    group: RGroup = field(default_factory=lambda: RGroup(POSITIVE_MULTIPLICATIVE))

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(r) for r in self.exponents))
        if self.group.kind != POSITIVE_MULTIPLICATIVE:
            raise ValueError("diagonal scaling requires the multiplicative group")
        if any(r < 1 for r in self.exponents):
            raise ValueError("scaling exponents must be integers >= 1")

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def _scales(self, params) -> np.ndarray:
        """Coordinate factors eps**-r_i at validated parameters, of shape
        ``np.shape(params) + (N,)``.

        The exponents are copied into every row: with a broadcast exponent
        np.power takes its scalar-exponent fast path (a reciprocal for
        r_i = 1), which rounds differently from the elementwise power of a
        scalar ``eps ** -r``.
        """
        params = np.asarray(params)
        exponents = -np.asarray(self.exponents, dtype=np.float64)
        return np.power(params[..., None], np.tile(exponents, params.shape + (1,)))

    def matrix(self, params) -> np.ndarray:
        scales = self._scales(self.group.validate(params))
        out = np.zeros(scales.shape + (self.dimension,))
        out[..., range(self.dimension), range(self.dimension)] = scales
        return out

    def _apply(self, eps, pts: np.ndarray) -> np.ndarray:
        return pts * self._scales(eps)

    def _apply_grid(self, eps: float, grid: GridPoints) -> GridPoints:
        # scaling each axis maps a tensor grid to a tensor grid, and both
        # halves of the leading axis's panel split to the scaled axis's split
        scales = self._scales(eps)
        lead = None if grid.lead is None else tuple(part * scales[0] for part in grid.lead)
        return GridPoints([axis * s for axis, s in zip(grid.axes, scales)], lead)

    def pullback_factors(self, eps: float, factors):
        # x_a -> f_a(x_a * s_a), the products that _apply_grid forms
        scales = self._scales(self.group.validate(eps))
        return tuple(lambda x, f=f, s=s: f(x * s) for f, s in zip(factors, scales))

    def operator_norm(self, params):
        return as_scalar_or_array(np.max(self._scales(self.group.validate(params)), axis=-1))

    def volume_factor(self, params):
        # eps ** -sum(r) in Python's float power, element by element, so an
        # array of parameters gets the bits of one-element calls
        params = self.group.validate(params)
        power = -sum(self.exponents)
        values = [eps**power for eps in np.ravel(params).tolist()]
        return as_scalar_or_array(np.reshape(values, np.shape(params)))


@dataclass(frozen=True)
class LinearFamily(Action):
    """Action given by an arbitrary matrix-valued map eps -> B(eps).

    The map is not validated against the composition law at construction;
    ``certify_group_law`` exists precisely to test it.
    """

    group: RGroup
    dimension: int
    matrix_fn: ...  # callable (eps) -> (N, N) array

    def matrix(self, params) -> np.ndarray:
        # one matrix_fn call per element, each checked, then stacked
        params = self.group.validate(params)
        n = self.dimension
        blocks = [np.asarray(self.matrix_fn(e), dtype=np.float64) for e in np.ravel(params).tolist()]
        for b in blocks:
            if b.shape != (n, n):
                raise ValueError(f"matrix map returned shape {b.shape}")
        return np.reshape(np.array(blocks, dtype=np.float64), np.shape(params) + (n, n))


@dataclass(frozen=True)
class ExpSemigroup(Action):
    """One-parameter group x -> exp(-k*eps) * exp(-eps*P) x on R^N."""

    k: float
    generator: tuple  # row-major N*N entries
    dimension: int
    group: RGroup = field(default_factory=lambda: RGroup(REAL_ADDITIVE))

    def __post_init__(self):
        p = self.generator_matrix()
        if self.group.kind != REAL_ADDITIVE:
            raise ValueError("exponential semigroup requires the additive reals")
        if self.k <= np.linalg.norm(p, 2):
            raise ValueError("decay rate k must exceed the operator norm of P")

    @classmethod
    def from_matrix(cls, k: float, p, group: RGroup | None = None) -> "ExpSemigroup":
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("generator must be a square matrix")
        kwargs = {} if group is None else {"group": group}
        return cls(k=float(k), generator=tuple(p.ravel()), dimension=p.shape[0], **kwargs)

    def generator_matrix(self) -> np.ndarray:
        return np.asarray(self.generator, dtype=np.float64).reshape(
            self.dimension, self.dimension
        )

    def matrix(self, params) -> np.ndarray:
        # exp(-k eps) times one stacked matrix_exponential of -eps P: each
        # matrix has the bits of its own one-element call
        params = self.group.validate(params)
        flat = np.ravel(params)
        decay = np.array([math.exp(-self.k * eps) for eps in flat.tolist()])
        out = decay[:, None, None] * matrix_exponential(-flat[:, None, None] * self.generator_matrix())
        return out.reshape(np.shape(params) + (self.dimension, self.dimension))

    def parameter_window(self) -> float:
        # keep exp((k + |P|) * window) small enough that rounding cannot
        # masquerade as a composition-law violation
        growth = self.k + float(np.linalg.norm(self.generator_matrix(), 2))
        return min(3.0, 4.0 / growth)


@dataclass(frozen=True)
class ProductAction(Action):
    """Componentwise action of a shared group on a product of spaces."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("product requires at least one factor")
        g = self.factors[0].group
        if any(f.group != g for f in self.factors):
            raise ValueError("product factors must share one group")

    @property
    def group(self) -> RGroup:
        return self.factors[0].group

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)

    def _slices(self):
        start = 0
        for f in self.factors:
            yield f, slice(start, start + f.dimension)
            start += f.dimension

    def matrix(self, params) -> np.ndarray:
        params = self.group.validate(params)
        out = np.zeros(np.shape(params) + (self.dimension, self.dimension))
        for f, sl in self._slices():
            out[..., sl, sl] = f.matrix(params)
        return out

    def parameter_window(self) -> float:
        return min(f.parameter_window() for f in self.factors)


def product(actions) -> ProductAction:
    return ProductAction(factors=tuple(actions))


# -- certificates ------------------------------------------------------------


@dataclass
class GroupLawReport:
    check: str = field(default="group-law", init=False)
    passed: bool
    worst_violation: float
    tolerance: float
    sample_count: int
    seed: int


def _threshold(ladder: np.ndarray, passed: np.ndarray):
    """First ladder entry from which every entry passes, or None."""
    failed = np.flatnonzero(~passed)
    start = failed[-1] + 1 if failed.size else 0
    return float(ladder[start]) if start < ladder.size else None


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis.  Each is the square root of one
    vector's dot product with itself, as ``np.linalg.norm`` takes a single
    vector, so a batched certificate reports the bits of a per-vector loop."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def certify_group_law(action: Action, sample_count: int = 64, seed: int = 0) -> GroupLawReport:
    """Sample (eps, eps', x) and compare H_eps(H_eps'(x)) with H_(eps eps')(x)."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = random.Random(seed)
    window = action.parameter_window()
    eps1 = action.group.sample(rng, sample_count, window)
    eps2 = action.group.sample(rng, sample_count, window)
    xs = np.array([[rng.gauss(0.0, 2.0) for _ in range(action.dimension)]
                   for _ in range(sample_count)])
    lhs = action.apply(eps1, action.apply(eps2, xs))
    rhs = action.apply(action.group.compose(eps1, eps2), xs)
    worst = float(np.max(_norms(lhs - rhs) / (1.0 + _norms(xs))))
    return GroupLawReport(
        passed=worst <= GROUP_LAW_TOL,
        worst_violation=worst,
        tolerance=GROUP_LAW_TOL,
        sample_count=sample_count,
        seed=seed,
    )


@dataclass
class AbsorptionCertificate:
    """Witness that H at inverse parameters maps K into V from a threshold on."""

    check: str = field(default="absorption", init=False)
    source: Ball
    target: Ball
    threshold: float | None
    sample_evidence: list  # (eps, worst sampled distance from center)
    exact_bounds: list | None  # (eps, operator-norm distance bound)
    passed: bool


def certify_absorption(
    action: Action,
    source: Ball,
    target: Ball,
    ladder,
    directions_per_dim: int = 64,
) -> AbsorptionCertificate:
    """Find the largest ladder entry alpha with H_(eps^-1)(K) inside V for eps <= alpha.

    ``target`` must be centred at the action's center; sampled boundary
    points of ``source`` provide the finite witness, and for the built-in
    linear variants an exact operator-norm bound is recorded alongside.
    """
    center = action.center()
    if np.linalg.norm(np.asarray(target.center) - center) > CENTER_TOL:
        raise ValueError("target ball must be centred at the action center")
    ladder = action.group.validate(ladder)
    if np.any(ladder[1:] >= ladder[:-1]):
        raise ValueError("ladder must decrease strictly")
    inv = action.group.inverse(ladder)
    pts = source.boundary_points(directions_per_dim * action.dimension)
    images = action.apply(inv[:, None], pts)  # (ladder, points, N)
    dist = np.max(np.linalg.norm(images - center, axis=2), axis=1)
    offset = _norms(action.apply(inv, np.asarray(source.center)) - center)
    bound = action.operator_norm(inv) * source.radius + offset
    threshold = _threshold(ladder, dist <= target.radius)
    eps = ladder.tolist()
    return AbsorptionCertificate(
        source=source,
        target=target,
        threshold=threshold,
        sample_evidence=list(zip(eps, dist.tolist())),
        exact_bounds=list(zip(eps, bound.tolist())),
        passed=threshold is not None,
    )


@dataclass
class EscapeReport:
    check: str = field(default="escape", init=False)
    passed: bool
    threshold: float | None
    radius: float
    norms: list  # (eps, |H_eps(x)|)


def certify_escape(action: Action, x, ladder, radius: float) -> EscapeReport:
    """Check |H_eps(x)| exceeds ``radius`` for all ladder entries past a threshold."""
    x = np.asarray(x, dtype=np.float64)
    if np.linalg.norm(x - action.center()) <= CENTER_TOL:
        raise ValueError("escape is undefined at the center")
    ladder = action.group.validate(ladder)
    norms = _norms(action.apply(ladder, x))
    threshold = _threshold(ladder, norms > radius)
    return EscapeReport(passed=threshold is not None, threshold=threshold, radius=radius,
                        norms=list(zip(ladder.tolist(), norms.tolist())))
