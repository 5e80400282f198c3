"""Tensor-product quadrature on boxes: midpoint and composite Gauss-Legendre.

Integrals are reported together with a refinement estimate, the difference
between the value on the grid and on the grid with doubled resolution.
Reductions go through the deterministic pairwise kernels so results do not
depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels

MIDPOINT = "midpoint"
GAUSS = "gauss"


class UnderResolvedError(RuntimeError):
    """A grid is too coarse for the oscillation it must resolve."""


@dataclass(frozen=True)
class Box:
    lows: tuple
    highs: tuple

    def __post_init__(self):
        object.__setattr__(self, "lows", tuple(float(v) for v in self.lows))
        object.__setattr__(self, "highs", tuple(float(v) for v in self.highs))
        if len(self.lows) != len(self.highs):
            raise ValueError("lows and highs must have equal length")
        if any(h <= l for l, h in zip(self.lows, self.highs)):
            raise ValueError("box sides must have positive length")

    @property
    def dim(self) -> int:
        return len(self.lows)

    @property
    def sides(self) -> tuple:
        return tuple(h - l for l, h in zip(self.lows, self.highs))


@functools.lru_cache(maxsize=16)
def _legendre_rule(q: int):
    """Gauss-Legendre nodes and weights of order q on [-1, 1], computed once.

    The arrays are shared by every caller, so they are read-only.
    """
    rule = np.polynomial.legendre.leggauss(q)
    for array in rule:
        array.flags.writeable = False
    return rule


def _axis_rule(lo: float, hi: float, n: int, rule: str, panel_order: int):
    if rule == MIDPOINT:
        h = (hi - lo) / n
        nodes = lo + (np.arange(n) + 0.5) * h
        weights = np.full(n, h)
        return nodes, weights
    if rule == GAUSS:
        q = panel_order
        panels = max(1, -(-n // q))
        ref_nodes, ref_weights = _legendre_rule(q)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * ref_nodes[None, :]).ravel()
        weights = (half[:, None] * ref_weights[None, :]).ravel()
        return nodes, weights
    raise ValueError(f"unknown quadrature rule {rule!r}")


@dataclass(frozen=True)
class QuadratureGrid:
    box: Box
    nodes_per_axis: tuple
    rule: str = MIDPOINT
    panel_order: int = 16

    def __post_init__(self):
        n = self.nodes_per_axis
        if isinstance(n, int):
            n = (n,) * self.box.dim
        object.__setattr__(self, "nodes_per_axis", tuple(int(v) for v in n))
        if len(self.nodes_per_axis) != self.box.dim:
            raise ValueError("one node count per axis required")
        if any(v < 1 for v in self.nodes_per_axis):
            raise ValueError("node counts must be positive")
        if self.rule not in (MIDPOINT, GAUSS):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")

    @property
    def total_points(self) -> int:
        return math.prod(self.nodes_per_axis)

    def axes(self):
        return [
            _axis_rule(lo, hi, n, self.rule, self.panel_order)
            for lo, hi, n in zip(self.box.lows, self.box.highs, self.nodes_per_axis)
        ]

    def points_and_weights(self):
        axes = self.axes()
        node_grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        pts = np.stack([g.ravel() for g in node_grids], axis=-1)
        w = axes[0][1]
        for _, wi in axes[1:]:
            w = np.multiply.outer(w, wi)
        return pts, np.asarray(w).ravel()

    def refined(self, factor: int = 2) -> "QuadratureGrid":
        return replace(self, nodes_per_axis=tuple(n * factor for n in self.nodes_per_axis))


def integrate_on_grid(f, grid: QuadratureGrid) -> complex:
    pts, w = grid.points_and_weights()
    values = np.asarray(f(pts), dtype=np.complex128).ravel()
    if values.shape[0] != pts.shape[0]:
        raise ValueError("integrand returned a wrong-sized array")
    if not np.all(np.isfinite(values.view(np.float64))):
        raise ValueError("integrand returned non-finite values")
    return kernels.pairwise_dot(w, values)


def integrate_with_refinement(f, grid: QuadratureGrid) -> tuple[complex, float]:
    """Integral on the doubled grid plus the coarse-to-fine difference."""
    coarse = integrate_on_grid(f, grid)
    fine = integrate_on_grid(f, grid.refined())
    return fine, abs(fine - coarse)


def boundary_mass_fraction(f, grid: QuadratureGrid) -> float:
    """Fraction of |f| mass carried by the outermost node layer.

    Used to detect integrands whose support escapes the quadrature box.
    """
    pts, w = grid.points_and_weights()
    values = np.abs(np.asarray(f(pts), dtype=np.complex128).ravel())
    total = float(np.sum(w * values))
    if total == 0.0:
        return 0.0
    shape = grid.nodes_per_axis
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        index = [slice(None)] * len(shape)
        index[axis] = 0
        mask[tuple(index)] = True
        index[axis] = shape[axis] - 1
        mask[tuple(index)] = True
    edge = float(np.sum((w * values).reshape(shape)[mask]))
    return edge / total


def resolved_nodes(
    side: float,
    max_freq: float,
    base: int,
    nodes_per_period: int = 8,
    cap: int | None = None,
    multiple_of: int = 1,
) -> int:
    """Node count resolving oscillation ``exp(2 pi i f x)`` on a side.

    Raises :class:`UnderResolvedError` when more than ``cap`` nodes would be
    needed.
    """
    need = max(base, int(math.ceil(side * abs(max_freq) * nodes_per_period)))
    if multiple_of > 1:
        need = ((need + multiple_of - 1) // multiple_of) * multiple_of
    if cap is not None and need > cap:
        raise UnderResolvedError(
            f"{need} nodes needed to resolve frequency {max_freq} on a side of "
            f"length {side}, cap is {cap}"
        )
    return need
