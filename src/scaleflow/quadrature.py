"""Tensor-product quadrature on boxes: midpoint and composite Gauss-Legendre.

Integrals are reported together with a refinement estimate, the difference
between the value on the grid and on the grid with doubled resolution.
An integral streams over the grid in leading-axis row blocks of at most
``kernels.POINT_BUDGET // 32`` nodes, so no grid-sized weights or
temporaries are built.  Each block is evaluated once and reduced by one
``kernels.pairwise_dot`` (numpy's pairwise ``np.sum`` of the weighted
values in their own dtype, so a real integrand sums in float64), and the
block sums combine by a fixed balanced pairwise tree.  The bits depend only
on the grid's shape and the block size, not on ``--jobs``; when every block
has the same power-of-two size of at least 128 nodes and their count is a
power of two, they are the bits of ``np.sum`` over the whole grid.

A grid hands its points to integrands as :class:`GridPoints`, one node
vector per axis: formulas that factor by axis read ``coords()`` and never
build the (n^d, d) point array; ``np.asarray`` builds it for any other use.
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


class SupportEscapeError(RuntimeError):
    """Integrand mass was detected at the quadrature boundary.

    Also raised when a support box misses the measure domain altogether, so
    that no pairing silently integrates over an empty box.
    """


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
    """Nodes and weights of one axis, and the axis's panel split or None.

    A composite Gauss axis of P > 1 panels has nodes x_(p,j) = mid_p +
    half * t_j at ravel index p * q + j, so it is a P x q tensor grid in
    disguise.  Its split is the pair (mid, half * t) of the P panel
    midpoints and the q local offsets, with half = (hi - lo) / (2 P); the
    nodes themselves keep their per-panel half-widths, so mid_p + (half *
    t)_j matches x_(p,j) to about one ulp, not bit for bit.  Midpoint and
    one-panel axes have no split.
    """
    if rule == MIDPOINT:
        h = (hi - lo) / n
        nodes = lo + (np.arange(n) + 0.5) * h
        weights = np.full(n, h)
        return nodes, weights, None
    if rule == GAUSS:
        q = panel_order
        panels = max(1, -(-n // q))
        ref_nodes, ref_weights = _legendre_rule(q)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes = (mid[:, None] + half[:, None] * ref_nodes[None, :]).ravel()
        weights = (half[:, None] * ref_weights[None, :]).ravel()
        split = None if panels == 1 else (mid, (0.5 * (hi - lo) / panels) * ref_nodes)
        return nodes, weights, split
    raise ValueError(f"unknown quadrature rule {rule!r}")


class GridPoints:
    """The points of a tensor grid, held as one node vector per axis.

    It stands for the (n_1 * ... * n_d, d) array of the points in C order,
    the order of ``meshgrid(indexing="ij")``: ``shape`` is that array's, and
    ``np.asarray`` builds it, anew on each call, for integrands that take
    opaque point arrays.  Formulas that factor by axis read :meth:`coords`
    instead (see ``kernels.coordinates``).

    ``splits`` holds, per axis, None or the panel split ``(offsets, local)``
    of a composite Gauss axis (see ``_axis_rule``): node p * q + j is
    offsets[p] + local[j] to about one ulp.  Only :meth:`factors` reads it,
    for ``kernels.trig_eval``; ``axes``, ``coords`` and ``np.asarray`` give
    the node vectors' bits.
    """

    def __init__(self, axes, splits=None):
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
        self.splits = (None,) * len(self.axes) if splits is None else tuple(splits)
        if len(self.splits) != len(self.axes):
            raise ValueError("one split or None per axis required")

    @property
    def shape(self) -> tuple:
        return (math.prod(len(a) for a in self.axes), len(self.axes))

    def coords(self) -> list:
        """The node vectors, axis a's shaped to span axis a of the grid, so
        a formula broadcast over them has the grid's shape."""
        return _spanning(self.axes)

    def factors(self) -> tuple[list, list]:
        """Coordinates with the leading axis read as its panel split, if any.

        Returns vectors, each shaped to span its own virtual axis, and for
        each the index of the grid axis it lies along.  A split leading axis
        gives its offsets and then its local nodes, so values broadcast over
        the vectors ravel in the grid's C order.  Only the leading axis is
        split: it is the one ``kernels.trig_eval`` does not tabulate once.
        """
        split = self.splits[0]
        if split is None:
            return self.coords(), list(range(len(self.axes)))
        return _spanning([*split, *self.axes[1:]]), [0, *range(len(self.axes))]

    def __array__(self, dtype=None, copy=None):
        grids = np.meshgrid(*self.axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return pts if dtype is None else pts.astype(dtype, copy=False)


def _spanning(vectors) -> list:
    # vector i reshaped to span axis i of a len(vectors)-dimensional grid
    dim = len(vectors)
    return [np.reshape(v, [-1 if j == i else 1 for j in range(dim)]) for i, v in enumerate(vectors)]


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
        """Per axis: its nodes, weights and panel split (see ``_axis_rule``).

        They are built once per grid, for all the blocks an integral streams
        over, so the arrays are shared and read-only.
        """
        return self._axes

    @functools.cached_property
    def _axes(self) -> tuple:
        axes = tuple(
            _axis_rule(lo, hi, n, self.rule, self.panel_order)
            for lo, hi, n in zip(self.box.lows, self.box.highs, self.nodes_per_axis)
        )
        for nodes, weights, split in axes:
            for array in (nodes, weights, *(split or ())):
                array.flags.writeable = False
        return axes

    def points_and_weights(self, start: int = 0, stop: int | None = None):
        """The nodes of leading-axis rows [start, stop) as :class:`GridPoints`
        and their weights raveled in C order; by default the whole grid.

        The weights are the rows' slice of the whole grid's, bit for bit.  A
        split leading axis (see ``_axis_rule``) is cut on panel edges only,
        and the block carries the split of its own panels.
        """
        nodes, weights, splits = zip(*self.axes())
        rows = len(nodes[0])
        stop = rows if stop is None else stop
        if not 0 <= start < stop <= rows:
            raise ValueError(f"rows [{start}, {stop}) are not a block of {rows} rows")
        lead = splits[0]
        if lead is not None:
            panel = len(lead[1])
            if start % panel or stop % panel:
                raise ValueError(f"rows [{start}, {stop}) cut a panel of {panel} nodes")
            lead = (lead[0][start // panel : stop // panel], lead[1])
        w = weights[0][start:stop]
        for wi in weights[1:]:
            w = np.multiply.outer(w, wi)
        pts = GridPoints((nodes[0][start:stop], *nodes[1:]), (lead, *splits[1:]))
        return pts, np.asarray(w).ravel()

    def refined(self, factor: int = 2) -> "QuadratureGrid":
        return replace(self, nodes_per_axis=tuple(n * factor for n in self.nodes_per_axis))


def _row_blocks(grid: QuadratureGrid) -> list:
    """The [start, stop) leading-axis row ranges an integral streams over.

    A block is the most whole rows, or on a split leading axis the most
    whole panels, of at most ``kernels.POINT_BUDGET // 32`` nodes, and never
    less than one row or one panel.
    """
    axes = grid.axes()
    rows = len(axes[0][0])
    row = math.prod(len(nodes) for nodes, _, _ in axes[1:])
    split = axes[0][2]
    panel = 1 if split is None else len(split[1])
    step = panel * max(1, kernels.POINT_BUDGET // 32 // (row * panel))
    return [(start, min(rows, start + step)) for start in range(0, rows, step)]


def _tree_sum(sums: list) -> complex:
    # balanced pairwise tree, left half first: np.sum's own split when the
    # blocks are equal and their count is a power of two
    if len(sums) == 1:
        return sums[0]
    half = len(sums) // 2
    return _tree_sum(sums[:half]) + _tree_sum(sums[half:])


def _integral_and_values(f, grid: QuadratureGrid, keep: bool = False):
    """The integral of f on the grid, one row block at a time, and with
    ``keep`` the values of f at every node in C order (else None)."""
    sums, kept = [], []
    for start, stop in _row_blocks(grid):
        pts, w = grid.points_and_weights(start, stop)
        values = np.ravel(f(pts))
        if values.shape[0] != pts.shape[0]:
            raise ValueError("integrand returned a wrong-sized array")
        if not np.isfinite(values).all():
            raise ValueError("integrand returned non-finite values")
        sums.append(kernels.pairwise_dot(w, values))
        if keep:
            kept.append(values)
    return _tree_sum(sums), np.concatenate(kept) if keep else None


def integrate_on_grid(f, grid: QuadratureGrid) -> complex:
    return _integral_and_values(f, grid)[0]


def integrate_with_refinement(f, grid: QuadratureGrid, edge_tol=None) -> tuple[complex, float]:
    """Integral on the doubled grid plus the coarse-to-fine difference.

    With ``edge_tol``, the coarse values also judge the support: more than
    that fraction of the |f| mass on the grid's outermost node layer raises
    :class:`SupportEscapeError` before the fine grid is evaluated.  Each
    grid is evaluated once, block by block; only an edge-checked coarse grid
    keeps its values.
    """
    coarse, values = _integral_and_values(f, grid, keep=edge_tol is not None)
    if edge_tol is not None:
        fraction = boundary_mass_fraction(values, grid)
        if fraction > edge_tol:
            raise SupportEscapeError(
                f"{fraction:.2e} of the integrand mass sits on the grid boundary"
            )
    del values  # hold one grid's values at a time
    fine = integrate_on_grid(f, grid.refined())
    return fine, abs(fine - coarse)


def _weighted_total(mass: np.ndarray, weights) -> float:
    # contract each axis with its weights, the last axis first
    for w in reversed(weights):
        mass = mass @ w
    return float(mass)


def boundary_mass_fraction(values, grid: QuadratureGrid) -> float:
    """Fraction of the |f| mass carried by the outermost node layer, from
    the values of f at the grid's nodes in C order.

    Used to detect integrands whose support escapes the quadrature box.
    """
    weights = [w for _, w, _ in grid.axes()]
    mass = np.abs(values).reshape(grid.nodes_per_axis)
    total = _weighted_total(mass, weights)
    if total == 0.0:
        return 0.0
    inner = mass[(slice(1, -1),) * mass.ndim]
    return (total - _weighted_total(inner, [w[1:-1] for w in weights])) / total


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
