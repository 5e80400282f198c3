"""Tensor-product quadrature on boxes: composite Gauss-Legendre panels.

Every grid axis is P = n / q panels of the q-point Gauss-Legendre rule,
all of one width; the midpoint rule is q = 1.  A :class:`GridSpec` sizes
the grids, and :meth:`QuadratureGrid.refined` doubles them.

:func:`integrate_with_refinement` reports an integral on the doubled grid
together with a refinement estimate, the difference between the value on
the grid and on the doubled one.

An integral streams over the grid in leading-axis row blocks of at most
``kernels.POINT_BUDGET // 32`` nodes, so no grid-sized weights or
temporaries are built.  Each block is evaluated once and reduced by one
``kernels.pairwise_dot`` (numpy's pairwise ``np.sum`` of the weighted
values in their own dtype, so a real integrand sums in float64), and the
block sums combine by a fixed balanced pairwise tree.  The bits depend only
on the grid's shape and the block size, not on ``--jobs``; when every block
has the same power-of-two size of at least 128 nodes and their count is a
power of two, they are the bits of ``np.sum`` over the whole grid.  A
grid evaluated node by node holds at most ``MAX_GRID_NODES`` nodes, its
doubling included; a larger one raises :class:`UnderResolvedError` before
its first block.

The integrand of :func:`integrate_on_grid` or :func:`integrate_with_refinement`
returns its values at a block's M nodes, in any shape of that size, or a
(J, M) stack of the values of J integrands on the same nodes; a stack
integrates to J values, row j to the bits of its own integral.

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


def _legendre_series(x, c) -> np.ndarray:
    # sum_n c[n] P_n(x) by Clenshaw's recurrence, numpy's legval step for step
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=16)
def _legendre_rule(q: int):
    """Gauss-Legendre nodes and weights of order q on [-1, 1], computed once.

    This is numpy's ``leggauss`` without importing ``numpy.polynomial``, and
    it has its bits: the eigenvalues of the symmetric companion matrix
    (Golub and Welsch, Math. Comp. 23, 1969), one Newton step on P_q, and
    weights 1 / (P_(q-1) P_q') symmetrised and scaled to sum to 2.  The
    arrays are shared by every caller, so they are read-only.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(q) + 1)
    # eigvalsh reads the lower triangle of the symmetric matrix alone
    x = np.linalg.eigvalsh(np.diag(np.arange(1, q) * scale[:-1] * scale[1:], -1))
    p_q = [0.0] * q + [1.0]
    # P_q' = sum of (2k + 1) P_k over k = q - 1, q - 3, ...
    slope = _legendre_series(x, [2.0 * k + 1.0 if (q - k) % 2 else 0.0 for k in range(q)])
    x = x - _legendre_series(x, p_q) / slope
    below = _legendre_series(x, p_q[1:])
    w = 1 / ((below / np.abs(below).max()) * (slope / np.abs(slope).max()))
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    rule = ((x - x[::-1]) / 2, w)
    for array in rule:
        array.flags.writeable = False
    return rule


def _axis_panels(lo: float, hi: float, n: int, q: int):
    """Panel midpoints, the panel half-width h and the reference rule of an
    axis of P = n / q panels of the q-point Gauss-Legendre rule.

    Every panel has width 2 h = (hi - lo) / P, and panel p has midpoint
    lo + (p + 1/2) 2 h.  Node j of panel p is mid_p + h t_j, of weight
    h w_j.  The midpoint rule is q = 1: the node t = 0 of weight 2.
    """
    width = (hi - lo) / (n // q)
    return lo + (np.arange(n // q) + 0.5) * width, 0.5 * width, _legendre_rule(q)


def _axis_rule(lo: float, hi: float, n: int, q: int):
    """Nodes and weights of an axis of ``_axis_panels``, and its panel split
    or None.

    Node x_(p,j) = mid_p + h t_j sits at ravel index p * q + j, so an axis
    of P > 1 panels of q > 1 nodes is a P x q tensor grid in disguise.  Its
    split is the pair (mid, h t) of the panel midpoints and the local
    offsets, and mid_p + (h t)_j is x_(p,j) bit for bit.  Midpoint and
    one-panel axes have no split.
    """
    mid, h, (t, w) = _axis_panels(lo, hi, n, q)
    local = h * t
    nodes = (mid[:, None] + local[None, :]).ravel()
    weights = np.tile(h * w, len(mid))
    return nodes, weights, None if len(t) == 1 or len(mid) == 1 else (mid, local)


@functools.lru_cache(maxsize=16)
def _legendre_projection(q: int) -> np.ndarray:
    """The (q, q) matrix L[n, j] = (2n + 1) / 2 * w_j * P_n(t_j) of the
    q-point rule (t, w) on [-1, 1], computed once and read-only.

    Applied to a function's values at the nodes it gives the Legendre
    coefficients of their interpolating polynomial of degree < q: the
    Gauss sum of P_n f is exact for such polynomials.
    """
    t, w = _legendre_rule(q)
    legendre = [np.ones_like(t), t]
    for n in range(1, q - 1):  # Bonnet: (n + 1) P_(n+1) = (2n + 1) t P_n - n P_(n-1)
        legendre.append(((2 * n + 1) * t * legendre[n] - n * legendre[n - 1]) / (n + 1))
    scale = (2.0 * np.arange(q) + 1.0) / 2.0
    projection = scale[:, None] * w[None, :] * np.stack(legendre[:q])
    projection.flags.writeable = False
    return projection


def _spherical_bessel(q: int, kappa: float) -> list:
    """[j_0(kappa), ..., j_(q-1)(kappa)] at one kappa >= 0, in float arithmetic.

    - kappa < 1: the power series, summed until its terms stop counting.
    - n < kappa: forward recurrence from j_0 = sin(k) / k and j_1, stable
      there.
    - n >= kappa >= 1: Miller's backward recurrence (Gautschi, SIAM Review
      9, 1967) from n = q + 32, normalised by sum (2n + 1) j_n^2 = 1, never
      by j_0, which vanishes at kappa = m pi.
    """
    if kappa < 1.0:
        # j_n(k) = k^n / (2n + 1)!! * sum_m (-k^2 / 2)^m / (m! (2n + 3) ... (2n + 2m + 1))
        out, lead, x = [], 1.0, -0.5 * kappa * kappa
        for n in range(q):
            lead = lead * kappa / (2 * n + 1) if n else 1.0
            term, total, m = 1.0, 1.0, 0
            while abs(term) > 1e-17 * abs(total):
                m += 1
                term *= x / (m * (2 * n + 2 * m + 1))
                total += term
            out.append(lead * total)
        return out
    out = [math.sin(kappa) / kappa]
    out.append((out[0] - math.cos(kappa)) / kappa)
    for n in range(1, min(q - 1, math.ceil(kappa) - 1)):  # up to the last n < kappa
        out.append((2 * n + 1) / kappa * out[n] - out[n - 1])
    forward = out[: min(q, math.ceil(kappa))]
    if len(forward) == q:
        return forward
    miller = _miller(q, kappa)
    # Miller's values carry the arbitrary sign of its start: take the sign
    # that agrees with the forward values, which include j_0 and j_1 and
    # never vanish both
    if sum(a * b for a, b in zip(forward, miller)) < 0.0:
        miller = [-v for v in miller]
    return forward + miller[len(forward) :]


def _miller(q: int, kappa: float) -> list:
    # j_n(kappa) up to a common sign, n < q, for kappa >= 1, by backward
    # recurrence from n = q + 32; the values are rescaled before they grow past 1e150
    top = q + 32
    values = [0.0, 1.0]  # n = top + 1, top
    for n in range(top, 0, -1):
        values.append((2 * n + 1) / kappa * values[-1] - values[-2])
        if abs(values[-1]) > 1e150:
            values = [v * 1e-150 for v in values]
    values.reverse()  # n = 0 .. top + 1
    big = max(abs(v) for v in values)
    values = [v / big for v in values]
    norm = math.sqrt(math.fsum((2 * n + 1) * v * v for n, v in enumerate(values)))
    return [v / norm for v in values[:q]]


# i^n for n mod 4
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _filon_axis(mid, h: float, rule, omegas) -> np.ndarray:
    """The (K, n) Filon weights at the K frequencies ``omegas`` of an axis of
    panels (mid, h, rule), as ``_axis_panels`` gives.

    Node j of panel p gets h e(omega mid_p) sum_(n<q) L[n, j] 2 i^n
    j_n(kappa), kappa = 2 pi |omega| h, with L the Legendre projection of
    the panel rule, conjugated for omega < 0: the exact integral of
    e(omega x) against the interpolating polynomial of the panel's values,
    because int_(-1)^1 P_n(t) e^(i kappa t) dt = 2 i^n j_n(kappa).  Every
    panel has the half-width h; the phase is reduced modulo 1 before it is
    scaled by 2 pi.
    """
    q = len(rule[0])
    omega = np.abs(np.asarray(omegas, dtype=np.float64))
    kappa = 2.0 * np.pi * omega * h
    bessel = np.array([_spherical_bessel(q, k) for k in kappa.tolist()]).reshape(-1, q)
    moments = 2.0 * bessel * _I_POWERS[np.arange(q) % 4]  # (K, n)
    local = np.sum(moments[:, :, None] * _legendre_projection(q), axis=1)  # (K, j)
    phase = np.exp(2j * np.pi * np.remainder(omega[:, None] * mid, 1.0))  # (K, P)
    weights = (h * (phase[:, :, None] * local[:, None, :])).reshape(len(omega), -1)
    return np.where(np.asarray(omegas)[:, None] < 0, weights.conj(), weights)


class GridPoints:
    """The points of a tensor grid, held as one node vector per axis.

    It stands for the (n_1 * ... * n_d, d) array of the points in C order,
    the order of ``meshgrid(indexing="ij")``: ``shape`` is that array's, and
    ``np.asarray`` builds it, anew on each call, for integrands that take
    opaque point arrays.  Formulas that factor by axis read :meth:`coords`
    instead (see ``kernels.coordinates``).

    ``lead`` is None or the panel split ``(offsets, local)`` of the leading
    axis, a composite Gauss axis (see ``_axis_rule``): node p * q + j is
    offsets[p] + local[j] bit for bit.  Only :meth:`factors` reads it,
    for ``kernels.trig_eval``; ``axes``, ``coords`` and ``np.asarray`` give
    the node vectors' bits.
    """

    def __init__(self, axes, lead=None):
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in axes)
        self.lead = lead

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
        if self.lead is None:
            return self.coords(), list(range(len(self.axes)))
        return _spanning([*self.lead, *self.axes[1:]]), [0, *range(len(self.axes))]

    def __array__(self, dtype=None, copy=None):
        grids = np.meshgrid(*self.axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return pts if dtype is None else pts.astype(dtype, copy=False)


def _outer_weights(lead, others) -> np.ndarray:
    # the tensor-product weights of leading-axis weights and the other axes', raveled
    w = lead
    for wi in others:
        w = np.multiply.outer(w, wi)
    return np.asarray(w).ravel()


def _spanning(vectors) -> list:
    # vector i reshaped to span axis i of a len(vectors)-dimensional grid
    dim = len(vectors)
    return [np.reshape(v, [-1 if j == i else 1 for j in range(dim)]) for i, v in enumerate(vectors)]


@dataclass(frozen=True)
class QuadratureGrid:
    """A tensor grid on a box: per axis, n / q panels of the q-point
    Gauss-Legendre rule, q = ``panel_order``; q = 1 is the midpoint rule."""

    box: Box
    nodes_per_axis: tuple
    panel_order: int = 1

    def __post_init__(self):
        n = self.nodes_per_axis
        if isinstance(n, int):
            n = (n,) * self.box.dim
        object.__setattr__(self, "nodes_per_axis", tuple(int(v) for v in n))
        if len(self.nodes_per_axis) != self.box.dim:
            raise ValueError("one node count per axis required")
        if any(v < 1 for v in self.nodes_per_axis):
            raise ValueError("node counts must be positive")
        if self.panel_order < 1:
            raise ValueError(f"panel_order must be positive, got {self.panel_order}")
        for axis, n in enumerate(self.nodes_per_axis):
            if n % self.panel_order:
                raise ValueError(f"axis {axis} has {n} nodes, not a multiple "
                                 f"of panel_order {self.panel_order}")

    @property
    def total_points(self) -> int:
        return math.prod(self.nodes_per_axis)

    def axes(self):
        """Per axis: its nodes, weights and, on the leading axis only, its
        panel split (see ``_axis_rule``); the other axes carry None there.

        They are built once per grid, for all the blocks an integral streams
        over, so the arrays are shared and read-only.
        """
        return self._axes

    @functools.cached_property
    def _axes(self) -> tuple:
        axes = [_axis_rule(lo, hi, n, self.panel_order)
                for lo, hi, n in zip(self.box.lows, self.box.highs, self.nodes_per_axis)]
        # GridPoints reads the leading axis alone as its split
        axes[1:] = [(nodes, weights, None) for nodes, weights, _ in axes[1:]]
        for nodes, weights, split in axes:
            for array in (nodes, weights, *(split or ())):
                array.flags.writeable = False
        return tuple(axes)

    def filon_weights(self, freqs) -> list:
        """Per axis a, the (K, n_a) oscillation-aware weights of its nodes at
        the frequencies ``freqs[:, a]`` of the K rows of ``freqs`` (K, d).

        Weighting f at the nodes integrates e(omega x_a) against the
        panelwise interpolating polynomial of f (see ``_filon_axis``), so
        the work does not grow with |omega|; a midpoint axis (q = 1) is the
        one-node case.  At omega = 0 they are the axis's weights, bit for bit.
        """
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.float64))
        sides = zip(self.box.lows, self.box.highs, self.nodes_per_axis)
        return [_filon_axis(*_axis_panels(lo, hi, n, self.panel_order), freqs[:, axis])
                for axis, (lo, hi, n) in enumerate(sides)]

    def points_and_weights(self, start: int = 0, stop: int | None = None):
        """The nodes of leading-axis rows [start, stop) as :class:`GridPoints`
        and their weights raveled in C order; by default the whole grid.

        The weights are the rows' slice of the whole grid's, bit for bit.  A
        split leading axis (see ``_axis_rule``) is cut on panel edges only,
        and the block carries the split of its own panels.
        """
        nodes, weights, (lead, *_) = zip(*self.axes())
        rows = len(nodes[0])
        stop = rows if stop is None else stop
        if not 0 <= start < stop <= rows:
            raise ValueError(f"rows [{start}, {stop}) are not a block of {rows} rows")
        if lead is not None:
            panel = len(lead[1])
            if start % panel or stop % panel:
                raise ValueError(f"rows [{start}, {stop}) cut a panel of {panel} nodes")
            lead = (lead[0][start // panel : stop // panel], lead[1])
        pts = GridPoints((nodes[0][start:stop], *nodes[1:]), lead)
        return pts, _outer_weights(weights[0][start:stop], weights[1:])

    def refined(self) -> "QuadratureGrid":
        """The grid with twice the nodes on every axis."""
        return replace(self, nodes_per_axis=tuple(2 * n for n in self.nodes_per_axis))


# nodes per oscillation period of a resolved grid
NODES_PER_PERIOD = 8

# most nodes of a grid that an integral evaluates node by node; the
# separable rules evaluate their axes alone and are not bound by it
MAX_GRID_NODES = 1 << 24


@dataclass(frozen=True)
class GridSpec:
    """How to build quadrature grids: the base resolution, the q of the
    q-point Gauss-Legendre panels (1, the default, is the midpoint rule) and
    the node cap per axis."""

    base_nodes: int = 1024
    panel_order: int = 1
    max_nodes: int = 1 << 21

    def build(self, box: Box, max_freqs=None) -> QuadratureGrid:
        """The grid on ``box`` whose axis a resolves the oscillation
        exp(2 pi i f x) of f = ``max_freqs[a]`` (0 by default) with
        ``NODES_PER_PERIOD`` nodes per period: at least ``base_nodes``
        nodes, rounded up to whole panels.

        Raises :class:`UnderResolvedError` when an axis needs more than
        ``max_nodes``.
        """
        if max_freqs is None:
            max_freqs = (0.0,) * box.dim
        q = self.panel_order
        nodes = []
        for side, freq in zip(box.sides, max_freqs):
            need = max(self.base_nodes, math.ceil(side * abs(freq) * NODES_PER_PERIOD))
            need = -(-need // q) * q
            if need > self.max_nodes:
                raise UnderResolvedError(
                    f"{need} nodes needed to resolve frequency {freq} on a side of "
                    f"length {side}, cap is {self.max_nodes}"
                )
            nodes.append(need)
        return QuadratureGrid(box=box, nodes_per_axis=tuple(nodes), panel_order=q)


def _row_blocks(grid: QuadratureGrid) -> list:
    """The [start, stop) leading-axis row ranges an integral streams over.

    A block is the most whole rows, or on a split leading axis the most
    whole panels, of at most ``kernels.POINT_BUDGET // 32`` nodes, and never
    less than one row or one panel.  So a block holds at most the larger of
    that budget and one panel of rows, which the grid's node total bounds:
    an integral checks that total against ``MAX_GRID_NODES`` first
    (``_check_node_total``).
    """
    axes = grid.axes()
    rows = len(axes[0][0])
    row = math.prod(len(nodes) for nodes, _, _ in axes[1:])
    split = axes[0][2]
    panel = 1 if split is None else len(split[1])
    step = panel * max(1, kernels.POINT_BUDGET // 32 // (row * panel))
    return [(start, min(rows, start + step)) for start in range(0, rows, step)]


def _check_node_total(grid: QuadratureGrid) -> None:
    # raised before the first block, so an oversized grid fails at once
    if grid.total_points > MAX_GRID_NODES:
        raise UnderResolvedError(
            f"a grid of {grid.total_points} nodes is evaluated node by node, "
            f"cap is {MAX_GRID_NODES}"
        )


def _tree_sum(sums: list):
    # balanced pairwise tree, left half first: np.sum's own split when the
    # blocks are equal and their count is a power of two; the sums are
    # complex numbers or, for a stack, arrays of them
    if len(sums) == 1:
        return sums[0]
    half = len(sums) // 2
    return _tree_sum(sums[:half]) + _tree_sum(sums[half:])


def _block_values(f, pts: GridPoints) -> np.ndarray:
    # f at one block's M nodes, raveled, or its (J, M) stack, after the
    # checks every integral makes
    values = np.asarray(f(pts))
    if values.ndim != 2 or values.size == pts.shape[0]:
        values = values.ravel()
    if values.shape[-1] != pts.shape[0]:
        raise ValueError("integrand returned a wrong-sized array")
    if not np.isfinite(values).all():
        raise ValueError("integrand returned non-finite values")
    return values


def _integral_and_values(f, grid: QuadratureGrid, keep: bool = False):
    """The integral of f on the grid, one row block at a time, and with
    ``keep`` the values of f at every node in C order (else None); J
    integrals for a (J, M) stack."""
    sums, kept = [], []
    for start, stop in _row_blocks(grid):
        pts, w = grid.points_and_weights(start, stop)
        values = _block_values(f, pts)
        sums.append(kernels.pairwise_dot(w, values))
        if keep:
            kept.append(values)
    return _tree_sum(sums), np.concatenate(kept) if keep else None


def integrate_oscillatory(f, grid: QuadratureGrid, polys) -> np.ndarray:
    """The integrals of f(x) p(x) over the grid's box, one for each trig
    polynomial p (``trig.TrigPolynomial``) of ``polys``, f smooth and
    evaluated once at every node for all of them.

    This is Filon's method (Filon 1928; Iserles and Norsett, Proc. R. Soc. A
    461, 2005): f is replaced on each panel by its interpolating polynomial,
    which is integrated against each term c_k e(<k, x>) of p exactly, by the
    weights of :meth:`QuadratureGrid.filon_weights` multiplied across axes.
    The result is exact for f polynomial of degree < q on each panel,
    whatever |k|, and for p = 1 it is the grid's own rule.

    It streams over the row blocks of :func:`integrate_on_grid`: per block,
    polynomial and frequency one ``kernels.pairwise_dot``, so no BLAS call
    and no grid-sized temporary.  A real block against a real polynomial
    sums the real form c_0 + 2 Re sum_(k>0) c_k e(k x) from half the terms,
    and its share of the integral is real.
    """
    _check_node_total(grid)
    forms = {}  # per (polynomial, real block): its coefficients and Filon weights
    sums = [[] for _ in polys]
    for start, stop in _row_blocks(grid):
        pts, _ = grid.points_and_weights(start, stop)
        values = _block_values(f, pts)
        for i, poly in enumerate(polys):
            real = not np.iscomplexobj(values) and poly.real_form() is not None
            if (i, real) not in forms:
                freqs, coeffs = poly.real_form() if real else (poly.freqs, poly.coeffs)
                forms[i, real] = coeffs, grid.filon_weights(freqs)
            coeffs, (lead, *rest) = forms[i, real]
            integrals = np.empty(len(coeffs), dtype=np.complex128)
            for k in range(len(coeffs)):
                weights = lead[k, start:stop]
                for axis in rest:
                    weights = np.multiply.outer(weights, axis[k])
                integrals[k] = kernels.pairwise_dot(np.ravel(weights), values)
            terms = coeffs * integrals
            sums[i].append(complex(np.sum(terms.real if real else terms)))
    return np.array([_tree_sum(blocks) for blocks in sums], dtype=np.complex128)


def integrate_on_grid(f, grid: QuadratureGrid) -> complex:
    """The integral of f on the grid, node by node: at most
    ``MAX_GRID_NODES`` nodes, else :class:`UnderResolvedError`."""
    _check_node_total(grid)
    return _integral_and_values(f, grid)[0]


def integrate_with_refinement(f, grid: QuadratureGrid, edge_tol=None) -> tuple[complex, float]:
    """Integral on the doubled grid plus the coarse-to-fine difference; J of
    each, as arrays, for an integrand that returns a (J, M) stack (which
    takes no ``edge_tol``).

    A :class:`Product` or a :class:`QuarticBump` takes its own tensor rule
    on both grids, with the tensor grid's nodes and weights and no node cap.
    Any other f is evaluated node by node, once per grid, block by block: a
    doubled grid of more than ``MAX_GRID_NODES`` nodes raises
    :class:`UnderResolvedError` before either grid is evaluated.  With
    ``edge_tol``, the coarse rule also judges the support: more than that
    fraction of the |f| mass on the grid's outermost node layer raises
    :class:`SupportEscapeError` before the fine grid is evaluated.
    """
    if isinstance(f, (Product, QuarticBump)):
        rule = f.tensor_rule
    else:
        _check_node_total(grid.refined())
        rule = functools.partial(_node_rule, f)
    coarse, fraction = rule(grid, edge_tol is not None)
    if edge_tol is not None and fraction > edge_tol:
        raise SupportEscapeError(f"{fraction:.2e} of the integrand mass sits on the grid boundary")
    fine, _ = rule(grid.refined())
    return fine, abs(fine - coarse)


def _node_rule(f, grid: QuadratureGrid, edge: bool = False) -> tuple[complex, float]:
    # a tensor_rule for any f, node by node: with edge, the values are kept
    # for the outer-layer fraction and dropped on return
    if not edge:
        return integrate_on_grid(f, grid), 0.0
    value, values = _integral_and_values(f, grid, keep=True)
    return value, boundary_mass_fraction(values, grid)


@dataclass(frozen=True)
class Product:
    """f(x) = prod_a f_a(x_a), for per-axis ``parts`` f_a that take
    coordinate arrays.

    Called on points, (M, N) or a tensor grid's :class:`GridPoints`, it
    evaluates f node by node through ``kernels.coordinates``.  A tensor
    rule applied to a product is the product of its axes' rules (sum
    factorisation: Orszag, J. Comput. Phys. 37, 1980).  So part a is
    integrated on axis a's own 1-D grid, whose nodes and weights are the
    grid's bit for bit: n_a evaluations against prod_a n_a on the tensor
    grid.  In 1-D the value is :func:`integrate_on_grid`'s bits.
    """

    parts: tuple

    def __call__(self, pts) -> np.ndarray:
        return math.prod(f(x) for f, x in zip(self.parts, kernels.coordinates(pts)))

    def tensor_rule(self, grid: QuadratureGrid, edge: bool = False) -> tuple[complex, float]:
        """The grid's rule applied to f and, with ``edge``, the fraction of
        the |f| mass on the grid's outermost node layer (else 0): 1 -
        prod_a (1 - the fraction on axis a's two end nodes), the tensor
        grid's own, and 0 when a part vanishes on its axis."""
        values, fraction, empty = [], 0.0, False
        for f, lo, hi, n in zip(self.parts, grid.box.lows, grid.box.highs, grid.nodes_per_axis):
            axis = QuadratureGrid(Box((lo,), (hi,)), (n,), grid.panel_order)
            value, nodes = _integral_and_values(lambda pts: f(*pts.coords()), axis, keep=edge)
            values.append(value)
            if edge:
                # the recursion 1 - prod (1 - s_a), exact for one axis
                fraction += (1.0 - fraction) * boundary_mass_fraction(nodes, axis)
                empty = empty or not np.any(nodes)
        return math.prod(values[1:], start=values[0]), 0.0 if empty else fraction


@dataclass(frozen=True)
class QuarticBump:
    """f(x) = g(sum_a q_a(x_a)), g(t) = (1 - t)^2 for t < 1 and 0 otherwise,
    for per-axis ``parts`` q_a that take coordinate arrays.

    Called on points, it evaluates f node by node, as :class:`Product`
    does.  Its tensor rule sums the last axis in closed form: with tau = 1 -
    sum_(a<d) q_a at a node of the leading axes, the last axis's nodes y_j
    of weight v_j and p_j = q_d(y_j) sum to sum_(p_j < tau) v_j (tau -
    p_j)^2 = tau^2 M0 - 2 tau M1 + M2, where M_k are prefix sums of v_j
    p_j^k over the nodes sorted by p.  So a grid costs O(n^(d-1) log n)
    instead of O(n^d).
    """

    parts: tuple

    def __call__(self, pts) -> np.ndarray:
        # off the support 1 - min(t, 1) is +0.0 already, so no select is needed
        t = sum(q(x) for q, x in zip(self.parts, kernels.coordinates(pts)))
        np.subtract(1.0, np.minimum(t, 1.0, out=t), out=t)
        return np.square(t, out=t)

    def tensor_rule(self, grid: QuadratureGrid, edge: bool = False) -> tuple[complex, float]:
        """The grid's rule applied to f and, with ``edge``, the fraction of
        its mass on the grid's outermost node layer (else 0): the total
        minus the total on the axes with their two end nodes dropped.  f is
        nonnegative, so this is the tensor grid's |f| fraction, and 0 when
        the total is 0."""
        axes = [(nodes, weights) for nodes, weights, _ in grid.axes()]
        total = self._sum(axes)
        if not edge or total == 0:
            return total, 0.0
        inner = self._sum([(x[1:-1], w[1:-1]) for x, w in axes])
        return total, (total.real - inner.real) / total.real

    def _sum(self, axes) -> complex:
        # the tensor rule on axes, (nodes, weights) per axis; the leading
        # axes are contracted with their weights by one pairwise_dot
        *lead, (y, v) = axes
        p = np.asarray(self.parts[-1](y), dtype=np.float64)
        order = np.argsort(p, kind="stable")
        p, v = p[order], v[order]
        m0, m1, m2 = (np.concatenate(([0.0], np.cumsum(v * p**k))) for k in range(3))
        tau = np.ravel(1.0 - sum(_spanning([q(x) for q, (x, _) in zip(self.parts, lead)])))
        below = np.searchsorted(p, tau)  # the count of p_j < tau
        sums = tau * tau * m0[below] - 2.0 * tau * m1[below] + m2[below]
        weights = _outer_weights(lead[0][1], [w for _, w in lead[1:]]) if lead else np.ones(1)
        return kernels.pairwise_dot(weights, sums)


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
