"""NumPy implementations of the hot quadrature kernels.

Sums reduce by numpy's ``np.sum`` in the dtype of the values: a pairwise
sum in a fixed order for a given length, so a given input always produces
the same output on repeated runs, with error O(u log2 n) sum |x_i| (Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14, 1993).

Point sets are (M, N) arrays of scattered points or the points of a tensor
grid (``quadrature.GridPoints``); :func:`coordinates` reads either as N
per-axis coordinate arrays that broadcast together, so one formula serves
both and values ravel in C order.
"""

import numpy as np

# Most points (or point-term pairs) one vectorised evaluation takes at once;
# callers slice larger inputs so their temporaries stay a few tens of MB.
# Grid integrals stream in row blocks of at most POINT_BUDGET // 32 nodes
# (``quadrature._row_blocks``), whose sums combine by a fixed pairwise tree:
# their bits depend only on the grid's shape and this budget.  The same
# POINT_BUDGET // 32 values bound each chunk of a stack that
# :func:`pairwise_dot` weights at once, so a block's weighted copy is one
# row and its transients stay under glibc's heap trim threshold.
POINT_BUDGET = 1 << 21


def coordinates(pts) -> list:
    """Per-axis coordinates of a point set, as arrays that broadcast together.

    These are the columns of an (M, N) array, or the node vectors of a
    tensor grid, each shaped to span its own axis (``GridPoints.coords``).
    """
    coords = getattr(pts, "coords", None)
    if coords is not None:
        return coords()
    pts = np.asarray(pts, dtype=np.float64)
    return [pts[:, axis] for axis in range(pts.shape[1])]


def pairwise_dot(weights, values):
    """Weighted sum ``sum(weights * values)``, by ``np.sum`` in the dtype of the product.

    Real weights and values stay real through the sum, which becomes a
    Python complex once at the end, with imaginary part +0.  Complex weights
    (Filon weights) stay complex.  A (J, M) stack of values gives J sums as
    a complex128 array, each row reduced over the last axis with the bits
    of its own 1-D sum; the rows are weighted and summed in chunks of
    whole rows of at most ``POINT_BUDGET // 32`` values, so a grid block's
    weighted copy is one row.
    """
    weights = np.asarray(weights)
    weights = weights.astype(np.result_type(weights.dtype, np.float64), copy=False)
    values = np.asarray(values)
    if values.ndim not in (1, 2) or weights.shape != values.shape[-1:]:
        raise ValueError("weights and values must have matching shapes")
    if values.ndim == 1:
        return complex(np.sum(weights * values))
    step = max(1, POINT_BUDGET // 32 // max(1, values.shape[1]))
    total = np.empty(values.shape[0], dtype=np.complex128)
    for start in range(0, values.shape[0], step):
        total[start : start + step] = np.sum(weights * values[start : start + step], axis=-1)
    return total


def trig_eval(freqs, coeffs, pts, real: bool = False) -> np.ndarray:
    """Evaluate ``sum_k c_k * exp(2*pi*i * <k, x>)`` at each point.

    Each axis contributes a table exp(2 pi i k_a x_a) over its own
    coordinates, and the tables multiply across axes.  On a tensor grid a
    table that does not vary along the leading axis is built once, so the
    grid costs K * sum(n_a) complex exponentials instead of K * prod(n_a),
    and the last axis's table joins the others by one matrix product.

    Callers slice: a grid integrand gets one row block of at most
    ``POINT_BUDGET // 32`` nodes (``quadrature._row_blocks``), which bounds
    every call on a grid, and the whole block is evaluated at once.  The
    leading axis's table spans the block.  When that axis is a composite
    Gauss axis of P panels of q nodes (``GridPoints.factors``), it counts as
    two axes, panel offsets and local nodes, by exp(2 pi i k (o_p + t_j)) =
    exp(2 pi i k o_p) exp(2 pi i k t_j), so it costs K * (P + q)
    exponentials instead of K * P * q.  The two phases round differently
    from the one phase of the node o_p + t_j, so values move by a few ulps
    of the largest phase |2 pi k x| (about 1e-11 at |2 pi k x| ~ 3e4).

    With ``real`` the result is the real part of the sum, as float64: the
    last step, ``product @ coeffs`` or the join, is the real product
    Re(a) Re(b) - Im(a) Im(b) of interleaved real and imaginary parts, so
    no imaginary part is summed.  ``TrigPolynomial`` evaluates a real
    polynomial c_0 + 2 Re sum_(k>0) c_k e(k x) this way.

    Parameters
    ----------
    freqs : (K, N) float array of frequency vectors k.
    coeffs : (K,) complex array of coefficients c_k.
    pts : (M, N) float array of evaluation points x, or a tensor grid's
        ``GridPoints``; values come back raveled in C order.
    real : return the real part of the sum only.
    """
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    factors = getattr(pts, "factors", None)
    if factors is None:
        coords = coordinates(pts)
    else:  # both halves of a split axis take its frequency column
        coords, owners = factors()
        freqs = freqs[:, owners]
    terms = freqs.shape[0]
    tau = 2.0 * np.pi

    def table(x, k):
        phase = np.multiply.outer(x, k)
        np.multiply(phase, tau, out=phase)
        return np.exp(1j * phase)

    last = None
    if len(coords) > 1 and coords[-1].shape[0] == 1:  # the last axis of a tensor grid
        last = table(coords[-1], freqs[:, -1]).reshape(-1, terms).T  # (K, n_d)
        coords, freqs = coords[:-1], freqs[:, :-1]
    # the last step multiplies the product by the coefficients, or joins it
    # to the last axis's table; for the real part its rows Re z_k, -Im z_k
    # meet the interleaved (Re, Im) columns of the left side's float64 view
    right = coeffs if last is None else last
    if real:
        right = np.stack([right.real, -right.imag], axis=1).reshape(2 * terms, *right.shape[1:])
    product = None
    for x, k in zip(coords, freqs.T):
        factor = table(x, k)
        product = factor if product is None else product * factor
    if last is not None:  # one matrix product over all rows
        product = (product * coeffs)[..., 0, :].reshape(-1, terms)
    if real:
        product = product.view(np.float64)
    return (product @ right).ravel()
