"""NumPy implementations of the hot quadrature kernels.

Sums reduce in a fixed block-pairwise order, so a given input always
produces the same output on repeated runs.
"""

import numpy as np

# Leaf size of the pairwise reduction tree.  Small enough to keep rounding
# error O(log n), large enough that the pure path stays vectorised.
_BLOCK = 1024

# Most points (or point-term pairs) one vectorised evaluation takes at once;
# callers slice larger inputs so their temporaries stay a few tens of MB.
POINT_BUDGET = 1 << 21


def _pairwise(values: np.ndarray) -> complex:
    n = values.shape[0]
    if n <= _BLOCK:
        return complex(np.sum(values))
    half = max(1, n // (2 * _BLOCK)) * _BLOCK
    return _pairwise(values[:half]) + _pairwise(values[half:])


def pairwise_sum(values) -> complex:
    """Sum a 1-d array with a fixed pairwise reduction order."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    if values.shape[0] == 0:
        return 0j
    return _pairwise(values)


def pairwise_dot(weights, values) -> complex:
    """Weighted sum ``sum(weights * values)`` with pairwise reduction."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.complex128)
    if weights.shape != values.shape:
        raise ValueError("weights and values must have matching shapes")
    return pairwise_sum(weights * values)


def trig_eval(freqs, coeffs, pts) -> np.ndarray:
    """Evaluate ``sum_k c_k * exp(2*pi*i * <k, x>)`` at each point.

    Parameters
    ----------
    freqs : (K, N) float array of frequency vectors k.
    coeffs : (K,) complex array of coefficients c_k.
    pts : (M, N) float array of evaluation points x.
    """
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    m = pts.shape[0]
    out = np.empty(m, dtype=np.complex128)
    # chunk the point axis so the (chunk, K) phase temporary stays small
    chunk = max(1, POINT_BUDGET // max(1, freqs.shape[0]))
    tau = 2.0 * np.pi
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        phase = pts[start:stop] @ freqs.T
        np.multiply(phase, tau, out=phase)
        out[start:stop] = np.exp(1j * phase) @ coeffs
    return out
