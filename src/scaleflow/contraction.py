"""Contraction flows: Lipschitz bounds and fixed-point location of the center.

The global Lipschitz constant l(eps) of H_eps is ``action.operator_norm(eps)``,
the operator norm of its matrix.  An action without a matrix raises
``NotImplementedError``: a sampled supremum over point pairs only bounds
the constant from below and so cannot certify a contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import Action

SUBMULT_SLACK = 1e-9
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**5


@dataclass
class SubmultiplicativityReport:
    check: str = field(default="submultiplicative", init=False)
    passed: bool
    worst_excess: float
    decay: list  # (eps, l(eps^-1)) along the ladder
    decay_monotone: bool
    decay_final: float
    bounded: bool


def certify_submultiplicative(
    action: Action,
    sample_count: int = 256,
    seed: int = 0,
    ladder=None,
) -> SubmultiplicativityReport:
    """Check l(e e') <= l(e) l(e') on sampled pairs plus decay of l(eps^-1).

    The decay check follows a ladder toward the group infimum: the values
    l(eps^-1) must stay finite, decrease monotonically and end below their
    starting value by a factor of 10.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    group = action.group
    rng = np.random.default_rng(seed)
    eps1 = group.sample(rng, sample_count)
    eps2 = group.sample(rng, sample_count)
    lab = action.operator_norm(group.compose(eps1, eps2))
    la, lb = action.operator_norm(eps1), action.operator_norm(eps2)
    worst = float(np.max((lab - la * lb) / np.maximum(la * lb, 1e-300), initial=0.0))
    if ladder is None:
        ladder = group.ladder(12)
    ladder = np.asarray(ladder, dtype=np.float64)
    values = action.operator_norm(group.inverse(ladder))
    bounded = bool(np.isfinite(values).all())
    monotone = bool(np.all(values[1:] <= values[:-1] * (1.0 + SUBMULT_SLACK)))
    decayed = bool(values[-1] <= 0.1 * values[0])
    return SubmultiplicativityReport(
        passed=worst <= SUBMULT_SLACK and bounded and monotone and decayed,
        worst_excess=worst,
        decay=list(zip(ladder.tolist(), values.tolist())),
        decay_monotone=monotone,
        decay_final=float(values[-1]),
        bounded=bounded,
    )


@dataclass
class FixedPointResult:
    point: np.ndarray
    iterations: int
    residual: float
    step_ratios: list
    contraction_bound: float
    center_distance: float
    cross_parameter_distance: float


def _iterate(action: Action, eps: float, x0, tol: float, max_iter: int):
    inv = action.group.inverse(eps)
    x = np.asarray(x0, dtype=np.float64)
    ratios = []
    prev_step = None
    for n in range(1, max_iter + 1):
        x_next = action.apply(inv, x)
        step = float(np.linalg.norm(x_next - x))
        if prev_step is not None and prev_step > 1e-280:
            ratios.append(step / prev_step)
        prev_step = step
        x = x_next
        if step <= tol:
            return x, n, ratios
    raise RuntimeError(
        f"no convergence after {max_iter} iterations: contraction fails at eps={eps}"
    )


def fixed_point(
    action: Action,
    eps: float,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointResult:
    """Locate the invariant point by iterating H at the inverse parameter.

    Requires l(eps^-1) < 1.  The result is checked against the action's
    center (within 10*tol) and against a second admissible parameter
    eps*eps (within 2*tol), mirroring the uniqueness of the fixed point.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    group = action.group
    eps = group.validate(eps)
    bound = action.operator_norm(group.inverse(eps))
    if bound >= 1.0:
        raise ValueError(f"l(eps^-1) = {bound} is not below 1: not a contraction")
    x, iters, ratios = _iterate(action, eps, x0, tol, max_iter)
    residual = float(np.linalg.norm(action.apply(group.inverse(eps), x) - x))
    center_distance = float(np.linalg.norm(x - action.center()))
    if center_distance > 10.0 * tol:
        raise RuntimeError("fixed point does not match the action center")
    eps2 = group.compose(eps, eps)
    y, _, _ = _iterate(action, eps2, x0, tol, max_iter)
    cross = float(np.linalg.norm(x - y))
    if cross > 2.0 * tol:
        raise RuntimeError("fixed point depends on the contraction parameter")
    return FixedPointResult(
        point=x,
        iterations=iters,
        residual=residual,
        step_ratios=ratios,
        contraction_bound=bound,
        center_distance=center_distance,
        cross_parameter_distance=cross,
    )
