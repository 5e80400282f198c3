"""Contraction flows: Lipschitz bounds and fixed-point location of the center.

The global Lipschitz constant l(eps) of H_eps is ``action.operator_norm(eps)``,
the operator norm of its matrix.  An action without a matrix raises
``NotImplementedError``: a sampled supremum over point pairs only bounds
the constant from below and so cannot certify a contraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .actions import Action, _norms

SUBMULT_SLACK = 1e-9
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**5


@dataclass
class SubmultiplicativityReport:
    check: str = field(default="submultiplicative", init=False)
    worst_excess: float
    decay: list  # (eps, l(eps^-1)) along the ladder
    decay_monotone: bool
    decay_final: float
    bounded: bool

    @property
    def decay_ok(self) -> bool:
        """l(eps^-1) stays finite, decreases monotonically and ends below a
        tenth of its starting value."""
        return self.bounded and self.decay_monotone and self.decay_final <= 0.1 * self.decay[0][1]


def certify_submultiplicative(
    action: Action,
    sample_count: int = 256,
    seed: int = 0,
    ladder=None,
) -> SubmultiplicativityReport:
    """Worst relative excess of l(e e') over l(e) l(e') on sampled pairs,
    which the caller judges, plus the decay of l(eps^-1).

    The decay check follows a ladder toward the group infimum: the values
    l(eps^-1) must stay finite, decrease monotonically and end below their
    starting value by a factor of 10.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    group = action.group
    rng = random.Random(seed)
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
    return SubmultiplicativityReport(
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


def _iterate(action: Action, eps: float, starts: np.ndarray, tol: float, max_iter: int):
    """Iterate H at eps^-1 from every row of ``starts`` (S, N) at once.

    Each row stops at its own first step <= tol.  Returns the rows' last
    points, their iteration counts (0 for a row still moving after
    ``max_iter``) and their lists of successive step ratios."""
    inv = action.group.inverse(eps)
    x = starts.copy()
    iterations = [0] * len(x)
    steps = [[] for _ in range(len(x))]
    moving = np.arange(len(x))
    for n in range(1, max_iter + 1):
        if not moving.size:
            break
        x_next = action.apply(inv, x[moving])
        step = _norms(x_next - x[moving])
        x[moving] = x_next
        for row, s in zip(moving.tolist(), step.tolist()):
            steps[row].append(s)
            if s <= tol:
                iterations[row] = n
        moving = moving[step > tol]
    ratios = [[b / a for a, b in zip(row, row[1:]) if a > 1e-280] for row in steps]
    return x, iterations, ratios


def _no_convergence(max_iter: int, eps: float) -> RuntimeError:
    return RuntimeError(
        f"no convergence after {max_iter} iterations: contraction fails at eps={eps}"
    )


def fixed_point(
    action: Action,
    eps: float,
    x0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FixedPointResult | list:
    """Locate the invariant point by iterating H at the inverse parameter.

    Requires l(eps^-1) < 1.  The result is checked against the action's
    center (within 10*tol) and against a second admissible parameter
    eps*eps (within 2*tol), mirroring the uniqueness of the fixed point.

    ``x0`` is one start (N,), which gives a :class:`FixedPointResult` or
    raises, or a stack of starts (S, N), iterated as one.  A stack gives a
    list with one outcome per start: its result, with the bits of its
    one-start call, or the RuntimeError that start alone raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    group = action.group
    eps = group.validate(eps)
    inv = group.inverse(eps)
    bound = action.operator_norm(inv)
    if bound >= 1.0:
        raise ValueError(f"l(eps^-1) = {bound} is not below 1: not a contraction")
    starts = np.asarray(x0, dtype=np.float64)
    if starts.ndim not in (1, 2):
        raise ValueError(f"a start has shape (N,) and a stack (S, N), got {starts.shape}")
    stack = starts.reshape(-1, starts.shape[-1])
    x, iterations, ratios = _iterate(action, eps, stack, tol, max_iter)
    residuals = _norms(action.apply(inv, x) - x).tolist()
    distances = _norms(x - action.center()).tolist()
    outcomes = [None] * len(stack)
    for row, (n, distance) in enumerate(zip(iterations, distances)):
        if not n:
            outcomes[row] = _no_convergence(max_iter, eps)
        elif distance > 10.0 * tol:
            outcomes[row] = RuntimeError("fixed point does not match the action center")
    rows = [row for row, outcome in enumerate(outcomes) if outcome is None]
    eps2 = group.compose(eps, eps)
    y, iterations2, _ = _iterate(action, eps2, stack[rows], tol, max_iter)
    cross = _norms(x[rows] - y).tolist()
    for row, n, c in zip(rows, iterations2, cross):
        if not n:
            outcomes[row] = _no_convergence(max_iter, eps2)
        elif c > 2.0 * tol:
            outcomes[row] = RuntimeError("fixed point depends on the contraction parameter")
        else:
            outcomes[row] = FixedPointResult(
                point=x[row],
                iterations=iterations[row],
                residual=residuals[row],
                step_ratios=ratios[row],
                contraction_bound=bound,
                center_distance=distances[row],
                cross_parameter_distance=c,
            )
    if starts.ndim == 2:
        return outcomes
    if isinstance(outcomes[0], RuntimeError):
        raise outcomes[0]
    return outcomes[0]
