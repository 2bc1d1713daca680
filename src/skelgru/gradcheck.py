"""Central-difference verification of tape gradients.

The numeric route perturbs one parameter coordinate at a time and never
touches the tape, so it stays independent of the analytic path it checks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .tensor import Tape, Tensor, backward


class NondeterministicFunctionError(RuntimeError):
    """Two identical forward passes disagreed; finite differences need a pure f."""


def _analytic_gradients(f: Callable[[], Tensor], params: list[Tensor]) -> list[np.ndarray]:
    with Tape() as tape:
        loss = f()
    if not loss.requires_grad:
        # f ignores every tracked parameter; the true gradient is zero.
        return [np.zeros_like(p.data) for p in params]
    backward(tape, loss)
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


def _check_deterministic(f: Callable[[], Tensor]) -> float:
    a = float(f().data)
    b = float(f().data)
    if a != b:
        raise NondeterministicFunctionError(
            f"forward pass is not deterministic: {a!r} vs {b!r} (is dropout still enabled?)"
        )
    return a


def _numeric_max_error(f, param: Tensor, analytic: np.ndarray, eps: float) -> float:
    flat = param.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f().data)
        flat[i] = orig - eps
        fm = float(f().data)
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def finite_diff_check(f: Callable[[], Tensor], param: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of ``f`` and central differences.

    ``f`` takes no arguments, reads ``param`` (and anything else) by closure,
    and must be deterministic. Only ``param``'s coordinates are perturbed.
    """
    return finite_diff_report(f, [("", param)], eps)[""]


def finite_diff_report(
    f: Callable[[], Tensor],
    named_params: Iterable[tuple[str, Tensor]],
    eps: float = 1e-5,
) -> dict[str, float]:
    """Per-parameter max relative errors, sharing one analytic backward pass."""
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    named = list(named_params)
    analytic = _analytic_gradients(f, [p for _, p in named])
    _check_deterministic(f)
    return {
        name: _numeric_max_error(f, param, grad, eps)
        for (name, param), grad in zip(named, analytic)
    }
