"""Monotone bisection, for the alpha = 1 cross-check oracle."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple


class RootResult(NamedTuple):
    root: float
    residual: float  # fn(root) - target
    iterations: int


def bisect_monotone(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    target: float = 0.0,
    f_tol: float = 0.0,
    x_tol: float = 0.0,
    max_iter: int = 200,
) -> RootResult:
    """Solve fn(x) = target for monotone fn on [lo, hi] by bisection.

    The direction is inferred from the endpoint values, which must bracket
    the target. Stops when |fn(mid) - target| <= f_tol, when the bracket
    width falls below x_tol, or after max_iter halvings, whichever first.
    """
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    f_lo = fn(lo) - target
    f_hi = fn(hi) - target
    if f_lo == 0.0:
        return RootResult(lo, 0.0, 0)
    if f_hi == 0.0:
        return RootResult(hi, 0.0, 0)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise ValueError(
            f"target {target} not bracketed: fn(lo)-t={f_lo}, fn(hi)-t={f_hi}"
        )
    increasing = f_lo < 0.0
    mid, f_mid = lo, f_lo
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid) - target
        if abs(f_mid) <= f_tol:
            return RootResult(mid, f_mid, it)
        if (f_mid < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo <= x_tol:
            break
    return RootResult(mid, f_mid, it)
