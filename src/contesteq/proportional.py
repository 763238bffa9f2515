"""Closed-form equilibrium solver for the proportional (alpha = 1) model.

The participation threshold c* is the unique root of

    X(c) = sum_i max(1 - c_i / c, 0) = 1,

and the unique equilibrium is q_i = (1/c*) * max(1 - c_i/c*, 0) with market
share x_i = max(1 - c_i/c*, 0): miners invest iff their cost is below c*,
and total investment is 1/c*.

A prize V != 1 is handled by solving the rescaled game with effective costs
c_i / V (utilities scale by V, shares are unchanged, investments scale by
V); c_star and total_investment are reported in rescaled units so that
total_investment == 1 / c_star always holds.

The participant-count prefix scan is the solver and always returns;
bisection on X is the shipped cross-check oracle and is never called here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ContestSpec, ProfileLike, _aggregate_beyond_range,
                   as_investments, shares, unit_costs)
from .roots import bisect_monotone


@dataclass(frozen=True)
class ProportionalEquilibrium:
    """Unique equilibrium of the proportional model, in caller cost order.

    c_star and total_investment refer to the prize-rescaled game (effective
    costs c_i / prize); shares are scale-free and utilities follow from
    prize * x_i - c_i * q_i.
    """

    c_star: float
    investments: tuple[float, ...]
    shares: tuple[float, ...]
    participants: tuple[int, ...]
    total_investment: float
    method: str  # always "prefix-scan": the scan needs no fallback
    iterations: int  # always 0: the scan does not iterate
    residual: float


def threshold_function(costs, c: float) -> float:
    """X(c) = sum_i max(1 - c_i/c, 0).

    Continuous and non-decreasing in c, strictly increasing on [min cost,
    inf), so X(c) = 1 pins a unique threshold.
    """
    if not c > 0:  # NaN too
        raise ValueError("threshold argument must be positive")
    cost = np.asarray(costs, dtype=float)
    if np.isnan(cost).any():
        raise ValueError("costs must not be NaN")
    with np.errstate(over="ignore"):  # c_i / c = inf counts 0, as it should
        return float(np.maximum(1.0 - cost / c, 0.0).sum())


def solve_threshold_bisection(costs) -> tuple[float, int]:
    """Cross-check oracle: bisect X on [c_2, n * c_max].

    X(c_2) = 1 - c_1/c_2 < 1 and X(n * c_max) >= n - 1 >= 1 bracket the
    root. Runs to bracket width 1e-14 * c_max (200 iteration cap). Returns
    (c_star, iterations).
    """
    cost = np.sort(np.asarray(costs, dtype=float))
    if cost.size < 2:
        raise ValueError("need at least 2 miners")
    c_max = float(cost[-1])
    lo, hi = float(cost[1]), cost.size * c_max
    res = bisect_monotone(
        lambda c: threshold_function(cost, c), lo, hi,
        target=1.0, f_tol=0.0, x_tol=1e-14 * c_max, max_iter=200,
    )
    return res.root, res.iterations


def solve_threshold(costs) -> float:
    """Unique c* with X(c*) = 1; always exceeds the second-lowest cost.

    Prefix scan on the sorted costs: with the k cheapest participating,
    X(c) = 1 gives candidate_k = (c_1 + ... + c_k) / (k - 1), and
    candidate_k <= c_{k+1} exactly when X(c_{k+1}) >= 1. The first such k
    (c_{n+1} = inf, so k = n at worst) is the participant count, so the
    scan always returns and tied costs need no special casing. Costs near
    the float maximum are scanned divided by a power of two, exact in the
    normal range, so the prefix sums stay finite; c* itself may be inf.
    """
    cost = np.sort(np.asarray(costs, dtype=float))
    if cost.size < 2:
        raise ValueError("need at least 2 miners")
    if not np.all(np.isfinite(cost)) or np.any(cost <= 0):
        raise ValueError("all costs must be finite and > 0")
    scale = 2.0 ** cost.size.bit_length()
    if cost[-1] < np.finfo(float).max / scale:
        scale = 1.0
    cost = cost / scale
    candidates = np.cumsum(cost)[1:] / np.arange(1, cost.size)
    k = int(np.argmax(candidates <= np.append(cost[2:], np.inf)))
    return float(candidates[k]) * scale


def solve_equilibrium(spec: ContestSpec) -> ProportionalEquilibrium:
    """The unique equilibrium of a proportional-model spec (alpha = 1).
    ValueError when c* or the total investment 1/c* leaves the float
    range."""
    if spec.alpha != 1.0:
        raise ValueError(
            "proportional solver requires alpha = 1; use the eos module"
        )
    effective = unit_costs(spec)
    c_star = solve_threshold(effective)
    if not 0.0 < 1.0 / c_star < math.inf:
        raise ValueError(f"threshold c* or total investment 1/c* leaves the "
                         f"float range (c* {c_star!r})")
    with np.errstate(over="ignore"):  # only outsiders' c_i / c* overflow
        x = np.maximum(1.0 - effective / c_star, 0.0)
    q = x / c_star
    participants = tuple(int(i) for i in np.flatnonzero(x > 0.0))
    return ProportionalEquilibrium(
        c_star=c_star,
        investments=tuple(q.tolist()),
        shares=tuple(x.tolist()),
        participants=participants,
        total_investment=1.0 / c_star,
        method="prefix-scan",
        iterations=0,
        residual=abs(threshold_function(effective, c_star) - 1.0),
    )


def foc_residual(spec: ContestSpec, profile: ProfileLike) -> tuple[float, ...]:
    """Per-miner first-order-condition residuals in the proportional model.

    residual_i = x_i(q) - max(1 - (c_i/prize) * sum_j q_j, 0); the profile
    is an equilibrium iff every residual is 0. Requires every miner to face
    positive aggregate opposition (at least two positive investments).
    ValueError when costs / prize or the total investment leaves the float
    range.
    """
    if spec.alpha != 1.0:
        raise ValueError("FOC residuals are for the proportional model")
    q = as_investments(spec, profile)
    if np.count_nonzero(q > 0) < 2:
        raise ValueError(
            "some miner faces zero aggregate opposition; residuals undefined"
        )
    with np.errstate(over="ignore"):  # c_i * total = inf has target 0
        total = float(q.sum())
        if total == math.inf:
            raise _aggregate_beyond_range(q, 1.0)
        target = np.maximum(1.0 - unit_costs(spec) * total, 0.0)
    return tuple((np.asarray(shares(spec, q).shares) - target).tolist())
