"""Best-response oracles: closed form, share-weight Newton, and brute force.

Against fixed opponents a miner maximizes prize * x(q) - c * q where
x(q) = q**alpha / (q**alpha + A) and A is the opponents' aggregate power
sum_{j != i} q_j**alpha (plain opposition sum R when alpha = 1).

For alpha = 1 the maximizer is max(0, sqrt(prize * R / c) - R). For
alpha > 1 utility is convex then concave in q, with the crossover exactly
at share (alpha - 1) / (2 * alpha); the only interior candidate is the
stationary point on the concave side, which is compared against
abstaining; one plain-float kernel on the per-set solve's share-gap Newton
finds it, for certification and for one miner alike (see _best_responses
and _stationary). The grid oracle is an exhaustive scan kept deliberately
independent of both analytic paths.

Prize boundary: the analytic oracles solve the unit-prize game at cost
c / prize and multiply the utility they report by the prize, so their
tolerances are relative to it. The helpers the rest of the package shares
are prize-free kernels. Powers and oppositions come from core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import unit_range_error

#: both-maximizers reporting threshold on the utility gap, a share of prize
TIE_TOL = 1e-12
#: smallest normal float: a quotient below it has lost digits
_TINY = float(np.finfo(float).tiny)
ZERO_OPPOSITION = "zero opposition: no best response exists"
_GRID_BLOCK = 1 << 15


class NoBestResponse(ValueError):
    """Raised when aggregate opposition is zero: the utility supremum is
    not attained (any tiny positive investment wins the whole prize)."""


@dataclass(frozen=True)
class BestResponseResult:
    """Maximizer set (singleton, or {0, interior} on a tie), its utility,
    and the interior stationary candidate if one exists."""

    optimal_investments: tuple[float, ...]
    optimal_utility: float
    interior_candidate: Optional[float] = None


def _beyond_range(cost: float, opposition_power: float,
                  alpha: float) -> ValueError:
    return ValueError(f"best response leaves the float range (cost "
                      f"{cost!r}, opposition power {opposition_power!r}, "
                      f"alpha {alpha!r})")


def _maximizers(q: float, u: float) -> tuple[float, ...]:
    """Maximizers of a miner whose interior candidate q earns unit-prize
    utility u: q above TIE_TOL, abstention and a positive q within it."""
    return ((q,) if u > TIE_TOL
            else (0.0, q) if u >= -TIE_TOL and q > 0.0 else (0.0,))


def _share_gaps(log_targets: list[float], start: list[float], alpha: float,
                z_end: float) -> tuple[list[float], list[float]]:
    """Log share gaps z = log(1 - x) with share weight
    f(x) = x**(1 - 1/alpha) * (1 - x) = t, given log t, on the branch
    z <= z_end, and their slopes dz/dlog t.

    In z, f(x) = t reads h(z) = z + beta*log(1 - e**z) - log t = 0 with
    beta = 1 - 1/alpha. h is concave, and increasing up to the peak of f,
    which z_end must not pass, so Newton from a start at or below the root
    rises monotonically to it and stops when a step makes no progress.
    log t is such a start, since f(x) <= 1 - x. A target above the branch
    maximum stops at z_end. Logs keep a target of 1e-300 from underflowing
    and need no bracket. Plain floats beat numpy on a set's handful of
    members.
    """
    beta = (alpha - 1.0) / alpha
    z_one = -math.log(alpha)
    y_one = math.exp(z_one)
    gaps, slopes = [], []
    for log_t, z in zip(log_targets, start):
        z = min(z, z_end)
        while True:
            x = -math.expm1(z)
            # h'(z) = 1 - beta*y/x = beta + (1/alpha - y)/x: on the
            # participation branch a sum of two terms >= 0, so it keeps its
            # digits at that branch end, where it is beta
            slope = beta - y_one * math.expm1(z - z_one) / x
            step = min(z - (z + beta * math.log(x) - log_t) / slope, z_end)
            if not step > z:
                break
            z = step
        gaps.append(z)
        slopes.append(1.0 / slope)
    return gaps, slopes


def _best_responses(
    costs: np.ndarray, alpha: float, oppositions: np.ndarray
) -> tuple[list[tuple[float, ...]], np.ndarray, np.ndarray, np.ndarray]:
    """The unit-prize best response of every miner at once: the maximizer
    sets, the best utilities, and the utility of each interior candidate
    and the candidate (nan where there is none). A miner facing zero
    opposition has no best response: an empty set and best utility +inf.

    At alpha = 1 the _abstains screen leaves the miners with c*a < 1 + 1e-9,
    the only ones that can invest, and _closed_form runs on them in index
    order. At alpha > 1 the first-order condition
    alpha*x**(1-1/alpha)*(1-x)**(1+1/alpha) = c*a**(1/alpha), raised to
    the power alpha/(alpha+1), is f(x) = t at exponent e = (alpha+1)/2,
    with log t from _log_target. f peaks at the convexity crossover
    x = (alpha-1)/(2*alpha): a target at or above the peak leaves no
    stationary point on the concave side, and the miner abstains; one
    _stationaries call solves the others. ValueError when a candidate
    leaves the float range.
    """
    alone = oppositions == 0.0
    responses: list[tuple[float, ...]] = [(0.0,)] * costs.size
    for i in np.flatnonzero(alone).tolist():
        responses[i] = ()
    best = np.where(alone, np.inf, 0.0)
    interior = np.full(costs.size, np.nan)
    candidates = np.full(costs.size, np.nan)
    live = np.flatnonzero(~alone)
    c, a = costs[live], oppositions[live]
    if alpha == 1.0:
        with np.errstate(over="ignore"):  # an overflowing c*a abstains
            live = live[~_abstains(c, alpha, a)]
        q, u = np.reshape([_closed_form(*pair) for pair in zip(
            costs[live].tolist(), oppositions[live].tolist())], (-1, 2)).T
        inside = q > 0.0
        live, q, u = live[inside], q[inside], u[inside]
    else:
        log_a = np.log(a)
        log_t = _log_target(c, alpha, log_a)
        inside = log_t < _peak(alpha)[1]
        live = live[inside]
        q, u = np.array(_stationaries(alpha, log_a[inside].tolist(),
                                      log_t[inside].tolist(),
                                      c[inside], a[inside]))
    for i, qi, ui in zip(live.tolist(), q.tolist(), u.tolist()):
        responses[i] = _maximizers(qi, ui)
    best[live] = np.maximum(u, 0.0)
    interior[live] = u
    candidates[live] = q
    return responses, best, interior, candidates


def _log_target(c, alpha: float, log_a):
    """(alpha*log c + log a - alpha*log alpha)/(alpha+1) with numpy's log."""
    return (alpha * np.log(c) + log_a - alpha * math.log(alpha)) / (alpha + 1)


def _stationaries(alpha: float, log_a: list[float], log_t: list[float],
                  costs, oppositions) -> tuple[list[float], list[float]]:
    """q = (a*x/(1-x))**(1/alpha) and u = x*(1 - alpha*(1 - x)) per log
    target below the peak, from one _share_gaps call up to it, in plain
    floats; costs[k] and oppositions[k] name a q_k beyond the float range."""
    log_alpha, q, u = math.log(alpha), [], []
    gaps = _share_gaps(log_t, log_t, 0.5 * (alpha + 1.0), _peak(alpha)[0])[0]
    for la, z in zip(log_a, gaps):
        x = -math.expm1(z)
        try:
            q.append(math.exp((la + math.log(x) - z) / alpha))
        except OverflowError:
            k = len(q)
            raise _beyond_range(float(costs[k]), float(oppositions[k]),
                                alpha) from None
        u.append(-x * math.expm1(z + log_alpha))
    return q, u


def _stationary(cost: float, opposition: float,
                alpha: float) -> tuple[float, float]:
    """_best_responses' alpha > 1 candidate and its utility for one miner
    at a > 0, bit for bit, or (nan, nan) at or past the peak."""
    log_a = float(np.log(opposition))
    log_t = float(_log_target(cost, alpha, log_a))
    if not log_t < _peak(alpha)[1]:
        return math.nan, math.nan
    (q,), (u,) = _stationaries(alpha, [log_a], [log_t], [cost], [opposition])
    return q, u


def _peak(alpha: float) -> tuple[float, float]:
    """z = log(1 - x) and log f at the peak of the f of _best_responses."""
    z_peak = math.log((alpha + 1.0) / (2.0 * alpha))
    return z_peak, ((1.0 - 1.0 / (0.5 * (alpha + 1.0)))
                    * math.log((alpha - 1.0) / (2.0 * alpha)) + z_peak)


def _abstains(cost: float, alpha: float, opposition_power: float) -> bool:
    """A screen: True only if the unit-prize best response against finite
    opposition power a > 0 is exactly (0.0,) at this cost and any larger:
    c*a >= 1 + 1e-9 at alpha = 1, else a log target 1e-9 past the peak. The
    margin dominates rounding (u = 2**-53). At alpha = 1, c*a > 1 + 0.9e-9,
    so _closed_form rounds sqrt(a/c) to at most a*(1+u)**1.5/sqrt(c*a) < a,
    or on its other branch 1/sqrt(c) to at most (1+u)**2/sqrt(c) <
    (1-u)*sqrt(a): q <= 0 either way. At alpha > 1 the target is
    _stationary's own, numpy's logs included; a dearer miner's exact one is
    larger, and numpy's log is within 4 ulps of logs under 745, so rounding
    moves a target by under 2e-12, inside the margin. Certification at
    alpha = 1 (on arrays) and the dynamics' idle segments screen with it."""
    if alpha == 1.0:
        return cost * opposition_power >= 1.0 + 1e-9
    log_t = _log_target(cost, alpha, np.log(opposition_power))
    return _peak(alpha)[1] + 1e-9 <= log_t < math.inf


def _check_numbers(cost: float, opposition: float, prize: float,
                   name: str = "opposition") -> None:
    """A ValueError naming a NaN argument, a cost or prize that is not
    positive, or a negative opposition."""
    for arg, value in (("cost", cost), (name, opposition), ("prize", prize)):
        if math.isnan(value):
            raise ValueError(f"{arg} must not be NaN")
    if cost <= 0 or prize <= 0:
        raise ValueError("cost and prize must be positive")
    if opposition < 0:
        raise ValueError(f"{name} must be >= 0")


def _check_inputs(cost: float, opposition: float, prize: float) -> float:
    """The unit-prize cost cost / prize of inputs _check_numbers passes; the
    ValueError of core.unit_costs when it leaves the float range."""
    _check_numbers(cost, opposition, prize)
    if opposition == 0.0:
        raise NoBestResponse(ZERO_OPPOSITION)
    unit = cost / prize
    if not 0.0 < unit < math.inf:
        raise unit_range_error(prize, cost, cost)
    return unit


def best_response_proportional(
    cost: float, opposition: float, prize: float = 1.0
) -> BestResponseResult:
    """Closed-form best response in the proportional model.

    opposition is R = sum of the other miners' investments; it must be
    positive. The maximizer max(0, sqrt(prize*R/c) - R) hits 0 exactly when
    R >= prize / c. Raises ValueError when it leaves the float range.
    """
    q, u = _closed_form(_check_inputs(cost, opposition, prize), opposition)
    return BestResponseResult(_maximizers(q, u), prize * max(u, 0.0),
                              q or None)


def _closed_form(cost: float, opposition: float) -> tuple[float, float]:
    """max(0, sqrt(R/c) - R) at opposition R > 0 and its unit-prize utility,
    the one alpha = 1 closed form; ValueError beyond the float range. Where
    R/c is no normal float, sqrt(R) * (1/sqrt(c) - sqrt(R)) keeps the digits,
    and where q + R overflows, the share is 1 / (1 + R/q)."""
    ratio = opposition / cost
    q = (math.sqrt(ratio) - opposition if _TINY <= ratio < math.inf
         else math.sqrt(opposition) * (1.0 / math.sqrt(cost)
                                       - math.sqrt(opposition)))
    if q <= 0.0:
        return 0.0, 0.0
    if q == math.inf:
        raise _beyond_range(cost, opposition, 1.0)
    total = q + opposition
    return q, (q / total if total < math.inf
               else 1.0 / (1.0 + opposition / q)) - cost * q


def best_response_eos(
    cost: float, alpha: float, opposition_power: float, prize: float = 1.0
) -> BestResponseResult:
    """Best response under economies of scale (alpha > 1).

    The stationary point with share beyond the convexity crossover
    (alpha-1)/(2*alpha), where utility is strictly concave, is the root of
    one share-weight equation (see _stationary); returns it, abstention, or
    both when their utilities tie within 1e-12 of the prize. No stationary
    point on that branch means abstain. Raises ValueError when the response
    leaves the float range, and for a non-finite alpha.
    """
    if not 1 < alpha < math.inf:
        raise ValueError("use best_response_proportional for alpha = 1"
                         if alpha <= 1 else f"alpha {alpha!r} is not finite")
    q, u = _stationary(_check_inputs(cost, opposition_power, prize),
                       opposition_power, alpha)
    return BestResponseResult(_maximizers(q, u), prize * max(0.0, u),
                              None if math.isnan(q) else q)


def grid_oracle(
    cost: float,
    alpha: float,
    opposition_power: float,
    grid_step: Optional[float] = None,
    prize: float = 1.0,
) -> BestResponseResult:
    """Exhaustive utility scan over q in [0, prize/cost].

    Verification-only brute force: never consults the analytic formulas.
    The grid np.arange(0.0, prize/cost + step, step), default step 1e-6 *
    prize/cost, is scanned in blocks of _GRID_BLOCK points i * step, in
    O(block) memory and time linear in its length. The blocks combine by
    np.argmax's rule, the first maximum or else the first NaN, so results
    equal the whole-array scan's bit for bit. Zero opposition is no error
    here: the scan reports the smallest positive point (the supremum is
    never attained). ValueError for a non-finite alpha, a prize/cost out of
    the float range, or a grid_step that is not positive and finite or
    gives 2**60 points or more, beyond any numpy array of floats.
    """
    _check_numbers(cost, opposition_power, prize, "opposition power")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha {alpha!r} is not finite")
    hi = prize / cost
    if not 0.0 < hi < math.inf:
        raise unit_range_error(prize, cost, cost)
    step = grid_step if grid_step is not None else 1e-6 * hi
    if not (0.0 < step < math.inf and (hi + step) / step < 2.0**60):
        raise ValueError(f"grid_step must be positive and finite, with "
                         f"fewer than 2**60 points: {step!r}")
    count = math.ceil((hi + step) / step)  # numpy's arange length
    tops = []  # each block's first maximum or first NaN, and its point
    for i0 in range(0, count, _GRID_BLOCK):
        q = np.arange(i0, min(i0 + _GRID_BLOCK, count), dtype=float) * step
        if opposition_power == 0.0:  # all-zero profile pays nothing
            u = np.where(q > 0.0, prize - cost * q, 0.0)
        else:
            power = q**alpha
            u = prize * power / (power + opposition_power) - cost * q
        k = int(np.argmax(u))
        tops.append((q[k], u[k]))
    k = int(np.argmax([u for _, u in tops]))
    return BestResponseResult((float(tops[k][0]),), float(tops[k][1]), None)
