"""Equilibrium search and certification for economies of scale (alpha > 1).

Any equilibrium participant must hold share >= 1 - 1/alpha, so at most
floor(1 + 1/(alpha - 1)) miners can participate (none for alpha > 2). For
a candidate participant set S the stationarity conditions collapse, via
the power scale s = (sum_j q_j**alpha)**(1/alpha), to

    c_i * s = prize * alpha * f(x_i),   f(x) = x**(1 - 1/alpha) * (1 - x),

with f strictly decreasing on [1 - 1/alpha, 1). Each share is therefore a
decreasing function of s and the share sum crosses 1 at most once. In
share-gap coordinates, y = 1 - x and u = log s, every gap is increasing
and convex in u, so a safeguarded Newton on u solves the gap sum, with an
inner monotone Newton per member for the gaps and their slopes; this
nails the unique candidate for S. A candidate is certified against the
exact best-response oracle for every miner at once; only certified
profiles are equilibria.

Window theorem: a solved set S with unit-prize scale s is an equilibrium
iff every member has c_i*s <= lambda = alpha*f(1 - 1/alpha) (S solves on
the branch) and every outsider has c_j*s >= kappa =
(alpha-1)**((alpha-1)/alpha) / alpha (abstaining is a best response);
lambda = alpha**(1/alpha) * kappa. enumerate_equilibria walks the
cost-sorted miners on it; the README's "Numerical contracts" has the
proofs of the theorem and of the walk's cuts.

Prize boundary: verify_equilibrium, solve_for_set and enumerate_equilibria
take the unit-prize costs c_i / prize from core.unit_costs once, on entry,
and work on them with prize-free kernels, so every tolerance is relative
to the prize; reported utilities and slacks are multiplied by the prize on
the way out.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations, groupby, product
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import best_response as br
from .core import (ContestSpec, ProfileLike, _opposition_powers,
                   as_investments, shares, unit_costs, unit_utilities)

#: default certification tolerance on per-miner utility slack (x prize)
CERT_TOL = 1e-9
#: |share sum - 1| tolerance for the solve on the power scale
SUM_TOL = 1e-13
#: most miners enumerate_equilibria accepts
MAX_MINERS = 30
#: floor of the outsider screen's margin on the certificate's absolute
#: rounding (x prize), so that tol = 0 is still decided by the certificate
SCREEN_FLOOR = 1e-12


class MinerVerdict(NamedTuple):
    """One miner's best-response check against the rest of a profile."""

    miner: int
    investment: float
    utility: float
    best_utility: float
    slack: float
    best_responses: tuple[float, ...]
    marginal: bool
    note: str = ""


@dataclass(frozen=True)
class EquilibriumCertificate:
    certified: bool
    tolerance: float
    verdicts: tuple[MinerVerdict, ...]

    @property
    def worst_slack(self) -> float:
        return min(v.slack for v in self.verdicts)

    @property
    def marginal_miners(self) -> tuple[int, ...]:
        return tuple(v.miner for v in self.verdicts if v.marginal)


@dataclass(frozen=True)
class EosEquilibrium:
    """A certified (or candidate) profile for one participant set."""

    participants: tuple[int, ...]
    investments: tuple[float, ...]
    shares: tuple[float, ...]
    power_scale: float
    certificate: EquilibriumCertificate
    iterations: int
    residual: float


class PairwiseBound(NamedTuple):
    i: int
    j: int
    bound: float
    actual: float
    ok: bool


def participation_cap(alpha: float) -> int:
    """Most participants any equilibrium can have: floor(1 + 1/(alpha-1)),
    boundary-inclusive (integer values of 1 + 1/(alpha-1) are admitted)."""
    if alpha <= 1:
        raise ValueError("the cap applies to alpha > 1")
    return int(math.floor(1.0 + 1.0 / (alpha - 1.0) + 1e-9))


def share_weight(x: float, alpha: float) -> float:
    """f(x) = x**(1 - 1/alpha) * (1 - x) on (0, 1).

    Strictly decreasing for x > (alpha-1)/(2*alpha - 1), hence on the whole
    participation branch [1 - 1/alpha, 1).
    """
    if alpha <= 1:
        raise ValueError("share weight is defined for alpha > 1")
    if not 0.0 < x < 1.0:
        raise ValueError("share must lie strictly inside (0, 1)")
    return x ** (1.0 - 1.0 / alpha) * (1.0 - x)


def invert_share_weight(target: float, alpha: float) -> float:
    """Unique x in [1 - 1/alpha, 1) with f(x) = target.

    One member of the share-gap Newton kernel (best_response._share_gaps),
    started at log target. A target above the branch maximum
    f(1 - 1/alpha) is infeasible: no share on the participation branch can
    carry that weight, so the caller's miner cannot participate at the
    probed scale.
    The share is clamped to [1 - 1/alpha, 1 - 1e-16], so a target at or
    below f(1 - 1e-16) gives 1 - 1e-16, the largest float below 1.
    """
    if alpha <= 1:
        raise ValueError("share weight is defined for alpha > 1")
    if target <= 0.0:
        raise ValueError("target must be positive")
    lo = 1.0 - 1.0 / alpha
    f_max = share_weight(lo, alpha)
    if target > f_max * (1.0 + 1e-9):
        raise ValueError(
            f"target {target} above branch maximum {f_max}: infeasible"
        )
    log_target = [math.log(target)]
    z, _ = br._share_gaps(log_target, log_target, alpha, -math.log(alpha))
    return min(max(-math.expm1(z[0]), lo), 1.0 - 1e-16)


def verify_equilibrium(
    spec: ContestSpec, profile: ProfileLike, tol: float = CERT_TOL
) -> EquilibriumCertificate:
    """Check every miner (participants and abstainers) against the exact
    best-response oracle.

    A profile is certified iff each miner's utility is within tol * prize
    of its best attainable utility. Miners facing zero aggregate
    opposition have no best response (the supremum is not attained), which
    always blocks certification. A miner is flagged marginal when an
    interior stationary response exists whose utility ties abstention
    within 1e-9 of the prize: its participation is a knife-edge and the
    equilibrium hinges on tie-breaking.

    O(n): every opposition comes from one prefix/suffix-sum pass, and the
    best responses from one pass of best_response._best_responses.
    """
    costs, v = unit_costs(spec), spec.prize
    q = as_investments(spec, profile)
    oppositions = _opposition_powers(q, spec.alpha)
    u = unit_utilities(costs, q, shares(spec, q).shares)
    responses, best, interior, _ = br._best_responses(costs, spec.alpha,
                                                      oppositions)
    with np.errstate(over="ignore"):  # beyond the float range is -inf
        utilities, slack = v * u, v * (u - best)
    notes = np.where(oppositions == 0.0, br.ZERO_OPPOSITION, "").tolist()
    verdicts = tuple(map(MinerVerdict._make, zip(
        range(q.size), q.tolist(), utilities.tolist(), (v * best).tolist(),
        slack.tolist(), responses, (np.abs(interior) <= 1e-9).tolist(),
        notes)))
    return EquilibriumCertificate(
        certified=bool(np.all(slack >= -tol * v)), tolerance=tol,
        verdicts=verdicts,
    )


def _validate_set(spec: ContestSpec, participant_set: Iterable[int]) -> tuple[int, ...]:
    s = tuple(sorted(int(i) for i in participant_set))
    if len(set(s)) != len(s):
        raise ValueError("participant set has duplicate indices")
    if any(i < 0 or i >= spec.n for i in s):
        raise ValueError("participant index out of range")
    if len(s) < 2:
        raise ValueError("a participant set needs at least 2 miners")
    cap = participation_cap(spec.alpha)
    if len(s) > cap:
        raise ValueError(
            f"set of size {len(s)} exceeds the participation cap {cap} "
            f"at alpha={spec.alpha}"
        )
    return s


def solve_for_set(
    spec: ContestSpec,
    participant_set: Iterable[int],
    tol: float = CERT_TOL,
) -> Optional[EosEquilibrium]:
    """Solve the stationarity system for one candidate participant set.

    Finds the unique power scale s on its feasible range (0, s_max], where
    s_max = alpha * f(1 - 1/alpha) / max cost in the set at unit prize, at
    which the member shares sum to 1, and reconstructs
    q_i = x_i**(1/alpha) * s. In u = log s the gap sum
    F(u) = sum_i (1 - x_i) - (k - 1) is convex and increasing, and one
    kernel call per step gives every member's gap and slope, so Newton
    solves F = 0 from u = log s_max. Safeguard (rtsafe): F stays bracketed
    in [log s_max + log 1e-12, log s_max], and a Newton step that leaves the
    bracket or makes no progress becomes a bisection step in u. From the
    right of the root, Newton on a convex F never overshoots; from the
    left it may, and then bisects. At most 200 steps. `iterations` counts
    them and `residual` is |sum x - 1|.
    Returns None when the shares exceed 1 already at s_max (the set cannot
    be a participant set of any equilibrium), and before any solve when
    c_min/c_max < (k - 1)(alpha - 1), which implies it: near alpha = 1 that
    excess is below SUM_TOL. ValueError when s_max leaves the float range.
    Every member's share lies on
    [1 - 1/alpha, 1), where its utility x(1 - alpha(1 - x)) at the
    first-order point is >= 0, so no member would rather abstain.
    The returned candidate carries a full best-response certificate;
    callers decide what to do with uncertified candidates.
    """
    if spec.alpha <= 1.0:
        raise ValueError("use the proportional solver for alpha = 1")
    s_idx = _validate_set(spec, participant_set)
    solution = _solve(spec, s_idx)
    return None if solution is None else _candidate(spec, s_idx, solution,
                                                    tol)


def _solve(spec: ContestSpec, s_idx: tuple[int, ...],
           unit: Optional[list[float]] = None
           ) -> Optional[tuple[float, list[float], int, float]]:
    """solve_for_set's solve, without the profile and its certificate:
    (s, the members' log share gaps, iterations, residual), or None.
    unit: the spec's unit-prize costs, when the caller has them."""
    alpha = spec.alpha
    members = [spec.costs[i] for i in s_idx]
    if _below_ratio_bound(min(members), max(members), len(s_idx), alpha):
        return None
    if unit is None:
        unit = unit_costs(spec).tolist()
    costs = [unit[i] for i in s_idx]
    s_max = alpha * share_weight(1.0 - 1.0 / alpha, alpha) / max(costs)
    if s_max == math.inf:
        raise ValueError(f"power scale s_max leaves the float range (largest "
                         f"unit cost {max(costs)!r}, alpha {alpha!r})")
    log_weights = [math.log(c) - math.log(alpha) for c in costs]
    z_end = -math.log(alpha)  # the participation share 1 - 1/alpha
    u = hi = math.log(s_max)
    lo = hi + math.log(1e-12)
    log_targets = [w + u for w in log_weights]
    z, dz = br._share_gaps(log_targets, log_targets, alpha, z_end)
    gap = math.fsum(map(math.exp, z)) - (len(s_idx) - 1)
    if -gap > SUM_TOL:
        return None  # shares cannot sum down to 1 on the branch
    iterations = 0
    while abs(gap) > SUM_TOL and iterations < 200:
        lo, hi = (lo, u) if gap > 0.0 else (u, hi)
        nxt = u - gap / sum(math.exp(a) * b for a, b in zip(z, dz))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break  # the bracket is down to adjacent floats
        # each z is convex in log t, so its tangent starts below the root
        log_targets = [w + nxt for w in log_weights]
        z, dz = br._share_gaps(
            log_targets,
            [max(t, a + (nxt - u) * b) for t, a, b in zip(log_targets, z, dz)],
            alpha, z_end)
        iterations, u = iterations + 1, nxt
        gap = math.fsum(map(math.exp, z)) - (len(s_idx) - 1)
    return (math.exp(u) if iterations else s_max), z, iterations, abs(gap)


def _below_ratio_bound(lo: float, hi: float, k: int, alpha: float) -> bool:
    """lo/hi < (k - 1)(alpha - 1) at a relative margin of 1e-12: a set of
    k miners with these extreme costs has shares above 1 at s_max."""
    return lo / hi < (k - 1) * (alpha - 1.0) * (1.0 - 1e-12)


def _candidate(spec: ContestSpec, s_idx: tuple[int, ...],
               solution: tuple[float, list[float], int, float],
               tol: float) -> EosEquilibrium:
    """The profile of a solved set, with its full certificate."""
    s_star, z, iterations, residual = solution
    q = np.zeros(spec.n)
    q[list(s_idx)] = (-np.expm1(z)) ** (1.0 / spec.alpha) * s_star
    return EosEquilibrium(
        participants=s_idx,
        investments=tuple(q.tolist()),
        shares=shares(spec, q).shares,
        power_scale=float(s_star),
        certificate=verify_equilibrium(spec, q, tol),
        iterations=iterations,
        residual=residual,
    )


def _outsider_floor(alpha: float, tol: float) -> float:
    """kappa*(1 - delta), delta = (2*tol + SCREEN_FLOOR)*alpha/(alpha - 1),
    or 0 (no screen) where delta is not in [0, 1). At m = c*s an outsider
    earns (kappa - m)*r with r = q/s = (alpha-1)**(1/alpha), the response
    that ties abstaining at m = kappa. Below the floor that exceeds
    2*tol + SCREEN_FLOOR, so the set fails its certificate by more than
    tol."""
    delta = (2.0 * tol + SCREEN_FLOOR) * alpha / (alpha - 1.0)
    if not 0.0 <= delta < 1.0:
        return 0.0
    return (alpha - 1.0) ** ((alpha - 1.0) / alpha) / alpha * (1.0 - delta)


def _relabelled(spec: ContestSpec, rep: EosEquilibrium,
                subset: tuple[int, ...]) -> EosEquilibrium:
    """rep moved onto subset, a set with the same cost multiset. Swapping
    equal-cost miners is a symmetry of the game, so the copy's
    investments, shares and verdicts are rep's, permuted (members onto
    members and outsiders onto outsiders of equal cost), and its
    certificate holds without a fresh check."""
    def order(members):
        return sorted(range(spec.n),
                      key=lambda i: (spec.costs[i], i not in members, i))

    source = dict(zip(order(subset), order(rep.participants)))

    def moved(values):
        return tuple(values[source[i]] for i in range(spec.n))

    verdicts = tuple(v._replace(miner=i)
                     for i, v in enumerate(moved(rep.certificate.verdicts)))
    return replace(rep, participants=subset, shares=moved(rep.shares),
                   investments=moved(rep.investments),
                   certificate=replace(rep.certificate, verdicts=verdicts))


def enumerate_equilibria(spec: ContestSpec,
                         tol: float = CERT_TOL) -> list[EosEquilibrium]:
    """All certified equilibria with participant sets up to the cap, in
    size order, lexicographic within a size.

    A depth-first walk over the cost-sorted miners on the window theorem
    (module docstring). It solves one set per cost multiset, the one with
    the lowest indices, cuts the supersets of a set that does not solve,
    adds no member dearer than the cheapest outsider times
    lambda / _outsider_floor, and certifies only the solved sets whose
    cheapest outsider passes _outsider_floor. Each certified set is copied
    onto every index set with its cost multiset, certified by symmetry.
    Where a unit cost lies outside [1e-150, 1e150] the screen and the
    reach cut are off, so every solved set is certified and a
    certificate's float-range error is raised as before.
    alpha > 2 yields []: two participants would each need a share of
    1 - 1/alpha > 1/2, and a lone one has no best response.
    """
    if spec.alpha <= 1.0:
        raise ValueError("use the proportional solver for alpha = 1")
    if spec.n > MAX_MINERS:
        raise ValueError(
            f"n={spec.n} exceeds the enumeration cap {MAX_MINERS}")
    alpha, n = spec.alpha, spec.n
    top = min(participation_cap(alpha), n)
    order = sorted(range(n), key=lambda i: (spec.costs[i], i))
    costs = [spec.costs[i] for i in order]
    # if no two miners pass the cost-ratio bound, no set does
    if top < 2 or all(_below_ratio_bound(lo, hi, 2, alpha)
                      for lo, hi in zip(costs, costs[1:])):
        return []
    unit = unit_costs(spec)
    # inside these unit costs s <= 1e150 and s**alpha <= 1e300: no
    # certificate the screen skips could have overflowed
    floor = (_outsider_floor(alpha, tol)
             if 1e-150 <= unit.min() and unit.max() <= 1e150 else 0.0)
    unit = unit.tolist()
    ranked = [unit[i] for i in order]
    reach = (alpha * share_weight(1.0 - 1.0 / alpha, alpha) / floor
             if floor else math.inf)
    # (set, its solve or the error the solve raised), in walk order
    solved: list[tuple[tuple[int, ...], object]] = []

    def walk(members: list[int], start: int, gap: Optional[float]) -> None:
        # members: positions in `order`; gap: the unit cost of the first
        # position skipped so far, the cheapest outsider of every set below
        for p in range(start, n):
            if p > start and costs[p] == costs[p - 1]:
                continue  # p - 1 skipped, p taken: an index-set copy
            outsider = ranked[start] if gap is None and p > start else gap
            if outsider is not None and ranked[p] > outsider * reach:
                break
            chosen = members + [p]
            if len(chosen) >= 2:
                s_idx = tuple(sorted(order[i] for i in chosen))
                try:
                    solution = _solve(spec, s_idx, unit)
                except ValueError as exc:
                    solved.append((s_idx, exc))
                    continue
                if solution is None:
                    continue
                cheapest = (outsider if outsider is not None
                            else ranked[p + 1] if p + 1 < n else math.inf)
                # the residual widens c*s to what the certificate sees
                if cheapest * solution[0] * (1.0 + solution[3]) >= floor:
                    solved.append((s_idx, solution))
            if len(chosen) < top:
                walk(chosen, p + 1, outsider)

    walk([], 0, None)
    classes = {c: list(tied)
               for c, tied in groupby(order, key=spec.costs.__getitem__)}
    out = []
    # certified in output order, so the first error raised is the one an
    # exhaustive search in that order meets
    for s_idx, solution in sorted(solved, key=lambda item: (len(item[0]),
                                                             item[0])):
        if isinstance(solution, ValueError):
            raise solution
        rep = _candidate(spec, s_idx, solution, tol)
        if not rep.certificate.certified:
            continue
        multiset = Counter(spec.costs[i] for i in s_idx)
        for pick in product(*(combinations(classes[c], k)
                              for c, k in multiset.items())):
            subset = tuple(sorted(chain.from_iterable(pick)))
            out.append(rep if subset == s_idx
                       else _relabelled(spec, rep, subset))
    out.sort(key=lambda eq: (len(eq.participants), eq.participants))
    return out


def pairwise_bound_check(
    spec: ContestSpec, equilibrium: EosEquilibrium, tol: float = CERT_TOL
) -> list[PairwiseBound]:
    """Evaluate x_i >= 1 - (1/alpha) * c_i/c_j for every ordered pair of
    participants (i = j included, where the bound is 1 - 1/alpha). Returns
    one row per pair with its verdict for diagnosis."""
    rows = []
    for i in equilibrium.participants:
        for j in equilibrium.participants:
            bound = 1.0 - (spec.costs[i] / spec.costs[j]) / spec.alpha
            actual = equilibrium.shares[i]
            rows.append(PairwiseBound(
                i=i, j=j, bound=bound, actual=actual,
                ok=actual >= bound - tol,
            ))
    return rows
