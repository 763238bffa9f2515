"""Round-robin best-response dynamics.

Within a round, miners update sequentially in index order, each to an
exact best response against the current state of everyone else
(Gauss-Seidel; simultaneous updates oscillate trivially in contests).
Ties between abstaining and the interior candidate of _closed_form, or of
_stationary at alpha > 1, break toward the incumbent action. A miner with
zero aggregate opposition has no best response and keeps its investment.

Termination: a quiet round, whose largest spend change max_i c_i * |dq_i|,
a share of the prize, is at most convergence_tol, ends the run as
"converged" when its profile certifies at verify_tol; a quiet round that
does not certify goes on. The update is deterministic, so a round ending
bit for bit on an earlier round's profile ends the run as
"cycle_detected". Neither rule is in investment units: costs x k give the
same run with profiles / k. Nothing here claims convergence in general;
statuses report what happened.

Idle miners (q = 0 at the round start) sit in segments facing one
opposition. A segment whose cheapest miner passes best_response._abstains
(margin 1e-9 over rounding) keeps its exact 0.0 without an update, and idle
zeros add exactly. The segments and their cheapest costs are rebuilt only
in a round whose active list differs from the previous round's, so a
round whose active list repeats is O(active + segments) Python work, bit
for bit. A profile is read with -0.0 as 0.0 and every update writes 0.0
or q > 0, so a round's active indices and investments are its profile:
one record per round, kept by the trajectory and the cycle check alike.

Prize boundary: run_dynamics takes the unit-prize costs from
core.unit_costs once and updates with the prize-free kernels of
best_response, so its checks are relative to the prize; Trajectory.rows()
reports utilities in caller units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Optional

import numpy as np

from . import best_response as br
from .best_response import (CERT_TOL, EquilibriumCertificate, _check_tol,
                            verify_equilibrium)
from .core import (ContestSpec, _aggregate_beyond_range, _integer, _powers,
                   as_investments, shares, unit_costs, unit_utilities)


@dataclass(frozen=True)
class DynamicsConfig:
    initial_profile: tuple[float, ...]
    max_rounds: int = 10_000
    #: largest spend change c_i * |dq_i| per prize that ends the run
    convergence_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(
            self, "initial_profile",
            tuple(float(q) for q in self.initial_profile),
        )
        if _integer(self.max_rounds, "max_rounds") < 1:
            raise ValueError("max_rounds must be >= 1")
        if not self.convergence_tol > 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Each round's record, (active indices, their investments), index 0 the
    initial profile's, and the terminal profile's certificate when the last
    round was quiet. Profiles are built from the records on access."""

    rounds: tuple[tuple[tuple[int, ...], tuple[float, ...]], ...]
    status: str  # converged | max_rounds_exhausted | cycle_detected
    spec: ContestSpec
    certificate: Optional[EquilibriumCertificate] = field(default=None)

    def _profile(self, record) -> tuple[float, ...]:
        q = [0.0] * self.spec.n
        for i, qi in zip(*record):
            q[i] = qi
        return tuple(q)

    @property
    def profiles(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(self._profile, self.rounds))

    @property
    def rounds_used(self) -> int:
        return len(self.rounds) - 1

    @property
    def terminal(self) -> tuple[float, ...]:
        return self._profile(self.rounds[-1])

    def rows(self) -> Iterator[tuple[int, int, float, float, float]]:
        """(round, miner, investment, share, utility) rows for CSV export,
        utilities in caller units; round 1 is the state after the first
        full update sweep."""
        costs = unit_costs(self.spec)
        for rnd, profile in enumerate(map(self._profile, self.rounds[1:]), 1):
            x = shares(self.spec, profile).shares
            u = unit_utilities(costs, profile, x).tolist()
            for miner, q in enumerate(profile):  # float * V overflows to -inf
                yield rnd, miner, q, x[miner], self.spec.prize * u[miner]


def _nearest(incumbent: float, low: float, high: float) -> float:
    """The end of low <= high nearer the incumbent, low on equal distance."""
    return high if abs(high - incumbent) < abs(low - incumbent) else low


def run_dynamics(
    spec: ContestSpec,
    config: DynamicsConfig,
    verify_tol: float = CERT_TOL,
) -> Trajectory:
    """Iterate best responses from config.initial_profile.

    The start needs a positive investment: from all zeros no miner has a
    best response. Identical spec and config reproduce the trajectory bit
    for bit. An update that loses its miner over 1e-12 of the prize raises
    ArithmeticError (exact best responses never do); a power or aggregate
    power beyond the float range raises a ValueError that names it.
    """
    costs, alpha = unit_costs(spec).tolist(), spec.alpha
    tol, inf = config.convergence_tol, np.inf
    _check_tol(verify_tol, "verify_tol")
    form = (br._closed_form if alpha == 1.0
            else lambda cost, a: br._stationary(cost, a, alpha))
    q = as_investments(spec, config.initial_profile).tolist()
    active = tuple(i for i, qi in enumerate(q) if qi)  # q >= 0: these q > 0
    if not active:
        raise ValueError("initial profile must have a positive investment")
    record = (active, tuple([q[i] for i in active]))
    rounds, seen = [record], {record}
    segmented = None  # the active indices the segments were built on
    status = "max_rounds_exhausted"
    for _ in range(config.max_rounds):  # max_rounds >= 1
        # after[k]: the active powers from active miner k on, np.cumsum-wise
        power = (record[1] if alpha == 1.0 else
                 _powers(np.asarray(record[1]), alpha).tolist())
        after = [*accumulate(reversed(power))][::-1] + [0.0]
        if active != segmented:
            segmented = active
            starts, ends = [0] + [i + 1 for i in active], [*active, len(q)]
            cheapest = [min(costs[lo:hi]) if lo < hi else inf
                        for lo, hi in zip(starts, ends)]
        before, moved, updated = 0.0, False, []
        for k, (lo, hi) in enumerate(zip(starts, ends)):
            opposition = before + after[k]  # the whole segment's
            if (lo < hi and 0.0 < opposition < inf  # else updates keep/raise
                    and br._abstains(cheapest[k], alpha, opposition)):
                lo = hi
            for i in range(lo, min(hi + 1, len(q))):
                cost, qi, p = costs[i], q[i], power[k] if i == hi else 0.0
                opposition = before + (after[k + 1] if i == hi else after[k])
                if opposition != 0.0:  # else no best response: keep it
                    if opposition + p == inf:  # the state miner i faces
                        raise _aggregate_beyond_range(q, alpha)
                    interior, u = form(cost, opposition)
                    target = (interior if u > br.TIE_TOL
                              else _nearest(qi, 0.0, interior)
                              if u >= -br.TIE_TOL else 0.0)
                    response = (target if alpha == 1.0
                                else float(_powers(target, alpha)))
                    if opposition + response == inf:  # the state it leaves
                        raise _aggregate_beyond_range(q, alpha)
                    gain = (response / (response + opposition) - cost * target
                            - (p / (p + opposition) - cost * qi))
                    if gain < -1e-12:
                        raise ArithmeticError(
                            f"best response lowered miner {i}'s utility by "
                            f"{-gain} of the prize")
                    moved = moved or cost * abs(target - qi) > tol
                    q[i], p = target, response
                before += p
                if q[i]:  # active in the next round
                    updated.append(i)
        if tuple(updated) != active:  # else share the previous round's
            active = tuple(updated)
        # from a list, a tuple has its exact size: dead records refill the
        # free lists that later rounds take from (a generator's starts at 10)
        record = (active, tuple([q[i] for i in active]))
        rounds.append(record)
        # a quiet round: no spend change c_i * |dq_i| above tol
        certificate = None if moved else verify_equilibrium(spec, q,
                                                            verify_tol)
        if certificate is not None and certificate.certified:
            status = "converged"
            break
        if record in seen:
            status = "cycle_detected"
            break
        seen.add(record)
    return Trajectory(rounds=tuple(rounds), status=status, spec=spec,
                      certificate=certificate)
