"""Slow scalar references for the O(n) certification and dynamics kernels.

Each miner's opposition is summed over a fresh O(n) mask and each best
response comes from the scalar oracle, one miner at a time: O(n^2) per
certificate or dynamics round. Kept only as test-time cross-checks.
"""

import math

import numpy as np

from contesteq import best_response as br
from contesteq.core import as_investments, shares, unit_prize, unit_utilities
from contesteq.dynamics import CYCLE_QUANTUM
from contesteq.eos import (CERT_TOL, EquilibriumCertificate, MinerVerdict,
                           verify_equilibrium)


def masked_opposition(q: np.ndarray, alpha: float, i: int) -> float:
    """sum_{j != i} q_j**alpha over an O(n) mask."""
    mask = np.arange(q.size) != i
    if alpha == 1.0:
        return float(q[mask].sum())
    return float((q[mask] ** alpha).sum())


def reference_verify(spec, profile, tol=CERT_TOL,
                     opposition=masked_opposition) -> EquilibriumCertificate:
    """verify_equilibrium miner by miner: opposition(q, alpha, i), then the
    scalar oracle; marginal when the interior candidate's unit-prize
    utility is within 1e-9 of abstaining."""
    unit, v = unit_prize(spec), spec.prize
    q = as_investments(unit, profile)
    u = unit_utilities(unit.costs, q, shares(unit, q).shares).tolist()
    verdicts = []
    for i, cost in enumerate(unit.costs):
        a = opposition(q, unit.alpha, i)
        try:
            result = br._best_response(cost, unit.alpha, a)
        except br.NoBestResponse as exc:
            verdicts.append(MinerVerdict(
                miner=i, investment=float(q[i]), utility=v * u[i],
                best_utility=math.inf, slack=-math.inf,
                best_responses=(), marginal=False, note=str(exc)))
            continue
        best = result.optimal_utility
        candidate = result.interior_candidate
        verdicts.append(MinerVerdict(
            miner=i, investment=float(q[i]), utility=v * u[i],
            best_utility=v * best, slack=v * (u[i] - best),
            best_responses=result.optimal_investments,
            marginal=(candidate is not None and abs(br._utility_against(
                candidate, cost, unit.alpha, a)) <= 1e-9),
        ))
    certified = all(verdict.slack >= -tol * v for verdict in verdicts)
    return EquilibriumCertificate(
        certified=certified, tolerance=tol, verdicts=tuple(verdicts))


def reference_dynamics(spec, config, verify_tol=1e-8):
    """run_dynamics with a masked opposition per update; returns the
    status and the terminal profile."""
    unit = unit_prize(spec)
    q = as_investments(unit, config.initial_profile).copy()
    seen = {tuple(int(round(x / CYCLE_QUANTUM)) for x in q): 0}
    for rnd in range(1, config.max_rounds + 1):
        previous = q.copy()
        for i, cost in enumerate(unit.costs):
            a = masked_opposition(q, unit.alpha, i)
            if a == 0.0:
                continue
            result = br._best_response(cost, unit.alpha, a)
            target = min(result.optimal_investments,
                         key=lambda m: (abs(m - q[i]), m))
            q[i] = q[i] + config.damping * (target - q[i])
        if float(np.abs(q - previous).max()) <= config.convergence_tol:
            certified = verify_equilibrium(spec, q, verify_tol).certified
            return ("converged" if certified else "cycle_detected"), q
        key = tuple(int(round(x / CYCLE_QUANTUM)) for x in q)
        if key in seen and seen[key] <= rnd - 2:
            return "cycle_detected", q
        seen[key] = rnd
    return "max_rounds_exhausted", q
