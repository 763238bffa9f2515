"""Whole-pool checks of three benchmark workloads.

The timed benchmark runs reach only part of a workload's case pool. This
script passes every case of seeds 1 to 4 once through one workload and
compares it with an independent reference:

- dynamics_rounds: the workload's own run and check, and each run equal,
  repr for repr, to the full scan that sends idle miners through the
  update too (scalar_oracle.full_scan_dynamics);
- certify_large: the workload's own run and check, and the certificate's
  best responses equal, bit for bit, to an independent lane: on the
  alpha = 1 cases the closed form on whole arrays that screens no miner
  out (scalar_oracle.vector_closed_form), and on the alpha > 1 cases the
  earlier vectorised lane with its own log target and kernel loop
  (scalar_oracle.vector_eos_lane);
- eos_search: enumerate_equilibria equal, repr for repr, to the
  exhaustive subset search (scalar_oracle.brute_force_equilibria).

It exits 1 when a case fails or the pool does not have its known size.
Run it from the repository root; pytest does not collect it:

    PYTHONPATH=src:bench:tests python tests/pool_check.py <workload>
"""

import sys
from pathlib import Path

import contesteq as ce
from contesteq import best_response as br
from contesteq.core import _opposition_powers, as_investments, unit_costs
import workloads
from scalar_oracle import (brute_force_equilibria, full_scan_dynamics,
                           vector_closed_form, vector_eos_lane)

SEEDS = (1, 2, 3, 4)


def dynamics_rounds(work, op) -> list[str]:
    out = work.run(ce, op)
    failures = work.check(ce, op, out)
    if repr(out) != repr(full_scan_dynamics(op.spec, op.extra["config"])):
        failures.append("differs from full_scan_dynamics")
    return failures


def lane(responses, *arrays):
    """Maximizer sets and the raw bytes of the arrays: numpy's array repr
    abbreviates."""
    return repr(responses), [a.tobytes() for a in arrays]


def certify_large(work, op) -> list[str]:
    out = work.run(ce, op)
    failures = work.check(ce, op, out)
    alpha, costs = op.spec.alpha, unit_costs(op.spec)
    profile = out[0] if alpha == 1.0 else out
    if profile is None:  # the pair does not solve: nothing was certified
        return failures
    a = _opposition_powers(as_investments(op.spec, profile.investments),
                           alpha)
    reference = (vector_closed_form(costs, a) if alpha == 1.0
                 else vector_eos_lane(costs, alpha, a))
    if lane(*br._best_responses(costs, alpha, a)) != lane(*reference):
        failures.append("differs from vector_closed_form" if alpha == 1.0
                        else "differs from vector_eos_lane")
    return failures


def eos_search(work, op) -> list[str]:
    if (repr(ce.enumerate_equilibria(op.spec))
            != repr(brute_force_equilibria(op.spec))):
        return [f"differs from brute_force_equilibria: {op.spec}"]
    return []


#: each workload's check and the number of cases its pool has over SEEDS
CHECKS = {
    "dynamics_rounds": (dynamics_rounds, 1280),
    "certify_large": (certify_large, 384),
    "eos_search": (eos_search, 1056),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(f"usage: pool_check.py <{'|'.join(CHECKS)}>", file=sys.stderr)
        return 2
    check, expected = CHECKS[argv[0]]
    work, failed, cases = workloads.WORKLOADS[argv[0]], 0, 0
    for seed in SEEDS:
        for i, op in enumerate(work.prepare(ce, work.generate(seed),
                                            Path("."))):
            cases += 1
            try:
                failures = check(work, op)
            except Exception as exc:
                failures = [f"raised {type(exc).__name__}: {exc}"]
            if failures:
                failed += 1
                print(f"seed {seed} case {i}: {failures[0]}")
    print(f"{failed} of the {cases} pool cases failed "
          f"(the pool has {expected})")
    return 1 if failed or cases != expected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
