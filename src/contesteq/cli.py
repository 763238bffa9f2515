"""Scenario ingestion, command dispatch, and report emission.

Subcommands: solve, verify, sweep, dynamics, best-response. Scenario and
result documents are JSON; sweep and trajectory output is CSV. Exit codes:
0 success, 2 parse error, 3 invalid spec, 4 no equilibrium found
(alpha > 1), 5 verification failed (verify, or a solve whose equilibrium
fails its certificate). The environment variable CONTEST_EQ_TOL overrides
the default certification tolerance of 1e-9, for solve as for verify.

Prize boundary: the library entry points map a scenario to the unit-prize
game themselves; best-response takes the unit-prize costs c_i / prize
from core.unit_costs here, so all tolerances, the oracle's 1e-8
included, are shares of the prize.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from . import best_response as br
from . import eos, proportional
from .core import (ContestSpec, _opposition_powers, concentration,
                   unit_costs)
from .dynamics import DynamicsConfig, run_dynamics

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_SPEC = 3
EXIT_NO_EQUILIBRIUM = 4
EXIT_NOT_CERTIFIED = 5

SCENARIO_FIELDS = {"alpha", "costs", "prize", "labels"}
DYNAMICS_FIELDS = {"initial", "max_rounds", "convergence_tol"}


class ScenarioError(ValueError):
    """File-level problem: unreadable, malformed JSON, unknown or
    missing fields, mismatched lengths."""


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


def _numbers(values, error: str) -> list[float]:
    """The floats of a JSON array of numbers; ScenarioError(error) when it
    is no array, or holds a bool, a non-number or an integer beyond the
    float range."""
    if isinstance(values, list) and all(type(v) in (int, float)
                                        for v in values):
        try:
            return [float(v) for v in values]
        except OverflowError:
            pass
    raise ScenarioError(error)


def load_scenario(path: str) -> tuple[ContestSpec, list[str], dict]:
    """Parse a scenario file into a spec, labels, and an echo block."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    unknown = set(data) - SCENARIO_FIELDS
    if unknown:
        raise ScenarioError(
            f"{path}: unknown scenario field(s): {', '.join(sorted(unknown))}"
        )
    if "costs" not in data:
        raise ScenarioError(f"{path}: scenario is missing 'costs'")
    costs = _numbers(data["costs"],
                     f"{path}: 'costs' must be an array of numbers")
    alpha, prize = _numbers([data.get("alpha", 1.0), data.get("prize", 1.0)],
                            f"{path}: 'alpha' and 'prize' must be numbers")
    labels = data.get("labels")
    if labels is not None:
        if (not isinstance(labels, list)
                or not all(isinstance(s, str) for s in labels)):
            raise ScenarioError(f"{path}: 'labels' must be an array of strings")
        if len(labels) != len(costs):
            raise ScenarioError(f"{path}: 'labels' must align with 'costs'")
    else:
        labels = [f"m{i + 1}" for i in range(len(costs))]
    # ValueError -> invalid spec
    spec = ContestSpec(costs=tuple(costs), alpha=alpha, prize=prize)
    echo = {"alpha": spec.alpha, "costs": list(spec.costs),
            "prize": spec.prize, "labels": labels}
    return spec, labels, echo


def load_profile(path: str, n: int) -> np.ndarray:
    """Parse an investment profile: a bare JSON array, an object with an
    'investments' field, or a solve result document (its first
    equilibrium block is taken)."""
    data = _load_json(path)
    if isinstance(data, dict) and "equilibria" in data:
        blocks = data["equilibria"]
        if not isinstance(blocks, list) or not blocks:
            raise ScenarioError(f"{path}: result document has no equilibria")
        data = blocks[0]
    if isinstance(data, dict):
        if "investments" not in data:
            raise ScenarioError(f"{path}: profile object needs 'investments'")
        data = data["investments"]
    data = _numbers(data, f"{path}: investments must be an array of numbers")
    if len(data) != n:
        raise ScenarioError(
            f"{path}: profile has {len(data)} investments, scenario has {n}"
        )
    return np.asarray(data, dtype=float)


def certification_tolerance() -> float:
    raw = os.environ.get("CONTEST_EQ_TOL")
    if raw is None:
        return eos.CERT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ScenarioError(f"CONTEST_EQ_TOL={raw!r} is not a number") from exc
    if not tol > 0:
        raise ScenarioError("CONTEST_EQ_TOL must be positive")
    return tol


def _json_safe(obj):
    """Replace non-finite floats with None so documents stay valid JSON."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit_document(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(_json_safe(doc), indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _certificate_summary(cert: eos.EquilibriumCertificate,
                         prize: float) -> dict:
    """The certificate's verdict, tolerance and worst slack, all in caller
    units."""
    return {"certified": cert.certified, "tolerance": cert.tolerance * prize,
            "worst_slack": cert.worst_slack}


def _equilibria(spec: ContestSpec, tol: float):
    """The model's name, each equilibrium its solver reports as
    (equilibrium, certificate, model fields), and the solver's diagnostics.
    The alpha = 1 closed form gets the certificate that enumeration gives
    every alpha > 1 set."""
    if spec.alpha == 1.0:
        eq = proportional.solve_equilibrium(spec)
        fields = {"c_star": eq.c_star, "total_investment": eq.total_investment}
        return "proportional", [
            (eq, eos.verify_equilibrium(spec, eq.investments, tol), fields)
        ], {"method": eq.method, "iterations": eq.iterations,
            "residual": eq.residual}
    found = eos.enumerate_equilibria(spec, tol=tol)
    return "eos", [
        (eq, eq.certificate, {"power_scale": eq.power_scale}) for eq in found
    ], {"method": "set-enumeration",
        "participation_cap": eos.participation_cap(spec.alpha),
        "equilibrium_count": len(found)}


def cmd_solve(args) -> int:
    spec, labels, echo = load_scenario(args.scenario)
    tol = certification_tolerance()
    model, found, diagnostics = _equilibria(spec, tol)
    blocks = [{
        "participants": [labels[i] for i in eq.participants],
        "investments": list(eq.investments),
        "shares": list(eq.shares),
        "utilities": [v.utility for v in cert.verdicts],
        **fields,
        "marginal": [labels[i] for i in cert.marginal_miners],
        "certificate": _certificate_summary(cert, spec.prize),
        "concentration": asdict(concentration(spec, eq.investments)),
    } for eq, cert, fields in found]
    doc = {"schema_version": SCHEMA_VERSION, "scenario": echo,
           "model": model, "equilibria": blocks}
    if blocks:
        doc["concentration"] = blocks[0]["concentration"]
    doc["diagnostics"] = {**diagnostics, "tolerance": tol}
    _emit_document(doc, args.out)
    certified = sum(cert.certified for _, cert, _ in found)
    if args.out:
        print(f"{model} model: {certified} of {len(blocks)} equilibria "
              f"certified (alpha = {_fmt(spec.alpha)})")
    if not blocks:
        print("no pure-strategy equilibrium found", file=sys.stderr)
        return EXIT_NO_EQUILIBRIUM
    if certified < len(blocks):
        print("an equilibrium fails its certificate", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, labels, echo = load_scenario(args.scenario)
    q = load_profile(args.profile, spec.n)
    tol = certification_tolerance()
    cert = eos.verify_equilibrium(spec, q, tol)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": echo,
        "profile": q.tolist(),
        "verdict": "certified" if cert.certified else "rejected",
        "certificate": {
            **_certificate_summary(cert, spec.prize),
            # a MinerVerdict's fields, its label in place of its index
            "miners": [dict(zip(("label", *eos.MinerVerdict._fields[1:]),
                                (labels[v.miner], *v[1:])))
                       for v in cert.verdicts],
        },
    }
    _emit_document(doc, args.out)
    if args.out:
        print(f"verdict: {doc['verdict']} "
              f"(worst slack {_fmt(cert.worst_slack)}, "
              f"tol {_fmt(tol * spec.prize)})")
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioError("--grid must be lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioError(f"bad --grid {text!r}: {exc}") from exc
    if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ScenarioError(f"bad --grid {text!r}")
    return np.linspace(lo, hi, steps)


SWEEP_COLUMNS = ["param", "value", "status", "participant_count", "hhi",
                 "top1_share", "total_investment", "rent_dissipation"]


def _sweep_spec(base: ContestSpec, param: str, value: float) -> ContestSpec:
    if param == "alpha":
        return ContestSpec(base.costs, alpha=value, prize=base.prize)
    if param == "cost_scale":
        return ContestSpec(tuple(c * value for c in base.costs),
                           alpha=base.alpha, prize=base.prize)
    return ContestSpec(base.costs, alpha=base.alpha, prize=value)


def cmd_sweep(args) -> int:
    spec, _, _ = load_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    tol = certification_tolerance()
    rows = []
    for value in grid:
        value = float(value)
        status = "ok"
        if args.param == "alpha":
            # equilibrium existence is only assured on [1, 2]
            clipped = min(max(value, 1.0), 2.0)
            if clipped != value:
                status = "clipped"
                value = clipped
        try:  # a value <= 0, or a spec or solve beyond the float range
            sub = _sweep_spec(spec, args.param, value)
            found = _equilibria(sub, tol)[1]
        except ValueError:
            rows.append([args.param, _fmt(value), "invalid", "", "", "", "", ""])
            continue
        certified = [eq for eq, cert, _ in found if cert.certified]
        if not certified:
            rows.append([args.param, _fmt(value), "no_equilibrium",
                         "", "", "", "", ""])
            continue
        # report the most decentralized certified equilibrium
        investments = max(
            certified, key=lambda e: len(e.participants)
        ).investments
        report = concentration(sub, investments)
        rows.append([
            args.param, _fmt(value), status,
            str(report.participant_count), _fmt(report.hhi),
            _fmt(report.top_k_shares[0]),
            _fmt(sum(investments)), _fmt(report.rent_dissipation),
        ])
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return EXIT_OK


def load_dynamics_config(path: str, spec: ContestSpec,
                         seed: Optional[int]) -> DynamicsConfig:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: dynamics config must be a JSON object")
    unknown = set(data) - DYNAMICS_FIELDS
    if unknown:
        raise ScenarioError(
            f"{path}: unknown dynamics field(s): {', '.join(sorted(unknown))}"
        )
    initial = data.get("initial", "random")
    if initial == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        scale = spec.prize / float(np.mean(spec.costs))
        initial = (scale * 10.0 ** rng.uniform(-2.0, 0.0, spec.n)).tolist()
    message = (f"{path}: 'initial' must be \"random\" or an array of "
               f"{spec.n} numbers")
    initial = _numbers(initial, message)
    if len(initial) != spec.n:
        raise ScenarioError(message)
    max_rounds = data.get("max_rounds", 10_000)
    if type(max_rounds) not in (int, float) or max_rounds % 1:  # 1e4 counts
        raise ScenarioError(f"{path}: 'max_rounds' must be a whole number")
    tol, = _numbers([data.get("convergence_tol", 1e-10)],
                    f"{path}: 'convergence_tol' must be a number")
    return DynamicsConfig(tuple(initial), int(max_rounds), tol)


def cmd_dynamics(args) -> int:
    spec, labels, _ = load_scenario(args.scenario)
    config = load_dynamics_config(args.config, spec, args.seed)
    trajectory = run_dynamics(spec, config,
                              verify_tol=certification_tolerance())
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "miner_label", "investment", "share",
                         "utility"])
        for rnd, miner, q, x, u in trajectory.rows():
            writer.writerow([rnd, labels[miner], _fmt(q), _fmt(x), _fmt(u)])
        f.write(f"# status={trajectory.status} "
                f"rounds_used={trajectory.rounds_used}\n")
    print(f"status: {trajectory.status} after {trajectory.rounds_used} rounds")
    return EXIT_OK


def cmd_best_response(args) -> int:
    spec, labels, echo = load_scenario(args.scenario)
    q = load_profile(args.profile, spec.n)
    if args.miner in labels:
        miner = labels.index(args.miner)
    else:
        try:
            miner = int(args.miner)
        except ValueError as exc:
            raise ScenarioError(
                f"--miner {args.miner!r} is neither a label nor an index"
            ) from exc
        if not 0 <= miner < spec.n:
            raise ScenarioError(f"--miner index {miner} out of range")
    opposition = float(_opposition_powers(q, spec.alpha)[miner])
    cost = float(unit_costs(spec)[miner])
    try:
        result = br._best_response(cost, spec.alpha, opposition)
    except br.NoBestResponse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    best_utility = spec.prize * result.optimal_utility
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": echo,
        "miner": labels[miner],
        "opposition_power": opposition,
        "best_responses": list(result.optimal_investments),
        "best_utility": best_utility,
        "interior_candidate": result.interior_candidate,
    }
    agreed = True
    if args.oracle:
        check = br.grid_oracle(cost, spec.alpha, opposition)
        step = 1e-6 / cost
        distance = min(
            abs(check.optimal_investments[0] - m)
            for m in result.optimal_investments
        )
        agreed = (distance <= 2 * step
                  and abs(check.optimal_utility - result.optimal_utility)
                  <= 1e-8)
        doc["oracle"] = {
            "argmax": check.optimal_investments[0],
            "utility": spec.prize * check.optimal_utility,
            "grid_step": step,
            "agrees": agreed,
        }
    _emit_document(doc, args.out)
    if args.out:
        best = ", ".join(_fmt(m) for m in result.optimal_investments)
        print(f"best response for {labels[miner]}: {{{best}}} "
              f"with utility {_fmt(best_utility)}")
    if not agreed:
        print("grid oracle disagrees with the analytic best response",
              file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contesteq",
        description="Equilibria of fixed-prize investment contests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a scenario for equilibria")
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--out", help="write the result document here "
                                     "(default stdout)")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a profile")
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--profile", required=True)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate outcomes over a grid")
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--param", required=True,
                       choices=["alpha", "cost_scale", "prize"])
    sweep.add_argument("--grid", required=True, metavar="lo:hi:steps")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    dynamics = sub.add_parser("dynamics", help="run best-response dynamics")
    dynamics.add_argument("--scenario", required=True)
    dynamics.add_argument("--config", required=True,
                          help="dynamics config JSON")
    dynamics.add_argument("--out", required=True, help="trajectory CSV")
    dynamics.add_argument("--seed", type=int,
                          help="seed for a random initial profile")
    dynamics.set_defaults(func=cmd_dynamics)

    bre = sub.add_parser("best-response",
                         help="best response of one miner to a profile")
    bre.add_argument("--scenario", required=True)
    bre.add_argument("--profile", required=True)
    bre.add_argument("--miner", required=True,
                     help="miner label or 0-based index")
    bre.add_argument("--oracle", action="store_true",
                     help="cross-check against the exhaustive grid oracle")
    bre.add_argument("--out")
    bre.set_defaults(func=cmd_best_response)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
