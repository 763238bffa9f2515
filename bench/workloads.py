"""Seeded workloads of the contesteq benchmark.

Every workload is a closed loop: one caller, one operation in flight. Its
inputs are a pool of `per_kind` cases for each instance kind, interleaved
so that consecutive operations cycle through the kinds. Within a kind, the
continuous inputs (n, alpha, cost spread, prize scale) are the points of a
Kronecker sequence shifted by the seed: any prefix of the pool covers the
input ranges evenly, so two runs on different seeds see the same mix of
work, and a run that stops early still sees a balanced one. The remaining
detail (individual costs, initial profiles) is drawn from the seed.

Costs are scaled by the prize scale k as well: each case is the unit-prize
game written in other units, and its correct answer does not depend on k.
The timed workloads draw k among the powers of two 2**-6 .. 2**6 (1/64 ..
64), which rescale every input exactly; a benchmark run must have no failed
operation, and none fails there (from 2**-9 down some alpha = 1 dynamics
runs do).
The scale probe draws k log-uniform over [1e-8, 1e8], the range of ROADMAP
aim 3; there the scale-tolerance defects of Open item 2 make operations
fail, the knife-edge deterrence game among them, which loses its pairs at
scattered scales that are not powers of two.

A case is plain data (JSON-serialisable). `Workload.prepare` turns cases
into operations, building the ContestSpecs; `run` is the timed operation;
`check` returns the correctness failures of one output, and runs outside
the timed interval.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

#: log2 of the smallest and largest prize scale of the timed workloads
LOG2_K_RANGE = (-6, 6)
#: log10 of the prize-scale range of the scale probe
SCALE_PROBE_RANGE = (-8.0, 8.0)
#: steps of the Kronecker sequence, one per design coordinate
KRONECKER_STEPS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]) % 1.0

#: |c* - bisection c*| / c* allowed for the alpha = 1 closed form
CSTAR_RTOL = 1e-9
#: grid-oracle resolution, as a share of the scan domain prize / cost
GRID_STEP = 1e-5
#: |grid best utility - analytic best utility| allowed, relative to prize
GRID_UTILITY_RTOL = 1e-7
#: |sum of shares - 1| allowed for an alpha > 1 equilibrium
SHARE_SUM_TOL = 1e-9
#: band around pair_ratio_bound in which a pair may or may not be solved
PAIR_RATIO_RTOL = 1e-9
#: converged alpha = 1 dynamics vs the closed form, relative to max q*
DYNAMICS_RTOL = 1e-6

DETERRENCE_COSTS = (0.7071067811865476, 1.0, 1.0, 1.0)
#: root of the checkout the benchmark runs in
ROOT = Path(__file__).resolve().parents[1]


def design_points(rng: np.random.Generator, count: int,
                  dims: int) -> np.ndarray:
    """`count` points of a Kronecker sequence in [0, 1)^dims, shifted by a
    seeded random vector (a Cranley-Patterson rotation)."""
    shift = rng.uniform(size=dims)
    return (shift + np.arange(count)[:, None] * KRONECKER_STEPS[:dims]) % 1.0


def prize_scale(u: float, probe: bool) -> float:
    """The prize scale at design coordinate u in [0, 1)."""
    if probe:
        lo, hi = SCALE_PROBE_RANGE
        return float(10.0 ** (lo + (hi - lo) * u))
    lo, hi = LOG2_K_RANGE
    return 2.0 ** int(lo + (hi - lo + 1) * u)


def spread_costs(rng: np.random.Generator, n: int, lo: float,
                 hi: float) -> np.ndarray:
    """n costs spread evenly over [lo, hi): one uniform draw in each of n
    equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


@dataclass
class Op:
    """One prepared operation: a case plus what the program receives."""

    case: dict
    spec: Any  # the ContestSpec at the case's prize scale
    extra: dict = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: instance kinds, in the order operations cycle through them
    kinds: tuple = ()

    #: design coordinates a case takes, besides the prize scale
    dims = 0
    #: cases of each kind in the pool; a longer run cycles the pool
    per_kind = 16

    def generate(self, seed: int, probe: bool = False) -> list[dict]:
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        # a kind that fills several slots draws them from one sequence, so
        # its points stay evenly spread however many of them a run reaches
        streams = {kind: iter(design_points(
                       rng, self.per_kind * self.kinds.count(kind),
                       1 + self.dims))
                   for kind in dict.fromkeys(self.kinds)}
        cases = []
        for _ in range(self.per_kind):
            for kind in self.kinds:
                u = next(streams[kind])
                case = {"kind": kind, **self.make_case(rng, kind, u[1:])}
                case["prize"] = prize_scale(float(u[0]), probe)
                cases.append(case)
        return cases

    def make_case(self, rng: np.random.Generator, kind, u) -> dict:
        """One case of `kind` at design point u in [0, 1)^dims."""
        raise NotImplementedError

    def _spec(self, ce, case: dict, unit: bool):
        k = 1.0 if unit else case["prize"]
        return ce.ContestSpec(tuple(k * c for c in case["costs"]),
                              alpha=case["alpha"], prize=k)

    def prepare(self, ce, cases: list[dict], workdir: Path) -> list[Op]:
        return [Op(case, self._spec(ce, case, False)) for case in cases]

    def run(self, ce, op: Op, recorder=None):
        raise NotImplementedError

    def check(self, ce, op: Op, out) -> list[str]:
        raise NotImplementedError

    def emitted(self, op: Op, out) -> int:
        """Bytes of documents the operation emitted."""
        return 0

    def unit_prize_sets(self, ce, op: Op) -> list[tuple[int, ...]]:
        """Participant sets of the case's equilibria at prize 1, computed
        once per operation and kept on it."""
        if "unit_sets" not in op.extra:
            unit = self._spec(ce, op.case, True)
            op.extra["unit_sets"] = sorted(
                e.participants for e in ce.eos.enumerate_equilibria(unit))
        return op.extra["unit_sets"]

    def digest(self, op: Op, out) -> Optional[tuple]:
        """Key under which a check verdict may be reused: an identical
        output of the same case gets the same verdict. None: no reuse."""
        return None


def pair_ratio_bound(alpha: float) -> float:
    """Largest cost ratio c_hi / c_lo at which two miners have a stationary
    profile with both shares on the participation branch x >= 1 - 1/alpha.
    The FOC gives c_hi / c_lo = f(x_hi) / f(x_lo) with f(x) = x**(1 - 1/alpha)
    * (1 - x) decreasing on the branch; the ratio peaks at x_lo = 1/alpha."""
    def f(x):
        return x ** (1.0 - 1.0 / alpha) * (1.0 - x)
    return f(1.0 - 1.0 / alpha) / f(1.0 / alpha)


def _grid_spot_check(ce, spec, investments, verdicts, miners) -> list[str]:
    """Compare the certificate's best utility of a few miners with an
    exhaustive grid scan against the same opposition."""
    failures = []
    q = np.asarray(investments, dtype=float)
    for i in miners:
        mask = np.arange(q.size) != i
        opposition = float((q[mask] ** spec.alpha).sum())
        cost = spec.costs[i]
        grid = ce.best_response.grid_oracle(
            cost, spec.alpha, opposition,
            grid_step=GRID_STEP * spec.prize / cost, prize=spec.prize)
        gap = abs(grid.optimal_utility - verdicts[i].best_utility)
        if not gap <= GRID_UTILITY_RTOL * spec.prize:
            failures.append(f"miner {i}: grid utility differs by "
                            f"{gap / spec.prize:.3g} of the prize")
    return failures


class CertifyLarge(Workload):
    name = "certify_large"
    why = ("Certification is a per-miner Python loop building an O(n) mask: "
           "at n=2000 it dwarfs the closed-form solve. O(n) certification "
           "moves this workload and no other.")
    # alpha > 1 in every third slot
    kinds = (False, False, True)
    per_kind = 32
    dims = 4  # n, cost spread, alpha, equal-cost classes

    def make_case(self, rng, eos, u):
        n = 1500 + int(1001 * u[0])
        costs = spread_costs(rng, n, 1.0, 1.0 + 10.0 ** (u[1] - 0.5))
        if u[3] < 0.5:  # a coarse cost grid puts miners into equal-cost classes
            costs = np.round(costs, 2)
        order = np.argsort(costs, kind="stable")
        return {
            "costs": [float(c) for c in costs],
            "alpha": 1.0 + float(u[2]) if eos else 1.0,
            "pair": [int(i) for i in order[:2]],
            "spot": [int(order[0]), int(rng.integers(0, n))],
        }

    def run(self, ce, op, recorder=None):
        if op.spec.alpha == 1.0:
            eq = ce.proportional.solve_equilibrium(op.spec)
            return eq, ce.eos.verify_equilibrium(op.spec, eq.investments)
        return ce.eos.solve_for_set(op.spec, op.case["pair"])

    def check(self, ce, op, out):
        spec = op.spec
        if spec.alpha == 1.0:
            eq, cert = out
            effective = np.asarray(spec.costs) / spec.prize
            c_ref, _ = ce.proportional.solve_threshold_bisection(effective)
            failures = []
            if not abs(eq.c_star - c_ref) <= CSTAR_RTOL * c_ref:
                failures.append(f"c* {eq.c_star!r} vs bisection {c_ref!r}")
            if not cert.certified:
                failures.append("closed-form equilibrium not certified")
            return failures + _grid_spot_check(
                ce, spec, eq.investments, cert.verdicts, op.case["spot"])
        c_lo, c_hi = sorted(spec.costs[i] for i in op.case["pair"])
        carried = pair_ratio_bound(spec.alpha)
        if out is None:
            if c_hi / c_lo < carried * (1.0 - PAIR_RATIO_RTOL):
                return [f"no profile for a cost ratio {c_hi / c_lo!r} below "
                        f"the bound {carried!r}"]
            return []
        if c_hi / c_lo > carried * (1.0 + PAIR_RATIO_RTOL):
            return [f"a profile for a cost ratio {c_hi / c_lo!r} above the "
                    f"bound {carried!r}"]
        return _grid_spot_check(ce, spec, out.investments,
                                out.certificate.verdicts, op.case["spot"])


#: most candidate participant sets an eos_search instance may have
MAX_CANDIDATE_SETS = 170


def alpha_floor(n: int) -> float:
    """Smallest alpha (at least 1.05) at which n miners have at most
    MAX_CANDIDATE_SETS candidate sets; above 1 + 1/c the cap is below c+1."""
    for cap in range(n, 1, -1):
        if sum(math.comb(n, k) for k in range(2, cap + 1)) <= MAX_CANDIDATE_SETS:
            return 1.05 if cap == n else 1.0 + 1.0 / cap
    raise ValueError(f"no alpha keeps n={n} within the set budget")


class EosSearch(Workload):
    name = "eos_search"
    why = ("Per-set nested bisections and re-verified copies dominate, with "
           "thousands of small-n verifications; threshold-window search "
           "moves it and a costlier vectorised verify shows here.")
    # (cost spread, n range, alpha range); None: the floor of alpha_floor.
    # Seven of the eleven slots are near-equal costs with all 26 candidate
    # sets solved, so the median and the tail both fall among them.
    near5 = ("near", (5, 5), (1.05, 1.25))
    kinds = (near5, ("near", (6, 7), (1.5, 2.0)), near5, near5,
             ("mid", (5, 8), (None, 2.0)), near5,
             ("classes", (6, 9), (1.34, 2.0)), near5, near5,
             ("deterrence", (4, 4), (2.0, 2.0)), near5)
    per_kind = 24
    dims = 3  # n, alpha, cost spread

    def make_case(self, rng, kind, u):
        spread, (n_lo, n_hi), (a_lo, a_hi) = kind
        if spread == "deterrence":
            return {"costs": list(DETERRENCE_COSTS), "alpha": 2.0}
        n = n_lo + int((n_hi - n_lo + 1) * u[0])
        a_lo = alpha_floor(n) if a_lo is None else a_lo
        alpha = a_lo + (a_hi - a_lo) * float(u[1])
        if spread == "near":
            costs = spread_costs(rng, n, 1.0, 1.05)
        elif spread == "mid":  # from a 20% spread to a 10-fold one
            costs = spread_costs(rng, n, 1.0, 1.0 + 10.0 ** (1.7 * u[2] - 0.7))
        else:  # three equal-cost classes
            levels = np.cumsum([1.0, *(0.05 + 0.25 * rng.uniform(size=2))])
            costs = levels[rng.permutation(np.arange(n) % 3)]
        return {"costs": [float(c) for c in costs], "alpha": alpha}

    def run(self, ce, op, recorder=None):
        return ce.eos.enumerate_equilibria(op.spec)

    def digest(self, op, out):
        return tuple((e.participants, e.investments) for e in out)

    def check(self, ce, op, out):
        spec = op.spec
        failures = []
        cap = ce.eos.participation_cap(spec.alpha)
        for eq in out:
            if not all(row.ok for row in ce.eos.pairwise_bound_check(spec, eq)):
                failures.append(f"{eq.participants}: pairwise bound violated")
            if len(eq.participants) > cap:
                failures.append(f"{eq.participants}: above the cap {cap}")
            if not abs(sum(eq.shares) - 1.0) <= SHARE_SUM_TOL:
                failures.append(f"{eq.participants}: shares do not sum to 1")
        reference = self.unit_prize_sets(ce, op)
        found = sorted(e.participants for e in out)
        if found != reference:
            failures.append(f"{len(found)} participant sets at prize "
                            f"{spec.prize:.3g}, {len(reference)} at prize 1")
        if op.case["kind"][0] == "deterrence" and not (
                len(reference) == 3 and all(len(s) == 2 for s in reference)):
            failures.append(f"deterrence at prize 1 gave {reference}, "
                            f"not 3 pairs")
        return failures


class DynamicsRounds(Workload):
    name = "dynamics_rounds"
    why = ("Every best-response update rebuilds an O(n) mask, so a round is "
           "O(n^2); at alpha=1 and n=200 one run takes about 0.6 s. Round "
           "and best-response costs move only this workload.")
    # nominal n of each slot; 0 is an alpha > 1 game with 3 to 6 miners.
    # Seventeen of the twenty slots are n = 200, so the median and the tail
    # both fall near the middle of their latencies.
    kinds = (0, *[200] * 6, 50, *[200] * 6, 100, *[200] * 5)
    dims = 2  # n within 3% of nominal, alpha

    def make_case(self, rng, kind, u):
        if kind:
            n = int(kind * (0.97 + 0.06 * u[0]))
            alpha, costs = 1.0, spread_costs(rng, n, 1.0, 3.0)
        else:
            n = 3 + int(4 * u[0])
            alpha = 1.0 + 0.5 * float(u[1])
            costs = 10.0 ** spread_costs(rng, n, 0.0, 0.5)
        # investments are unchanged when costs and prize scale together
        initial = 10.0 ** rng.uniform(-2.0, 0.0, n) / float(np.mean(costs))
        return {"costs": [float(c) for c in costs], "alpha": alpha,
                "initial": [float(q) for q in initial]}

    def prepare(self, ce, cases, workdir):
        ops = super().prepare(ce, cases, workdir)
        for op in ops:
            op.extra["config"] = ce.DynamicsConfig(
                initial_profile=tuple(op.case["initial"]))
        return ops

    def run(self, ce, op, recorder=None):
        return ce.dynamics.run_dynamics(op.spec, op.extra["config"])

    def digest(self, op, out):
        return out.status, out.terminal

    def check(self, ce, op, out):
        if out.status != "converged":
            return []
        if out.certificate is None or not out.certificate.certified:
            return ["converged but not certified"]
        if op.spec.alpha != 1.0:
            return []
        eq = ce.proportional.solve_equilibrium(op.spec)
        q_star = np.asarray(eq.investments)
        gap = float(np.abs(np.asarray(out.terminal) - q_star).max())
        if not gap <= DYNAMICS_RTOL * float(q_star.max()):
            return [f"terminal profile is {gap:.3g} from the closed form"]
        return []


CLI_COMMANDS = ("solve", "verify", "sweep", "dynamics", "best_response")
#: exit codes of contesteq.cli
EXIT_OK, EXIT_NO_EQUILIBRIUM = 0, 4


def pinned_env(root: Path) -> dict:
    """Environment of every process the benchmark starts: the checkout's
    sources first on the path, and one BLAS thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    document: bytes  # the --out file, read after the process exits


class CliPipeline(Workload):
    name = "cli_pipeline"
    why = ("The only workload where interpreter start, import and document "
           "emission dominate: each op is one contesteq.cli process; the "
           "cli layer goes unmeasured without it.")
    kinds = ("scenario",)
    dims = 3  # alpha, cost gap of the pair, number of outsiders

    def __init__(self):
        self.env = pinned_env(ROOT)

    def make_case(self, rng, kind, u):
        # a cheap pair within 15% and outsiders 3-6 times dearer: at alpha
        # <= 1.6 both pair shares can sit on the participation branch, so
        # the pair is an equilibrium
        alpha = 1.2 + 0.4 * float(u[0])
        costs = [1.0, 1.0 + 0.15 * float(u[1])]
        costs += [float(c) for c in rng.uniform(3.0, 6.0, 1 + int(4 * u[2]))]
        order = rng.permutation(len(costs))
        lo = float(rng.uniform(1.2, alpha))
        return {
            "costs": [costs[i] for i in order],
            "alpha": alpha,
            "sweep": f"{lo!r}:{alpha!r}:3",
            "miner": int(rng.integers(0, len(costs))),
            "dynamics_seed": int(rng.integers(0, 2**31)),
        }

    def prepare(self, ce, cases, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "dynamics.json"
        config.write_text(json.dumps({"initial": "random",
                                      "max_rounds": 10000,
                                      "convergence_tol": 1e-10}))
        ops = []
        for index, case in enumerate(cases):
            ops.extend(self._scenario_ops(ce, case, workdir / f"s{index}",
                                          config))
        return ops

    def _scenario_ops(self, ce, case, stem, config) -> list[Op]:
        spec = self._spec(ce, case, False)
        scenario = stem.with_suffix(".json")
        scenario.write_text(json.dumps({"alpha": spec.alpha,
                                        "costs": list(spec.costs),
                                        "prize": spec.prize}))
        files = {"scenario": scenario, "config": config,
                 **{c: Path(f"{stem}-{c}.out") for c in CLI_COMMANDS}}
        return [Op(case, spec, {"command": c, "files": files,
                                "argv": self._argv(case, c, files)})
                for c in CLI_COMMANDS]

    @staticmethod
    def _argv(case, command, f) -> list[str]:
        s = ["--scenario", str(f["scenario"])]
        out = ["--out", str(f[command])]
        if command == "solve":
            return ["solve", *s, *out]
        if command == "verify":
            return ["verify", *s, "--profile", str(f["solve"]), *out]
        if command == "sweep":
            return ["sweep", *s, "--param", "alpha", "--grid", case["sweep"],
                    *out]
        if command == "dynamics":
            return ["dynamics", *s, "--config", str(f["config"]), *out,
                    "--seed", str(case["dynamics_seed"])]
        return ["best-response", *s, "--profile", str(f["solve"]),
                "--miner", str(case["miner"]), "--oracle", *out]

    def _launch(self, argv, trace_path: Optional[Path]) -> CliResult:
        if trace_path is None:
            cmd = [sys.executable, "-m", "contesteq.cli", *argv]
        else:
            shim = Path(__file__).with_name("cli_shim.py")
            cmd = [sys.executable, str(shim), str(trace_path), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                              capture_output=True, check=False)
        return CliResult(proc.returncode, proc.stdout, proc.stderr, b"")

    def run(self, ce, op, recorder=None):
        trace_path = None
        if recorder is not None:
            trace_path = op.extra["files"]["scenario"].with_suffix(".trace")
        result = self._launch(op.extra["argv"], trace_path)
        if recorder is not None and trace_path.exists():
            recorder.merge(json.loads(trace_path.read_text()))
            trace_path.unlink()
        return result

    def emitted(self, op, out: CliResult) -> int:
        """Bytes the process emitted: stdout plus its --out file."""
        path = op.extra["files"][op.extra["command"]]
        return len(out.stdout) + (path.stat().st_size if path.exists() else 0)

    def check(self, ce, op, out):
        command = op.extra["command"]
        path = op.extra["files"][command]
        out.document = path.read_bytes() if path.exists() else b""
        allowed = {EXIT_OK}
        if command == "solve" and not self.unit_prize_sets(ce, op):
            allowed.add(EXIT_NO_EQUILIBRIUM)
        if out.code not in allowed:
            tail = out.stderr.decode(errors="replace").strip()[-200:]
            return [f"{command} exited {out.code}: {tail}"]
        return getattr(self, f"_check_{command}")(ce, op, out)

    def _check_solve(self, ce, op, out):
        doc = json.loads(out.document)
        labels = doc["scenario"]["labels"]
        found = sorted(tuple(sorted(labels.index(m) for m in eq["participants"]))
                       for eq in doc["equilibria"])
        failures = []
        if found != self.unit_prize_sets(ce, op):
            failures.append(f"participant sets {found} differ from prize 1")
        if "first_document" not in op.extra:  # solve once more, untimed
            self._launch(op.extra["argv"], None)
            op.extra["first_document"] = op.extra["files"]["solve"].read_bytes()
        first = op.extra["first_document"]
        if first != out.document:
            failures.append("a repeated solve is not byte-identical")
        return failures

    def _check_verify(self, ce, op, out):
        doc = json.loads(out.document)
        return [] if doc["verdict"] == "certified" else ["round trip rejected"]

    def _check_sweep(self, ce, op, out):
        rows = list(csv.reader(io.StringIO(out.document.decode())))
        if len(rows) != 4 or rows[0][0] != "param":
            return [f"sweep CSV has {len(rows)} rows"]
        return []

    def _check_dynamics(self, ce, op, out):
        text = out.document.decode()
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][0] != "round" or "# status=" not in text:
            return ["trajectory CSV is malformed"]
        return []

    def _check_best_response(self, ce, op, out):
        doc = json.loads(out.document)
        return [] if doc["oracle"]["agrees"] else ["grid oracle disagrees"]


WORKLOADS = {w.name: w for w in (CertifyLarge(), EosSearch(), DynamicsRounds(),
                                 CliPipeline())}
WORKLOAD_NAMES = tuple(WORKLOADS)


def inputs_bytes(name: str, seed: int, probe: bool = False) -> bytes:
    """The generated cases of a workload, serialised; equal seeds give
    equal bytes."""
    return json.dumps(WORKLOADS[name].generate(seed, probe),
                      sort_keys=True).encode()
