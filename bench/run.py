"""The contesteq benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload (see workloads.py and BENCHMARK.json) from the root of a
checkout and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The line
before it holds the full record: every metric with its sample count, the
failure messages and the environment.

    python3 bench/run.py --workload all --seed <n> --seconds <s> [--trace 1]

prints one row per workload instead. Without --trace each row ends with
the workload's scale probe: the same loop with the prize scale drawn from
[1e-8, 1e8], where the scale-tolerance defects of ROADMAP Open item 2 make
operations fail, and its failed / attempted.

The program is imported from the checkout's src/. Every process runs with
one BLAS thread, and worker processes run one at a time. What this cannot
measure: there is no CPU pinning and no system-wide tracing, so other load
on the machine shows up as noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import ROOT, WORKLOAD_NAMES, pinned_env  # noqa: E402

#: fresh-interpreter launches whose median is setup_s
SETUP_LAUNCHES = 7
#: launches whose median gives each per-layer process timing
PROCESS_LAUNCHES = 3
#: a run, set-up included, must end within this many seconds
RUN_TIMEOUT_S = 150.0
#: samples that must lie beyond the reported tail latency
TAIL_SAMPLES = 10
NOT_MEASURED = ("no CPU pinning: the scheduler may move or share the cores; "
                "no system-wide tracing: only this benchmark's processes "
                "are observed")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}


def _worker_cmd(args, workdir: Path, *flags: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(workdir), *flags]


def run_worker(cmd: list[str], env: dict) -> str:
    """Run the measuring worker in its own process group and return its
    stdout; on timeout the whole group, CLI children included, is killed."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def time_setup(args, workdir: Path, env: dict) -> tuple[float, ...]:
    """Wall time from launching a fresh worker until it reports READY, and
    the calibration kernel's times right before and after."""
    before = speed.kernel_s()
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, workdir, "--setup-only"),
                            env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        code = proc.wait(timeout=60)
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up launch failed with exit code {code}")
    return elapsed, before, speed.kernel_s()


def import_times(env: dict) -> dict:
    """`-X importtime` split of `import contesteq`, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import contesteq, numpy; print(numpy.__version__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue  # the header line
    return {"contesteq_s": cumulative["contesteq"],
            "numpy_s": cumulative["numpy"], "numpy": proc.stdout.strip()}


def interpreter_time(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_SAMPLES
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_SAMPLES - 1, 0)
    if len(ordered) <= TAIL_SAMPLES:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def at_reference_speed(timings) -> list[float]:
    """(elapsed, kernel before, kernel after) triples, scaled."""
    return speed.scaled(*(list(column) for column in zip(*timings)))


def end_to_end(record: dict, setup: list[tuple[float, ...]]) -> dict:
    """The end-to-end metrics at the reference speed; "raw" holds each
    timing as the clock read it."""
    rows = record["ops"]
    scaled = at_reference_speed((r[1], r[4], r[5]) for r in rows)
    completed = [s for s, r in zip(scaled, rows) if not r[2]]
    raw = [r[1] for r in rows if not r[2]]
    tail_s, percentile = tail(completed)
    return {
        "setup_s": {"value": statistics.median(at_reference_speed(setup)),
                    "unit": "s", "samples": len(setup),
                    "raw": statistics.median(s for s, *_ in setup)},
        "ops_per_s": {"value": len(completed) / sum(scaled),
                      "unit": "1/s", "samples": len(completed),
                      "raw": len(completed) / record["timed_s"]},
        "op_p50_s": {"value": statistics.median(completed), "unit": "s",
                     "samples": len(completed),
                     "raw": statistics.median(raw)},
        "op_tail_s": {"value": tail_s, "unit": "s", "percentile": percentile,
                      "samples": len(completed), "raw": tail(raw)[0]},
        "failed_ratio": {"value": sum(r[2] for r in rows) / len(rows),
                         "unit": "ratio", "samples": len(rows)},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB",
                        "samples": 1},
    }


def per_layer(record: dict, env: dict) -> tuple[dict, list[str]]:
    trace = record["trace"]
    rows, replay = record["ops"], trace["untraced_ops"]
    imports = [import_times(env) for _ in range(PROCESS_LAUNCHES)]
    measured = {
        "cli.interpreter_s": statistics.median(
            interpreter_time(env) for _ in range(PROCESS_LAUNCHES)),
        "cli.import_s": statistics.median(t["contesteq_s"] for t in imports),
        "cli.numpy_import_s": statistics.median(t["numpy_s"] for t in imports),
        "cli.emit_bytes": sum(r[3] for r in rows) / len(rows),
        "trace.overhead": record["timed_s"] / trace["untraced_s"] - 1.0,
        "trace.op_wall_s": record["timed_s"] / len(rows),
    }
    for command in ("solve", "verify", "sweep", "dynamics", "best_response"):
        times = [r[1] for r in replay if r[0] == command]
        if times:
            measured[f"cli.process_s.{command}"] = statistics.median(times)
    values = spans.per_layer_values(trace["summary"], len(rows), measured)
    absent = trace["absent"]
    metrics = {}
    for name, unit, _, layer in spans.PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        if layer in absent:
            metrics[name]["absent"] = True
    return metrics, absent


def _workdir(args, tag: str) -> Path:
    return ROOT / ".bench_work" / f"{args.workload}-{tag}-{os.getpid()}"


def _remove(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if workdir.parent.exists() and not any(workdir.parent.iterdir()):
        workdir.parent.rmdir()


def scale_probe(args) -> dict:
    """failed / attempted of the workload's loop at the probe's prize
    scales, [1e-8, 1e8]."""
    workdir = _workdir(args, "probe")
    try:
        record = json.loads(run_worker(
            _worker_cmd(args, workdir, "--scale-probe"),
            pinned_env(ROOT)).strip().splitlines()[-1])
    finally:
        _remove(workdir)
    rows = record["ops"]
    failed = sum(r[2] for r in rows)
    return {"value": failed / len(rows), "unit": "ratio", "failed": failed,
            "attempted": len(rows), "failures": record["failures"]}


def run_workload(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    env = pinned_env(ROOT)
    workdir = _workdir(args, "run")
    try:
        setup = [time_setup(args, workdir, env) for _ in range(SETUP_LAUNCHES)]
        imports = import_times(env)
        record = json.loads(run_worker(_worker_cmd(args, workdir),
                                       env).strip().splitlines()[-1])
        if args.trace:
            metrics, absent = per_layer(record, env)
        else:
            metrics, absent = end_to_end(record, setup), []
    finally:
        _remove(workdir)
    rows = record["ops"]
    result = {
        "correct": not any(r[2] for r in rows),
        "attempted": len(rows),
        "failed": sum(r[2] for r in rows),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                    if args.trace or name in END_TO_END_UNITS},
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "metrics": metrics, "absent": absent,
        "failures": record["failures"],
        "environment": {
            "python": platform.python_version(),
            "numpy": imports["numpy"],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "blas_threads": {k: v for k, v in env.items()
                             if k.endswith("_THREADS")},
            "import_s": {"numpy": imports["numpy_s"],
                         "contesteq": imports["contesteq_s"]},
            "speed_reference_s": speed.REFERENCE_S,
            "not_measured": NOT_MEASURED,
        },
    }
    return result, detail


def print_table(results: list[tuple[dict, dict]], trace: int) -> None:
    if trace:
        print(f"{'metric':36s}" + "".join(f"{d['workload']:>17s}"
                                          for _, d in results))
        for name, unit, *_ in spans.PER_LAYER:
            cells = []
            for _, d in results:
                m = d["metrics"][name]
                cells.append("absent" if m.get("absent")
                             else f"{m['value']:.4g}")
            print(f"{name + ' [' + unit + ']':36s}"
                  + "".join(f"{c:>17s}" for c in cells))
        return
    columns = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s",
               "failed_ratio", "peak_rss_mb", "scale_failed_ratio")
    print(f"{'workload':16s}" + "".join(
        f"{c + ' [' + (END_TO_END_UNITS.get(c) or 'ratio') + ']':>28s}"
        for c in columns))
    for result, d in results:
        cells = []
        for c in columns:
            if c == "scale_failed_ratio":
                m = d["scale_probe"]
                cells.append(f"{m['value']:.4g} "
                             f"({m['failed']}/{m['attempted']})")
                continue
            m = d["metrics"][c]
            note = f"n={m['samples']}"
            if c == "op_tail_s":
                note = f"p{m['percentile']:.0f},n={m['samples']}"
            if c == "failed_ratio":
                note = f"{result['failed']}/{result['attempted']}"
            cells.append(f"{m['value']:.4g} ({note})")
        print(f"{d['workload']:16s}" + "".join(f"{c:>28s}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contesteq" / "__init__.py").is_file():
        print(f"no contesteq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, detail = run_workload(args)
            print(json.dumps(detail))
            print(json.dumps(result))
            return 0
        results = []
        for name in WORKLOAD_NAMES:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            results.append(run_workload(one))
            detail = results[-1][1]
            if not args.trace:
                detail["scale_probe"] = scale_probe(one)
            for message in detail["failures"]:
                print(f"{name}: {message}", file=sys.stderr)
            for message in detail.get("scale_probe", {}).get("failures", []):
                print(f"{name} scale probe: {message}", file=sys.stderr)
        print_table(results, args.trace)
        return 0
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
