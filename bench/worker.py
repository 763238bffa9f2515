"""One benchmark process: set up a workload, then run its closed loop.

Prints READY once `import contesteq` has returned and the workload's inputs
are built as ContestSpecs; with --setup-only it exits there, so the parent
can time set-up alone. Otherwise it runs operations back to back until
--seconds of timed wall time have passed and prints one JSON record as its
last line. Correctness checks run between operations, outside the timed
interval; a failed check marks the operation failed and the run goes on.

With --scale-probe the cases take their prize scale from the probe's
range (workloads.SCALE_PROBE_RANGE), where the known scale-tolerance defects
make operations fail; the record then counts those failures.

With --trace 1 the loop runs with every layer function wrapped by the span
recorder, then replays the same operations untraced to measure the
recorder's overhead.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parents[1]


def _failures(work, ce, op, out, error, verdicts) -> list[str]:
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"[:300]]
    key = work.digest(op, out)
    if key is not None and (id(op), key) in verdicts:
        return verdicts[id(op), key]
    try:
        failures = work.check(ce, op, out)
    except Exception as exc:  # a malformed output fails its check
        failures = [f"check raised {type(exc).__name__}: {exc}"[:300]]
    if key is not None:
        verdicts[id(op), key] = failures
    return failures


def closed_loop(work, ce, ops, verdicts, *, seconds=None, count=None,
                recorder=None) -> dict:
    """Run ops[i % len(ops)] for i = 0, 1, ... with one op in flight, until
    `seconds` of timed wall time or `count` ops. A row holds the op's
    label, latency, failed flag, emitted bytes, and the calibration kernel's
    times right before and after it (see speed.py)."""
    rows, messages, timed = [], [], 0.0
    clock = time.perf_counter
    for i in itertools.count():
        if (count is not None and i >= count) or (
                count is None and timed >= seconds):
            break
        op = ops[i % len(ops)]
        before = speed.kernel_s()
        frame = recorder.enter("op") if recorder is not None else None
        if recorder is not None:
            recorder.op = i
        start = clock()
        try:
            out, error = work.run(ce, op, recorder), None
        except Exception as exc:  # the op failed; the loop goes on
            out, error = None, exc
        latency = clock() - start
        if recorder is not None:
            recorder.exit(frame)
        after = speed.kernel_s()
        timed += latency
        failures = _failures(work, ce, op, out, error, verdicts)
        label = op.extra.get("command") or str(op.case["kind"])
        emitted = work.emitted(op, out) if error is None else 0
        rows.append([label, latency, int(bool(failures)), emitted, before,
                     after])
        if failures and len(messages) < 5:
            messages.append(f"op {i} ({op.case['kind']}, prize "
                            f"{op.case['prize']:.3g}): {failures[0]}")
    return {"ops": rows, "timed_s": timed, "failures": messages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale-probe", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import contesteq as ce
    if not Path(ce.__file__).resolve().is_relative_to(src.resolve()):
        print(f"contesteq imported from {ce.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    work = workloads.WORKLOADS[args.workload]
    ops = work.prepare(ce, work.generate(args.seed, args.scale_probe),
                       Path(args.work))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    verdicts: dict = {}
    if args.trace:
        importlib.import_module("contesteq.cli")  # so its layers are found
        recorder = spans.Recorder()
        with spans.installed(recorder, "contesteq") as absent:
            record = closed_loop(work, ce, ops, verdicts,
                                 seconds=args.seconds, recorder=recorder)
        replay = closed_loop(work, ce, ops, verdicts,
                             count=len(record["ops"]))
        record["trace"] = {"summary": recorder.summary(), "absent": absent,
                           "untraced_ops": replay["ops"],
                           "untraced_s": replay["timed_s"]}
    else:
        record = closed_loop(work, ce, ops, verdicts, seconds=args.seconds)
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline"
           else resource.RUSAGE_SELF)
    record["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
