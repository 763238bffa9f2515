"""Traced stand-in for `python -m contesteq.cli`, used by the traced run.

    python bench/cli_shim.py <trace.json> <cli arguments...>

Wraps the package's layer functions with the span recorder, runs
contesteq.cli.main on the arguments inside one "cli.process" span, writes
the recorder's totals to <trace.json>, even when main raises, and exits
with main's exit code.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import contesteq.cli

    recorder = spans.Recorder()
    try:
        with spans.installed(recorder, "contesteq"):
            with recorder.span("cli.process"):
                return contesteq.cli.main(argv)
    finally:  # a crashed process still hands back its spans
        trace_path.write_text(json.dumps(recorder.summary()))


if __name__ == "__main__":
    sys.exit(main())
