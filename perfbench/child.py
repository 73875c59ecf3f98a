"""One study process, started by run.py; not meant to be run by hand.

    python3 perfbench/child.py TRACE RESULT.json -- <spdefem cli args>

Runs ``spdefem.cli.main(args)`` once, as ``spdefem study`` does, and exits
with its status.  TRACE 1 wraps every layer in spans (spans.py); TRACE 0
adds only a marker that times the study's set-up: config load, meshes,
eigensystems, coupling and joint noise factor, up to the first sample
batch or operator norm.  RESULT.json receives the set-up time, the exit
status and the span totals.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))


def _mark_first_work(experiments, marks):
    """Record when the first batch map or operator norm starts."""
    def marked(fn):
        def first_work(*args, **kwargs):
            marks.setdefault("first", time.perf_counter())
            return fn(*args, **kwargs)
        return first_work

    experiments._map_batches = marked(experiments._map_batches)
    experiments.operator_error_norm = marked(experiments.operator_error_norm)


def main(argv):
    trace, result_path = argv[1] == "1", argv[2]
    cli_args = argv[argv.index("--") + 1:]

    import spdefem
    from spdefem import cli, experiments

    if not Path(spdefem.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"spdefem imported from {spdefem.__file__}, "
                         f"not from {ROOT / 'src'}")
    result = {}
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        code = tracer.wrap("cli.main", cli.main)(cli_args)
        result["trace"] = tracer.snapshot()
    else:
        marks = {}
        _mark_first_work(experiments, marks)
        start = time.perf_counter()
        code = cli.main(cli_args)
        if "first" in marks:
            result["setup_s"] = marks["first"] - start
    result["exit_code"] = code
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
