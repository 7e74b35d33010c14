"""Run crowdbwa commands in-process and time each one.

Usage: ``python3 crowdbench/worker.py PLAN RESULT`` with ``src`` on
``PYTHONPATH``. PLAN is a JSON object ``{"ops": [{"argv", "outputs"}], "seconds": S,
"trace": bool}``. Every op is one
``crowdbwa.cli.main(argv)`` call in this one process; rounds of all ops
repeat until ``S`` seconds have passed (at least one round). With
``trace`` one more round runs under ``tracing.Tracer``. RESULT receives
the seconds this process took to import ``crowdbwa.cli``, per-op exit
codes, wall times, captured stderr and output digests, the spans and
RSS samples of the traced round, and the process's peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def run_op(main, op) -> dict:
    err = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            code = main(op["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - started
    digest = _digest(op["outputs"]) if code == 0 else None
    return {"code": code, "seconds": elapsed, "stderr": err.getvalue(), "digest": digest}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    started = time.perf_counter()
    import crowdbwa
    import crowdbwa.cli as cli
    import_s = time.perf_counter() - started

    src = Path("src").resolve()
    if src not in Path(crowdbwa.__file__).resolve().parents:
        print(f"crowdbwa was imported from {crowdbwa.__file__}, not {src}", file=sys.stderr)
        return 2

    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append([run_op(cli.main, op) for op in plan["ops"]])
        if time.perf_counter() - started >= plan["seconds"]:
            break

    result = {"import_s": import_s, "rounds": rounds}
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        first_spans = []
        traced = []
        try:
            for op in plan["ops"]:
                first_spans.append(len(tracer.spans))
                traced.append(run_op(cli.main, op))
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["traced_first_span"] = first_spans
        result["spans"] = tracer.spans
        result["rss"] = sorted(tracer.rss)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
