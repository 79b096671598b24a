"""Runs one workload's `train` and `eval` commands through `topicgrow.cli.main`.

Started by run.py as a child process, so its peak resident memory covers the
package import plus train and eval, and none of the set-up. Usage:

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan lists the operations of one pass (argv lists in which ``{out}``
stands for the pass's output directory), the number of seconds to measure,
and whether to trace. Passes repeat until the measured time reaches the
requested seconds; a traced run then makes as many traced passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_pass(cli, ops, out_dir):
    """Run every operation once; returns per-operation records."""
    records = []
    for op in ops:
        argv = [a.replace("{out}", str(out_dir)) for a in op["argv"]]
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation; the pass goes on
            code = None
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        records.append({"name": op["name"], "kind": op["kind"], "exit": code,
                        "seconds": seconds, "log": sink.getvalue()[-2000:]})
    return records


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from topicgrow import cli

    root = Path(plan["out"])
    passes = []
    measured = 0.0
    while not passes or measured < plan["seconds"]:
        records = run_pass(cli, plan["ops"], root / f"pass{len(passes)}")
        measured += sum(r["seconds"] for r in records)
        passes.append(records)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced, missing = [], []
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        missing = tracer.missing
        try:
            for i in range(len(passes)):
                tracer.reset()
                records = run_pass(cli, plan["ops"], root / f"traced{i}")
                covered = sum(r["seconds"] for r in records)
                traced.append({"records": records, "layers": tracer.summary(covered)})
        finally:
            tracer.uninstall()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "traced": traced, "missing": missing,
                   "peak_rss_kb": peak_rss_kb}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
