"""Run one rieszmatch command in this fresh interpreter and report what it cost.

Usage: python child.py SPEC_JSON, where SPEC_JSON holds ``argv`` (the CLI
arguments), ``src`` (the directory rieszmatch must be imported from),
``report`` (where to write the report body), ``trace`` and, when tracing,
``memory``, ``spans`` and ``run_id``.  The last stdout line is a JSON object
with the wall time of ``cli.main`` from call to return, the CPU time of this
process and its reaped pool workers over that call, and the peak resident
memory of this process plus that of its largest worker.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    import rieszmatch.cli as cli

    imported = time.perf_counter()
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rieszmatch was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        import tracemalloc

        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"], memory=spec["memory"])
        tracing.install(tracer)
        if tracer.memory:
            tracemalloc.start()
    body = io.StringIO()
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with contextlib.redirect_stdout(body):
        status = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    Path(spec["report"]).write_text(body.getvalue())
    result = {
        "status": status,
        "imported": imported,
        "wall_s": wall,
        "cpu_s": _cpu(own1) - _cpu(own0) + _cpu(kids1) - _cpu(kids0),
        "peak_rss_mb": (own1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
    }
    if tracer is not None:
        tracemalloc.stop()
        tracer.write(spec["spans"])
        metrics = tracing.peak_metrics if tracer.memory else tracing.layer_metrics
        result["layers"] = metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
