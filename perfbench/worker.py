"""Run one pass of a workload plan in this process and record its timings.

    python3 perfbench/worker.py PLAN RESULT [--spans SPANS]

PLAN is a JSON list of ops, each {"key", "argv", "out"}; every op is one
`projifs.cli.run_command` call with its own fresh `--out` directory, made
by one closed-loop caller.  RESULT receives the per-op times and exit
codes, the pass wall time, peak resident memory and the machine record.
With --spans the pass runs traced and the spans are written to SPANS.
`projifs` must be importable (the benchmark puts `src` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    import numpy as np

    from projifs import cli, runtime

    tracer = None
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    ops = []
    t_pass = time.perf_counter()
    for op in plan:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up on each call, so a traced pass runs the wrapper
                code = cli.run_command(op["argv"] + ["--out", op["out"]])
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        ops.append({"key": op["key"], "seconds": seconds, "code": code,
                    "stdout": out.getvalue()[-4000:],
                    "stderr": err.getvalue()[-4000:]})
    wall = time.perf_counter() - t_pass

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "ops": ops,
        "out_bytes": sum(_tree_bytes(Path(op["out"])) for op in plan
                         if Path(op["out"]).is_dir()),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "machine": {
            "workers": runtime.worker_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counters"] = dict(tracer.counters)
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
