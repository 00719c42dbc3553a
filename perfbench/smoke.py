"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Every workload runs at tiny size (one op
of each kind), untraced and traced; each must print every metric that
BENCHMARK.json names, with its unit, and end with a well-formed result
line.  Then the report workload runs against a deliberately wrong
reference, which must show up in `ops_failed` and turn `correct` false.
Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SUMMARY_LINES = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "ops": "count", "ops_failed": "count"}


def bench(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[2:3]
               for line in lines)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = bench(workload, trace)
            where = f"{workload} trace {trace}"
            if set(result) != RESULT_KEYS or result["attempted"] < 1:
                problems.append(f"{where}: malformed result {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: outputs judged wrong")
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(expected))} "
                                "differ from BENCHMARK.json")
            for name, unit in SUMMARY_LINES.items():
                if not _printed(lines, name, unit):
                    problems.append(f"{where}: no '{name} ... {unit}' line")
            if trace:
                for name, unit in expected.items():
                    if not _printed(lines, name, unit):
                        problems.append(f"{where}: no '{name} ... {unit}' line")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops, "
                  f"{result['failed']} failed")

    refs = json.loads(run.REFS.read_text(encoding="utf-8"))
    row = refs["ops"]["report/diag_pair"]["files"]["report.csv"]["sample"][0]
    row["verdict"] = "inconsistent" if row["verdict"] != "inconsistent" else "consistent"
    wrong = run.ROOT / run.RUNS_DIR / "smoke-wrong-refs.json"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(json.dumps(refs), encoding="utf-8")
    lines, result = bench("report", 0, "--refs", str(wrong))
    if result["correct"] or not any("failed: report/diag_pair:" in line
                                    for line in lines):
        problems.append("a wrong reference was not counted as a failed op")
    print(f"wrong reference: correct={result['correct']}, "
          f"{result['failed']} of {result['attempted']} failed")

    for line in problems:
        print(f"FAIL {line}")
    print("smoke test passed" if not problems else "smoke test failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
