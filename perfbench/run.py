"""End-to-end benchmark of the projifs CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run it from the root of a projifs checkout: it imports `projifs` from
`src/` and reads `configs/`.  Workloads are defined in `workloads.py`.

One run measures set-up (interpreter start plus `import projifs`, in fresh
processes, median of at least 15) and one pass over the workload's
operations in a fresh worker process: one closed-loop caller making one
`projifs.cli.run_command` call after another, each with its own new `--out`
directory.  Start-ups are timed again until S seconds have passed.  Every
operation's outputs are then checked (`checks.py`).

--trace 0 reports the end-to-end metrics: `wall_s` (the pass, set-up
excluded), `op_p50_s` (median operation), `setup_s` and `peak_rss_mb` (of
the worker).  --trace 1 runs the pass three times: untraced, traced, and
traced with PROJIFS_THREADS=1.  It reports the per-layer metrics of the
traced pass (`tracer.py`), the tracing overhead (traced minus untraced
`wall_s`) and the single-thread reference.  Both print the machine record.

The last line of output is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`.  An operation fails when it exits
non-zero, raises, or fails its output check; `correct` is false only when
an operation that exited 0 produced wrong output.  Runs leave their inputs,
results and spans under `.bench_runs/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = Path(".bench_runs")
REFS = BENCH_DIR / "refs.json"

SETUP_MIN_PROBES = 15
WORKER_TIMEOUT_S = 170
PROBE = "import projifs, time; print(time.monotonic())"

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _layer(layers, name, stat):
    return layers.get(name, {}).get(stat, 0)


#: Per-layer metrics read from the traced pass's span aggregates, named
#: "<span>.<stat>" with stat `calls`, `self_s` or `total_s`.  A layer the
#: workload never calls reads 0.
SPAN_METRICS = (
    "semigroup.ProductTable.level.self_s",
    "semigroup.ProductTable.norms.self_s",
    "semigroup.discreteness_profile.calls",
    "semigroup.discreteness_profile.self_s",
    "semigroup.diophantine_profile.self_s",
    "semigroup.word_product.calls",
    "semigroup.word_product.self_s",
    "runtime.run_partitioned.calls",
    "runtime.run_partitioned.self_s",
    "attractor.attractor_points_orbit.self_s",
    "attractor.attractor_points_orbit.total_s",
    "attractor.attractor_points_fixedpoint.self_s",
    "attractor.box_dimension.self_s",
    "attractor.hausdorff_circle.self_s",
    "spectral.critical_exponent_bracket.calls",
    "spectral.critical_exponent_bracket.self_s",
    "spectral.quick_lower_bounds.self_s",
    "spectral.partial_zeta.self_s",
    "cones.find_invariant_multicone.calls",
    "cones.find_invariant_multicone.self_s",
    "cones.certify_uniform_hyperbolicity.self_s",
    "cones.certify_semidiscrete.self_s",
    "cones.almost_mult_constant.self_s",
    "cones.empirical_almost_mult.self_s",
    "furstenberg.sample_stationary.self_s",
    "furstenberg.stationarity_residual.self_s",
    "furstenberg.support_dimension_report.self_s",
    "subsystems.reducible_dimension.self_s",
    "svgplot.attractor_svg.self_s",
    "svgplot.line_plot_svg.self_s",
    "cli.run_command.self_s",
    "config.parse_config.self_s",
)

#: Counts taken from return values (see tracer.py).
COUNTER_METRICS = (
    "semigroup.ProductTable.level.cache_hits",
    "semigroup.ProductTable.level.words_built",
    "cones.find_invariant_multicone.passes",
    "cones.find_invariant_multicone.arcs",
    "attractor.attractor_points_orbit.dropped",
    "attractor.attractor_points_fixedpoint.points",
)


def per_layer_metrics(record: dict) -> dict[str, tuple[float, str]]:
    layers, counters = record["layers"], record["counters"]
    out = {"semigroup.ProductTable.tables": (
        _layer(layers, "semigroup.ProductTable.__init__", "calls"), "count")}
    for metric in SPAN_METRICS:
        span, stat = metric.rsplit(".", 1)
        out[metric] = (_layer(layers, span, stat),
                       "count" if stat == "calls" else "s")
    for metric in COUNTER_METRICS:
        out[metric] = (counters.get(metric, 0), "count")
    orbit_s = out["attractor.attractor_points_orbit.total_s"][0]
    samples = counters.get("attractor.attractor_points_orbit.samples", 0)
    out["attractor.attractor_points_orbit.samples_per_s"] = (
        samples / orbit_s if orbit_s else 0.0, "1/s")
    out["cli.out_bytes"] = (record["out_bytes"], "bytes")
    return out


def _env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["PROJIFS_THREADS"] = str(threads)
    return env


def probe_setup() -> float:
    """Seconds from starting an interpreter to `import projifs` done."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", PROBE], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=WORKER_TIMEOUT_S)
    return float(done.stdout) - start


def run_pass(ops, pass_dir: Path, *, traced: bool, threads: int | None = None):
    """One pass over `ops` in a fresh worker; returns the worker's record."""
    pass_dir.mkdir(parents=True)
    plan = [{"key": op.key, "argv": op.argv,
             "out": (pass_dir / f"op{i:03d}").as_posix()}
            for i, op in enumerate(ops)]
    plan_path, result_path = pass_dir / "plan.json", pass_dir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path),
           str(result_path)]
    if traced:
        cmd += ["--spans", str(pass_dir / "spans.json")]
    subprocess.run(cmd, env=_env(threads), cwd=ROOT, check=True,
                   timeout=WORKER_TIMEOUT_S)
    record = json.loads(result_path.read_text(encoding="utf-8"))
    record["plan"] = plan
    return record


def check_pass(ops, record, refs) -> tuple[list[str], int]:
    """Failure lines of a pass, and how many came from wrong output."""
    failures, wrong = [], 0
    for op, entry, step in zip(ops, record["ops"], record["plan"]):
        try:
            problems = checks.check_op(op, entry["code"], entry["stdout"],
                                       ROOT / step["out"], refs)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            if entry["code"] == 0:
                wrong += 1
            detail = entry["stderr"].strip().splitlines()[-1:] or [""]
            failures.append(f"{op.key}: {'; '.join(problems[:3])}"
                            + (f" ({detail[0][:120]})" if entry["code"] != 0 else ""))
    return failures, wrong


def _clear_outputs(record) -> None:
    for step in record["plan"]:
        shutil.rmtree(ROOT / step["out"], ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 refs: dict, size: str) -> dict:
    deadline = time.monotonic() + seconds
    run_dir = RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.build(name, seed, run_dir / "inputs", size)
    for op in ops:
        for path, text in op.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")

    setup = [probe_setup() for _ in range(SETUP_MIN_PROBES)]
    passes = {"untraced": run_pass(ops, run_dir / "untraced", traced=False)}
    if trace:
        passes["traced"] = run_pass(ops, run_dir / "traced", traced=True)
        passes["threads1"] = run_pass(ops, run_dir / "threads1", traced=True,
                                      threads=1)
    while time.monotonic() < deadline:
        setup.append(probe_setup())

    main = passes["traced" if trace else "untraced"]
    failures, wrong = [], 0
    for record in passes.values():
        lines, bad = check_pass(ops, record, refs)
        wrong += bad
        if record is main:
            failures = lines
        _clear_outputs(record)

    op_times = [entry["seconds"] for entry in passes["untraced"]["ops"]]
    machine = dict(main["machine"], nproc=len(os.sched_getaffinity(0)))
    summary = {
        "workload": name, "seed": seed, "trace": trace,
        "ops": len(ops), "ops_failed": len(failures), "failures": failures,
        "wrong_outputs": wrong, "machine": machine,
        "wall_s": passes["untraced"]["wall_s"],
        "op_p50_s": statistics.median(op_times),
        "setup_s": statistics.median(setup), "setup_probes": len(setup),
        "peak_rss_mb": passes["untraced"]["peak_rss_mb"],
    }
    if trace:
        per_layer = per_layer_metrics(main)
        traced_wall = main["wall_s"]
        per_layer["trace.untraced_wall_s"] = (summary["wall_s"], "s")
        per_layer["trace.traced_wall_s"] = (traced_wall, "s")
        per_layer["trace.overhead_s"] = (traced_wall - summary["wall_s"], "s")
        single = passes["threads1"]
        per_layer["threads1.wall_s"] = (single["wall_s"], "s")
        per_layer["threads1.runtime.run_partitioned.self_s"] = (
            _layer(single["layers"], "runtime.run_partitioned", "self_s"), "s")
        per_layer["machine.nproc"] = (machine["nproc"], "count")
        per_layer["machine.workers"] = (machine["workers"], "count")
        summary["per_layer"] = per_layer
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1),
                                          encoding="utf-8")
    return summary


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(summary: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    m = summary["machine"]
    print(f"workload {summary['workload']} (seed {summary['seed']}, "
          f"trace {int(summary['trace'])})")
    print(f"  machine: nproc={m['nproc']} workers={m['workers']} "
          f"python={m['python']} numpy={m['numpy']}")
    rows = [
        ("wall_s", summary["wall_s"], "s", "one pass, set-up excluded"),
        ("op_p50_s", summary["op_p50_s"], "s",
         f"median of {summary['ops']} ops"),
        ("setup_s", summary["setup_s"], "s",
         f"median of {summary['setup_probes']} start-ups"),
        ("peak_rss_mb", summary["peak_rss_mb"], "MB", "worker process"),
        ("ops", summary["ops"], "count", "attempted"),
        ("ops_failed", summary["ops_failed"], "count",
         "exit non-zero, raised, or wrong output"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<12} {_fmt(value):>12} {unit:<6} {note}")
    for line in summary["failures"]:
        print(f"  failed: {line}")
    if summary["trace"]:
        print("  per layer (traced pass):")
        for name, (value, unit) in summary["per_layer"].items():
            print(f"    {name:<52} {_fmt(value):>12} {unit}")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": summary["wrong_outputs"] == 0,
            "attempted": summary["ops"],
            "failed": summary["ops_failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure for at least this long (set-up probes "
                        "fill the time the pass leaves)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny keeps one op of each kind (smoke test)")
    parser.add_argument("--refs", type=Path, default=REFS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "projifs" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print("error: run from the root of a projifs checkout "
              "(src/projifs and configs/ not found)", file=sys.stderr)
        return 2
    refs = json.loads(args.refs.read_text(encoding="utf-8"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = print_result(run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), refs, args.size))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
