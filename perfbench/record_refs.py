"""Record the references that the benchmark's output checks compare with.

    python3 perfbench/record_refs.py

Run from the root of a checkout.  It runs every op that has a fixed input
(bundled report configs, both scan families, the deep ops) once, keeps a
summary of their outputs, and bins the depth-12 fixed-point clouds that
sampled clouds are compared with.  Ops that exit non-zero get no reference
and are listed.  The result replaces `refs.json` next to this file; the
committed one was recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

CLOUD_DEPTH = 12


def main() -> int:
    tmp = run.RUNS_DIR / "record_refs"
    shutil.rmtree(tmp, ignore_errors=True)
    ops = workloads.reference_ops()
    record = run.run_pass(ops, tmp, traced=False)
    refs: dict = {"ops": {}, "clouds": {}, "cloud_depth": CLOUD_DEPTH}
    for op, entry, step in zip(ops, record["ops"], record["plan"]):
        if entry["code"] != 0:
            print(f"no reference for {op.key}: exit code {entry['code']}")
            continue
        refs["ops"][op.ref] = checks.summarize(run.ROOT / step["out"])

    sys.path.insert(0, str(run.ROOT / "src"))
    from projifs import (attractor_points_fixedpoint, parse_config,
                         repeller_points_fixedpoint)

    routes = {"attractor": attractor_points_fixedpoint,
              "repeller": repeller_points_fixedpoint}
    for cloud, name in workloads.reference_clouds():
        cfg = parse_config(f"{workloads.CONFIG_DIR}/{name}.cfg")
        points = routes[cloud](cfg, CLOUD_DEPTH).points
        refs["clouds"][f"{cloud}/{name}"] = checks.bin_cloud(points)

    shutil.rmtree(tmp, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(refs['ops'])} op references and "
          f"{len(refs['clouds'])} clouds to {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
