"""Output checks: summaries of an op's output directory, compared with
references recorded at the commit that introduced the benchmark.

Verdict, status, count and word columns must match exactly.  Other floats
match within a tolerance: 1e-3 absolute for the columns a bisection or a
box count decides (their steps are 1e-4 and one box), a relative 1e-6
elsewhere.  Sampled clouds are never compared byte for byte: a sampler
that draws in another order is still correct when it drops at most 1% of
its samples, stays within a Hausdorff bound of the fixed-point cloud and,
for `furstenberg`, keeps its stationarity residual below a bound.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from workloads import MAX_DROPPED_SHARE

EXACT_COLUMNS = {
    "alphabet", "uh_status", "sd_status", "verdict", "status", "flags",
    "depth", "word_count", "collisions", "terms", "norm", "certified", "word",
}
LOOSE_COLUMNS = {
    "box_dim", "stderr", "delta_lo", "delta_hi", "predicted_lo",
    "predicted_hi", "s_lo", "s_hi", "theta",
}
LOOSE_ABS_TOL = 1e-3
REL_TOL = 1e-6

#: Files whose row count may move by this share (fixed-point clouds are
#: merged at 1e-12, so rounding can split or join a few points).
COUNT_TOLERANCE = {"attractor.csv": 1e-3, "repeller.csv": 1e-3}

#: Larger CSVs are summarised by this many evenly spaced rows plus the count.
SAMPLE_ROWS = 65

#: Reference clouds are stored as occupied bins of (0, pi].
CLOUD_BINS = 4096

_DROPPED = re.compile(r"dropped (\d+)")


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def summarize(out_dir: Path) -> dict:
    """Every CSV of a run, with large ones cut down to sampled rows."""
    outputs = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    files = {}
    for name in outputs:
        if not name.endswith(".csv"):
            continue
        rows = _read_csv(out_dir / name)
        n = len(rows)
        if n > 2 * SAMPLE_ROWS:
            picks = sorted({round(i * (n - 1) / (SAMPLE_ROWS - 1))
                            for i in range(SAMPLE_ROWS)})
            sample = [rows[i] for i in picks]
        else:
            sample = rows
        files[name] = {"rows": n, "sample": sample}
    return {"outputs": outputs, "files": files}


def _cell_matches(column: str, got: str, want: str) -> bool:
    if column in EXACT_COLUMNS:
        return got == want
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    abs_tol = LOOSE_ABS_TOL if column in LOOSE_COLUMNS else 0.0
    return math.isclose(g, w, rel_tol=REL_TOL, abs_tol=abs_tol)


def compare(summary: dict, ref: dict) -> list[str]:
    """Mismatches between a summary and its reference, as readable lines."""
    if summary["outputs"] != ref["outputs"]:
        return [f"outputs {summary['outputs']} != {ref['outputs']}"]
    problems = []
    for name, want in ref["files"].items():
        got = summary["files"][name]
        share = COUNT_TOLERANCE.get(name, 0.0)
        if abs(got["rows"] - want["rows"]) > share * want["rows"]:
            problems.append(f"{name}: {got['rows']} rows, want {want['rows']}")
            continue
        if len(got["sample"]) != len(want["sample"]):
            problems.append(f"{name}: {len(got['sample'])} sampled rows, "
                            f"want {len(want['sample'])}")
            continue
        for i, (g, w) in enumerate(zip(got["sample"], want["sample"])):
            for column, value in w.items():
                if not _cell_matches(column, g.get(column, ""), value):
                    problems.append(f"{name} row {i} {column}: "
                                    f"{g.get(column)!r} != {value!r}")
    return problems


# ---------------------------------------------------------------------------
# Clouds.

def bin_cloud(points) -> list[list[int]]:
    """Occupied bins of (0, pi] as [start, stop) runs."""
    idx = np.unique(np.minimum(
        (np.asarray(points) / math.pi * CLOUD_BINS).astype(int), CLOUD_BINS - 1))
    runs: list[list[int]] = []
    for i in idx.tolist():
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return runs


def unbin_cloud(runs) -> np.ndarray:
    idx = np.concatenate([np.arange(a, b) for a, b in runs])
    return (idx + 0.5) * (math.pi / CLOUD_BINS)


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    ext = np.concatenate([[b[-1] - math.pi], b, [b[0] + math.pi]])
    idx = np.searchsorted(ext, a)
    return float(np.minimum(a - ext[idx - 1], ext[idx] - a).max())


def circle_hausdorff(a, b) -> float:
    """Hausdorff distance of two angle sets on the circle of length pi.

    Kept apart from `projifs.hausdorff_circle` so that a broken program
    cannot pass its own check."""
    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    return max(_directed(a, b), _directed(b, a))


def check_cloud(check: dict, out_dir: Path, stdout: str, ref_cloud) -> list[str]:
    command = check["command"]
    points = np.array([float(r["theta"]) for r in
                       _read_csv(out_dir / f"{command}.csv")])
    if command == "furstenberg":
        summary = _read_csv(out_dir / "furstenberg_summary.csv")[0]
        dropped = int(summary["dropped"])
    else:
        match = _DROPPED.search(stdout)
        if match is None:
            return ["no dropped count in the output"]
        dropped = int(match.group(1))
    problems = []
    samples = check["samples"]
    if len(points) + dropped != samples:
        problems.append(f"{len(points)} points + {dropped} dropped != {samples}")
    if dropped > MAX_DROPPED_SHARE * samples:
        problems.append(f"dropped {dropped} of {samples}")
    if points.size == 0:
        return problems + ["empty cloud"]
    if not np.all((points > 0.0) & (points <= math.pi)):
        problems.append("angles outside (0, pi]")
    distance = circle_hausdorff(points, unbin_cloud(ref_cloud))
    if distance > check["hausdorff"]:
        problems.append(f"Hausdorff distance {distance:.4f} > {check['hausdorff']}")
    if check["residual"] is not None:
        residual = float(summary["residual"])
        if not residual <= check["residual"]:
            problems.append(f"stationarity residual {residual:.4f} > "
                            f"{check['residual']}")
    return problems


def check_op(op, code, stdout: str, out_dir: Path, refs: dict) -> list[str]:
    """Why a `workloads.Op` failed; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    kind = op.check["kind"]
    if kind == "uh":
        row = _read_csv(out_dir / "report.csv")[0]
        if row["uh_status"] != "certified":
            return [f"positive alphabet not certified: {row['uh_status']}"]
        return []
    if kind == "cloud":
        return check_cloud(op.check, out_dir, stdout, refs["clouds"][op.ref])
    summary = summarize(out_dir)
    ref = refs["ops"].get(op.ref)
    if ref is None:
        # the op exited non-zero when the references were recorded, so a
        # fixed program has nothing to match yet beyond producing a CSV
        return [] if summary["files"] else ["no CSV output"]
    return compare(summary, ref)
