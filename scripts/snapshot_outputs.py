#!/usr/bin/env python3
"""Run every CLI command on the bundled configs and keep what each run writes.

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUT

Run it from the repository root: configs are passed by their relative paths,
so `report.txt` reads the same in any checkout.  The runs are

- every command with its default options on each single-system config
  (`pressure` with `--s 0.4`), and `scan-continuity` on both families;
- `--norm max` for the commands that read the norm;
- `--samples 2000 --seed 7` for the sampling commands;
- `certify-sd --depth 12`, whose deepest scan on a two-letter alphabet
  compares a level of 4,096 products with the 4,094 shorter ones, and
  `diophantine --depth 13`, whose level 13 is scanned by the sorted window;
- `attractor --depth 18` and `zeta --depth 18`, whose level 18 of 262,144
  products on a two-letter alphabet spans 32 row blocks of the stack
  kernels (`geometry.BLOCK_ROWS`), so the diff crosses block boundaries;
- `report`, `certify-uh` and `certify-sd` on the inverse of each
  single-system config, written by `emit_config` to `snapshot_inverse.cfg`
  in the current directory, so that these runs too read one path in any
  checkout;
- `scan-continuity` on the families of `FAMILIES`, written the same way to
  `snapshot_family.cfg`: one whose rows are all flagged and one whose rows
  all fail.

Each run writes its outputs, its stdout as `stdout.txt` and its stderr
(error reasons) as `stderr.txt`, to `OUT/<command>/<config>/` (a variant run,
the inverse runs included, to `OUT/<command>/<config>.<variant>/`), and
`OUT/exit_codes.csv` lists every run's exit code.  Two snapshots have the same outputs when
`diff -r -x manifest.json A B` prints nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from pathlib import Path

from projifs.cli import run_command
from projifs.config import emit_config, parse_config

CONFIG_DIR = Path("configs")
INVERSE_CONFIG = Path("snapshot_inverse.cfg")
FAMILY_CONFIG = Path("snapshot_family.cfg")

#: Families that the bundled ones do not cover.  The letters of the first
#: are inverses of each other at every t, so every row is flagged
#: `sd-refuted`.  The second has a singular member at t = 0 and the
#: identity at t = 1, so no row has a finite value to plot.
FAMILIES = {
    "inverse_pair_family": "family:\n  2 t 0 1/2\n  1/2 -t 0 2\ngrid: 0 1 5\n",
    "all_failed_family": "family:\n  t 0 0 t\ngrid: 0 1 2\n",
}

COMMANDS = (
    "classify", "enumerate", "zeta", "pressure", "critexp", "attractor",
    "repeller", "dimension", "certify-uh", "certify-sd", "diophantine",
    "furstenberg", "pivot", "lower-bound", "reduce", "report",
)
NORM_COMMANDS = (
    "enumerate", "zeta", "pressure", "critexp", "dimension", "certify-uh",
    "furstenberg", "pivot", "lower-bound", "reduce", "report",
)
SAMPLING_COMMANDS = ("attractor", "repeller", "furstenberg")
INVERSE_COMMANDS = ("report", "certify-uh", "certify-sd")

VARIANTS = (
    ("", COMMANDS, []),
    ("norm-max", NORM_COMMANDS, ["--norm", "max"]),
    ("samples-2000-seed-7", SAMPLING_COMMANDS,
     ["--samples", "2000", "--seed", "7"]),
    ("depth-12", ("certify-sd",), ["--depth", "12"]),
    ("depth-13", ("diophantine",), ["--depth", "13"]),
    ("depth-18", ("attractor", "zeta"), ["--depth", "18"]),
)


def runs():
    """(command, config path, variant, extra argv) for every run."""
    systems = sorted(p for p in CONFIG_DIR.glob("*.cfg")
                     if not p.name.startswith("family_"))
    for variant, commands, extra in VARIANTS:
        for command in commands:
            s = ["--s", "0.4"] if command == "pressure" else []
            for path in systems:
                yield command, path, variant, extra + s
    for command in INVERSE_COMMANDS:
        for path in systems:
            yield command, path, "inverse", []
    for path in sorted(CONFIG_DIR.glob("family_*.cfg")):
        yield "scan-continuity", path, "", []
    for name in FAMILIES:
        yield "scan-continuity", Path(name), "", []


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: snapshot_outputs.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    rows = []
    for command, path, variant, extra in runs():
        name = path.stem + (f".{variant}" if variant else "")
        run_dir = out / command / name
        run_dir.mkdir(parents=True, exist_ok=True)
        config = path
        if variant == "inverse":
            INVERSE_CONFIG.write_text(
                emit_config(parse_config(path).inverse()), encoding="utf-8")
            config = INVERSE_CONFIG
        elif path.name in FAMILIES:
            FAMILY_CONFIG.write_text(FAMILIES[path.name], encoding="utf-8")
            config = FAMILY_CONFIG
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run_command([command, "--config", config.as_posix(),
                                *extra, "--out", str(run_dir)])
        (run_dir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
        (run_dir / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
        rows.append((command, path.stem, variant, code))
        print(f"{command} {name}: exit {code}")
    INVERSE_CONFIG.unlink(missing_ok=True)
    FAMILY_CONFIG.unlink(missing_ok=True)
    with open(out / "exit_codes.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("command", "config", "variant", "code"))
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
