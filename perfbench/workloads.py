"""The benchmark's workloads: the CLI operations each one runs, made from a seed.

A workload is a list of `Op`s.  Each op is one `projifs.cli.run_command`
call; the worker adds a fresh `--out` directory to it.  The seed drives the
generated alphabets and every `--seed` passed to the program.  No two
operations of one plan have identical inputs, so a process-level memo
cannot turn repeats into cache hits.

`check` tells `checks.py` how to verify an op's outputs:

- `{"kind": "ref"}`: compare a summary of the outputs with the reference
  recorded under the op's `ref` key in `refs.json`;
- `{"kind": "uh"}`: a generated positive alphabet, whose report must
  certify uniform hyperbolicity;
- `{"kind": "cloud", ...}`: a sampled cloud, checked by tolerance against
  the reference fixed-point cloud (`ref`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = "configs"

#: Every single-system config that ships with the repo.
REPORT_CONFIGS = (
    "diag_pair",
    "elliptic_mix",
    "inverse_pair",
    "positive_pair",
    "scaling_translation",
    "shared_fixed_pair",
    "single_scaling",
    "stern_brocot",
)

TWO_LETTER_CONFIGS = tuple(c for c in REPORT_CONFIGS if c != "single_scaling")

SCAN_FAMILIES = ("family_hyperbolic_interior", "family_identity_limit")

#: Generated report alphabets per pass, for each alphabet size.  A fixed
#: count per size keeps the cost of a pass nearly the same for every seed.
GENERATED_PER_SIZE = {2: 24, 3: 24}
WORD_LENGTHS = (2, 4)

#: The two unit shears, as (a, b, c, d).
SHEARS = ((1, 1, 0, 1), (1, 0, 1, 1))

#: {LR, RL} is the bundled positive_pair; generated alphabets skip it.
_BUNDLED_SHEAR_ALPHABETS = {frozenset({(0, 1), (1, 0)})}

#: Sampled clouds: (command, config, samples, Hausdorff bound, residual
#: bound).  At 10^4 samples, the commit that added this benchmark gave
#: Hausdorff distances of 0.079-0.086 (stern_brocot) and 0.067-0.081
#: (scaling_translation) to the depth-12 fixed-point cloud, and residuals
#: of 0.005-0.009 (positive_pair); at 3,000 samples, residuals of
#: 0.011-0.040 (elliptic_mix).  Clouds that land on exact fixed points get
#: 0.01, which covers the reference's binning error.
SAMPLE_OPS = (
    ("furstenberg", "positive_pair", 10_000, 0.01, 0.03),
    ("attractor", "stern_brocot", 10_000, 0.15, None),
    ("attractor", "scaling_translation", 10_000, 0.15, None),
    ("repeller", "positive_pair", 10_000, 0.01, None),
)
SAMPLE_NEUTRAL_OPS = (
    ("attractor", "inverse_pair", 3_000, 0.01, None),
    ("furstenberg", "elliptic_mix", 3_000, 0.01, 0.1),
)

#: Each sampled op runs this many times per pass, each with its own seed.
SAMPLE_ROUNDS = 3

#: Sampled ops may drop at most this share of their samples.
MAX_DROPPED_SHARE = 0.01

#: Deep enumeration: command -> (depth, configs).  attractor skips the two
#: configs whose depth-20 clouds hold 1-2 million directions (23-39 MB of
#: CSV); diophantine, the costliest, runs on three configs.
DEEP_OPS = {
    "attractor": (20, ("diag_pair", "elliptic_mix", "inverse_pair",
                       "positive_pair", "shared_fixed_pair")),
    "critexp": (18, ("diag_pair", "inverse_pair", "positive_pair",
                     "scaling_translation", "stern_brocot")),
    "zeta": (20, TWO_LETTER_CONFIGS),
    "enumerate": (14, TWO_LETTER_CONFIGS),
    "diophantine": (14, ("positive_pair", "shared_fixed_pair", "stern_brocot")),
}

WHY = {
    "report": "one system, many analyses: multicone search and the pairwise "
    "separation scan on bundled and generated alphabets",
    "scan": "many fresh systems analysed once each, so per-system set-up "
    "and the collision check in the critical-exponent bracket dominate",
    "sample": "orbit clouds on systems that collapse in 12-31 steps; the "
    "per-step orbit loop does the work",
    "sample_neutral": "orbit clouds on systems that collapse slowly, so a "
    "batch waits for its slowest lane",
    "deep": "deep enumeration with levels past 4,096 rows: large product "
    "tables, the windowed pairwise scan and large CSVs",
}
WORKLOADS = tuple(WHY)


@dataclass
class Op:
    key: str
    argv: list[str]
    check: dict
    ref: str | None = None
    files: dict[str, str] = field(default_factory=dict)


def _config(name: str) -> str:
    return f"{CONFIG_DIR}/{name}.cfg"


def _shear_word(word) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        e, f, g, h = SHEARS[letter]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def generate_alphabet(rng: random.Random, size: int) -> tuple[tuple[int, ...], ...]:
    """`size` distinct words in the two shears, each using both letters, so
    every product is a strictly positive SL(2, Z) matrix."""
    words: set[tuple[int, ...]] = set()
    while len(words) < size:
        n = rng.randint(*WORD_LENGTHS)
        word = tuple(rng.randrange(2) for _ in range(n))
        if 0 in word and 1 in word:
            words.add(word)
    return tuple(sorted(words))


def alphabet_config(words) -> str:
    lines = ["# generated positive alphabet: "
             + " ".join("".join("LR"[i] for i in w) for w in words),
             "matrices:"]
    for w in words:
        lines.append("  " + " ".join(str(x) for x in _shear_word(w)))
    return "\n".join(lines) + "\n"


def _bundled_report_ops() -> list[Op]:
    return [
        Op(f"report/{name}", ["report", "--config", _config(name)],
           {"kind": "ref"}, ref=f"report/{name}")
        for name in REPORT_CONFIGS
    ]


def _report_ops(rng: random.Random, input_dir: Path) -> list[Op]:
    ops = _bundled_report_ops()
    seen = set(_BUNDLED_SHEAR_ALPHABETS)
    for size, count in GENERATED_PER_SIZE.items():
        made = 0
        while made < count:
            words = generate_alphabet(rng, size)
            if frozenset(words) in seen:
                continue
            seen.add(frozenset(words))
            name = "gen-" + "_".join("".join("LR"[i] for i in w) for w in words)
            path = input_dir / f"{name}.cfg"
            ops.append(Op(f"report/{name}",
                          ["report", "--config", path.as_posix()],
                          {"kind": "uh"},
                          files={path.as_posix(): alphabet_config(words)}))
            made += 1
    return ops


def _scan_ops() -> list[Op]:
    return [
        Op(f"scan/{name}", ["scan-continuity", "--config", _config(name)],
           {"kind": "ref"}, ref=f"scan/{name}")
        for name in SCAN_FAMILIES
    ]


def _sample_ops(rng: random.Random, specs) -> list[Op]:
    rounds = [(r, spec) for r in range(SAMPLE_ROUNDS) for spec in specs]
    seeds = rng.sample(range(1, 2**31), len(rounds))
    ops = []
    for (r, (command, name, samples, hausdorff, residual)), seed in zip(rounds, seeds):
        cloud = "repeller" if command == "repeller" else "attractor"
        ops.append(Op(
            f"{command}/{name}/{r}",
            [command, "--config", _config(name), "--samples", str(samples),
             "--seed", str(seed)],
            {"kind": "cloud", "command": command, "samples": samples,
             "hausdorff": hausdorff, "residual": residual},
            ref=f"{cloud}/{name}",
        ))
    return ops


def deep_ops() -> list[Op]:
    return [
        Op(f"{command}/{name}/{depth}",
           [command, "--config", _config(name), "--depth", str(depth)],
           {"kind": "ref"}, ref=f"{command}/{name}/{depth}")
        for command, (depth, names) in DEEP_OPS.items()
        for name in names
    ]


def build(workload: str, seed: int, input_dir: Path, size: str = "full") -> list[Op]:
    """The ops of one pass, in a fixed order.  `size="tiny"` keeps only the
    first op of each kind, for the smoke test."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report":
        ops = _report_ops(rng, input_dir)
    elif workload == "scan":
        ops = _scan_ops()
    elif workload == "sample":
        ops = _sample_ops(rng, SAMPLE_OPS)
    elif workload == "sample_neutral":
        ops = _sample_ops(rng, SAMPLE_NEUTRAL_OPS)
    elif workload == "deep":
        ops = deep_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if size == "tiny":
        kinds: dict[str, Op] = {}
        for op in ops:
            kinds.setdefault(op.check["kind"], op)
        ops = list(kinds.values())
    return ops


def reference_ops() -> list[Op]:
    """Every op whose outputs are checked against a recorded reference."""
    return _bundled_report_ops() + _scan_ops() + deep_ops()


def reference_clouds() -> list[tuple[str, str]]:
    """(cloud, config) pairs that sampled ops are compared with."""
    pairs = []
    for command, name, *_ in SAMPLE_OPS + SAMPLE_NEUTRAL_OPS:
        cloud = "repeller" if command == "repeller" else "attractor"
        if (cloud, name) not in pairs:
            pairs.append((cloud, name))
    return pairs
