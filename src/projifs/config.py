"""Reading and writing system configuration files.

The format is plain text, one key per line.  `matrices:` opens a block of
4-token rows (row-major a b c d), each token a decimal like `0.5` or an
exact fraction like `1/2`; scientific notation is not accepted.  Optional
keys: `probs:` (one positive weight per matrix, summing to one within
1e-9), `norm:` (op2 or max), `depth_cap:`, `seed:`.  `#` starts a comment
anywhere.  Rows whose determinant strays from one by more than 1e-9 are
renormalized with a warning; non-positive determinants are errors.

Parameterized families for the continuity scanner use `family:` instead of
`matrices:`, with each entry affine in the parameter t (`2`, `t`, `-t`,
`1/2*t`, `1+0.3*t`, `2-t`), and a `grid: lo hi count` line giving the
evaluation points, endpoints included.  The literal matrix tokens of a
parsed config are kept on the result, so emitting and re-parsing a config
reproduces it exactly.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DegenerateMatrixError
from .geometry import IDENTITY2, NORM_KINDS, OP2, Matrix2
from .semigroup import DEFAULT_DEPTH_CAP, SystemConfig

_DET_WARN = 1e-9
_KEY_RE = re.compile(r"^([A-Za-z][A-Za-z_-]*):\s*(.*)$")
_KNOWN_KEYS = ("matrices", "family", "grid", "probs", "norm", "depth_cap", "seed")


def _parse_number(tok: str, line_no: int) -> float:
    try:
        if "/" in tok:
            return float(Fraction(tok))
        return float(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"not a number: {tok!r}", line=line_no) from None


def _split_sections(text: str):
    """Key -> (value string, line number), plus the block rows per key."""
    keyed: dict[str, tuple[str, int]] = {}
    blocks: dict[str, list[tuple[str, int]]] = {}
    current: str | None = None
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _KEY_RE.match(line.strip())
        if m and m.group(1) in _KNOWN_KEYS:
            key, value = m.group(1), m.group(2).strip()
            if key in keyed:
                raise ConfigError(f"duplicate key {key!r}", line=i)
            keyed[key] = (value, i)
            blocks[key] = []
            current = key if not value else None
        elif m:
            raise ConfigError(f"unknown key {m.group(1)!r}", line=i)
        else:
            if current is None:
                raise ConfigError(
                    f"stray line {line.strip()!r} outside any block", line=i
                )
            blocks[current].append((line.strip(), i))
    return keyed, blocks


def _checked_system(keyed, matrices, source_rows=None) -> SystemConfig:
    """The matrices with the file's probs, norm, depth_cap and seed, passed
    through SystemConfig's checks; a failed check is a ConfigError."""
    probs = None
    if "probs" in keyed:
        value, line_no = keyed["probs"]
        toks = value.split()
        probs = tuple(_parse_number(t, line_no) for t in toks)
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(
                f"probs sum to {sum(probs)!r}, not 1", line=line_no
            )
    norm = OP2
    if "norm" in keyed:
        value, line_no = keyed["norm"]
        if value not in NORM_KINDS:
            raise ConfigError(
                f"norm must be one of {', '.join(NORM_KINDS)}", line=line_no
            )
        norm = value
    extra = {}
    for key in ("depth_cap", "seed"):
        if key in keyed:
            value, line_no = keyed[key]
            try:
                extra[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"{key} must be an integer, got {value!r}", line=line_no
                ) from None
            if key == "seed" and extra[key] < 0:
                raise ConfigError("seed must be non-negative", line=line_no)
    try:
        return SystemConfig(matrices=tuple(matrices), probs=probs, norm=norm,
                            source_rows=source_rows, **extra)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _row_matrix(tokens: tuple[str, str, str, str], line_no: int) -> Matrix2:
    a, b, c, d = (_parse_number(t, line_no) for t in tokens)
    det = a * d - b * c
    if not math.isfinite(det) or abs(det) < 1e-12:
        raise ConfigError("matrix row is not invertible", line=line_no)
    if det < 0.0:
        raise ConfigError(
            "matrix row has negative determinant (orientation-reversing "
            "matrices are not supported)",
            line=line_no,
        )
    if abs(det - 1.0) > _DET_WARN:
        warnings.warn(
            f"config line {line_no}: determinant differs from 1 by "
            f"{det - 1.0:.2e}; renormalized to 1",
            stacklevel=3,
        )
    try:
        return Matrix2(a, b, c, d)
    except DegenerateMatrixError as exc:
        raise ConfigError(str(exc), line=line_no) from None


def parse_config_text(text: str) -> SystemConfig:
    keyed, blocks = _split_sections(text)
    if "matrices" not in keyed:
        raise ConfigError("config has no matrices block")
    if "family" in keyed or "grid" in keyed:
        raise ConfigError(
            "config mixes a matrices block with family keys; use "
            "parse_family for parameterized files"
        )
    rows = []
    source = []
    for line, line_no in blocks["matrices"]:
        toks = tuple(line.split())
        if len(toks) != 4:
            raise ConfigError(
                f"matrix row has {len(toks)} numbers, need 4", line=line_no
            )
        rows.append(_row_matrix(toks, line_no))
        source.append(toks)
    if not rows:
        raise ConfigError("matrices block is empty")
    return _checked_system(keyed, rows, tuple(source))


def _read(path, parse_text):
    """parse_text of the file's text; a ConfigError names the file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_text(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def parse_config(path) -> SystemConfig:
    return _read(path, parse_config_text)


def emit_config(cfg: SystemConfig) -> str:
    """Config text that parses back to an equal SystemConfig.

    The literal tokens from the original file are reused when the config
    carries them, so fraction-valued inputs survive a round trip unchanged.
    """
    lines = ["matrices:"]
    if cfg.source_rows is not None:
        rows = cfg.source_rows
    else:
        rows = tuple(
            tuple(repr(x) for x in m.entries) for m in cfg.matrices
        )
    for row in rows:
        lines.append("  " + " ".join(row))
    if cfg.probs is not None:
        lines.append("probs: " + " ".join(repr(p) for p in cfg.probs))
    if cfg.norm != OP2:
        lines.append(f"norm: {cfg.norm}")
    if cfg.depth_cap != DEFAULT_DEPTH_CAP:
        lines.append(f"depth_cap: {cfg.depth_cap}")
    if cfg.seed != 0:
        lines.append(f"seed: {cfg.seed}")
    return "\n".join(lines) + "\n"


def write_config(cfg: SystemConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_config(cfg))


# ---------------------------------------------------------------------------
# Parameterized families.

_TERM_RE = re.compile(r"[+-]?[^+-]+")


@dataclass(frozen=True)
class AffineEntry:
    """One matrix entry of the form const + coef * t."""

    const: float
    coef: float

    def at(self, t: float) -> float:
        return self.const + self.coef * t


def _parse_affine(tok: str, line_no: int) -> AffineEntry:
    const = 0.0
    coef = 0.0
    pos = 0
    for m in _TERM_RE.finditer(tok):
        if m.start() != pos:
            raise ConfigError(f"cannot parse entry {tok!r}", line=line_no)
        pos = m.end()
        term = m.group(0)
        sign = -1.0 if term.startswith("-") else 1.0
        body = term.lstrip("+-")
        if not body:
            raise ConfigError(f"cannot parse entry {tok!r}", line=line_no)
        if body == "t":
            coef += sign
        elif body.endswith("*t"):
            coef += sign * _parse_number(body[:-2], line_no)
        elif "t" in body:
            raise ConfigError(
                f"cannot parse entry {tok!r}; write coefficients as n*t",
                line=line_no,
            )
        else:
            const += sign * _parse_number(body, line_no)
    if pos != len(tok):
        raise ConfigError(f"cannot parse entry {tok!r}", line=line_no)
    return AffineEntry(const=const, coef=coef)


@dataclass(frozen=True)
class FamilyConfig:
    """A one-parameter family of systems with entries affine in t."""

    entries: tuple[tuple[AffineEntry, ...], ...]
    grid: tuple[float, ...]
    probs: tuple[float, ...] | None = None
    norm: str = OP2
    depth_cap: int = DEFAULT_DEPTH_CAP
    seed: int = 0

    def at(self, t: float) -> SystemConfig:
        """The member system at parameter t; renormalizes silently."""
        try:
            mats = tuple(
                Matrix2(*(e.at(t) for e in row)) for row in self.entries
            )
        except DegenerateMatrixError as exc:
            raise ConfigError(f"family member at t={t!r}: {exc}") from None
        return SystemConfig(
            matrices=mats,
            probs=self.probs,
            norm=self.norm,
            depth_cap=self.depth_cap,
            seed=self.seed,
        )


def parse_family_text(text: str) -> FamilyConfig:
    keyed, blocks = _split_sections(text)
    if "family" not in keyed:
        raise ConfigError("family config has no family block")
    if "matrices" in keyed:
        raise ConfigError("family config also has a matrices block")
    if "grid" not in keyed:
        raise ConfigError("family config has no grid line")
    rows = []
    for line, line_no in blocks["family"]:
        toks = line.split()
        if len(toks) != 4:
            raise ConfigError(
                f"family row has {len(toks)} entries, need 4", line=line_no
            )
        rows.append(tuple(_parse_affine(t, line_no) for t in toks))
    if not rows:
        raise ConfigError("family block is empty")
    value, line_no = keyed["grid"]
    toks = value.split()
    if len(toks) != 3:
        raise ConfigError("grid line needs: lo hi count", line=line_no)
    lo = _parse_number(toks[0], line_no)
    hi = _parse_number(toks[1], line_no)
    try:
        count = int(toks[2])
    except ValueError:
        raise ConfigError(
            f"grid count must be an integer, got {toks[2]!r}", line=line_no
        ) from None
    if count < 2 or hi <= lo:
        raise ConfigError("grid needs lo < hi and count >= 2", line=line_no)
    step = (hi - lo) / (count - 1)
    grid = tuple(lo + i * step for i in range(count))
    # a system of one identity letter per family row carries the settings
    # through the checks every member would otherwise fail one by one
    checked = _checked_system(keyed, (IDENTITY2,) * len(rows))
    return FamilyConfig(
        entries=tuple(rows), grid=grid, probs=checked.probs,
        norm=checked.norm, depth_cap=checked.depth_cap, seed=checked.seed,
    )


def parse_family(path) -> FamilyConfig:
    return _read(path, parse_family_text)
