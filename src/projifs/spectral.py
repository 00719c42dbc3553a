"""Zeta partial sums, pressure bounds, and critical-exponent brackets.

The weighted word count Z_n(s) = sum over |w| = n of ||A_w||^{-2s} is
supermultiplicative in n (norms are submultiplicative and every word splits),
so Fekete's lemma turns any single depth into an unconditional lower bound on
the pressure P(s) = lim (1/n) log Z_n(s).  An almost-multiplicativity
constant c with ||AB|| >= c ||A|| ||B|| makes c^{-2s} Z_n submultiplicative
and yields matching upper bounds.  The critical exponent delta is the zero
crossing of P; bracketing P at probe points brackets delta.

Every certified claim here is one-sided and per-probe: "lower(s) > 0" proves
delta > s, "upper(s) < 0" proves delta < s, monotonicity nowhere assumed.
Each decision is the sign fsum gives, from np.sum outside its rounding bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cones import find_invariant_multicone
from .geometry import OP2, MatrixClass, classify, classify_array
from .semigroup import (
    SystemConfig,
    Word,
    common_fixed_points,
    discreteness_profile,
)

#: log 2 shows up as the norm-equivalence penalty for the max-entry norm,
#: whose submultiplicativity only holds with a factor 2.
_LOG2 = math.log(2.0)

#: Largest exponent the bracket bisects up to.
_S_MAX = 5.0

#: Deepest level the parabolic-word shortcut scans.
_PARABOLIC_DEPTH = 6


@dataclass(frozen=True)
class ZetaValues:
    s: float
    per_depth: tuple[float, ...]
    cumulative: float


def partial_zeta(cfg: SystemConfig, s: float, depth: int) -> ZetaValues:
    """Z_1(s) .. Z_depth(s) and their sum, each level summed with fsum so the
    result does not depend on summation order or platform."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    per = []
    for n in range(1, depth + 1):
        terms = cfg.table.norms(n) ** (-2.0 * s)
        per.append(math.fsum(terms))
    return ZetaValues(s=s, per_depth=tuple(per), cumulative=math.fsum(per))


@dataclass(frozen=True)
class PressureEval:
    """One-point pressure bracket: lower <= P(s) <= upper.

    upper is +inf when no almost-multiplicativity constant was supplied.
    """

    s: float
    lower: float
    upper: float
    depth_used: int
    c_const: float | None


def _check_c(c_const: float | None):
    if c_const is not None and not (0.0 < c_const <= 1.0):
        raise ValueError(f"c_const must lie in (0, 1], got {c_const}")


class _PressureProbe:
    """Caches per-level log-norms so repeated probes at new s are cheap.
    Every decision is the sign fsum gives, taken from np.sum outside its
    rounding bound (see sign); written values (lower, upper) use fsum."""

    def __init__(self, cfg: SystemConfig, depth: int):
        self.depth = depth
        self.log_norms = [np.log(cfg.table.norms(n)) for n in range(1, depth + 1)]
        # max-entry norm is submultiplicative only up to a factor 2, which
        # costs 2s log2 per split in the lower bound
        self.split_penalty = _LOG2 if cfg.norm != OP2 else 0.0

    def log_zeta(self, s: float, n: int, terms=None) -> float:
        if terms is None:
            terms = np.exp(-2.0 * s * self.log_norms[n - 1])
        total = math.fsum(terms)
        if total > 0.0:
            return math.log(total)
        # every weight underflowed: factor out the level's smallest norm
        a = float(self.log_norms[n - 1].min())
        rest = np.exp(-2.0 * s * (self.log_norms[n - 1] - a))
        return -2.0 * s * a + math.log(math.fsum(rest))

    def sign(self, s: float, n: int, c: float) -> int:
        """Sign of (log_zeta(s, n) - c) / n, from np.sum where that is safe.

        With S the np.sum of the level's N weights and eps = 2^-52 = 2u: any
        order of adding nonnegative terms errs by at most (N - 1)u(1 + Nu)
        times their exact sum (Higham, Accuracy and Stability of Numerical
        Algorithms, 4.2) and fsum rounds that sum correctly, so log S and
        log fsum differ by at most Nu(1 + 2Nu); math.log adds at most one
        ulp, eps|log|, to each.  That is about half the margin
        (N + 4|log S|) eps, far more slack than the rounding of the margin
        and of log S - c (whose sign is exact) takes.  Inside the margin, or
        if every weight underflowed, fsum decides.
        """
        terms = np.exp(-2.0 * s * self.log_norms[n - 1])
        total = float(np.sum(terms))
        if total > 0.0:
            log_total = math.log(total)
            margin = (terms.size + 4.0 * abs(log_total)) * 2.0**-52
            if abs(log_total - c) > margin:
                return 1 if log_total > c else -1
        value = (self.log_zeta(s, n, terms) - c) / n
        return (value > 0.0) - (value < 0.0)

    def lower_positive(self, s: float) -> bool:
        """lower(s) > 0; the deepest level is the likeliest to be positive."""
        c = 2.0 * s * self.split_penalty
        return any(self.sign(s, m, c) > 0 for m in range(self.depth, 0, -1))

    def upper_not_negative(self, s: float, c_const: float) -> bool:
        """not upper(s, c_const) < 0."""
        c = 2.0 * s * math.log(c_const)
        return all(self.sign(s, m, c) >= 0 for m in range(1, self.depth + 1))

    def estimate_not_negative(self, s: float) -> bool:
        """The deepest finite-depth pressure estimate is nonnegative."""
        return self.sign(s, self.depth, 0.0) >= 0

    def lower(self, s: float) -> float:
        return max(
            (self.log_zeta(s, m) - 2.0 * s * self.split_penalty) / m
            for m in range(1, self.depth + 1)
        )

    def upper(self, s: float, c_const: float) -> float:
        pen = -2.0 * s * math.log(c_const)
        return min(
            (self.log_zeta(s, m) + pen) / m for m in range(1, self.depth + 1)
        )


def pressure_bracket(
    cfg: SystemConfig,
    s: float,
    depth: int,
    c_const: float | None = None,
) -> PressureEval:
    """Rigorous pressure bounds at one s from depths 1..depth."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    _check_c(c_const)
    probe = _PressureProbe(cfg, depth)
    upper = math.inf if c_const is None else probe.upper(s, c_const)
    return PressureEval(
        s=s, lower=probe.lower(s), upper=upper, depth_used=depth, c_const=c_const
    )


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] around the critical exponent.

    certified means both endpoints rest on one-sided pressure certificates
    (op2 norm, almost-multiplicativity constant supplied, hi finite); an
    estimated endpoint is flagged in notes instead.
    """

    lo: float
    hi: float
    depth_used: int
    certified: bool
    notes: tuple[str, ...] = ()

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _bisect_edge(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink [lo, hi] to width tol keeping pred(lo) true and pred(hi) false.
    Every accepted probe was verified, so soundness needs no monotonicity."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def critical_exponent_bracket(
    cfg: SystemConfig,
    depth: int,
    c_const: float | None = None,
    tol: float = 1e-4,
) -> Bracket:
    """Bracket the critical exponent by bisecting on pressure certificates.

    Each endpoint is one predicate bisected on [0, _S_MAX] to tol/2; every
    probe takes the sign fsum gives, from np.sum outside its rounding bound.
    lo is the edge of lower(s) > 0, or 0 when s = 0 fails it.  hi is the
    edge of "not below": with c_const, not upper(s) < 0, a certificate;
    without it, the deepest finite-depth pressure estimate staying
    nonnegative, and the bracket is not certified.  hi is +inf when the
    predicate still holds at _S_MAX.  A certified-route bracket with finite
    hi wider than tol gets a note: the certificates themselves, not the
    bisection, ran out of resolution at this depth.  The notes say nothing
    about freeness; `semigroup.first_collision_depth` answers that.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    _check_c(c_const)
    probe = _PressureProbe(cfg, depth)
    notes = []
    if cfg.norm != OP2:
        notes.append(
            "max-entry norm: lower bounds carry the factor-2 split penalty "
            "and certification is reserved for the op2 norm"
        )
    if c_const is None:
        notes.append(
            "upper endpoint is a finite-depth estimate; supply an "
            "almost-multiplicativity constant for a certified bracket"
        )
        not_below = probe.estimate_not_negative
        unbounded = f"finite-depth pressure still positive at s_max={_S_MAX}"
    else:
        not_below = functools.partial(probe.upper_not_negative, c_const=c_const)
        unbounded = (
            f"no certified upper bound at or below s_max={_S_MAX}; "
            "pressure upper bound stays nonnegative"
        )

    lo = 0.0
    if probe.lower_positive(0.0):
        lo = _bisect_edge(probe.lower_positive, 0.0, _S_MAX, tol / 2.0)[0]
    if not_below(_S_MAX):
        notes.append(unbounded)
        return Bracket(lo, math.inf, depth, False, tuple(notes))
    hi = max(_bisect_edge(not_below, 0.0, _S_MAX, tol / 2.0)[1], lo)
    if c_const is not None and hi - lo > tol:
        notes.append(
            f"certificate gap wider than tol at depth {depth}; "
            "increase depth to narrow further"
        )
    certified = c_const is not None and cfg.norm == OP2
    return Bracket(lo, hi, depth, certified, tuple(notes))


# ---------------------------------------------------------------------------
# Structural shortcuts: bounds that need no zeta enumeration at all.

@dataclass(frozen=True)
class QuickBound:
    value: float
    reason: str
    certified: bool
    word: Word | None = None


def _parabolic_word(cfg: SystemConfig):
    """Shortest word of length at most _PARABOLIC_DEPTH whose product is
    parabolic but not +-identity."""
    for n in range(1, cfg.table.depth_within(65536, _PARABOLIC_DEPTH) + 1):
        idx = np.flatnonzero(classify_array(cfg.table.level(n))[1])
        if idx.size:
            return cfg.table.word(n, int(idx[0]))
    return None


def _accumulation_evidence(cfg: SystemConfig) -> bool:
    """True when distinct products pile up on each other within the scan
    budget, the finite-depth signature of a non-semidiscrete system.  A found
    multicone certifies semidiscreteness, so it retires the scan."""
    if find_invariant_multicone(cfg).found:
        return False
    if cfg.k == 1:
        # only an elliptic letter's powers can accumulate: those of a
        # hyperbolic or parabolic letter, or +-Id, are discrete.  Powers of
        # one matrix are cheap, and recurrence times of a generic rotation
        # only show up around its deeper continued-fraction convergents, so
        # scan well past the multi-letter budget
        if classify(cfg.matrices[0]) != MatrixClass.ELLIPTIC:
            return False
        depth = 1024
    else:
        depth, pool = 1, cfg.k
        while pool + cfg.k ** (depth + 1) <= 1024:
            depth += 1
            pool += cfg.k ** depth
    return discreteness_profile(cfg, depth).accumulates


def quick_lower_bounds(cfg: SystemConfig) -> tuple[QuickBound, ...]:
    """Lower bounds on the critical exponent from structure alone.

    A parabolic product forces delta >= 1/2 (its powers have norm growing
    linearly).  A shared fixed point whose one-dimensional reduction yields
    an interval attractor forces delta >= 1.  Accumulation of distinct
    products is evidence of delta = inf; a found multicone retires the scan.
    """
    bounds: list[QuickBound] = []
    w = _parabolic_word(cfg)
    if w is not None:
        bounds.append(QuickBound(0.5, "parabolic-product", True, w))
    if common_fixed_points(cfg):
        from . import subsystems

        red = subsystems.reducible_dimension(cfg)
        if red.case in (
            subsystems.ReducibleCase.ATTRACTOR_MEETS_REPELLER,
            subsystems.ReducibleCase.PARABOLIC_AT_REPELLER,
        ):
            bounds.append(QuickBound(1.0, "reducible-interval-attractor", True))
    if _accumulation_evidence(cfg):
        bounds.append(QuickBound(math.inf, "accumulation-evidence", False))
    bounds.sort(key=lambda b: b.value, reverse=True)
    return tuple(bounds)
