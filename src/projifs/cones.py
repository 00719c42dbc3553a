"""Multicones and the certificates built on them.

A multicone is a finite union of open arcs of RP^1 with disjoint closures,
not the whole circle.  A system that maps the closure of some multicone
into its interior is uniformly hyperbolic (Avila-Bochi-Yoccoz, Comment.
Math. Helv. 2010, Thm 2.2), and the strict invariance also certifies
semidiscreteness of the generated semigroup.  The search below
grows a candidate from fixed-point seeds, closes it under the letter maps,
and then measures how far inside itself the closure lands.

Arcs are stored as (lo, hi) with lo in (0, pi] and hi = lo + length for a
length in (0, pi); hi may pass pi, the wrap is implicit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DegenerateDirectionsError
from .geometry import (
    PI,
    Matrix2,
    MatrixClass,
    attracting_directions_array,
    ccw_span,
    classify,
    normalize_angle,
    proj_act,
    singular_directions,
)
from .semigroup import (_EXACT_PAIR_LIMIT, SystemConfig, _dists_to_identity,
                        discreteness_profile)

_HALF_PI = PI / 2.0

#: Ceiling on arcs in any working union; smallest gaps are bridged past it.
_MAX_ARCS = 64

#: Identity-approach threshold that turns evidence into refutation.
_IDENTITY_TOL = 1e-9

#: Words, shortest first and of length at most _SEED_DEPTH, whose fixed
#: directions seed the multicone search.
_SEED_WORDS = 640
_SEED_DEPTH = 8

#: Containment margin that separates a compact multicone from a strict-only
#: one; seeds are padded by 4 * _CONE_EPS.
_CONE_EPS = 1e-3

#: Closure passes of the multicone search, the gap below which arcs merge,
#: and the largest endpoint move that counts as a stalled closure.
_MAX_PASSES = 64
_MERGE_TOL = 1e-9
_STALL_TOL = 1e-7

Arc = tuple[float, float]


def _sdiff(a: float, b: float) -> float:
    """Signed ccw displacement from a to b, folded into [-pi/2, pi/2)."""
    return (b - a + _HALF_PI) % PI - _HALF_PI


def _canon(arc: Arc) -> Arc:
    lo, hi = arc
    length = ccw_span(lo, hi)
    lo = normalize_angle(lo)
    return (lo, lo + length)


def _merge_arcs(arcs: list[Arc], gap_tol: float) -> list[Arc] | None:
    """Union of arcs, gluing gaps up to gap_tol and bridged to at most
    _MAX_ARCS arcs; None when the union is the whole circle (or
    indistinguishable from it)."""
    if not arcs:
        return []
    cs = sorted(_canon(a) for a in arcs)
    if any(hi - lo >= PI - 1e-12 for lo, hi in cs):
        return None
    base = cs[0][0]
    unrolled = cs + [(lo + PI, hi + PI) for lo, hi in cs]
    merged: list[list[float]] = [list(unrolled[0])]
    for lo, hi in unrolled[1:]:
        if lo <= merged[-1][1] + gap_tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    out = [
        (lo, hi) for lo, hi in merged if base <= lo < base + PI
    ]
    # an arc reaching past base+pi wraps onto the earliest ones; absorb them
    while len(out) > 1 and out[-1][1] - PI >= out[0][0] - gap_tol:
        lo0, hi0 = out.pop(0)
        lo_l, hi_l = out[-1]
        out[-1] = (lo_l, max(hi_l, hi0 + PI))
    if any(hi - lo >= PI - 1e-9 for lo, hi in out):
        return None
    out = sorted(_canon(a) for a in out)
    if math.fsum(hi - lo for lo, hi in out) >= PI - 1e-9:
        return None
    return _bridge_to_cap(out)


def _bridge_to_cap(arcs: list[Arc], cap: int = _MAX_ARCS) -> list[Arc] | None:
    """Bridge the len(arcs) - cap smallest circular gaps, ties going to the
    earlier arc, so at most cap arcs remain; None when the result is
    indistinguishable from the circle.  A bridge leaves every other gap
    unchanged, so these are the gaps that bridging the smallest one at a
    time would pick."""
    arcs = sorted(arcs)
    n = len(arcs)
    if n <= cap:
        return arcs
    gaps = [ccw_span(arcs[i][1], arcs[(i + 1) % n][0]) for i in range(n)]
    bridged = set(sorted(range(n), key=gaps.__getitem__)[: n - cap])
    # start from an arc whose gap before it stays open
    first = next(i for i in range(n) if (i - 1) % n not in bridged)
    out: list[Arc] = []
    for t in range(first, first + n):
        i, prev = t % n, (t - 1) % n
        lo, hi = arcs[i]
        if prev in bridged:
            out[-1] = (out[-1][0], out[-1][1] + gaps[prev] + (hi - lo))
        else:
            out.append((lo, hi))
    out = sorted(_canon(a) for a in out)
    if math.fsum(hi - lo for lo, hi in out) >= PI - 1e-6:
        return None
    return out


@dataclass(frozen=True)
class Multicone:
    """Validated union of arcs: disjoint closures, total length below pi."""

    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if not self.arcs:
            raise ValueError("multicone needs at least one arc")
        cs = sorted(_canon(a) for a in self.arcs)
        total = math.fsum(hi - lo for lo, hi in cs)
        if total >= PI - 1e-12:
            raise ValueError("arcs cover the whole circle")
        for i in range(len(cs) - 1):
            if cs[i + 1][0] <= cs[i][1]:
                raise ValueError("arc closures overlap")
        if len(cs) > 1 and cs[-1][1] - PI >= cs[0][0]:
            raise ValueError("arc closures overlap")
        object.__setattr__(self, "arcs", tuple(cs))

    def contains_point(self, theta: float, slack: float = 0.0) -> bool:
        for lo, hi in self.arcs:
            if ccw_span(lo, theta) <= (hi - lo) + slack:
                return True
            if slack > 0.0 and ccw_span(theta, lo) <= slack:
                return True
        return False

    def point_clearance(self, theta: float) -> float:
        """Circular distance from theta to the union; 0 inside."""
        best = math.inf
        for lo, hi in self.arcs:
            if ccw_span(lo, theta) <= hi - lo:
                return 0.0
            best = min(best, ccw_span(hi, theta), ccw_span(theta, lo))
        return best


def _map_arc(m: Matrix2, arc: Arc) -> Arc:
    # the action preserves orientation, so an arc maps to the ccw arc
    # between its endpoint images
    lo, hi = arc
    a = proj_act(m, lo)
    b = proj_act(m, normalize_angle(hi))
    return (a, a + ccw_span(a, b))


def _arc_margin_in(outer: Arc, inner: Arc) -> float:
    """Containment margin of inner inside outer; -inf when the pair is not
    even approximately nested."""
    li, hi_ = _canon(inner)
    lo, ho = _canon(outer)
    m1 = _sdiff(lo, li)
    m2 = _sdiff(hi_, ho)
    if abs(m1 + (hi_ - li) + m2 - (ho - lo)) > 1e-9:
        return -math.inf
    return min(m1, m2)


def containment_margin(outer_arcs, inner_arcs) -> float:
    """min over inner arcs of the best per-arc nesting margin.

    Nonnegative means inner is contained in outer; a small negative value
    measures the worst overhang; -inf means some inner arc is nowhere near
    a single outer arc.
    """
    worst = math.inf
    for ia in inner_arcs:
        best = max((_arc_margin_in(oa, ia) for oa in outer_arcs),
                   default=-math.inf)
        worst = min(worst, best)
    return worst


def multicone_gap(a: Multicone, b: Multicone) -> float:
    """Smallest circular distance between the two unions; 0 when they meet."""
    best = math.inf
    for la, ha in a.arcs:
        for lb, hb in b.arcs:
            if ccw_span(la, lb) <= ha - la or ccw_span(lb, la) <= hb - lb:
                return 0.0
            best = min(best, ccw_span(ha, lb), ccw_span(hb, la))
    return best


# ---------------------------------------------------------------------------
# Invariant multicone search.

class ConeKind(enum.Enum):
    COMPACT = "compact"
    STRICT_ONLY = "strict-only"


@dataclass(frozen=True)
class ConeSearchResult:
    found: bool
    cone: Multicone | None
    kind: ConeKind | None
    margin: float
    iterations: int
    notes: tuple[str, ...] = ()


def _fatten(arcs: list[Arc], amount: float) -> list[Arc]:
    """Widen each arc into its neighboring gaps, never past a third of a gap,
    so disjointness of closures is preserved."""
    n = len(arcs)
    out = []
    for i, (lo, hi) in enumerate(arcs):
        before = ccw_span(arcs[(i - 1) % n][1], lo) if n > 1 else PI - (hi - lo)
        after = ccw_span(hi, arcs[(i + 1) % n][0]) if n > 1 else PI - (hi - lo)
        lo2 = lo - min(amount, before / 3.0)
        hi2 = hi + min(amount, after / 3.0)
        out.append(_canon((lo2, hi2)))
    return sorted(out)


def _seed_points(cfg: SystemConfig, seed_depth: int) -> list[float]:
    """Attracting and neutral fixed directions of the first _SEED_WORDS words
    of length at most seed_depth, in table order."""
    chunks = [np.empty(0)]
    left = _SEED_WORDS
    for n in range(1, seed_depth + 1):
        if left <= 0:
            break
        lev = cfg.table.level(n)[:left]
        chunks.append(attracting_directions_array(lev))
        left -= len(lev)
    return np.concatenate(chunks).tolist()


def find_invariant_multicone(cfg: SystemConfig) -> ConeSearchResult:
    """Search for a multicone every letter maps into itself.

    Seeds are neighborhoods of attracting and neutral fixed points of short
    products; the union is closed under the letter maps until it stalls.
    The final margin classifies the outcome: at least _CONE_EPS inside is a
    compact certificate, within _CONE_EPS either way is a strict-only
    certificate (invariance verified at that tolerance), anything worse is a
    failure.

    The result is kept in cfg.memo, so the analyses of one system share one
    search, freed together with the config.
    """
    if "multicone" not in cfg.memo:
        cfg.memo["multicone"] = _search_multicone(cfg)
    return cfg.memo["multicone"]


def _search_multicone(cfg: SystemConfig) -> ConeSearchResult:
    """The search behind find_invariant_multicone."""
    notes = []
    for m in cfg.matrices:
        if classify(m) is MatrixClass.ELLIPTIC:
            return ConeSearchResult(
                False, None, None, -math.inf, 0,
                ("elliptic letter: no invariant multicone can exist; "
                 "a finite-order elliptic may admit a symmetrized search",),
            )
    seeds = _seed_points(cfg, _SEED_DEPTH)
    if not seeds:
        return ConeSearchResult(
            False, None, None, -math.inf, 0,
            ("no hyperbolic or neutral fixed points to seed from",),
        )
    radius = 4.0 * _CONE_EPS
    arcs = _merge_arcs([(t - radius, t + radius) for t in seeds], _MERGE_TOL)
    iterations = 0
    for iterations in range(1, _MAX_PASSES + 1):
        new = None if arcs is None else _merge_arcs(
            arcs + [_map_arc(m, arc) for m in cfg.matrices for arc in arcs],
            _MERGE_TOL,
        )
        if new is None:
            return ConeSearchResult(
                False, None, None, -math.inf, iterations,
                ("closure filled the circle",),
            )
        if len(new) == len(arcs):
            move = max(
                max(abs(_sdiff(a[0], b[0])), abs(_sdiff(a[1], b[1])))
                for a, b in zip(arcs, new)
            )
            if move < _STALL_TOL:
                arcs = new
                break
        arcs = new
    else:
        notes.append(f"closure did not stabilize within {_MAX_PASSES} passes")

    # The closure converges onto the minimal invariant set, which the letters
    # map into itself with no room to spare at its extreme fixed points.
    # Gluing sub-resolution gaps and padding the stalled arcs into the
    # remaining ones buys back a measurable margin.
    glued = _merge_arcs(arcs, 12.0 * _CONE_EPS)
    if glued is not None:
        arcs = glued
    arcs = _fatten(arcs, 4.0 * _CONE_EPS)
    margin = min(
        containment_margin(arcs, [_map_arc(m, arc) for arc in arcs])
        for m in cfg.matrices
    )
    cone = Multicone(tuple(arcs))
    if margin >= _CONE_EPS:
        return ConeSearchResult(
            True, cone, ConeKind.COMPACT, margin, iterations, tuple(notes)
        )
    if margin > -_CONE_EPS:
        notes.append(
            f"containment verified only at tolerance {_CONE_EPS}; the "
            "invariant set grazes its own boundary"
        )
        return ConeSearchResult(
            True, cone, ConeKind.STRICT_ONLY, margin, iterations, tuple(notes)
        )
    notes.append(f"final margin {margin:.3e} is worse than -eps")
    return ConeSearchResult(False, cone, None, margin, iterations, tuple(notes))


# ---------------------------------------------------------------------------
# Almost-multiplicativity.

@dataclass(frozen=True)
class AlmostMultConstant:
    """c with ||AB|| >= c ||A|| ||B|| across the semigroup, from cone geometry.

    c = sin(g)^2 where g lower-bounds the angle every product's contracting
    singular direction keeps from the invariant multicone.  Words of norm
    below the recorded threshold are checked directly; beyond it the image
    of the multicone is too short for the contracting direction to sit
    inside, and no enumeration is needed.
    """

    c: float
    g: float
    valid: bool
    threshold: float
    checked_words: int
    checked_depth: int
    notes: tuple[str, ...] = ()


def almost_mult_constant(
    cfg: SystemConfig,
    cone: Multicone,
    margin: float,
    max_check_depth: int = 14,
) -> AlmostMultConstant:
    """The constant for a multicone every letter maps inside itself with
    the given positive containment margin."""
    threshold = 2.0 / margin
    table = cfg.table
    g = margin
    checked = 0
    depth = 0
    notes = []
    try:
        for n in range(1, max_check_depth + 1):
            if table.min_norm(n) ** 2 > threshold:
                depth = n - 1
                break
            lev = table.level(n)
            norms = table.norms(n)
            for i in np.flatnonzero(norms ** 2 <= threshold):
                m = Matrix2(*lev[i].ravel())
                try:
                    u_minus, _ = singular_directions(m)
                except DegenerateDirectionsError:
                    # sigma_1 ~ sigma_2 ~ 1: ||Mv|| >= 1/||M|| >= sin(g) ||M||
                    # holds for every direction, nothing to exclude
                    continue
                d = cone.point_clearance(u_minus)
                checked += 1
                if d <= 0.0:
                    return AlmostMultConstant(
                        0.0, 0.0, False, threshold, checked, n,
                        ("contracting direction of a checked word lies inside "
                         "the multicone; the sine bound does not apply",),
                    )
                g = min(g, d)
            depth = n
        else:
            return AlmostMultConstant(
                0.0, 0.0, False, threshold, checked, max_check_depth,
                (f"word norms failed to clear the threshold {threshold:.3g} "
                 f"by depth {max_check_depth}",),
            )
    except BudgetExceededError:
        return AlmostMultConstant(
            0.0, 0.0, False, threshold, checked, depth,
            (f"norm threshold {threshold:.3g} not cleared within the "
             "table's depth budget",),
        )
    c = math.sin(g) ** 2
    return AlmostMultConstant(
        c, g, True, threshold, checked, depth, tuple(notes)
    )


def _split_norms(cfg: SystemConfig, total_depth: int):
    """(||A_vw||, ||A_v|| ||A_w||) as two arrays over the words vw of each
    length n in 2..total_depth, one pair per split point |v| in 1..n-1."""
    table = cfg.table
    for n in range(2, total_depth + 1):
        for m in range(1, n):
            yield table.norms(n), np.outer(
                table.norms(m), table.norms(n - m)).ravel()


def empirical_almost_mult(cfg: SystemConfig, total_depth: int = 8) -> float:
    """Observed min of ||A_v A_w|| / (||A_v|| ||A_w||) over all splits of all
    words up to total_depth, capped at 1.  Diagnostic only; never feeds a
    certificate."""
    return min([1.0] + [float((whole / denom).min())
                        for whole, denom in _split_norms(cfg, total_depth)])


def verify_almost_mult(cfg: SystemConfig, c: float, total_depth: int = 6) -> int:
    """Count violations of ||A_v A_w|| >= c ||A_v|| ||A_w|| over every split
    of every word up to total_depth (0 for a sound constant)."""
    return sum(int((whole < c * denom * (1.0 - 1e-12)).sum())
               for whole, denom in _split_norms(cfg, total_depth))


# ---------------------------------------------------------------------------
# Certificates.

@dataclass(frozen=True)
class GrowthEstimate:
    """Least-squares growth of the slowest word: min ||A_w|| ~ c lambda^n."""

    lam: float
    c: float
    depths: tuple[int, ...]
    min_norms: tuple[float, ...]


def _growth_estimate(cfg: SystemConfig, depth: int) -> GrowthEstimate:
    ns = range(1, cfg.table.depth_within(262144, depth) + 1)
    mins = [cfg.table.min_norm(n) for n in ns]
    logs = np.log(mins)
    if len(ns) >= 2:
        slope, _ = np.polyfit(ns, logs, 1)
    else:
        slope = logs[0]
    lam = math.exp(slope)
    c = min(m / lam ** n for n, m in zip(ns, mins))
    return GrowthEstimate(lam, c, tuple(ns), tuple(float(m) for m in mins))


class UHStatus(enum.Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class UHCertificate:
    status: UHStatus
    forward: ConeSearchResult
    growth: GrowthEstimate
    almost_mult: AlmostMultConstant | None
    empirical_c: float
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status is UHStatus.CERTIFIED


def certify_uniform_hyperbolicity(
    cfg: SystemConfig, depth: int = 10
) -> UHCertificate:
    """Certificate route: a compact invariant multicone M.  Every letter
    maps the closure of M into the interior of M, so the inverses map the
    closed complement of M into its own interior, and the system is
    uniformly hyperbolic (Avila-Bochi-Yoccoz, Comment. Math. Helv. 2010,
    Thm 2.2).  Growth statistics and the empirical split ratio are reported
    either way; only the cone certifies.
    """
    notes = []
    forward = find_invariant_multicone(cfg)
    growth = _growth_estimate(cfg, depth)
    empirical = empirical_almost_mult(cfg, min(depth, 8))
    certified = forward.found and forward.kind is ConeKind.COMPACT
    am = None
    if certified:
        am = almost_mult_constant(cfg, forward.cone, forward.margin)
        if not am.valid:
            notes.extend(am.notes)
    elif not forward.found:
        notes.append("no forward invariant multicone found")
    else:
        notes.append("forward multicone is strict-only, not compact")
    return UHCertificate(
        status=UHStatus.CERTIFIED if certified else UHStatus.NOT_CERTIFIED,
        forward=forward,
        growth=growth,
        almost_mult=am,
        empirical_c=empirical,
        notes=tuple(notes),
    )


class SDStatus(enum.Enum):
    CERTIFIED_VIA_INVARIANT_SET = "certified-via-invariant-set"
    REFUTED_VIA_IDENTITY_APPROACH = "refuted-via-identity-approach"
    EVIDENCE_ONLY = "evidence-only"


@dataclass(frozen=True)
class SDCertificate:
    status: SDStatus
    cone: ConeSearchResult | None
    min_dist_to_identity: float
    min_pairwise: float
    notes: tuple[str, ...] = ()

    @property
    def decided(self) -> bool:
        return self.status is not SDStatus.EVIDENCE_ONLY


def identity_approach(cfg: SystemConfig, depth: int) -> float:
    """Closest approach to +-identity of the products of the levels that
    certify_semidiscrete profiles: its min_dist_to_identity, with no
    pairwise scan."""
    n = cfg.table.depth_within(_EXACT_PAIR_LIMIT, depth)
    return min(float(_dists_to_identity(cfg.table.level(m)).min())
               for m in range(1, n + 1))


def sd_refuted(cfg: SystemConfig, depth: int) -> bool:
    """No multicone, and products within _IDENTITY_TOL of +-identity.  The
    cone search runs only where products reach +-identity."""
    return (identity_approach(cfg, depth) < _IDENTITY_TOL
            and not find_invariant_multicone(cfg).found)


def sd_status(cfg: SystemConfig, depth: int) -> SDStatus:
    """A strictly invariant multicone certifies semidiscreteness, sd_refuted
    refutes it, and everything else stays evidence."""
    if find_invariant_multicone(cfg).found:
        return SDStatus.CERTIFIED_VIA_INVARIANT_SET
    if sd_refuted(cfg, depth):
        return SDStatus.REFUTED_VIA_IDENTITY_APPROACH
    return SDStatus.EVIDENCE_ONLY


def certify_semidiscrete(cfg: SystemConfig, depth: int = 10) -> SDCertificate:
    """sd_status with its evidence: the cone, and without one the
    discreteness profile's closest approaches to +-identity and between
    products.  Only certify-sd builds this profile; scan-continuity reads
    sd_refuted alone, whose cone search runs only where products reach
    +-identity.  The strict-only flavor of invariance carries its tolerance
    as a note.  The exact scan behind the evidence stops at the deepest
    level of at most _EXACT_PAIR_LIMIT words, or at depth 1.
    """
    status = sd_status(cfg, depth)
    cone = find_invariant_multicone(cfg)
    notes = []
    if status is SDStatus.CERTIFIED_VIA_INVARIANT_SET:
        if cone.kind is ConeKind.STRICT_ONLY:
            notes.append(
                f"strict invariance verified at tolerance {_CONE_EPS}; margin "
                f"{cone.margin:.2e}"
            )
        return SDCertificate(status, cone, math.inf, math.inf, tuple(notes))
    scan_depth = cfg.table.depth_within(_EXACT_PAIR_LIMIT, depth)
    prof = discreteness_profile(cfg, scan_depth)
    to_id = prof.final_min_to_identity
    pairwise = prof.final_min_pairwise
    if status is SDStatus.REFUTED_VIA_IDENTITY_APPROACH:
        notes.append(
            f"products reach +-identity within {to_id:.1e} by depth {scan_depth}"
        )
    else:
        notes.extend(cone.notes)
        if pairwise < 1e-3:
            notes.append(
                f"distinct products approach each other ({pairwise:.2e}); "
                "accumulation suggests a non-semidiscrete system"
            )
    return SDCertificate(status, cone, to_id, pairwise, tuple(notes))
