"""Reducible systems, the pivot construction, and the elliptic reduction.

A reducible system fixes a direction; rotating it onto theta = pi makes every
letter upper triangular, so the projective action restricted to the cotangent
chart is affine, t -> alpha t + beta with alpha the squared corner entry.
That turns the dimension question into a case analysis on the chart slopes:
all slopes below one is an affine contracting IFS, a parabolic word next to a
chart-contracting one fills an interval, and so does an attracting/repelling
word pair meeting at the shared direction with distinct second fixed points.

Irreducible systems get a pivot instead: a word A0 and nested intervals
U' inside U, away from V, such that A0 maps everything outside V into U'.
Appending A0 in front of arbitrary blocks then yields uniformly hyperbolic
finite alphabets whose critical exponents certify lower dimension bounds.
The interval containments are verified by endpoint transport, so pivot
soundness never depends on how well the point clouds sample attractor and
repeller; the clouds only steer where U and V are placed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .attractor import attractor_points_fixedpoint, repeller_points_fixedpoint
from .cones import (
    Arc,
    Multicone,
    _map_arc,
    almost_mult_constant,
    containment_margin,
    multicone_gap,
)
from .errors import (
    CertificationError,
    InfiniteOrderEllipticError,
    NotReducibleError,
    PivotNotFoundError,
)
from .geometry import (
    IDENTITY2,
    OP2,
    PI,
    Matrix2,
    MatrixClass,
    classify,
    fixed_points,
    normalize_angle,
)
from .semigroup import SystemConfig, Word, common_fixed_points, word_product
from .spectral import Bracket, _bisect_edge, critical_exponent_bracket

#: Chart slopes within this of one count as parabolic.
_SLOPE_TOL = 1e-9

#: Deepest word length scanned for a witness of a reducible case.
_REDUCIBLE_DEPTH = 6

#: Chart fixed points closer than this are treated as equal when pairing
#: attracting and repelling words.
_CHART_TOL = 1e-7

_MAX_ELLIPTIC_ORDER = 64
_ORDER_TOL = 1e-9

#: Highest power of a candidate word tried as a pivot.
_PIVOT_POWERS = 8

#: Word budget for the default per-level depth of a Gamma alphabet.
_GAMMA_BUDGET = 260_000

#: Ceiling on product operator norms: past this the determinant of a
#: det-one product is lost to float cancellation, so per-level depth for
#: pivot alphabets is capped to keep norms under it.
_SAFE_PRODUCT_NORM = 1e6


# ---------------------------------------------------------------------------
# Reducible systems.

class ReducibleCase(enum.Enum):
    UNIFORMLY_HYPERBOLIC_REDUCIBLE = "uniformly-hyperbolic-reducible"
    PARABOLIC_AT_REPELLER = "parabolic-at-repeller"
    ATTRACTOR_MEETS_REPELLER = "attractor-meets-repeller"
    SINGLETON_ATTRACTOR = "singleton-attractor"


@dataclass(frozen=True)
class ReducibleVerdict:
    """Outcome of the shared-fixed-point case analysis.

    dimension is exact for the interval cases (1) and the singleton (0); for
    the uniformly hyperbolic case it is the affine similarity exponent capped
    at one, with a note when overlapping pieces make it an upper bound.
    """

    case: ReducibleCase
    dimension: float
    fixed_point: float
    witnesses: tuple[Word, ...] = ()
    notes: tuple[str, ...] = ()


def _chart_letters(cfg: SystemConfig, x: float) -> list[tuple[float, float]]:
    """Conjugate the shared direction x onto pi and read off the affine chart
    action (slope, offset) of each letter; identity letters give (1, 0)."""
    c, s = math.cos(x), math.sin(x)
    rot = Matrix2(c, s, -s, c)
    rot_inv = Matrix2(c, -s, s, c)
    out = []
    for m in cfg.matrices:
        mm = rot @ m @ rot_inv
        a, b, cc, d = mm.entries
        if abs(cc) > 1e-7 * max(1.0, abs(a), abs(b), abs(d)):
            raise NotReducibleError(
                f"direction {x:.6f} is not fixed by every letter"
            )
        out.append((a * a, a * b))
    return out


def _compose_chart(letters, word) -> tuple[float, float]:
    alpha, beta = 1.0, 0.0
    for i in word:
        la, lb = letters[i]
        beta = alpha * lb + beta
        alpha = alpha * la
    return alpha, beta


def _similarity_exponent(ratios) -> float:
    def above_one(s: float) -> bool:
        return math.fsum(r ** s for r in ratios) > 1.0

    hi = 1.0
    while above_one(hi) and hi < 64.0:
        hi *= 2.0
    lo, hi = _bisect_edge(above_one, 0.0, hi, 1e-12)
    return 0.5 * (lo + hi)


def _uh_reducible(x: float, chart) -> ReducibleVerdict:
    fixed = [beta / (1.0 - alpha) for alpha, beta in chart]
    spread = max(fixed) - min(fixed)
    if spread <= _CHART_TOL:
        return ReducibleVerdict(
            case=ReducibleCase.SINGLETON_ATTRACTOR,
            dimension=0.0,
            fixed_point=x,
            notes=(
                "every letter contracts the chart onto the same direction; "
                "the attractor is that single point",
            ),
        )
    s_star = _similarity_exponent([alpha for alpha, _ in chart])
    notes = [
        "all letters repel the shared direction; the conjugated system is an "
        f"affine contracting IFS with similarity exponent {s_star:.6f}",
    ]
    hull = (min(fixed), max(fixed))
    images = sorted(
        (alpha * hull[0] + beta, alpha * hull[1] + beta)
        for alpha, beta in chart
    )
    overlap = any(
        images[i + 1][0] < images[i][1] - _CHART_TOL
        for i in range(len(images) - 1)
    )
    if overlap:
        notes.append(
            "chart images of the hull overlap; the exponent is only an "
            "upper bound for the dimension"
        )
    return ReducibleVerdict(
        case=ReducibleCase.UNIFORMLY_HYPERBOLIC_REDUCIBLE,
        dimension=min(1.0, s_star),
        fixed_point=x,
        notes=tuple(notes),
    )


def reducible_dimension(cfg: SystemConfig) -> ReducibleVerdict:
    """Case analysis at the shared fixed direction, following the trichotomy
    for reducible semigroups.

    Words up to _REDUCIBLE_DEPTH are scanned in enumeration order for the two
    interval-producing patterns: a parabolic word while some letter repels
    the shared direction, or an attracting/repelling word pair whose second
    fixed points differ.  The first witness found settles the verdict, so
    the result is deterministic.
    """
    common = common_fixed_points(cfg)
    if not common:
        raise NotReducibleError(
            "the letters share no fixed direction; the system is irreducible"
        )
    x = common[0]
    chart = _chart_letters(cfg, x)
    live = [
        (i, ab) for i, ab in enumerate(chart)
        if abs(ab[0] - 1.0) > _SLOPE_TOL or abs(ab[1]) > _SLOPE_TOL
    ]
    if not live:
        raise NotReducibleError("every letter acts as the identity")
    has_rep = any(alpha < 1.0 - _SLOPE_TOL for _, (alpha, _) in live)
    has_att = any(alpha > 1.0 + _SLOPE_TOL for _, (alpha, _) in live)
    if not has_rep:
        return ReducibleVerdict(
            case=ReducibleCase.SINGLETON_ATTRACTOR,
            dimension=0.0,
            fixed_point=x,
            notes=(
                "every letter attracts toward (or is parabolic at) the "
                "shared direction, so the attractor reduces to it; the "
                "zeta-based formula does not apply to singleton attractors",
            ),
        )
    if not has_att and all(
        abs(alpha - 1.0) > _SLOPE_TOL for _, (alpha, _) in live
    ) and len(live) == cfg.k:
        return _uh_reducible(x, [ab for _, ab in live])

    # mixed behavior at the shared direction: scan words for a witness
    atts: list[tuple[Word, float]] = []
    reps: list[tuple[Word, float]] = []
    first_par: Word | None = None
    for n in range(1, _REDUCIBLE_DEPTH + 1):
        for w in itertools.product(range(cfg.k), repeat=n):
            alpha, beta = _compose_chart(chart, w)
            if abs(alpha - 1.0) <= _SLOPE_TOL:
                if abs(beta) > _SLOPE_TOL and first_par is None:
                    first_par = w
            elif alpha > 1.0:
                other = beta / (1.0 - alpha)
                for wr, other_r in reps:
                    if abs(other - other_r) > _CHART_TOL:
                        return _amr_verdict(x, w, wr)
                if len(atts) < 128:
                    atts.append((w, other))
            else:
                other = beta / (1.0 - alpha)
                for wa, other_a in atts:
                    if abs(other_a - other) > _CHART_TOL:
                        return _amr_verdict(x, wa, w)
                if len(reps) < 128:
                    reps.append((w, other))
            if first_par is not None and reps:
                return ReducibleVerdict(
                    case=ReducibleCase.PARABOLIC_AT_REPELLER,
                    dimension=1.0,
                    fixed_point=x,
                    witnesses=(reps[0][0], first_par),
                    notes=(
                        "a parabolic word fixes the repelling point of a "
                        "hyperbolic word; the attractor contains an interval",
                    ),
                )
    if has_att and has_rep:
        return ReducibleVerdict(
            case=ReducibleCase.SINGLETON_ATTRACTOR,
            dimension=0.0,
            fixed_point=x,
            notes=(
                "attracting and repelling words at the shared direction all "
                "share their second fixed point, so the attractor is finite; "
                "such a system cannot be semidiscrete (the semigroup closure "
                "reaches the identity)",
            ),
        )
    return _uh_reducible(
        x, [ab for _, ab in live if ab[0] < 1.0 - _SLOPE_TOL]
    )


def _amr_verdict(x: float, w_att: Word, w_rep: Word) -> ReducibleVerdict:
    return ReducibleVerdict(
        case=ReducibleCase.ATTRACTOR_MEETS_REPELLER,
        dimension=1.0,
        fixed_point=x,
        witnesses=(w_att, w_rep),
        notes=(
            "the attracting point of one word is the repelling point of "
            "another, with distinct second fixed points; the attractor "
            "contains an interval",
        ),
    )


# ---------------------------------------------------------------------------
# Pivot construction for irreducible systems.

@dataclass(frozen=True)
class Pivot:
    """A word A0 and intervals U' within U, away from V, with A0 mapping the
    complement of V into U'.  Arcs follow the (lo, lo + length) convention."""

    a0: tuple[Word, Matrix2]
    U: Arc
    U_prime: Arc
    V: Arc
    notes: tuple[str, ...] = ()


def _complement_arc(arc: Arc) -> Arc:
    lo, hi = arc
    length = PI - (hi - lo)
    start = normalize_angle(hi)
    return (start, start + length)


def _interval_avoiding(avoid, meet) -> tuple[Arc, float] | None:
    """Largest-margin open interval around points of `meet` inside a gap of
    `avoid`; ties go to the smallest starting angle.

    Each side extends a third of the way toward the nearest avoided point,
    so two intervals built from complementary clouds keep at least a third
    of their common buffer between their closures.
    """
    av = np.unique(np.asarray(avoid, dtype=float))
    me = np.asarray(meet, dtype=float)
    if av.size == 0 or me.size == 0:
        return None
    n = av.size
    # gap i runs ccw from av[i] to the next avoided point (wrapping at i=n-1)
    gap = (np.searchsorted(av, me) - 1) % n
    off = np.mod(me - av[gap], PI)
    spans = np.empty(n)
    spans[: n - 1] = av[1:] - av[:-1]
    wrap = float(np.mod(av[0] - av[-1], PI))
    spans[n - 1] = wrap if wrap > 0.0 else PI
    ok = (off > 1e-12) & (off < spans[gap] - 1e-12)
    if not np.any(ok):
        return None
    lo_off = np.full(n, np.inf)
    hi_off = np.full(n, -np.inf)
    np.minimum.at(lo_off, gap[ok], off[ok])
    np.maximum.at(hi_off, gap[ok], off[ok])
    best: tuple[float, float, Arc] | None = None
    for i in np.flatnonzero(np.isfinite(hi_off)):
        pad_lo = lo_off[i] / 3.0
        pad_hi = (spans[i] - hi_off[i]) / 3.0
        margin = min(pad_lo, pad_hi)
        lo = normalize_angle(av[i] + lo_off[i] - pad_lo)
        arc = (lo, lo + (hi_off[i] - lo_off[i]) + pad_lo + pad_hi)
        key = (margin, -lo)
        if best is None or key > best[:2]:
            best = (margin, -lo, arc)
    if best is None:
        return None
    return best[2], float(best[0])


def pivot_margins(pivot: Pivot) -> tuple[float, float, float]:
    """(U' inside U, distance between U and V, image of the complement of V
    inside U'); a sound pivot has all three positive."""
    m_nest = containment_margin([pivot.U], [pivot.U_prime])
    gap = multicone_gap(Multicone([pivot.U]), Multicone([pivot.V]))
    image = _map_arc(pivot.a0[1], _complement_arc(pivot.V))
    m_map = containment_margin([pivot.U_prime], [image])
    return m_nest, gap, m_map


def find_pivot(cfg: SystemConfig, depth: int = 4) -> Pivot:
    """Search for a pivot word among products of length <= depth.

    Candidate words are tried strongest first (operator norm descending,
    then enumeration order), each with powers up to _PIVOT_POWERS, and the
    first one whose attracting point lies in U, repelling point in V, and
    whose image of the complement of V lands inside U with clearance wins.
    U and V are read off point-cloud gaps; the returned containments are
    endpoint verified and do not depend on cloud accuracy.
    """
    if common_fixed_points(cfg):
        raise ValueError(
            "pivot construction needs an irreducible system; "
            "the letters share a fixed direction"
        )
    cloud_depth = cfg.table.depth_within(4096, 12)
    att = attractor_points_fixedpoint(cfg, cloud_depth)
    rep = repeller_points_fixedpoint(cfg, cloud_depth)
    if len(att) == 0 or len(rep) == 0:
        raise PivotNotFoundError(
            "point clouds are empty at the sampling depth; nothing to anchor "
            "U and V on"
        )
    picked_u = _interval_avoiding(rep.points, att.points)
    picked_v = _interval_avoiding(att.points, rep.points)
    if picked_u is None or picked_v is None:
        raise PivotNotFoundError(
            "no sampled gap separates attractor from repeller; the clouds "
            "interleave at this depth (inconclusive)"
        )
    U, _ = picked_u
    V, _ = picked_v
    if multicone_gap(Multicone([U]), Multicone([V])) <= 0.0:
        raise PivotNotFoundError(
            "candidate intervals U and V overlap; the clouds interleave at "
            "this depth (inconclusive)"
        )
    table = cfg.table
    comp_v = _complement_arc(V)
    cone_u = Multicone([U])
    cone_v = Multicone([V])
    candidates = []
    for n in range(1, depth + 1):
        norms = table.norms(n)
        for idx, nv in enumerate(norms):
            candidates.append((-float(nv), n, idx))
    candidates.sort()
    for _, n, idx in candidates:
        base = Matrix2(*table.level(n)[idx].ravel())
        word = table.word(n, idx)
        m = IDENTITY2
        for j in range(1, _PIVOT_POWERS + 1):
            m = m @ base
            fp = fixed_points(m)
            if fp.kind is not MatrixClass.HYPERBOLIC:
                continue
            if not cone_u.contains_point(fp.attracting):
                continue
            if not cone_v.contains_point(fp.repelling):
                continue
            image = _map_arc(m, comp_v)
            clearance = containment_margin([U], [image])
            if clearance <= 0.0:
                continue
            u_prime = (image[0] - clearance / 2.0, image[1] + clearance / 2.0)
            pivot = Pivot(
                a0=(word * j, m),
                U=U,
                U_prime=(normalize_angle(u_prime[0]),
                         normalize_angle(u_prime[0])
                         + (u_prime[1] - u_prime[0])),
                V=V,
                notes=(
                    f"word of length {n} raised to power {j}; image "
                    f"clearance {clearance:.3g}",
                ),
            )
            if min(pivot_margins(pivot)) > 0.0:
                return pivot
    raise PivotNotFoundError(
        f"no word of length <= {depth} (powers <= {_PIVOT_POWERS}) maps the "
        "complement of V into U with clearance; either the system is not "
        "semidiscrete-irreducible or the search depth is too small"
    )


# ---------------------------------------------------------------------------
# Gamma alphabets and certified lower bounds.

@dataclass(frozen=True)
class GammaLowerBound:
    """Certified lower bound min{1, delta} for dim_H from a pivot alphabet."""

    n: int
    value: float
    delta_bracket: Bracket | None
    matrices: tuple[Matrix2, ...]
    dropped_words: int
    c_const: float | None
    certified: bool
    notes: tuple[str, ...] = ()


def gamma_lower_bound(
    cfg: SystemConfig,
    pivot: Pivot | None,
    n: int,
    depth: int | None = None,
) -> GammaLowerBound:
    """Lower bound for dim_H K via the alphabet {A0 B : |B| = n}.

    Each candidate letter is kept only if it verifiably maps the closure of
    U into U'; dropping failures shrinks the subsystem and keeps the bound
    sound.  The kept alphabet has U as a compactly invariant cone, hence is
    uniformly hyperbolic, and min{1, delta} for it bounds the dimension of
    the full attractor from below.

    depth picks the deepest product level used for the inner exponent
    bracket (defaulting to a fixed word budget); either way it is clamped
    so product norms stay below the float determinant ceiling, which the
    notes record.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if pivot is None:
        return GammaLowerBound(
            n=n, value=0.0, delta_bracket=None, matrices=(),
            dropped_words=0, c_const=None, certified=True,
            notes=("no pivot supplied; the trivial bound 0 holds",),
        )
    a0 = pivot.a0[1]
    U, Up = pivot.U, pivot.U_prime
    letters: list[Matrix2] = []
    seen: set[tuple[float, ...]] = set()
    dropped = 0
    cone_margin = math.inf
    for w in itertools.product(range(cfg.k), repeat=n):
        c = a0 @ word_product(cfg, w)
        image = _map_arc(c, U)
        if containment_margin([Up], [image]) <= 0.0:
            dropped += 1
            continue
        key = tuple(round(e, 10) for e in c.entries)
        if key in seen:
            continue
        seen.add(key)
        cone_margin = min(cone_margin, containment_margin([U], [image]))
        letters.append(c)
    if not letters:
        raise CertificationError(
            f"no word of length {n} passed the pivot containment check"
        )
    gamma_cfg = SystemConfig(matrices=tuple(letters), norm=OP2, seed=cfg.seed)
    top = float(gamma_cfg.table.norms(1).max())
    norm_cap = max(
        1, int(math.log(_SAFE_PRODUCT_NORM) / math.log(max(top, 2.0)))
    )
    if depth is None:
        depth = gamma_cfg.table.depth_within(_GAMMA_BUDGET, 12)
    clamped = depth > norm_cap
    depth = min(depth, norm_cap)
    # every kept letter maps U into U' inside U, checked letter by letter
    am = almost_mult_constant(gamma_cfg, Multicone([U]), cone_margin,
                              max_check_depth=min(depth, 6))
    c_const = am.c if am.valid else None
    bracket = critical_exponent_bracket(gamma_cfg, depth=depth, c_const=c_const)
    value = min(1.0, max(0.0, bracket.lo))
    notes = [
        f"alphabet of {len(letters)} words at block length {n}, "
        f"{dropped} dropped by the containment check",
        "the lower endpoint rests on an unconditional supermultiplicative "
        "certificate",
    ]
    if clamped:
        notes.append(
            f"depth clamped to {depth} to keep product determinants "
            "representable at letter norms near "
            f"{top:.3g}"
        )
    if not am.valid:
        notes.append(
            "no almost-multiplicativity constant at this depth; the inner "
            "bracket has no certified upper endpoint"
        )
    return GammaLowerBound(
        n=n,
        value=value,
        delta_bracket=bracket,
        matrices=tuple(letters),
        dropped_words=dropped,
        c_const=c_const,
        certified=True,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Elliptic reduction.

def projective_order(m: Matrix2) -> int:
    """Order of the projective action of an elliptic or +/-identity matrix;
    raises when the rotation angle is not a rational multiple of pi with
    denominator <= 64."""
    kind = classify(m)
    if kind is MatrixClass.IDENTITY:
        return 1
    if kind is not MatrixClass.ELLIPTIC:
        raise ValueError(f"matrix is {kind.value}, not elliptic")
    half_trace = min(1.0, max(-1.0, m.trace / 2.0))
    angle = math.acos(half_trace)
    frac = Fraction(angle / PI).limit_denominator(_MAX_ELLIPTIC_ORDER)
    if abs(angle / PI - float(frac)) > _ORDER_TOL:
        raise InfiniteOrderEllipticError(
            f"rotation angle {angle:.9f} is not within {_ORDER_TOL:g} of a "
            f"rational multiple of pi with denominator <= {_MAX_ELLIPTIC_ORDER}"
        )
    return frac.denominator


def elliptic_reduction(s_matrices, e_matrices) -> tuple[Matrix2, ...]:
    """Replace a hyperbolic part S and finite-order elliptic part E by the
    product alphabet {A B^m : A in S, 0 <= m < p} with p the joint order;
    the two systems share their attractor's dimension."""
    s_matrices = tuple(s_matrices)
    e_matrices = tuple(e_matrices)
    orders = [projective_order(m) for m in e_matrices]
    p = math.lcm(*orders) if orders else 1
    if p == 1:
        return s_matrices
    b = None
    for length in range(1, 7):
        for w in itertools.product(range(len(e_matrices)), repeat=length):
            prod = IDENTITY2
            for i in w:
                prod = prod @ e_matrices[i]
            try:
                if projective_order(prod) == p:
                    b = prod
                    break
            except (ValueError, InfiniteOrderEllipticError):
                continue
        if b is not None:
            break
    if b is None:
        raise InfiniteOrderEllipticError(
            f"no product of the elliptic letters realizes the joint order {p}"
        )
    powers = [IDENTITY2]
    for _ in range(1, p):
        powers.append(powers[-1] @ b)
    return tuple(a @ bp for a in s_matrices for bp in powers)
