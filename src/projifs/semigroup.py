"""Words, products, and separation diagnostics for matrix semigroups.

A system is a finite alphabet of unit-determinant matrices; a word w = w_1...w_n
indexes the product A_w = A_{w_1} ... A_{w_n}.  Products are built level by
level as (k^n, 2, 2) arrays in lexicographic word order and renormalized to
determinant one at every level, with norms cached per depth.  Each system
owns one such table, `cfg.table`, and every analysis reads its products
from it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .geometry import (
    IDENTITY2,
    NORM_KINDS,
    OP2,
    Matrix2,
    MatrixClass,
    circ_dist,
    fixed_points,
    left_multiply_array,
    op_norms_array,
    proj_act,
    renormalize_array,
)

Word = tuple[int, ...]

#: Pairs closer than this are treated as the same matrix (exact collisions).
COLLISION_TOL = 1e-10

#: Angles within this of each other count as one common fixed direction.
_COMMON_FIXED_TOL = 1e-9

#: Per-level cap on enumerated words, a memory guard; the command line
#: bounds the requested depth by the config's depth_cap.
_HARD_LEVEL_WORDS = 6_000_000

#: depth_cap of a config that sets none.
DEFAULT_DEPTH_CAP = 22

#: Largest level the exact pairwise scan takes on a caller's behalf:
#: diophantine_profile scans larger levels by a sorted window (_window_scan),
#: and certify_semidiscrete and identity_approach read no level larger than
#: this.  A direct call of _pairwise_min or discreteness_profile on a larger
#: level is still exact, at a cost quadratic in its rows.
_EXACT_PAIR_LIMIT = 4096

_WINDOW = 64

#: Fixed generic unit vector in R^4 on which the pairwise scan projects rows
#: to pick each row's seed pair.
_SWEEP_DIRECTION = np.array([0.5377, 0.4412, -0.2118, 0.6893])
_SWEEP_DIRECTION /= np.linalg.norm(_SWEEP_DIRECTION)

#: Pairs the pairwise scan builds and evaluates at once.
_SWEEP_CHUNK = 1 << 15

#: Pairwise minimum below which distinct products count as accumulating.
_ACCUMULATION_TOL = 1e-3

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SystemConfig:
    """A finite matrix system plus the knobs shared by most entry points.

    `probs` is None for the uniform choice; `source_rows` keeps the literal
    config-file tokens for exact round-trips and never takes part in equality.
    `depth_cap` is the deepest level the command line may be asked for.
    """

    matrices: tuple[Matrix2, ...]
    probs: tuple[float, ...] | None = None
    norm: str = OP2
    depth_cap: int = DEFAULT_DEPTH_CAP
    seed: int = 0
    source_rows: tuple[tuple[str, str, str, str], ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("system needs at least one matrix")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm!r}")
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be positive")
        if self.probs is not None:
            if len(self.probs) != len(self.matrices):
                raise ValueError("probs length must match alphabet size")
            if any(p <= 0.0 for p in self.probs):
                raise ValueError("probs must be positive")
            s = sum(self.probs)
            if abs(s - 1.0) > 1e-9:
                object.__setattr__(
                    self, "probs", tuple(p / s for p in self.probs)
                )

    @property
    def k(self) -> int:
        return len(self.matrices)

    def weights(self) -> tuple[float, ...]:
        if self.probs is not None:
            return self.probs
        return tuple(1.0 / self.k for _ in self.matrices)

    @cached_property
    def table(self) -> ProductTable:
        """The system's product table, built on first use and shared by every
        analysis of this config.  A copy made with dataclasses.replace is a
        new system and gets a table of its own."""
        return ProductTable(self)

    @cached_property
    def memo(self) -> dict:
        """Results of costlier per-system searches, keyed by the search;
        like the table, freed together with the config."""
        return {}

    def inverse(self) -> SystemConfig:
        """The system of inverted letters, whose attractor is the repeller."""
        return dataclasses.replace(
            self,
            matrices=tuple(m.inverse() for m in self.matrices),
            source_rows=None,
        )


def word_product(cfg: SystemConfig, word: Sequence[int]) -> Matrix2:
    """The matrix A_w for one word."""
    out = IDENTITY2
    for letter in word:
        out = out @ cfg.matrices[letter]
    return out


class ProductTable:
    """All level-n products of a system, built lazily and cached.

    level(n) is a (k^n, 2, 2) array in lexicographic word order (word(n, i)
    is the word of row i), renormalized to determinant one.  norms(n) caches
    the matching norm vector.  A level is built letter by letter: each letter
    left-multiplies the whole previous level into its own slice, one GEMM
    per row block (`left_multiply_array`), and the letter-major result is
    exactly lexicographic order.  Levels of more than _HARD_LEVEL_WORDS
    words raise BudgetExceededError.

    The table keeps no reference to its config, so a config and its table
    are freed together as soon as the config is dropped.
    """

    def __init__(self, cfg: SystemConfig):
        self.k = cfg.k
        self.norm = cfg.norm
        self._base = np.stack([m.array for m in cfg.matrices])
        self._levels: dict[int, np.ndarray] = {}
        self._norms: dict[int, np.ndarray] = {}
        self._words_built = 0

    def level(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("levels start at 1")
        if n in self._levels:
            return self._levels[n]
        if self.k ** n > _HARD_LEVEL_WORDS:
            raise BudgetExceededError(
                f"level {n} needs {self.k ** n} words",
                words_done=self._words_built,
                depth_reached=max(self._levels, default=0),
            )
        if n == 1:
            lev = renormalize_array(self._base.copy())
        else:
            prev = self.level(n - 1)
            lev = np.empty((self.k * len(prev), 2, 2))
            for m, out in zip(self._base, np.split(lev, self.k)):
                left_multiply_array(m, prev, out)
        # every analysis of the system shares this array
        lev.flags.writeable = False
        self._levels[n] = lev
        self._words_built += len(lev)
        return lev

    def norms(self, n: int) -> np.ndarray:
        if n not in self._norms:
            norms = op_norms_array(self.level(n), self.norm)
            norms.flags.writeable = False
            self._norms[n] = norms
        return self._norms[n]

    def word(self, n: int, idx: int) -> Word:
        """The word of row idx of level n: its base-k digits, most
        significant first."""
        digits = []
        for _ in range(n):
            digits.append(idx % self.k)
            idx //= self.k
        return tuple(reversed(digits))

    def min_norm(self, n: int) -> float:
        return float(self.norms(n).min())

    def depth_within(self, words: int, cap: int) -> int:
        """The deepest level n <= cap whose k^n words fit the budget
        `words`, and at least 1: the one rule that turns a word budget into
        a level depth."""
        n = 1
        while n < cap and self.k ** (n + 1) <= words:
            n += 1
        return n


# ---------------------------------------------------------------------------
# Left-invariant metric on SL(2).

def _displacement_norm(c: Matrix2) -> float:
    """Frobenius norm of log(c) for c in SL(2), via the scalar functional
    calculus on the traceless part.  Matrices with trace <= 0 have no real
    principal log; they get the crude proxy ||c - id||_F, which is only ever
    large and never misreports a small distance."""
    t = 0.5 * c.trace
    na, nb, nc, nd = c.a - t, c.b, c.c, c.d - t
    if t <= 0.0:
        da, dd = c.a - 1.0, c.d - 1.0
        return math.sqrt(da * da + nb * nb + nc * nc + dd * dd)
    if abs(t - 1.0) < 1e-8:
        coef = 1.0
    elif t > 1.0:
        m = math.acosh(t)
        coef = m / math.sinh(m)
    else:
        th = math.acos(t)
        coef = th / math.sin(th)
    return coef * math.sqrt(na * na + nb * nb + nc * nc + nd * nd)


def left_invariant_dist(a: Matrix2, b: Matrix2) -> float:
    """d(a, b) = ||log(a^{-1} b)||_F; invariant under left multiplication."""
    return _displacement_norm(a.inverse() @ b)


def _displacement_norms_array(c: np.ndarray) -> np.ndarray:
    """Vector version of the log-norm: c has shape (n, 2, 2), det one."""
    t = 0.5 * (c[:, 0, 0] + c[:, 1, 1])
    na = c[:, 0, 0] - t
    nd = c[:, 1, 1] - t
    nb = c[:, 0, 1]
    nc = c[:, 1, 0]
    frob_n = np.sqrt(na * na + nb * nb + nc * nc + nd * nd)

    coef = np.ones_like(t)
    hyp = t > 1.0 + 1e-8
    ell = (t > 0.0) & (t < 1.0 - 1e-8)
    m = np.arccosh(np.where(hyp, t, 2.0))
    coef = np.where(hyp, m / np.sinh(m), coef)
    th = np.arccos(np.clip(np.where(ell, t, 0.5), -1.0, 1.0))
    coef = np.where(ell, th / np.sin(th), coef)
    out = coef * frob_n

    bad = t <= 0.0
    if np.any(bad):
        da = c[bad, 0, 0] - 1.0
        dd = c[bad, 1, 1] - 1.0
        ob = c[bad, 0, 1]
        oc = c[bad, 1, 0]
        out[bad] = np.sqrt(da * da + ob * ob + oc * oc + dd * dd)
    return out


def _adjugates(arr: np.ndarray) -> np.ndarray:
    """Inverses of a det-one stack, entrywise."""
    out = np.empty_like(arr)
    out[:, 0, 0] = arr[:, 1, 1]
    out[:, 0, 1] = -arr[:, 0, 1]
    out[:, 1, 0] = -arr[:, 1, 0]
    out[:, 1, 1] = arr[:, 0, 0]
    return out


def _dists_to_identity(arr: np.ndarray) -> np.ndarray:
    """min(d(P, id), d(P, -id)) for every P in the stack."""
    plus = _displacement_norms_array(arr)
    minus = _displacement_norms_array(-arr)
    return np.minimum(plus, minus)


def identity_approach(cfg: SystemConfig, depth: int) -> float:
    """Closest approach to +-identity of the products of levels 1..n, n the
    deepest level up to depth of at most _EXACT_PAIR_LIMIT words: the levels
    that certify_semidiscrete profiles."""
    n = cfg.table.depth_within(_EXACT_PAIR_LIMIT, depth)
    return min(float(_dists_to_identity(cfg.table.level(m)).min())
               for m in range(1, n + 1))


def _pairwise_min(
    stack: np.ndarray, head: int | None = None
) -> tuple[float, int]:
    """Minimum left-invariant distance between distinct matrices, and the
    number of exact collisions (distance < COLLISION_TOL) excluded from it.

    The pairs are i < j with i < head (every pair when head is None), each
    the log-norm of adj(A_i) @ A_j.  So a level followed by a pool of other
    products, with head the level's length, gives the pairs within the level
    and those from the level to the pool.  The scan is exact at any size and
    its cost is quadratic in the rows; callers bound the size
    (_EXACT_PAIR_LIMIT).

    The result is the one every pair gives, but only pairs that can change
    it are evaluated.  A pair matters only if its distance is below tau =
    max(best so far, COLLISION_TOL); tau starts at the best of the seed
    pairs, the neighbours in projection order (_SWEEP_DIRECTION).  The
    half-trace t_f of every other pair comes from one (rows x 4) @ (4 x n)
    product, and only pairs with t_f in [lo, hi] = _half_trace_window(tau,
    F^2, eta) are evaluated, so no pair is evaluated twice.  Blocks and
    batches hold _SWEEP_CHUNK pairs (or one row's, if more).

    No skipped pair is closer than tau.  Let C = adj(A) B exactly, with
    half-trace t_C and traceless part N_C, and C' = C + E the computed
    product, with half-trace t, traceless part N and computed log-norm d.
    With F = max ||A||_F over the stack, eta = max |det A - 1| + 2 eps F^2
    (_norm_and_drift), drift = 2 eta + eta^2 >= |det C - 1| and
    e = 1.01 eps F^2 >= ||E||_F (two-term dot products):
    - ||N_C||^2 >= 2 |t_C^2 - det C|, as for any 2x2 matrix, and
      ||N|| >= ||N_C|| - e;
    - |t - t_C| <= 0.71 e, and the four-term dot product of the filter
      gives |t_f - t_C| <= e;
    - for t > 0, d >= (1 - 5e-9) g(t) ||N||, where g(t) = arccosh t /
      sqrt(t^2 - 1) (arccos t / sqrt(1 - t^2) below 1) is the coefficient
      of the log-norm.  5e-9 covers coef = 1 on the band |t - 1| <= 1e-8,
      where g <= 1 + 3.7e-9, and a few roundings; the rounding of t moves
      both diagonal entries of N alike, orthogonally to N.  For t <= 0,
      d >= (1 - 5e-9) ||C' - I||_F >= (1 - 5e-9) sqrt 2 (1 - t) > 1.41;
    - g decreases, t g(t) increases (m coth m, theta cot theta), g(1) = 1.
    The window takes r = (1.001 tau + 4 e) / sqrt 2, M = sqrt(r^2 +
    2.5 drift), hi = cosh M + e and lo = cos M - e, or lo = min(1 - r, 0)
    - 2 e when M >= 1.4 or r >= 1.
    - t_f > hi: m = arccosh t_C >= M, so s = sqrt(m^2 - drift) >= r;
      g(t_C) sqrt(2 (t_C^2 - 1 - drift)) >= sqrt 2 s,
      g(t) >= g(t_C) / (1 + 0.71 e) and g(t_C) e <= m coth m e <=
      (1 + s + sqrt drift) e, hence d >= (1 - 5e-9) / (1 + 0.71 e)
      (sqrt 2 s - (1 + s + sqrt drift) e) > tau.
    - t_f < lo = cos M - e: t_C < cos M (> 0.169).  If t <= 0, d > 1.414
      > tau (as r < 1).  Otherwise t_C^2 < cos^2 M, t < cos M + 0.71 e, so
      g(t) >= g(cos M) (1 - 4.2 e), and M / sin M <= 1.42 gives
      g(cos M) sqrt(2 (sin^2 M - drift)) >= sqrt 2 r, hence
      d >= (1 - 5e-9) (1 - 4.2 e) (sqrt 2 r - 1.42 e) > tau.
    - t_f < lo = min(1 - r, 0) - 2 e: t < lo + 1.71 e <= 0 and 1 - t > r,
      so d >= (1 - 5e-9) sqrt 2 (r + 0.29 e) > tau.
    The last steps need e < 1e-4 and drift < 0.25; otherwise (norms near
    1e5, or a stack far from determinant one) every pair is evaluated.
    """
    n = len(stack)
    head = n - 1 if head is None else min(head, n - 1)
    if head <= 0:
        return math.inf, 0
    rows = stack.reshape(-1, 4)
    f2, eta = _norm_and_drift(stack)
    adj = _adjugates(stack[:head])
    w = _half_trace_weights(stack)

    # seed pairs: neighbours in projection order, as (first, then) with
    # first < then, kept when first < head and sorted by first
    order = np.argsort(rows @ _SWEEP_DIRECTION)
    first, then = np.sort([order[:-1], order[1:]], axis=0)
    seeded = first < head
    first, then = first[seeded], then[seeded]
    by_row = np.argsort(first, kind="stable")
    first, then = first[by_row], then[by_row]
    best, hits = _evaluate(adj, first, stack, then)

    lo = 0
    while lo < head:
        start = lo + 1
        hi = min(head, lo + max(1, _SWEEP_CHUNK // (n - start)))
        t = rows[lo:hi] @ w[start:].T
        t_lo, t_hi = _half_trace_window(max(best, COLLISION_TOL), f2, eta)
        keep = ~((t < t_lo) | (t > t_hi))
        # pairs inside the block need j > i; later columns all follow it
        inside = np.arange(start, hi) > np.arange(lo, hi)[:, None]
        keep[:, :hi - start] &= inside
        block = slice(*np.searchsorted(first, [lo, hi]))
        keep[first[block] - lo, then[block] - start] = False
        i, j = np.nonzero(keep)
        d, h = _evaluate(adj, i + lo, stack, j + start)
        best = min(best, d)
        hits += h
        lo = hi
    return best, hits


def _half_trace_window(tau: float, f2: float, eta: float) -> tuple[float, float]:
    """Half-traces [lo, hi] outside which no pair is closer than tau, for
    F^2 and eta of _norm_and_drift, as derived in _pairwise_min."""
    e = 1.01 * _EPS * f2
    drift = 2.0 * eta + eta * eta
    if e >= 1e-4 or drift >= 0.25:
        return -math.inf, math.inf
    r = (1.001 * tau + 4.0 * e) / math.sqrt(2.0)
    m = math.sqrt(r * r + 2.5 * drift)
    hi = math.cosh(m) + e if m < 700.0 else math.inf
    if m < 1.4 and r < 1.0:
        lo = math.cos(m) - e
    else:
        lo = min(1.0 - r, 0.0) - 2.0 * e
    return lo, hi


def _evaluate(
    adj: np.ndarray, left: np.ndarray, right: np.ndarray, right_idx: np.ndarray
) -> tuple[float, int]:
    """Log-norms of adj[left[p]] @ right[right_idx[p]], _SWEEP_CHUNK pairs at
    a time: the smallest one not below COLLISION_TOL, and how many are."""
    best = math.inf
    hits = 0
    step = _SWEEP_CHUNK
    for lo in range(0, len(left), step):
        c = np.matmul(adj[left[lo: lo + step]], right[right_idx[lo: lo + step]])
        dists = _displacement_norms_array(c)
        hit = dists < COLLISION_TOL
        hits += int(hit.sum())
        live = dists[~hit]
        if live.size:
            best = min(best, float(live.min()))
    return best, hits


def _norm_and_drift(stack: np.ndarray) -> tuple[float, float]:
    """F^2 = max ||A||_F^2 over the stack, and eta = max |det A - 1| +
    2 eps F^2, which bounds the true drift through the rounding of the
    determinants."""
    flat = stack.reshape(-1, 4)
    # an overflowing stack gets F^2 = inf, which makes every pair a candidate
    with np.errstate(over="ignore"):
        f2 = float((flat * flat).sum(axis=1).max())
        det = flat[:, 0] * flat[:, 3] - flat[:, 1] * flat[:, 2]
    eta = float(np.abs(det - 1.0).max()) + 2.0 * _EPS * f2
    return f2, eta


def _half_trace_weights(stack: np.ndarray) -> np.ndarray:
    """Rows w_B with half-trace(adj(A) @ B) = (a, b, c, d)_A . w_B, that is
    w_B = (d, -c, -b, a)_B / 2."""
    return stack.reshape(-1, 4)[:, ::-1] * np.array([0.5, -0.5, -0.5, 0.5])


def _window_scan(level: np.ndarray) -> tuple[float, int]:
    """Pairs of one level at offsets 1.._WINDOW in lexicographic order, one
    offset at a time: an upper bound on the minimum distance and a lower
    bound on the collisions, since a run of more than _WINDOW equal rows has
    pairs farther apart than the window."""
    order = np.lexsort(
        (level[:, 1, 1], level[:, 1, 0], level[:, 0, 1], level[:, 0, 0])
    )
    s = level[order]
    adj = _adjugates(s)
    n = len(s)
    best = math.inf
    hits = 0
    for offset in range(1, min(_WINDOW, n - 1) + 1):
        i = np.arange(n - offset)
        d, h = _evaluate(adj, i, s, i + offset)
        best = min(best, d)
        hits += h
    return best, hits


def first_collision_depth(cfg: SystemConfig, depth: int) -> int | None:
    """First n in 2..min(depth, 11) at which distinct length-n words repeat a
    matrix (an exact collision of _pairwise_min), among levels of at most
    2,048 words; None if none does.  A repeat means the system is not free."""
    for n in range(2, cfg.table.depth_within(2048, min(depth, 11)) + 1):
        if _pairwise_min(cfg.table.level(n))[1]:
            return n
    return None


# ---------------------------------------------------------------------------
# Separation profiles.

@dataclass(frozen=True)
class SeparationRow:
    depth: int
    word_count: int
    min_dist: float
    collisions: int


@dataclass(frozen=True)
class DiophantineProfile:
    """Same-length separation of products, depth by depth.

    `fitted_c` is the exponential decay rate of the per-depth minima (the
    base c in min_n ~ C c^n), clamped into (0, 1]; None when fewer than two
    finite rows exist past depth 2.  `total_collisions` counts exact
    coincidences of distinct words, the signature of a non-free system.
    From depth `windowed_from` on, levels have more than _EXACT_PAIR_LIMIT
    words and are scanned by a sorted window: there `min_dist` is an upper
    bound and `collisions` a lower bound, because the window misses pairs
    within large groups of equal products.
    """

    rows: tuple[SeparationRow, ...]
    fitted_c: float | None
    total_collisions: int

    @property
    def free_so_far(self) -> bool:
        return self.total_collisions == 0

    @property
    def windowed_from(self) -> int | None:
        """First depth whose level the windowed scan bounds, or None."""
        return next((r.depth for r in self.rows
                     if r.word_count > _EXACT_PAIR_LIMIT), None)


def diophantine_profile(cfg: SystemConfig, depth: int) -> DiophantineProfile:
    """Per depth n, the closest pair of distinct length-n products and the
    exact collisions among them.  Levels of up to _EXACT_PAIR_LIMIT words
    get exact values; beyond that min_dist is an upper bound and collisions
    a lower bound (see DiophantineProfile.windowed_from)."""
    rows = []
    for n in range(1, depth + 1):
        lev = cfg.table.level(n)
        scan = _window_scan if len(lev) > _EXACT_PAIR_LIMIT else _pairwise_min
        d, coll = scan(lev)
        rows.append(SeparationRow(n, len(lev), d, coll))
    pts = [(r.depth, math.log(r.min_dist)) for r in rows
           if r.depth >= 3 and math.isfinite(r.min_dist) and r.min_dist > 0]
    fitted = None
    if len(pts) >= 2:
        xs = np.array([p for p, _ in pts])
        ys = np.array([q for _, q in pts])
        slope = np.polyfit(xs, ys, 1)[0]
        fitted = min(math.exp(slope), 1.0)
    return DiophantineProfile(
        rows=tuple(rows),
        fitted_c=fitted,
        total_collisions=sum(r.collisions for r in rows),
    )


@dataclass(frozen=True)
class DiscretenessProfile:
    """Evidence about semidiscreteness from finite enumeration.

    Row n holds the closest pair among all distinct products of lengths
    1..n (exact collisions excluded), so min_dist never grows with depth,
    and the exact collisions of level n within itself and against the
    shorter levels.  Approach of the pairwise minimum to zero is the
    accumulation signature of a non-semidiscrete system.  Every value is
    exact, at any depth: the scan of a level against itself and the shorter
    products costs time quadratic in their number, so certify_semidiscrete
    stops at the last level of at most _EXACT_PAIR_LIMIT words.
    """

    rows: tuple[SeparationRow, ...]
    total_collisions: int

    @property
    def final_min_pairwise(self) -> float:
        return self.rows[-1].min_dist if self.rows else math.inf

    @property
    def accumulates(self) -> bool:
        """Distinct products come within _ACCUMULATION_TOL of each other,
        and within a quarter of the depth-2 minimum (depth 1 for a one-row
        profile) when that is finite."""
        final = self.final_min_pairwise
        if not final < _ACCUMULATION_TOL:
            return False
        first = self.rows[min(1, len(self.rows) - 1)].min_dist
        return not math.isfinite(first) or final < 0.25 * first


def discreteness_profile(cfg: SystemConfig, depth: int) -> DiscretenessProfile:
    """The profile of depths 1..depth, exact at every depth: row n scans
    level n within itself and against levels 1..n-1 in one _pairwise_min
    call, with no window, at a cost quadratic in the words up to depth n.
    Row n reads only levels 1..n, so a shallower profile is the first rows
    of a deeper one."""
    rows = []
    pool = np.empty((0, 2, 2))
    running = math.inf
    collisions = 0
    for n in range(1, depth + 1):
        lev = cfg.table.level(n)
        d, coll = _pairwise_min(np.concatenate([lev, pool]), head=len(lev))
        collisions += coll
        running = min(running, d)
        rows.append(SeparationRow(n, len(lev), running, coll))
        pool = np.concatenate([pool, lev])
    return DiscretenessProfile(rows=tuple(rows), total_collisions=collisions)


# ---------------------------------------------------------------------------
# Common fixed points.

def common_fixed_points(cfg: SystemConfig) -> tuple[float, ...]:
    """Angles fixed by every letter of the system, ascending; empty when none
    exist (an elliptic letter forces that).  Identity letters fix everything
    and constrain nothing."""
    candidates: list[float] = []
    for m in cfg.matrices:
        fp = fixed_points(m)
        if fp.kind is MatrixClass.ELLIPTIC:
            return ()
        if fp.kind is MatrixClass.IDENTITY:
            continue
        if fp.kind is MatrixClass.PARABOLIC:
            candidates.append(fp.parabolic)
        else:
            candidates.extend((fp.attracting, fp.repelling))
    if not candidates:
        return ()
    out: list[float] = []
    for t in sorted(candidates):
        if out and circ_dist(out[-1], t) <= _COMMON_FIXED_TOL:
            continue
        if all(
            circ_dist(proj_act(m, t), t) <= _COMMON_FIXED_TOL
            for m in cfg.matrices
        ):
            out.append(t)
    # endpoints of (0, pi] can alias across the wrap
    if len(out) > 1 and circ_dist(out[0], out[-1]) <= _COMMON_FIXED_TOL:
        out.pop()
    return tuple(out)
