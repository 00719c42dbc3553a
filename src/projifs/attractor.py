"""Attractor and repeller point clouds, box-counting dimension, and the
set-level diagnostics built on them.

Two routes produce a cloud.  The fixed-point route collects attracting and
neutral fixed directions of every product up to a depth; it is deterministic
and exhausts the cylinder structure.  The orbit route multiplies long random
products until each collapses the circle and records the direction it
collapses onto; it scales to systems whose product tables would be enormous
and doubles as the stationary-measure sampler.

Angles live in (0, pi] throughout, and every cloud is kept sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .geometry import (
    PI,
    attracting_directions_array,
    normalize_angles_array,
    proj_act_array,
    row_blocks,
)
from .semigroup import SystemConfig

#: Fixed directions closer than this merge into one point of a cloud.
_MERGE_TOL = 1e-12

#: Fewest box sizes a dimension fit may rest on.
_MIN_SCALES = 4

#: Clouds closer than this count as overlapping.
_OVERLAP_TOL = 1e-3


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray
    method: str
    depth: int | None = None
    samples: int | None = None
    dropped: int = 0

    def __len__(self) -> int:
        return int(self.points.size)


def _sorted_dedupe(pts: np.ndarray) -> np.ndarray:
    """The distinct points of `pts`, merged at _MERGE_TOL across the wrap
    at pi.  Sorts `pts` in place and builds the merge mask one `row_blocks`
    block at a time, so the only full-size temporaries are that mask and
    the result; the result does not depend on the block size."""
    if pts.size == 0:
        return np.empty(0)
    pts.sort()
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    for rows in row_blocks(pts.size - 1):
        lo, hi = rows.start, rows.stop
        keep[lo + 1:hi + 1] = pts[lo + 1:hi + 1] - pts[lo:hi] > _MERGE_TOL
    s = pts[keep]
    if s.size > 1 and (s[0] + PI) - s[-1] <= _MERGE_TOL:
        s = s[:-1]
    return s


def attractor_points_fixedpoint(cfg: SystemConfig, depth: int) -> PointCloud:
    """Attracting and neutral fixed directions of all products of length
    1..depth, merged at _MERGE_TOL.

    The directions go into one buffer sized by the rows of levels
    1..depth, filled one `row_blocks` block of a level at a time, so the
    temporaries beside the product table are that buffer and one block;
    the cloud does not depend on the block size."""
    levels = [cfg.table.level(n) for n in range(1, depth + 1)]
    buf = np.empty(sum(map(len, levels)))
    end = 0
    for lev in levels:
        for rows in row_blocks(len(lev)):
            found = attracting_directions_array(lev[rows])
            buf[end:end + found.size] = found
            end += found.size
    return PointCloud(
        points=_sorted_dedupe(buf[:end]),
        method="fixed-point",
        depth=depth,
    )


def repeller_points_fixedpoint(cfg: SystemConfig, depth: int) -> PointCloud:
    """The repeller is the attractor of the inverted alphabet."""
    return attractor_points_fixedpoint(cfg.inverse(), depth)


# ---------------------------------------------------------------------------
# Orbit sampling.

def attractor_points_orbit(
    cfg: SystemConfig,
    samples: int,
    seed: int | None = None,
    tol: float = 1e-9,
    max_iter: int = 3000,
) -> PointCloud:
    """Limit directions of random products drawn from the system's weights.

    Every sample is one lane, and all live lanes advance together: each step
    draws one letter per live lane and multiplies it onto the right of that
    lane's product P.  The letters come from one PCG64 stream seeded with
    the master seed (seed, else cfg.seed), so the cloud is reproducible bit
    for bit from its seed.  P is kept as four entry arrays rescaled so that
    the largest entry has modulus one, and the logs of the scales taken out
    are summed; every letter has determinant one, so
    det P = exp(-2 * sum log scale) without cancellation.

    A lane stops at the first step where det P / |P|_F^2 < tol and returns
    the angle of P's larger column.  With singular values s1 >= s2 that
    ratio is s1 s2 / (s1^2 + s2^2), so s2 / s1 < tol (1 + O(tol^2)).  The
    larger column has norm at least |P|_F / sqrt(2), and at most s2 of it
    lies off the top left singular direction u1, so the returned direction
    is within sqrt(2) tol (1 + O(tol^2)) of u1.  P sends a direction x to
    within tol |tan angle(x, v1)| of u1, v1 being the top right singular
    direction, so the returned direction is within (sqrt(2) + 1) tol of the
    image of every direction at most 45 degrees from v1, and within about
    sqrt(2) tol of the image of v1 itself and of directions near it.

    Finished lanes leave the live set, so a step costs only the lanes still
    running.  Lanes still live after max_iter steps are dropped and counted;
    more than 1% of them is an error.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    cum = np.cumsum(cfg.weights())
    cum[-1] = 1.0
    letters = np.array([m.entries for m in cfg.matrices]).T
    out = np.full(samples, np.nan)
    live = np.arange(samples)
    pa, pb = np.ones(samples), np.zeros(samples)
    pc, pd = np.zeros(samples), np.ones(samples)
    log_scale = np.zeros(samples)
    for _ in range(max_iter):
        draws = np.searchsorted(cum, rng.random(live.size), side="right")
        a, b, c, d = letters[:, draws]
        pa, pb, pc, pd = (
            pa * a + pb * c, pa * b + pb * d, pc * a + pd * c, pc * b + pd * d
        )
        scale = np.maximum(
            np.maximum(np.abs(pa), np.abs(pb)), np.maximum(np.abs(pc), np.abs(pd))
        )
        pa, pb, pc, pd = pa / scale, pb / scale, pc / scale, pd / scale
        log_scale += np.log(scale)
        col1 = pa * pa + pc * pc
        col2 = pb * pb + pd * pd
        done = np.exp(-2.0 * log_scale) < tol * (col1 + col2)
        if not done.any():
            continue
        use1 = col1[done] >= col2[done]
        out[live[done]] = normalize_angles_array(np.arctan2(
            np.where(use1, pc[done], pd[done]), np.where(use1, pa[done], pb[done])
        ))
        keep = ~done
        live = live[keep]
        if live.size == 0:
            break
        pa, pb, pc, pd = pa[keep], pb[keep], pc[keep], pd[keep]
        log_scale = log_scale[keep]
    dropped = int(live.size)
    if dropped > 0.01 * samples:
        raise NonConvergenceError(
            f"{dropped} of {samples} orbits failed to converge within "
            f"{max_iter} steps at tol {tol:g}; the system may be too close "
            "to neutral, or needs a larger iteration budget"
        )
    pts = np.sort(out[~np.isnan(out)])
    return PointCloud(
        points=pts, method="orbit", samples=samples, dropped=dropped
    )


def repeller_points_orbit(
    cfg: SystemConfig,
    samples: int,
    seed: int | None = None,
    tol: float = 1e-9,
) -> PointCloud:
    return attractor_points_orbit(cfg.inverse(), samples, seed, tol)


# ---------------------------------------------------------------------------
# Box-counting dimension.

@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    stderr: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    dropped_scales: tuple[float, ...] = ()
    notes: tuple[str, ...] = ()


def _as_points(cloud) -> np.ndarray:
    """The cloud's angles as a float array; NaN and inf are rejected."""
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    bad = pts.size - int(np.count_nonzero(np.isfinite(pts)))
    if bad:
        raise ValueError(f"point cloud holds {bad} non-finite points")
    return pts


def box_dimension(cloud, eps_values=None) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log 1/eps over bins aligned
    at zero.  Scales where the count saturates the circle (>= 95% of all
    bins) or drops below 10 boxes are excluded, and so are scales too fine
    for the cloud to resolve (boxes averaging fewer than 8 points count the
    sample rather than the set), though never so many that fewer than
    _MIN_SCALES survive.

    The folded cloud is sorted once.  IEEE division by eps > 0 and floor are
    both monotone, so the box indices floor(theta / eps) of the sorted cloud
    are non-decreasing, and N(eps) is one plus the number of places where
    consecutive indices differ: exact for any set of scales, with one linear
    pass per scale."""
    pts = _as_points(cloud)
    if pts.size == 0:
        raise ValueError("empty point cloud")
    if eps_values is None:
        eps_values = [PI / 2.0 ** k for k in range(3, 15)]
    if not all(math.isfinite(e) and e > 0.0 for e in eps_values):
        raise ValueError(f"box sizes must be finite and positive: {eps_values}")
    folded = np.sort(np.mod(pts, PI))

    def occupied(e: float) -> int:
        idx = np.floor(folded / e)
        return 1 + int(np.count_nonzero(idx[1:] != idx[:-1]))

    if occupied(min(eps_values)) < 10:
        return DimensionEstimate(
            value=0.0,
            stderr=0.0,
            scales=(),
            counts=(),
            dropped_scales=tuple(sorted(eps_values, reverse=True)),
            notes=(
                "fewer than 10 occupied boxes at the finest scale; "
                "the cloud is effectively finite",
            ),
        )
    rows, dropped = [], []
    for e in sorted(eps_values, reverse=True):
        n_boxes = occupied(e)
        total = math.ceil(PI / e)
        if n_boxes >= 0.95 * total or n_boxes < 10:
            dropped.append(e)
            continue
        rows.append((e, n_boxes))
    # unresolved scales form the fine end; shed them finest-first but keep
    # enough scales for the fit
    unresolved = [e for e, n in rows if 8 * n > pts.size]
    n_shed = min(len(unresolved), max(len(rows) - _MIN_SCALES, 0))
    if n_shed:
        victims = set(unresolved[-n_shed:])
        dropped.extend(e for e, _ in rows if e in victims)
        rows = [(e, n) for e, n in rows if e not in victims]
    kept = [e for e, _ in rows]
    counts = [n for _, n in rows]
    if len(kept) < _MIN_SCALES:
        raise ValueError(
            f"only {len(kept)} usable scales (need {_MIN_SCALES}); the cloud "
            "is too sparse or too dense for this range of box sizes"
        )
    x = np.log(1.0 / np.asarray(kept))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(kept) - 2
    var = float(resid @ resid) / dof if dof > 0 else 0.0
    sx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(var / sx) if sx > 0 else math.inf
    notes = []
    if n_shed:
        notes.append(f"{n_shed} scales finer than the cloud resolves were dropped")
    value = float(slope)
    if value < 0.0 or value > 1.0:
        notes.append(f"raw slope {value:.4f} clamped into [0, 1]")
        value = min(1.0, max(0.0, value))
    return DimensionEstimate(
        value=value,
        stderr=stderr,
        scales=tuple(kept),
        counts=tuple(counts),
        dropped_scales=tuple(dropped),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Set-level diagnostics.

def _gaps_to(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular distance from each point of a to the nearest point of b;
    both sorted."""
    ext = np.concatenate([[b[-1] - PI], b, [b[0] + PI]])
    idx = np.searchsorted(ext, a)
    return np.maximum(np.minimum(a - ext[idx - 1], ext[idx] - a), 0.0)


def hausdorff_circle(a, b) -> float:
    """Hausdorff distance between two angle sets in the circular metric."""
    a = np.sort(_as_points(a))
    b = np.sort(_as_points(b))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty point cloud")
    return float(max(_gaps_to(a, b).max(), _gaps_to(b, a).max()))


@dataclass(frozen=True)
class SeparationReport:
    min_distance: float
    overlapping: bool
    tol: float


def separation_report(a, b) -> SeparationReport:
    """Closest approach of two clouds, e.g. attractor against repeller."""
    a = np.sort(_as_points(a))
    b = np.sort(_as_points(b))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty point cloud")
    d = float(_gaps_to(a, b).min())
    return SeparationReport(
        min_distance=d, overlapping=d <= _OVERLAP_TOL, tol=_OVERLAP_TOL
    )


def invariance_residual(cfg: SystemConfig, cloud) -> float:
    """Hausdorff distance between a cloud and the union of its letter images;
    small values mean the cloud closely approximates an invariant set."""
    pts = _as_points(cloud)
    if pts.size == 0:
        raise ValueError("empty point cloud")
    images = np.concatenate(
        [proj_act_array(m, pts) for m in cfg.matrices]
    )
    return hausdorff_circle(pts, np.sort(images))
