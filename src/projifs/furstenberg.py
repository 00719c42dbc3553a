"""Sampling the stationary direction measure of a random matrix product.

Drawing letters i.i.d. from the configured probability vector and applying
the product to a probe direction gives, when the product collapses the
circle, one draw from the stationary measure nu.  A sample is the
`PointCloud` of the attractor module's orbit driver, so it inherits its
convergence rule (singular-value ratio of the product below tol, failures
dropped and counted) and its seeding scheme: one stream of numpy's default
PCG64 generator, seeded with the master seed, which makes a sample
reproducible bit for bit from its seed.

Stationarity is checked empirically on a fixed grid of 64 equal arcs by
comparing the mass of each arc with the probability-weighted mass of its
letter preimages.  Support and dimension comparisons against an attractor
cloud live in `support_dimension_report`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attractor import (
    DimensionEstimate,
    PointCloud,
    _as_points,
    attractor_points_orbit,
    box_dimension,
    hausdorff_circle,
)
from .geometry import PI, proj_act
from .semigroup import SystemConfig, common_fixed_points
from .spectral import Bracket

_GRID = 64
_SEAM = 1e-12


def sample_stationary(
    cfg: SystemConfig,
    samples: int,
    tol: float = 1e-9,
    seed: int | None = None,
) -> PointCloud:
    """Draw `samples` points of the stationary measure for cfg.probs.

    The config must carry an explicit probability vector (the construction
    depends on it, and SystemConfig guarantees the entries are positive and
    normalized).  The points are sorted by angle and equally weighted; draws
    that failed to collapse are counted in `dropped`, never kept.  Raises
    NonConvergenceError when more than 1% of the draws fail to collapse
    within attractor_points_orbit's step budget.
    """
    if cfg.probs is None:
        raise ValueError(
            "sampling the stationary measure needs an explicit probability "
            "vector; set probs on the config"
        )
    return attractor_points_orbit(cfg, samples, seed=seed, tol=tol)


def _count_ccw(pts: np.ndarray, a: float, b: float) -> int:
    """Points in the counterclockwise arc (a, b]; pts sorted inside (0, pi].

    Both boundaries carry a hair of slack: an evaluated endpoint can land a
    rounding error below an atom of the sample (sin pi is not zero in
    floats), and without the slack a point mass sitting exactly on the seam
    would be missed by its own preimage arc.
    """
    ra = int(np.searchsorted(pts, a + _SEAM, side="right"))
    rb = int(np.searchsorted(pts, b + _SEAM, side="right"))
    if a <= b:
        return rb - ra
    return pts.size - ra + rb


def stationarity_residual(sample, cfg: SystemConfig) -> float:
    """Worst grid-arc violation of nu(E) = sum_i p_i nu(phi_i^-1 E).

    The grid is the fixed partition of (0, pi] into 64 equal half-open arcs.
    Each preimage arc is transported by evaluating the inverse letter at the
    two endpoints; orientation is preserved (determinant one), so the image
    of a counterclockwise arc is again counterclockwise and endpoint
    evaluation is exact up to rounding.  For an exactly stationary empirical
    measure (a point mass at a common fixed point) the residual is zero.
    """
    pts = np.sort(np.asarray(_as_points(sample), dtype=float))
    if pts.size == 0:
        raise ValueError("empty sample")
    n = pts.size
    weights = cfg.weights()
    inverses = [m.inverse() for m in cfg.matrices]
    edges = np.linspace(0.0, PI, _GRID + 1)
    worst = 0.0
    for k in range(_GRID):
        lo, hi = float(edges[k]), float(edges[k + 1])
        direct = _count_ccw(pts, lo, hi) / n
        pulled = 0.0
        for w, inv in zip(weights, inverses):
            pulled += w * _count_ccw(pts, proj_act(inv, lo), proj_act(inv, hi)) / n
        worst = max(worst, abs(direct - pulled))
    return worst


@dataclass(frozen=True)
class SupportReport:
    """Side-by-side comparison of a measure sample with an attractor cloud."""

    hausdorff: float
    sample_dimension: DimensionEstimate
    predicted_lo: float | None = None
    predicted_hi: float | None = None
    delta_bracket: Bracket | None = None
    notes: tuple[str, ...] = ()


def support_dimension_report(
    sample,
    attractor_cloud,
    *,
    cfg: SystemConfig | None = None,
    delta_bracket: Bracket | None = None,
) -> SupportReport:
    """Compare the closure of a sample with an attractor cloud.

    Reports the circular Hausdorff distance between the two point sets and a
    box-dimension estimate of the sample.  When a critical-exponent bracket
    is supplied the predicted dimension min(1, delta) is attached as an
    interval; when a config is supplied and its letters share a fixed
    direction, the report notes that the support-dimension formula does not
    apply to such a reducible system.
    """
    spts = np.asarray(_as_points(sample), dtype=float)
    cpts = np.asarray(_as_points(attractor_cloud), dtype=float)
    dist = hausdorff_circle(spts, cpts)
    dim = box_dimension(spts)
    notes: list[str] = []
    plo = phi = None
    if delta_bracket is not None:
        plo = min(1.0, max(0.0, delta_bracket.lo))
        phi = min(1.0, max(0.0, delta_bracket.hi))
        notes.append(
            "dimension predicted by the critical exponent: "
            f"[{plo:.4f}, {phi:.4f}]"
        )
    if cfg is not None and common_fixed_points(cfg):
        notes.append(
            "the support-dimension formula needs an irreducible system; "
            "the letters share a fixed direction"
        )
    return SupportReport(
        hausdorff=float(dist),
        sample_dimension=dim,
        predicted_lo=plo,
        predicted_hi=phi,
        delta_bracket=delta_bracket,
        notes=tuple(notes),
    )
