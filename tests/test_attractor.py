"""Point clouds, box dimension, and set diagnostics.

The box-counting oracle is a middle-thirds Cantor set embedded in the angle
interval [1.5, 3.0]: at box sizes 1.5 * 3^-k aligned with the construction,
the occupied-box counts are exactly 2^k, so the fitted slope must equal
log 2 / log 3 to rounding error.
"""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projifs import attractor
from projifs.attractor import (
    DimensionEstimate,
    PointCloud,
    attractor_points_fixedpoint,
    attractor_points_orbit,
    box_dimension,
    hausdorff_circle,
    invariance_residual,
    repeller_points_fixedpoint,
    repeller_points_orbit,
    separation_report,
)
from projifs.config import parse_config, parse_family
from projifs.errors import NonConvergenceError
from projifs.geometry import (
    BLOCK_ROWS,
    PI,
    Matrix2,
    attracting_directions_array,
    circ_dist,
    normalize_angle,
)
from projifs.semigroup import SystemConfig

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

POSITIVE_PAIR = SystemConfig(
    matrices=(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(1.0, 1.0, 1.0, 2.0))
)
SCALING_TRANSLATION = SystemConfig(
    matrices=(Matrix2(0.5, 0.0, 0.0, 2.0), Matrix2(1.0, 1.0, 0.0, 1.0))
)
INVERSE_PAIR = SystemConfig(
    matrices=(Matrix2(2.0, 0.0, 0.0, 0.5), Matrix2(0.5, 0.0, 0.0, 2.0))
)
ELLIPTIC_MIX = SystemConfig(
    matrices=(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(0.0, -1.0, 1.0, 0.0))
)
SINGLE_DIAG = SystemConfig(matrices=(Matrix2(2.0, 0.0, 0.0, 0.5),))
SHEAR_ONLY = SystemConfig(matrices=(Matrix2(1.0, 1.0, 0.0, 1.0),))


def cantor_angles(levels: int = 12) -> np.ndarray:
    digits = np.array(list(itertools.product((0, 2), repeat=levels)), dtype=float)
    xs = digits @ (3.0 ** -np.arange(1, levels + 1))
    # tiny shift keeps every point strictly inside its aligned box, so the
    # floor never lands one box low through rounding
    return 1.5 + 1.5 * xs + 1e-6


class TestFixedPointClouds:
    def test_single_diag_is_pi(self):
        cloud = attractor_points_fixedpoint(SINGLE_DIAG, depth=5)
        assert cloud.method == "fixed-point"
        assert len(cloud) == 1
        assert cloud.points[0] == pytest.approx(PI, abs=1e-12)

    def test_positive_pair_depth_one(self):
        cloud = attractor_points_fixedpoint(POSITIVE_PAIR, depth=1)
        expect = [math.atan(1.0 / GOLDEN), math.atan(GOLDEN)]
        assert np.allclose(cloud.points, expect, atol=1e-12)

    def test_positive_pair_stays_in_hull(self):
        cloud = attractor_points_fixedpoint(POSITIVE_PAIR, depth=10)
        lo, hi = math.atan(1.0 / GOLDEN), math.atan(GOLDEN)
        assert cloud.points.min() == pytest.approx(lo, abs=1e-12)
        assert cloud.points.max() == pytest.approx(hi, abs=1e-12)
        assert len(cloud) > 500
        assert np.all(np.diff(cloud.points) > 0)

    def test_scaling_translation_structure(self):
        d1 = attractor_points_fixedpoint(SCALING_TRANSLATION, depth=1)
        assert np.allclose(d1.points, [PI / 2.0, PI], atol=1e-12)
        cloud = attractor_points_fixedpoint(SCALING_TRANSLATION, depth=8)
        pts = cloud.points
        assert np.all((pts <= PI / 2.0 + 1e-9) | (np.abs(pts - PI) <= 1e-12))
        # the word with letters scale-then-shear fixes the direction (1, 3)
        assert np.abs(pts - math.atan(3.0)).min() < 1e-9

    def test_scaling_translation_repeller_is_pi(self):
        cloud = repeller_points_fixedpoint(SCALING_TRANSLATION, depth=6)
        assert len(cloud) == 1
        assert cloud.points[0] == pytest.approx(PI, abs=1e-12)

    def test_elliptic_products_are_skipped(self):
        rot = Matrix2(math.cos(1.0), -math.sin(1.0), math.sin(1.0), math.cos(1.0))
        cloud = attractor_points_fixedpoint(
            SystemConfig(matrices=(rot,)), depth=3
        )
        assert len(cloud) == 0


def _one_shot_cloud(cfg, depth):
    """attractor_points_fixedpoint as whole-level formulas, before row
    blocks: one concatenate, one np.sort copy and one np.diff."""
    pts = np.concatenate([
        attracting_directions_array(cfg.table.level(n))
        for n in range(1, depth + 1)
    ])
    s = np.sort(pts)
    s = s[np.concatenate([[True], np.diff(s) > attractor._MERGE_TOL])]
    if s.size > 1 and (s[0] + PI) - s[-1] <= attractor._MERGE_TOL:
        s = s[:-1]
    return s


class TestRowBlocks:
    def test_three_letter_depth_11_matches_one_shot(self):
        # level 11 has 3^11 = 177,147 rows: three blocks
        cfg = SystemConfig(matrices=POSITIVE_PAIR.matrices
                           + (Matrix2(3.0, 2.0, 1.0, 1.0),))
        assert cfg.k ** 11 > 2 * BLOCK_ROWS
        got = attractor_points_fixedpoint(cfg, 11).points
        assert got.tobytes() == _one_shot_cloud(cfg, 11).tobytes()

    def test_points_merge_across_a_block_boundary(self):
        n = 2 * BLOCK_ROWS + 3
        pts = 0.5 + 1e-5 * np.arange(n)
        half = 0.5 * attractor._MERGE_TOL
        # one close pair straddles sorted index BLOCK_ROWS, one lies just
        # past index 2 * BLOCK_ROWS
        for i in (BLOCK_ROWS, 2 * BLOCK_ROWS + 1):
            pts[i] = pts[i - 1] + half
        want = np.delete(pts, [BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
        shuffled = np.random.default_rng(5).permutation(pts)
        got = attractor._sorted_dedupe(shuffled)
        assert got.tobytes() == want.tobytes()

    def test_cloud_temporaries_are_one_buffer(self):
        cfg = SystemConfig(matrices=POSITIVE_PAIR.matrices)
        depth = 19
        cfg.table.level(depth)
        rows = sum(len(cfg.table.level(n)) for n in range(1, depth + 1))
        block = cfg.table.level(1)[:1].nbytes * BLOCK_ROWS
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            attractor_points_fixedpoint(cfg, depth)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the float buffer and its merge mask, plus block temporaries;
        # before row blocks: 47 MB of whole-level temporaries
        assert peak <= 9 * rows + 4 * block, peak


class TestOrbitClouds:
    def test_positive_pair_matches_fixedpoint(self):
        orbit = attractor_points_orbit(POSITIVE_PAIR, samples=2000, seed=7)
        assert orbit.dropped == 0
        assert orbit.samples == 2000
        ref = attractor_points_fixedpoint(POSITIVE_PAIR, depth=12)
        assert hausdorff_circle(orbit, ref) <= 0.02
        lo, hi = math.atan(1.0 / GOLDEN), math.atan(GOLDEN)
        assert orbit.points.min() >= lo - 1e-9
        assert orbit.points.max() <= hi + 1e-9

    def test_same_seed_reproduces(self):
        a = attractor_points_orbit(POSITIVE_PAIR, samples=300, seed=11)
        b = attractor_points_orbit(POSITIVE_PAIR, samples=300, seed=11)
        assert np.array_equal(a.points, b.points)

    def test_seed_changes_cloud(self):
        a = attractor_points_orbit(POSITIVE_PAIR, samples=300, seed=1)
        b = attractor_points_orbit(POSITIVE_PAIR, samples=300, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_single_diag_collapses_to_pi(self):
        cloud = attractor_points_orbit(SINGLE_DIAG, samples=50, seed=0)
        assert cloud.dropped == 0
        assert all(circ_dist(t, PI) < 1e-6 for t in cloud.points)

    def test_repeller_orbit_of_positive_pair(self):
        rep = repeller_points_orbit(POSITIVE_PAIR, samples=400, seed=5)
        # inverses have sign-flipped off-diagonals, mirroring the attractor
        assert rep.points.min() >= PI - math.atan(GOLDEN) - 1e-9
        assert rep.points.max() <= PI - math.atan(1.0 / GOLDEN) + 1e-9

    def test_parabolic_orbit_never_collapses(self):
        with pytest.raises(NonConvergenceError):
            attractor_points_orbit(SHEAR_ONLY, samples=16, seed=0, max_iter=150)

    @pytest.mark.parametrize("samples", [1, 7, 15, 17, 33, 1003])
    def test_every_sample_is_kept_or_dropped(self, samples):
        # with 1000 steps a few of 1003 inverse-pair orbits stay uncollapsed
        cloud = attractor_points_orbit(
            INVERSE_PAIR, samples=samples, seed=4, max_iter=1000
        )
        assert cloud.samples == samples
        assert len(cloud) + cloud.dropped == samples
        assert (cloud.dropped > 0) == (samples == 1003)

    # ids keep the plain "<config>-<seed>" form for one lane
    @pytest.mark.parametrize(
        "seed,lanes",
        [(seed, 1) for seed in range(6)] + [(seed, 5) for seed in range(6)],
        ids=[str(seed) for seed in range(6)]
        + [f"{seed}-lanes5" for seed in range(6)],
    )
    @pytest.mark.parametrize(
        "cfg", [POSITIVE_PAIR, SCALING_TRANSLATION, ELLIPTIC_MIX],
        ids=["positive", "scaling_translation", "elliptic_mix"],
    )
    def test_direction_within_stopping_bound(self, cfg, seed, lanes):
        """Replay the words of a cloud of `lanes` samples as unnormalized
        scalar products, stop each where its singular values first satisfy
        s1 s2 / (s1^2 + s2^2) < tol, and check every stopped product's top
        left singular direction lies within sqrt(2) tol of a cloud point."""
        tol = 1e-4
        cloud = attractor_points_orbit(cfg, samples=lanes, seed=seed, tol=tol)
        # one stream; each step draws once per live lane, in lane order
        rng = np.random.default_rng(seed)
        cum = np.cumsum(cfg.weights())
        cum[-1] = 1.0
        prods = [np.eye(2) for _ in range(lanes)]
        live = list(range(lanes))
        tops = []
        for _ in range(3000):
            if not live:
                break
            still = []
            for lane, draw in zip(live, rng.random(len(live))):
                letter = int(np.searchsorted(cum, draw, side="right"))
                prods[lane] = prods[lane] @ cfg.matrices[letter].array
                u, s, _ = np.linalg.svd(prods[lane])
                if s[0] * s[1] / (s[0] ** 2 + s[1] ** 2) < tol:
                    tops.append(normalize_angle(math.atan2(u[1, 0], u[0, 0])))
                else:
                    still.append(lane)
            live = still
        assert len(tops) == len(cloud)
        for top in tops:
            gap = min(circ_dist(theta, top) for theta in cloud.points)
            assert gap <= math.sqrt(2.0) * tol * (1.0 + tol)


class TestBoxDimension:
    def test_cantor_oracle(self):
        est = box_dimension(
            cantor_angles(12),
            eps_values=[1.5 * 3.0 ** -k for k in range(2, 9)],
        )
        assert est.counts == (16, 32, 64, 128, 256)
        assert len(est.dropped_scales) == 2
        assert est.value == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-6)
        assert est.stderr < 1e-6

    def test_cantor_default_scales(self):
        est = box_dimension(cantor_angles(12))
        assert abs(est.value - math.log(2.0) / math.log(3.0)) < 0.03

    def test_interval_is_one_dimensional(self):
        est = box_dimension(np.linspace(1.5, 3.0, 30000))
        assert abs(est.value - 1.0) <= 0.05

    def test_singleton_is_zero_dimensional(self):
        est = box_dimension(np.array([2.0]))
        assert est.value == 0.0
        assert est.scales == ()
        assert any("finite" in n for n in est.notes)

    def test_finite_cloud_is_zero_dimensional(self):
        cloud = attractor_points_fixedpoint(SINGLE_DIAG, depth=6)
        assert box_dimension(cloud).value == 0.0

    def test_too_few_scales_raises(self):
        with pytest.raises(ValueError, match="usable scales"):
            box_dimension(np.linspace(1.5, 3.0, 30000), eps_values=[0.05, 0.04])

    def test_empty_cloud_raises(self):
        with pytest.raises(ValueError, match="empty"):
            box_dimension(np.empty(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises(self, bad):
        cloud = np.append(np.linspace(1.5, 3.0, 30000), [bad, bad])
        with pytest.raises(ValueError, match="2 non-finite points"):
            box_dimension(cloud)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.01])
    def test_bad_box_size_raises(self, bad):
        eps = [PI / 2.0 ** k for k in range(3, 15)] + [bad]
        with pytest.raises(ValueError, match="finite and positive"):
            box_dimension(np.linspace(1.5, 3.0, 30000), eps_values=eps)


def _reference_box_dimension(cloud, eps_values=None):
    """The per-scale np.unique count that box_dimension replaced, kept as its
    reference."""
    pts = attractor._as_points(cloud)
    if pts.size == 0:
        raise ValueError("empty point cloud")
    if eps_values is None:
        eps_values = [PI / 2.0 ** k for k in range(3, 15)]
    folded = np.mod(pts, PI)
    finest = min(eps_values)
    if len(np.unique(np.floor(folded / finest).astype(np.int64))) < 10:
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
        n_boxes = len(np.unique(np.floor(folded / e).astype(np.int64)))
        total = math.ceil(PI / e)
        if n_boxes >= 0.95 * total or n_boxes < 10:
            dropped.append(e)
            continue
        rows.append((e, n_boxes))
    unresolved = [e for e, n in rows if 8 * n > pts.size]
    n_shed = min(len(unresolved), max(len(rows) - attractor._MIN_SCALES, 0))
    if n_shed:
        victims = set(unresolved[-n_shed:])
        dropped.extend(e for e, _ in rows if e in victims)
        rows = [(e, n) for e, n in rows if e not in victims]
    kept = [e for e, _ in rows]
    counts = [n for _, n in rows]
    if len(kept) < attractor._MIN_SCALES:
        raise ValueError(
            f"only {len(kept)} usable scales (need {attractor._MIN_SCALES}); "
            "the cloud is too sparse or too dense for this range of box sizes"
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


def _outcome(fn, cloud, eps_values=None):
    try:
        return repr(fn(cloud, eps_values))
    except ValueError as exc:
        return f"ValueError: {exc}"


#: Points on or next to the ends of (0, pi], where folding and the box
#: index are most easily off by one.
_EDGE_POINTS = (
    PI, np.nextafter(PI, 0.0), np.nextafter(PI, 4.0), 0.0, 5e-324, 1e-300,
    1e-17, -1e-20, -PI, 2.0 * PI,
)


@st.composite
def _box_clouds(draw):
    """Unsorted clouds with duplicates and edge points: uniform, clustered, or
    on a dyadic grid whose points sit exactly on default box edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(("uniform", "clustered", "grid")))
    if kind == "uniform":
        pts = rng.uniform(0.0, PI, n)
    elif kind == "clustered":
        centers = rng.uniform(0.0, PI, draw(st.integers(1, 40)))
        spread = draw(st.floats(1e-7, 1e-2))
        pts = centers[rng.integers(centers.size, size=n)] + rng.normal(0.0, spread, n)
    else:
        k = draw(st.integers(3, 16))
        pts = rng.integers(0, 2**k + 1, n) * (PI / 2.0**k)
    pts = np.concatenate([
        pts,
        pts[rng.integers(n, size=draw(st.integers(0, n)))],
        draw(st.lists(st.sampled_from(_EDGE_POINTS), max_size=6)),
    ])
    rng.shuffle(pts)
    return pts


_BOX_SIZES = st.one_of(
    st.none(),
    st.lists(st.floats(1e-5, 4.0), min_size=1, max_size=14),
    st.builds(
        lambda base, ks: [base * 2.0 ** -k for k in ks],
        st.floats(0.05, 4.0),
        st.lists(st.integers(0, 16), min_size=1, max_size=14, unique=True),
    ),
)


@settings(max_examples=120, deadline=None)
@given(_box_clouds(), _BOX_SIZES)
def test_box_counts_match_unique_reference(cloud, eps_values):
    assert _outcome(box_dimension, cloud, eps_values) == _outcome(
        _reference_box_dimension, cloud, eps_values
    )


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _depth10_systems():
    plain = sorted(
        p for p in CONFIGS.glob("*.cfg") if not p.stem.startswith("family_")
    )
    out = [(p.stem, parse_config(p)) for p in plain]
    for name in ("family_identity_limit", "family_hyperbolic_interior"):
        family = parse_family(CONFIGS / f"{name}.cfg")
        out += [(f"{name}-{t!r}", family.at(t)) for t in family.grid]
    return out


def test_box_dimension_matches_reference_on_depth10_clouds():
    for name, cfg in _depth10_systems():
        cloud = attractor_points_fixedpoint(cfg, 10)
        got = _outcome(box_dimension, cloud)
        assert got == _outcome(_reference_box_dimension, cloud), name


class TestDiagnostics:
    def test_hausdorff_identical_sets(self):
        pts = np.array([0.5, 1.0, 2.5])
        assert hausdorff_circle(pts, pts) == 0.0

    def test_hausdorff_simple_shift(self):
        assert hausdorff_circle([1.0], [1.2]) == pytest.approx(0.2, abs=1e-12)

    def test_hausdorff_wraps_at_pi(self):
        assert hausdorff_circle([0.05], [3.10]) == pytest.approx(
            PI - 3.05, abs=1e-12
        )

    def test_hausdorff_is_directed_max(self):
        assert hausdorff_circle([1.0, 2.0], [2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hausdorff_rejects_non_finite_points(self):
        with pytest.raises(ValueError, match="1 non-finite points"):
            hausdorff_circle([1.0, math.nan, 2.0], [1.5])
        with pytest.raises(ValueError, match="1 non-finite points"):
            hausdorff_circle([1.0], [math.inf])

    def test_separation_rejects_non_finite_points(self):
        with pytest.raises(ValueError, match="2 non-finite points"):
            separation_report([math.nan, 1.0, -math.inf], [2.0])

    def test_hausdorff_accepts_clouds(self):
        cloud = PointCloud(points=np.array([1.0]), method="fixed-point")
        assert hausdorff_circle(cloud, np.array([1.0])) == 0.0

    def test_positive_pair_clouds_are_separated(self):
        att = attractor_points_fixedpoint(POSITIVE_PAIR, depth=8)
        rep = repeller_points_fixedpoint(POSITIVE_PAIR, depth=8)
        report = separation_report(att, rep)
        assert not report.overlapping
        assert report.min_distance > 1.0

    def test_scaling_translation_clouds_touch(self):
        att = attractor_points_fixedpoint(SCALING_TRANSLATION, depth=8)
        rep = repeller_points_fixedpoint(SCALING_TRANSLATION, depth=8)
        report = separation_report(att, rep)
        assert report.overlapping
        assert report.min_distance == pytest.approx(0.0, abs=1e-12)

    def test_invariance_residual_exact_for_fixed_cloud(self):
        cloud = attractor_points_fixedpoint(SINGLE_DIAG, depth=4)
        assert invariance_residual(SINGLE_DIAG, cloud) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_invariance_residual_small_on_deep_cloud(self):
        cloud = attractor_points_fixedpoint(POSITIVE_PAIR, depth=12)
        assert invariance_residual(POSITIVE_PAIR, cloud) < 0.01
