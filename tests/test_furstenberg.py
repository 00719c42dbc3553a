"""Stationary measure sampling, the stationarity residual, and support reports.

The distribution oracle is the Stern-Brocot pair with equal weights: the
first letters of the random word decide which mediant interval the limit
direction falls into, so the chart CDF takes exact dyadic values at the
Stern-Brocot rationals (1/2 at 1, 1/4 at 1/2, 3/4 at 2, 1/8 at 1/3, 7/8
at 3).  Monte Carlo noise at 10^4 samples has sigma of about 0.005 per
level, so the 0.02 tolerance sits at four sigma.
"""

import math

import numpy as np
import pytest

from projifs.attractor import (
    _gaps_to,
    attractor_points_fixedpoint,
    hausdorff_circle,
)
from projifs.furstenberg import (
    sample_stationary,
    stationarity_residual,
    support_dimension_report,
)
from projifs.geometry import PI, Matrix2
from projifs.semigroup import SystemConfig
from projifs.spectral import critical_exponent_bracket

SINGLE_DIAG = SystemConfig(matrices=(Matrix2(2.0, 0.0, 0.0, 0.5),), probs=(1.0,))
STERN_BROCOT = SystemConfig(
    matrices=(Matrix2(1.0, 1.0, 0.0, 1.0), Matrix2(1.0, 0.0, 1.0, 1.0)),
    probs=(0.5, 0.5),
)
SCALING_TRANSLATION = SystemConfig(
    matrices=(Matrix2(0.5, 0.0, 0.0, 2.0), Matrix2(1.0, 1.0, 0.0, 1.0)),
    probs=(0.5, 0.5),
)


def positive_pair(probs):
    return SystemConfig(
        matrices=(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(1.0, 1.0, 1.0, 2.0)),
        probs=probs,
    )


@pytest.fixture(scope="module")
def stern_sample():
    return sample_stationary(STERN_BROCOT, 10_000, seed=11)


@pytest.fixture(scope="module")
def pos_sample():
    return sample_stationary(positive_pair((0.5, 0.5)), 100_000, seed=21)


class TestSampleStationary:
    def test_single_matrix_point_mass(self):
        sample = sample_stationary(SINGLE_DIAG, 500, seed=3)
        assert len(sample) == 500
        assert np.max(np.abs(sample.points - PI)) == 0.0

    def test_probs_required(self):
        cfg = SystemConfig(matrices=STERN_BROCOT.matrices)
        with pytest.raises(ValueError, match="probability"):
            sample_stationary(cfg, 100)

    def test_seed_determinism(self):
        cfg = positive_pair((0.5, 0.5))
        a = sample_stationary(cfg, 2_000, seed=9)
        b = sample_stationary(cfg, 2_000, seed=9)
        assert np.array_equal(a.points, b.points)
        c = sample_stationary(cfg, 2_000, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_sample_records_request(self, stern_sample):
        assert stern_sample.samples == 10_000
        assert stern_sample.dropped == 0
        assert len(stern_sample) == 10_000
        # sorted, inside the fundamental interval
        assert np.all(np.diff(stern_sample.points) >= 0.0)
        assert np.all((stern_sample.points > 0.0) & (stern_sample.points <= PI))

    def test_scaling_translation_support(self):
        # every limit direction has nonnegative cotangent or is the shared
        # fixed direction pi itself
        sample = sample_stationary(SCALING_TRANSLATION, 10_000, seed=5)
        pts = sample.points
        assert np.all((pts <= PI / 2.0 + 1e-9) | (pts >= PI - 1e-6))

    def test_stern_brocot_support(self, stern_sample):
        pts = stern_sample.points
        assert np.all((pts <= PI / 2.0 + 1e-9) | (pts >= PI - 1e-6))

    def test_stern_brocot_mediant_distribution(self, stern_sample):
        pts = stern_sample.points
        # P(cot theta <= x): cot is decreasing, so this is the mass at or
        # above atan2(1, x) within the cot >= 0 part of the circle
        for x, expected in [
            (1.0 / 3.0, 1.0 / 8.0),
            (0.5, 0.25),
            (1.0, 0.5),
            (2.0, 0.75),
            (3.0, 7.0 / 8.0),
        ]:
            threshold = math.atan2(1.0, x)
            mass = np.mean((pts >= threshold) & (pts <= PI / 2.0 + 1e-9))
            assert mass == pytest.approx(expected, abs=0.02)

    def test_samples_lie_on_attractor(self, pos_sample):
        cloud = attractor_points_fixedpoint(positive_pair((0.5, 0.5)), 14)
        gap = _gaps_to(np.sort(pos_sample.points), cloud.points).max()
        assert gap <= 1e-3

    def test_support_independent_of_probs(self, pos_sample):
        skew = sample_stationary(positive_pair((0.9, 0.1)), 100_000, seed=22)
        assert hausdorff_circle(pos_sample.points, skew.points) <= 0.02


class TestStationarityResidual:
    def test_point_mass_exactly_stationary(self):
        sample = sample_stationary(SINGLE_DIAG, 200, seed=3)
        assert stationarity_residual(sample, SINGLE_DIAG) == 0.0

    def test_stern_brocot_residual_small(self, stern_sample):
        assert stationarity_residual(stern_sample, STERN_BROCOT) < 0.02

    def test_scaling_translation_residual_small(self):
        sample = sample_stationary(SCALING_TRANSLATION, 100_000, seed=11)
        assert stationarity_residual(sample, SCALING_TRANSLATION) < 0.02

    def test_corruption_raises_residual(self, stern_sample):
        clean = stationarity_residual(stern_sample, STERN_BROCOT)
        rng = np.random.default_rng(0)
        pts = stern_sample.points.copy()
        n_bad = pts.size // 3
        pts[:n_bad] = rng.uniform(0.0, PI, size=n_bad)
        corrupted = np.sort(pts)
        assert stationarity_residual(corrupted, STERN_BROCOT) > clean

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stationarity_residual(np.empty(0), STERN_BROCOT)


class TestSupportDimensionReport:
    def test_single_matrix_both_zero(self):
        sample = sample_stationary(SINGLE_DIAG, 200, seed=3)
        cloud = attractor_points_fixedpoint(SINGLE_DIAG, 8)
        report = support_dimension_report(sample, cloud)
        assert report.hausdorff == 0.0
        assert report.sample_dimension.value == 0.0

    def test_irreducible_match(self, pos_sample):
        cfg = positive_pair((0.5, 0.5))
        cloud = attractor_points_fixedpoint(cfg, 14)
        bracket = critical_exponent_bracket(cfg, depth=10)
        report = support_dimension_report(
            pos_sample, cloud, cfg=cfg, delta_bracket=bracket
        )
        assert report.hausdorff <= 0.02
        assert report.predicted_lo is not None
        assert report.predicted_lo <= report.predicted_hi <= 1.0
        assert not report.notes or all(
            "irreducible" not in note for note in report.notes
        )

    def test_reducible_annotation(self):
        sample = sample_stationary(SCALING_TRANSLATION, 2_000, seed=5)
        cloud = attractor_points_fixedpoint(SCALING_TRANSLATION, 10)
        report = support_dimension_report(
            sample, cloud, cfg=SCALING_TRANSLATION
        )
        assert any("irreducible" in note for note in report.notes)

    def test_dimension_estimate_for_cantor_like_support(self, pos_sample):
        report = support_dimension_report(
            pos_sample, attractor_points_fixedpoint(positive_pair((0.5, 0.5)), 14)
        )
        # strict subsystem of the full shift on positive matrices: the
        # support is a Cantor set of intermediate dimension
        assert 0.2 < report.sample_dimension.value < 0.8
