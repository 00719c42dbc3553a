"""Tests for the reducible case analysis, pivots, and the elliptic reduction.

The reducible oracles are worked by hand in the cotangent chart: rotating the
shared direction onto pi makes each letter affine, t -> a^2 t + ab, so case
labels, witness words, and similarity exponents below come from elementary
algebra on those coefficients rather than from the code under test.
"""

import math

import pytest

from projifs.attractor import attractor_points_fixedpoint, box_dimension
from projifs.cones import Multicone
from projifs.errors import (
    CertificationError,
    InfiniteOrderEllipticError,
    NotReducibleError,
    PivotNotFoundError,
)
from projifs.geometry import IDENTITY2, PI, Matrix2, fixed_points
from projifs.semigroup import ProductTable, SystemConfig
from projifs.subsystems import (
    GammaLowerBound,
    Pivot,
    ReducibleCase,
    elliptic_reduction,
    find_pivot,
    gamma_lower_bound,
    pivot_margins,
    projective_order,
    reducible_dimension,
)

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)

DIAG2 = Matrix2(2.0, 0.0, 0.0, 0.5)
DIAG3 = Matrix2(3.0, 0.0, 0.0, 1.0 / 3.0)
SHEAR = Matrix2(1.0, 1.0, 0.0, 1.0)

SCALE_PAIR = SystemConfig(matrices=(DIAG2, DIAG3))
INVERSE_PAIR = SystemConfig(matrices=(DIAG2, Matrix2(0.5, 0.0, 0.0, 2.0)))
SCALING_TRANSLATION = SystemConfig(
    matrices=(Matrix2(0.5, 0.0, 0.0, 2.0), SHEAR)
)
# both fix e1; second fixed directions differ (e2 versus span(2, 3))
SHARED_FIXED_PAIR = SystemConfig(
    matrices=(DIAG2, Matrix2(0.5, 1.0, 0.0, 2.0))
)
POSITIVE_PAIR = SystemConfig(
    matrices=(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(1.0, 1.0, 1.0, 2.0))
)
STERN_BROCOT = SystemConfig(
    matrices=(Matrix2(1.0, 1.0, 0.0, 1.0), Matrix2(1.0, 0.0, 1.0, 1.0))
)

R3 = math.sqrt(3.0)
# chart action t -> t/3 +- 1: two disjoint similarity pieces of ratio 1/3
CANTOR_UHR = SystemConfig(
    matrices=(
        Matrix2(1.0 / R3, R3, 0.0, R3),
        Matrix2(1.0 / R3, -R3, 0.0, R3),
    )
)


def rotation(angle: float) -> Matrix2:
    return Matrix2(
        math.cos(angle), -math.sin(angle), math.sin(angle), math.cos(angle)
    )


class TestReducibleDimension:
    def test_parabolic_at_repeller(self):
        v = reducible_dimension(SCALING_TRANSLATION)
        assert v.case is ReducibleCase.PARABOLIC_AT_REPELLER
        assert v.dimension == 1.0
        assert v.fixed_point == pytest.approx(PI)
        assert v.witnesses == ((0,), (1,))

    def test_attractor_meets_repeller(self):
        v = reducible_dimension(SHARED_FIXED_PAIR)
        assert v.case is ReducibleCase.ATTRACTOR_MEETS_REPELLER
        assert v.dimension == 1.0
        assert v.witnesses == ((0,), (1,))

    def test_scale_pair_is_singleton(self):
        # both letters repel e2 toward e1, so the reduction at the first
        # shared direction contracts onto a single chart point
        v = reducible_dimension(SCALE_PAIR)
        assert v.case is ReducibleCase.SINGLETON_ATTRACTOR
        assert v.dimension == 0.0

    def test_inverse_pair_is_degenerate_singleton(self):
        v = reducible_dimension(INVERSE_PAIR)
        assert v.case is ReducibleCase.SINGLETON_ATTRACTOR
        assert v.dimension == 0.0
        assert any("semidiscrete" in n for n in v.notes)

    def test_single_letter_singleton(self):
        v = reducible_dimension(SystemConfig(matrices=(DIAG2,)))
        assert v.case is ReducibleCase.SINGLETON_ATTRACTOR
        assert v.dimension == 0.0

    def test_all_attracting_singleton(self):
        v = reducible_dimension(
            SystemConfig(matrices=(Matrix2(0.5, 0.0, 0.0, 2.0),))
        )
        # at the first shared direction (pi/2) the chart slope is 4: the
        # letter attracts it, so the attractor is that direction alone
        assert v.case is ReducibleCase.SINGLETON_ATTRACTOR

    def test_cantor_chart_exponent(self):
        v = reducible_dimension(CANTOR_UHR)
        assert v.case is ReducibleCase.UNIFORMLY_HYPERBOLIC_REDUCIBLE
        assert v.dimension == pytest.approx(LOG2_OVER_LOG3, abs=1e-9)
        assert v.fixed_point == pytest.approx(PI)
        assert not any("upper bound" in n for n in v.notes)

    def test_overlapping_pieces_flagged(self):
        s = 1.0 / math.sqrt(2.0)
        mats = tuple(
            Matrix2(s, beta / s, 0.0, 1.0 / s) for beta in (0.0, 0.1, 0.2)
        )
        v = reducible_dimension(SystemConfig(matrices=mats))
        assert v.case is ReducibleCase.UNIFORMLY_HYPERBOLIC_REDUCIBLE
        # three ratio-1/2 pieces: similarity exponent log3/log2, capped
        assert v.dimension == 1.0
        assert any("upper bound" in n for n in v.notes)

    def test_irreducible_raises(self):
        with pytest.raises(NotReducibleError):
            reducible_dimension(POSITIVE_PAIR)

    def test_rotation_raises(self):
        with pytest.raises(NotReducibleError):
            reducible_dimension(SystemConfig(matrices=(rotation(1.0),)))


class TestFindPivot:
    def test_stern_brocot_pivot(self):
        pivot = find_pivot(STERN_BROCOT, depth=4)
        m_nest, gap, m_map = pivot_margins(pivot)
        assert m_nest > 0.0 and gap > 0.0 and m_map > 0.0
        word, mat = pivot.a0
        assert 1 <= len(word) <= 32
        fp = fixed_points(mat)
        assert Multicone([pivot.U]).contains_point(fp.attracting)
        assert Multicone([pivot.V]).contains_point(fp.repelling)

    def test_positive_pair_pivot(self):
        pivot = find_pivot(POSITIVE_PAIR, depth=4)
        assert min(pivot_margins(pivot)) > 0.0

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="irreducible"):
            find_pivot(SCALE_PAIR)

    def test_margins_re_verifiable(self):
        # shrinking U below U' must break the recomputed margins
        pivot = find_pivot(POSITIVE_PAIR, depth=4)
        lo, hi = pivot.U_prime
        bad = Pivot(
            a0=pivot.a0,
            U=(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)),
            U_prime=pivot.U_prime,
            V=pivot.V,
        )
        assert min(pivot_margins(bad)) < 0.0


class TestGammaLowerBound:
    def test_no_pivot_trivial_bound(self):
        g = gamma_lower_bound(SCALE_PAIR, None, 3)
        assert g.value == 0.0
        assert g.certified
        assert g.delta_bracket is None

    def test_positive_pair_monotone(self):
        pivot = find_pivot(POSITIVE_PAIR, depth=2)
        values = [
            gamma_lower_bound(POSITIVE_PAIR, pivot, n).value
            for n in (1, 2, 3)
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-6
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_gamma_alphabet_uniformly_hyperbolic(self):
        # minimal norms of the pivot alphabet must grow geometrically; the
        # shallow pivot keeps letter norms small enough for depth-5 products
        pivot = find_pivot(POSITIVE_PAIR, depth=2)
        g = gamma_lower_bound(POSITIVE_PAIR, pivot, 1, depth=4)
        assert g.matrices
        table = ProductTable(
            SystemConfig(matrices=g.matrices, depth_cap=6)
        )
        logs = [math.log(table.min_norm(m)) for m in range(1, 6)]
        diffs = [b - a for a, b in zip(logs, logs[1:])]
        assert min(diffs) > 0.0

    def test_dropped_words_reported(self):
        pivot = find_pivot(POSITIVE_PAIR, depth=4)
        g = gamma_lower_bound(POSITIVE_PAIR, pivot, 2, depth=4)
        assert g.dropped_words >= 0
        assert len(g.matrices) + g.dropped_words <= POSITIVE_PAIR.k ** 2


class TestEllipticReduction:
    def test_orders(self):
        assert projective_order(rotation(PI / 2.0)) == 2
        assert projective_order(rotation(PI / 3.0)) == 3
        assert projective_order(rotation(PI)) == 1
        assert projective_order(IDENTITY2) == 1

    def test_irrational_rotation_rejected(self):
        with pytest.raises(InfiniteOrderEllipticError):
            projective_order(rotation(1.0))

    def test_hyperbolic_rejected(self):
        with pytest.raises(ValueError, match="elliptic"):
            projective_order(DIAG2)

    def test_quarter_turn_doubles_alphabet(self):
        a1 = Matrix2(2.0, 1.0, 1.0, 1.0)
        a2 = Matrix2(1.0, 1.0, 1.0, 2.0)
        r = rotation(PI / 2.0)
        out = elliptic_reduction((a1, a2), (r,))
        assert len(out) == 4
        expect = (a1, a1 @ r, a2, a2 @ r)
        for got, want in zip(out, expect):
            assert max(
                abs(x - y) for x, y in zip(got.entries, want.entries)
            ) < 1e-12

    def test_half_turn_is_trivial(self):
        s = (Matrix2(2.0, 1.0, 1.0, 1.0),)
        assert elliptic_reduction(s, (rotation(PI),)) == s

    def test_joint_order_six(self):
        out = elliptic_reduction(
            (Matrix2(2.0, 1.0, 1.0, 1.0),),
            (rotation(PI / 2.0), rotation(PI / 3.0)),
        )
        assert len(out) == 6

    def test_irrational_mix_rejected(self):
        with pytest.raises(InfiniteOrderEllipticError):
            elliptic_reduction(
                (Matrix2(2.0, 1.0, 1.0, 1.0),), (rotation(1.0),)
            )

    def test_reduction_preserves_box_dimension(self):
        a = Matrix2(2.0, 1.0, 1.0, 1.0)
        r = rotation(PI / 2.0)
        mixed = SystemConfig(matrices=(a, r))
        reduced = SystemConfig(matrices=elliptic_reduction((a,), (r,)))
        d1 = box_dimension(attractor_points_fixedpoint(mixed, 12))
        d2 = box_dimension(attractor_points_fixedpoint(reduced, 6))
        assert abs(d1.value - d2.value) <= d1.stderr + d2.stderr
