import math

import numpy as np
import pytest

from projifs.geometry import Matrix2
from projifs.semigroup import SystemConfig
from projifs.spectral import (
    QuickBound,
    critical_exponent_bracket,
    partial_zeta,
    pressure_bracket,
    quick_lower_bounds,
)

DIAG2 = Matrix2(2.0, 0.0, 0.0, 0.5)
DIAG3 = Matrix2(3.0, 0.0, 0.0, 1.0 / 3.0)
SHEAR = Matrix2(1.0, 1.0, 0.0, 1.0)
HALF_DIAG = Matrix2(0.5, 0.0, 0.0, 2.0)

SCALE_PAIR = SystemConfig(matrices=(DIAG2, DIAG3))
POSITIVE_PAIR = SystemConfig(
    matrices=(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(1.0, 1.0, 1.0, 2.0))
)
SHEAR_PAIR = SystemConfig(matrices=(HALF_DIAG, SHEAR))

#: Critical exponent of POSITIVE_PAIR, from its spectral determinant.
POSITIVE_PAIR_DELTA = 0.3788192062


def scale_pair_exponent(tol=1e-8):
    """Root of 4^-s + 9^-s = 1, the closed-form exponent of the scaling pair."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 4.0 ** -mid + 9.0 ** -mid > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPartialZeta:
    def test_singleton_frozen_values(self):
        z = partial_zeta(SystemConfig(matrices=(DIAG2,)), 1.0, 3)
        assert z.per_depth == pytest.approx((0.25, 0.0625, 0.015625), rel=1e-14)
        assert z.cumulative == pytest.approx(0.328125, rel=1e-14)

    def test_scale_pair_is_exactly_multiplicative(self):
        # commuting diagonals: Z_m(s) = (4^-s + 9^-s)^m with no error
        z = partial_zeta(SCALE_PAIR, 0.5, 4)
        for m, val in enumerate(z.per_depth, start=1):
            assert val == pytest.approx((5.0 / 6.0) ** m, rel=1e-12)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            partial_zeta(SCALE_PAIR, -0.1, 2)


class TestPressureBracket:
    def test_scale_pair_bracket_collapses(self):
        ev = pressure_bracket(SCALE_PAIR, 0.5, 5, c_const=1.0)
        expect = math.log(5.0 / 6.0)
        assert ev.lower == pytest.approx(expect, rel=1e-12)
        assert ev.upper == pytest.approx(expect, rel=1e-12)

    def test_no_c_means_no_upper(self):
        ev = pressure_bracket(SCALE_PAIR, 0.5, 5)
        assert ev.upper == math.inf
        assert ev.lower == pytest.approx(math.log(5.0 / 6.0), rel=1e-12)

    def test_lower_is_valid_for_free_pair(self):
        # pressure of the positive pair at s=0 is log 2 exactly
        ev = pressure_bracket(POSITIVE_PAIR, 0.0, 6, c_const=1.0)
        assert ev.lower == pytest.approx(math.log(2.0), abs=1e-12)
        assert ev.upper >= ev.lower

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError):
            pressure_bracket(SCALE_PAIR, 0.5, 3, c_const=0.0)
        with pytest.raises(ValueError):
            pressure_bracket(SCALE_PAIR, 0.5, 3, c_const=1.5)


class TestCriticalExponentBracket:
    def test_scale_pair_contains_closed_form_root(self):
        delta = scale_pair_exponent()
        br = critical_exponent_bracket(SCALE_PAIR, 8, c_const=1.0)
        assert br.lo <= delta <= br.hi
        assert br.width <= 2e-4
        assert br.certified

    def test_singleton_exponent_is_zero(self):
        br = critical_exponent_bracket(
            SystemConfig(matrices=(DIAG2,)), 6, c_const=1.0
        )
        assert br.lo == 0.0
        assert br.hi <= 2e-4
        assert br.certified

    def test_estimate_route_flags_itself(self):
        delta = scale_pair_exponent()
        br = critical_exponent_bracket(SCALE_PAIR, 8)
        assert not br.certified
        assert any("estimate" in n for n in br.notes)
        assert br.lo <= delta <= br.hi + 1e-6
        # the commuting system's finite-depth estimate is already exact
        assert br.hi == pytest.approx(delta, abs=2e-3)

    def test_collision_note_for_non_free_system(self):
        br = critical_exponent_bracket(SHEAR_PAIR, 8)
        assert any("not free" in n for n in br.notes)

    def test_max_norm_never_certifies(self):
        cfg = SystemConfig(matrices=(DIAG2, DIAG3), norm="max")
        br = critical_exponent_bracket(cfg, 6, c_const=1.0)
        assert not br.certified

    def test_exact_constant_leaves_no_gap(self):
        br = critical_exponent_bracket(SCALE_PAIR, 8, c_const=1.0)
        assert not any("gap" in n for n in br.notes)

    def test_loose_constant_notes_the_gap(self):
        br = critical_exponent_bracket(POSITIVE_PAIR, 8, c_const=0.5)
        assert br.certified
        assert br.lo <= POSITIVE_PAIR_DELTA <= br.hi
        assert br.width > 1e-4
        assert any("certificate gap wider than tol" in n for n in br.notes)

    def test_tiny_constant_certifies_no_upper_bound(self):
        br = critical_exponent_bracket(POSITIVE_PAIR, 6, c_const=1e-6)
        assert br.hi == math.inf
        assert not br.certified
        assert 0.0 < br.lo <= POSITIVE_PAIR_DELTA
        assert any("no certified upper bound" in n for n in br.notes)


class TestQuickLowerBounds:
    def test_positive_pair_has_none(self):
        assert quick_lower_bounds(POSITIVE_PAIR) == ()

    def test_parabolic_letter_found(self):
        bounds = quick_lower_bounds(SHEAR_PAIR)
        assert any(
            b.value == 0.5 and b.reason == "parabolic-product" and b.word == (1,)
            for b in bounds
        )

    def test_rotation_accumulates(self):
        r = Matrix2(math.cos(1.0), -math.sin(1.0), math.sin(1.0), math.cos(1.0))
        bounds = quick_lower_bounds(SystemConfig(matrices=(r,)))
        assert any(
            b.value == math.inf and not b.certified for b in bounds
        )

    def test_lone_hyperbolic_letter_has_no_bound(self):
        # its powers overflow long before any scan depth would end
        assert quick_lower_bounds(SystemConfig(matrices=(DIAG2,))) == ()

    @pytest.mark.parametrize("letter", [
        Matrix2(-1.0001, 0.0, 0.0, -1.0 / 1.0001),
        Matrix2(-1.0, 1e-5, 0.0, -1.0),
    ])
    def test_sign_flipping_letter_does_not_accumulate(self, letter):
        bounds = quick_lower_bounds(SystemConfig(matrices=(letter,)))
        assert all(b.reason != "accumulation-evidence" for b in bounds)

    def test_scale_pair_clean(self):
        # hyperbolic, free, shared-fixed-point system: reduction is singleton
        # or uniformly hyperbolic, so no structural bound applies
        bounds = quick_lower_bounds(SCALE_PAIR)
        assert all(b.value < 1.0 for b in bounds)
