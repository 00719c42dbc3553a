import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projifs import cones, spectral
from projifs.cli import run_command
from projifs.config import parse_config, parse_family
from projifs.geometry import CLASS_TOL, Matrix2, MatrixClass, classify
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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = sorted(
    p.name for p in CONFIGS.glob("*.cfg") if not p.name.startswith("family_")
)

#: Every level-12 norm is at least about 2e32, so at s = 5 every level-12
#: weight underflows to 0.
UNDERFLOW_PAIR = SystemConfig(
    matrices=(Matrix2(1000.0, 0.0, 0.0, 0.001), Matrix2(500.0, 1.0, 0.0, 0.002))
)


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

    def test_collision_note_for_non_free_system(self, tmp_path, capsys):
        # scaling_translation holds SHEAR_PAIR's letters; only critexp
        # checks freeness, and prints its note ahead of the bracket's own
        code = run_command(
            ["critexp", "--config", str(CONFIGS / "scaling_translation.cfg"),
             "--depth", "8", "--out", str(tmp_path)]
        )
        assert code == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("note: ")]
        assert notes[0].startswith("note: system is not free: distinct "
                                   "words repeat a matrix from depth ")
        assert not any("not free" in n for n in notes[1:])

    def test_bracket_runs_no_freeness_check(self, monkeypatch):
        def refuse(cfg, depth):
            raise AssertionError("the bracket checked freeness")

        for name, module in list(sys.modules.items()):
            if name.startswith("projifs") and hasattr(
                    module, "first_collision_depth"):
                monkeypatch.setattr(module, "first_collision_depth", refuse)
        br = critical_exponent_bracket(SHEAR_PAIR, 8)
        assert not any("not free" in n for n in br.notes)

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

    @pytest.mark.parametrize("edge", [2.0 + CLASS_TOL, 2.0 - CLASS_TOL])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_letter_at_the_trace_boundary_is_parabolic(self, edge, sign):
        # |tr| = fl(2 +- CLASS_TOL) exactly: classify calls it parabolic
        u = edge - 2.0
        letter = Matrix2(sign * (1.0 + u), sign, sign * u, sign)
        assert abs(letter.trace) == edge
        assert classify(letter) is MatrixClass.PARABOLIC
        bounds = quick_lower_bounds(SystemConfig(matrices=(letter,)))
        assert any(
            b.value == 0.5 and b.reason == "parabolic-product" and b.word == (0,)
            for b in bounds
        )

    @pytest.mark.parametrize("name, t, inverted", [
        ("family_hyperbolic_interior", 1.5, True),
        ("family_identity_limit", 0.04, False),
    ])
    def test_found_multicone_retires_the_accumulation_scan(
        self, name, t, inverted
    ):
        # the pairwise minimum falls fast on both (Diophantine decay on the
        # first), yet a multicone certifies semidiscreteness: compact on the
        # first, strict-only on the second
        cfg = parse_family(CONFIGS / f"{name}.cfg").at(t)
        cfg = cfg.inverse() if inverted else cfg
        cert = cones.certify_semidiscrete(cfg)
        assert cert.status is cones.SDStatus.CERTIFIED_VIA_INVARIANT_SET
        bounds = quick_lower_bounds(cfg)
        assert all(b.reason != "accumulation-evidence" for b in bounds)

    def test_scale_pair_clean(self):
        # hyperbolic, free, shared-fixed-point system: reduction is singleton
        # or uniformly hyperbolic, so no structural bound applies
        bounds = quick_lower_bounds(SCALE_PAIR)
        assert all(b.value < 1.0 for b in bounds)


class _ReferenceProbe(spectral._PressureProbe):
    """The per-probe fsum predicates that _PressureProbe.sign replaced, kept
    verbatim as its reference."""

    def log_zeta(self, s, n):
        return math.log(math.fsum(np.exp(-2.0 * s * self.log_norms[n - 1])))

    def lower_positive(self, s):
        return max(
            (self.log_zeta(s, m) - 2.0 * s * self.split_penalty) / m
            for m in range(1, self.depth + 1)
        ) > 0.0

    def upper_not_negative(self, s, c_const):
        pen = -2.0 * s * math.log(c_const)
        return not min(
            (self.log_zeta(s, m) + pen) / m for m in range(1, self.depth + 1)
        ) < 0.0

    def estimate_not_negative(self, s):
        return self.log_zeta(s, self.depth) / self.depth >= 0.0


def _reference_sign(probe, s, n, c):
    value = (_ReferenceProbe.log_zeta(probe, s, n) - c) / n
    return (value > 0.0) - (value < 0.0)


def _probe_of(levels, split_penalty=0.0):
    """A probe over the given per-level log-norm stacks, with no table."""
    probe = object.__new__(spectral._PressureProbe)
    probe.depth = len(levels)
    probe.log_norms = [np.asarray(lev, dtype=float) for lev in levels]
    probe.split_penalty = split_penalty
    return probe


def _weights_probe(weights):
    """A one-level probe whose weights at s = 1/2 are about `weights`."""
    probe = _probe_of([-np.log(np.asarray(weights))])
    terms = np.exp(-probe.log_norms[0])
    rough, exact = float(np.sum(terms)), math.fsum(terms)
    assert rough != exact, "not a boundary case on this numpy"
    return probe, math.log(rough), math.log(exact)


class TestPressureSign:
    def test_fsum_decides_when_np_sum_rounds_down(self):
        # 1 + x + x with x below half an ulp of 1: np.sum stays at 1,
        # fsum rounds 1 + 2x up to 1 + 2^-52
        x = 0.75 * 2.0**-53
        probe, rough, exact = _weights_probe([1.0, x, x])
        assert rough < exact
        c = 0.5 * (rough + exact)
        assert probe.sign(0.5, 1, c) == _reference_sign(probe, 0.5, 1, c) == 1

    def test_fsum_decides_when_np_sum_rounds_up(self):
        # x just above half an ulp: each step of np.sum rounds up, while
        # fsum rounds 1 + 2x down to 1 + 2^-52
        x = 1.25 * 2.0**-53
        probe, rough, exact = _weights_probe([1.0, x, x])
        assert rough > exact
        c = 0.5 * (rough + exact)
        assert probe.sign(0.5, 1, c) == _reference_sign(probe, 0.5, 1, c) == -1

    def test_zero_pressure_at_s_zero(self):
        cfg = parse_config(CONFIGS / "single_scaling.cfg")
        probe = spectral._PressureProbe(cfg, 6)
        for n in range(1, 7):
            assert probe.sign(0.0, n, 0.0) == 0
        assert probe.estimate_not_negative(0.0)
        assert probe.upper_not_negative(0.0, 0.5)
        assert not probe.lower_positive(0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 40.0), min_size=1, max_size=200),
        st.floats(0.0, 5.0),
        st.integers(1, 12),
        st.sampled_from(["exact", "rough", "middle", "zero"]),
        st.integers(-3, 3),
    )
    def test_sign_is_the_fsum_sign(self, log_norms, s, n, anchor, ulps):
        probe = _probe_of([log_norms] * n)
        terms = np.exp(-2.0 * s * probe.log_norms[0])
        exact = math.log(math.fsum(terms))
        rough = math.log(float(np.sum(terms)))
        c = {"exact": exact, "rough": rough, "middle": 0.5 * (exact + rough),
             "zero": 0.0}[anchor]
        c += ulps * math.ulp(c)
        assert probe.sign(s, n, c) == _reference_sign(probe, s, n, c)

    def test_underflowed_level_keeps_a_finite_log(self):
        probe = spectral._PressureProbe(UNDERFLOW_PAIR, 12)
        levels = probe.log_norms[11]
        assert not np.exp(-10.0 * levels).any()
        want = float(np.logaddexp.reduce(-10.0 * levels))
        assert probe.log_zeta(5.0, 12) == pytest.approx(want, rel=1e-12)
        assert probe.sign(5.0, 12, 0.0) == -1
        assert probe.sign(5.0, 12, 2.0 * want) == 1
        ev = pressure_bracket(UNDERFLOW_PAIR, 5.0, 12)
        assert math.isfinite(ev.lower)


@pytest.mark.parametrize("name", BUNDLED)
def test_bracket_matches_fsum_reference(name, monkeypatch):
    base = parse_config(CONFIGS / name)
    for norm in ("op2", "max"):
        cfg = dataclasses.replace(base, norm=norm)
        probe = spectral._PressureProbe(cfg, 10)
        ref = _ReferenceProbe(cfg, 10)
        for s in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
            for pred, args in (("lower_positive", ()),
                               ("estimate_not_negative", ()),
                               ("upper_not_negative", (0.5,))):
                got = getattr(probe, pred)(s, *args)
                assert got == getattr(ref, pred)(s, *args), (pred, s)
        for depth in (6, 8, 10):
            for tol in (1e-4, 1e-6):
                got = critical_exponent_bracket(cfg, depth, tol=tol)
                with monkeypatch.context() as m:
                    m.setattr(spectral, "_PressureProbe", _ReferenceProbe)
                    want = critical_exponent_bracket(cfg, depth, tol=tol)
                assert repr(got) == repr(want)


@pytest.mark.parametrize("name", ["positive_pair.cfg", "stern_brocot.cfg"])
def test_certified_bracket_matches_fsum_reference(name, monkeypatch):
    base = parse_config(CONFIGS / name)
    for norm in ("op2", "max"):
        cfg = dataclasses.replace(base, norm=norm)
        for c_const in (1.0, 0.5, 0.05, 1e-3):
            got = critical_exponent_bracket(cfg, 10, c_const=c_const)
            with monkeypatch.context() as m:
                m.setattr(spectral, "_PressureProbe", _ReferenceProbe)
                want = critical_exponent_bracket(cfg, 10, c_const=c_const)
            assert repr(got) == repr(want)
