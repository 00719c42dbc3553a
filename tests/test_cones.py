import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from projifs import cones
from projifs.config import parse_config, parse_family
from projifs.cones import (
    AlmostMultConstant,
    ConeKind,
    Multicone,
    SDStatus,
    _bridge_to_cap,
    _merge_arcs,
    almost_mult_constant,
    certify_semidiscrete,
    certify_uniform_hyperbolicity,
    containment_margin,
    empirical_almost_mult,
    find_invariant_multicone,
    identity_approach,
    multicone_gap,
    sd_refuted,
    sd_status,
    verify_almost_mult,
)
from projifs.geometry import PI, Matrix2, MatrixClass, fixed_points, proj_act
from projifs.semigroup import SystemConfig, word_product

from conftest import sl2_from_params

DIAG2 = Matrix2(2.0, 0.0, 0.0, 0.5)
HALF_DIAG = Matrix2(0.5, 0.0, 0.0, 2.0)
SHEAR = Matrix2(1.0, 1.0, 0.0, 1.0)

POSITIVE_PAIR = SystemConfig(
    matrices=(Matrix2(2.0, 1.0, 1.0, 1.0), Matrix2(1.0, 1.0, 1.0, 2.0))
)
SCALING_TRANSLATION = SystemConfig(matrices=(HALF_DIAG, SHEAR))
SINGLE_DIAG = SystemConfig(matrices=(DIAG2,))

# one letter barely contracts at its fixed direction, the other is strong;
# the invariant arc exists but its margin lands below the default eps
GRAZING_PAIR = SystemConfig(
    matrices=(
        Matrix2(1.08, 0.0, 0.0, 1.0 / 1.08),
        sl2_from_params(0.8, math.log(6.0), -0.8),
    )
)

ROTATION = SystemConfig(matrices=(sl2_from_params(1.0, 0.0, 0.0),))

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestArcAlgebra:
    def test_merge_overlapping(self):
        assert _merge_arcs([(1.0, 1.5), (1.4, 1.8)], 0.0) == [(1.0, 1.8)]

    def test_merge_keeps_disjoint_sorted(self):
        out = _merge_arcs([(2.0, 2.5), (0.5, 1.0)], 0.0)
        assert out == [(0.5, 1.0), (2.0, 2.5)]

    def test_merge_glues_small_gaps(self):
        out = _merge_arcs([(1.0, 1.5), (1.6, 1.9)], 0.2)
        assert out == [(1.0, 1.9)]
        out = _merge_arcs([(1.0, 1.5), (1.6, 1.9)], 0.05)
        assert len(out) == 2

    def test_merge_across_wrap(self):
        # (3.0 -> 0.4 through pi) swallows the arc (0.1, 0.4)
        out = _merge_arcs([(3.0, 3.3), (0.1, 0.4)], 0.0)
        assert len(out) == 1
        (lo, hi) = out[0]
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(0.4 + PI)

    def test_merge_full_circle_is_none(self):
        assert _merge_arcs([(0.5, 2.5), (2.4, 0.6 + PI)], 0.0) is None

    def test_bridge_reduces_count(self):
        arcs = [(0.1 * i, 0.1 * i + 0.02) for i in range(1, 21)]
        out = _bridge_to_cap(arcs, cap=5)
        assert len(out) <= 5
        # every original arc survives inside some bridged arc
        for lo, hi in arcs:
            assert any(
                bl - 1e-12 <= lo and hi <= bh + 1e-12 for bl, bh in out
            )

    def test_multicone_rejects_overlap(self):
        with pytest.raises(ValueError):
            Multicone(((1.0, 1.5), (1.4, 1.8)))

    def test_multicone_rejects_near_full_circle(self):
        with pytest.raises(ValueError):
            Multicone(((0.1, 0.1 + PI - 1e-13),))

    def test_contains_and_clearance(self):
        mc = Multicone(((1.0, 1.5),))
        assert mc.contains_point(1.2)
        assert not mc.contains_point(0.8)
        assert mc.point_clearance(1.2) == 0.0
        assert mc.point_clearance(0.8) == pytest.approx(0.2)
        assert mc.point_clearance(1.7) == pytest.approx(0.2)

    def test_contains_across_wrap(self):
        mc = Multicone(((3.0, 3.3),))
        assert mc.contains_point(3.1)
        # 3.3 passes pi, so angles just above zero are inside
        assert mc.contains_point(0.1)
        assert not mc.contains_point(0.3)

    def test_containment_margin_nested(self):
        assert containment_margin([(1.0, 2.0)], [(1.2, 1.7)]) == pytest.approx(0.2)

    def test_containment_margin_overhang(self):
        assert containment_margin([(1.0, 2.0)], [(0.9, 1.5)]) == pytest.approx(-0.1)

    def test_multicone_gap(self):
        a = Multicone(((1.0, 1.2),))
        b = Multicone(((1.5, 1.8),))
        assert multicone_gap(a, b) == pytest.approx(0.3)
        c = Multicone(((1.1, 1.6),))
        assert multicone_gap(a, c) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=PI),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_merge_covers_inputs(self, raw):
        arcs = [(lo, lo + ln) for lo, ln in raw]
        out = _merge_arcs(arcs, 1e-9)
        if out is None:
            return
        mc = Multicone(tuple(out))
        for lo, hi in arcs:
            assert mc.contains_point(lo + 1e-12, slack=1e-9)
            mid = lo + (hi - lo) / 2.0
            assert mc.contains_point(mid, slack=1e-9)


class TestInvariantMulticone:
    def test_positive_pair_compact(self):
        res = find_invariant_multicone(POSITIVE_PAIR)
        assert res.found
        assert res.kind is ConeKind.COMPACT
        assert res.margin >= 1e-3
        # letter fixed directions at atan(1/phi) and atan(phi) are inside
        assert res.cone.contains_point(0.55357435889704525)
        assert res.cone.contains_point(1.01722196789785137)
        # the cone stays in the positive quadrant
        for lo, hi in res.cone.arcs:
            assert 0.4 < lo < hi < 1.2

    def test_positive_pair_images_nest(self):
        res = find_invariant_multicone(POSITIVE_PAIR)
        for m in POSITIVE_PAIR.matrices:
            for lo, hi in res.cone.arcs:
                for t in (lo, hi, lo + (hi - lo) / 2.0):
                    assert res.cone.contains_point(proj_act(m, t))

    def test_scaling_translation_has_no_cone(self):
        res = find_invariant_multicone(SCALING_TRANSLATION)
        assert not res.found
        assert any("circle" in n for n in res.notes)

    def test_grazing_pair_is_strict_only(self):
        res = find_invariant_multicone(GRAZING_PAIR)
        assert res.found
        assert res.kind is ConeKind.STRICT_ONLY
        assert 0.0 < res.margin < 1e-3
        assert any("tolerance" in n for n in res.notes)

    def test_elliptic_letter_refuses(self):
        res = find_invariant_multicone(ROTATION)
        assert not res.found
        assert any("elliptic" in n for n in res.notes)

    def test_single_diag_cone_sits_at_pi(self):
        res = find_invariant_multicone(SINGLE_DIAG)
        assert res.found
        assert res.kind is ConeKind.COMPACT
        assert res.cone.contains_point(PI)
        assert not res.cone.contains_point(PI / 2.0)


class TestAlmostMult:
    def test_positive_pair_constant_is_sound(self):
        cone = find_invariant_multicone(POSITIVE_PAIR)
        am = almost_mult_constant(POSITIVE_PAIR, cone.cone, cone.margin)
        assert am.valid
        assert 0.0 < am.c <= 1.0
        assert am.c == pytest.approx(math.sin(am.g) ** 2)
        assert am.checked_words > 0
        assert verify_almost_mult(POSITIVE_PAIR, am.c, total_depth=6) == 0

    def test_empirical_dominates_certified(self):
        cone = find_invariant_multicone(POSITIVE_PAIR)
        am = almost_mult_constant(POSITIVE_PAIR, cone.cone, cone.margin)
        assert empirical_almost_mult(POSITIVE_PAIR) >= am.c

    def test_needs_compact_cone(self):
        # a strict-only cone neither certifies nor gets a constant
        assert find_invariant_multicone(GRAZING_PAIR).kind is ConeKind.STRICT_ONLY
        cert = certify_uniform_hyperbolicity(GRAZING_PAIR)
        assert not cert.certified
        assert cert.almost_mult is None
        assert cert.notes == ("forward multicone is strict-only, not compact",)

    def test_verify_catches_impossible_constant(self):
        # submultiplicativity caps every ratio at 1, so c > 1 must fail
        assert verify_almost_mult(POSITIVE_PAIR, 1.1, total_depth=4) > 0

    def test_exact_multiplicative_singleton(self):
        assert verify_almost_mult(SINGLE_DIAG, 1.0, total_depth=6) == 0


class TestUniformHyperbolicity:
    def test_positive_pair_certifies(self):
        cert = certify_uniform_hyperbolicity(POSITIVE_PAIR)
        assert cert.certified
        assert cert.almost_mult is not None and cert.almost_mult.valid
        assert cert.empirical_c >= cert.almost_mult.c
        assert cert.growth.lam > 1.0

    def test_scaling_translation_fails(self):
        cert = certify_uniform_hyperbolicity(SCALING_TRANSLATION)
        assert not cert.certified
        assert not cert.forward.found
        assert any("forward" in n for n in cert.notes)

    def test_single_diag_certifies_with_exact_growth(self):
        cert = certify_uniform_hyperbolicity(SINGLE_DIAG)
        assert cert.certified
        assert cert.growth.lam == pytest.approx(2.0, rel=1e-9)
        assert cert.growth.c == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("index", [1, 22])
    def test_interior_family_inverse_certifies(self, index):
        # t = 0.520 and 0.949: the compact forward cone alone certifies;
        # neither system's inverse has a compact cone of its own
        family = parse_family(CONFIGS / "family_hyperbolic_interior.cfg")
        cfg = family.at(family.grid[index]).inverse()
        cert = certify_uniform_hyperbolicity(cfg)
        assert cert.certified
        assert cert.forward.kind is ConeKind.COMPACT
        assert cert.almost_mult is not None and cert.almost_mult.valid
        assert verify_almost_mult(cfg, cert.almost_mult.c, 6) == 0
        assert cert.growth.lam > 1.0

    def test_one_search_and_no_inverse(self, monkeypatch):
        searched = []
        search = cones._search_multicone

        def counting(cfg):
            searched.append(cfg)
            return search(cfg)

        def refuse(cfg):
            raise AssertionError("the certificate built the inverse system")

        monkeypatch.setattr(cones, "_search_multicone", counting)
        monkeypatch.setattr(SystemConfig, "inverse", refuse)
        cfg = SystemConfig(matrices=POSITIVE_PAIR.matrices)
        assert certify_uniform_hyperbolicity(cfg).certified
        assert searched == [cfg]


class TestSemidiscreteness:
    def test_positive_pair_certified(self):
        cert = certify_semidiscrete(POSITIVE_PAIR)
        assert cert.status is SDStatus.CERTIFIED_VIA_INVARIANT_SET
        assert cert.decided

    def test_grazing_pair_certified_with_tolerance_note(self):
        cert = certify_semidiscrete(GRAZING_PAIR)
        assert cert.status is SDStatus.CERTIFIED_VIA_INVARIANT_SET
        assert any("tolerance" in n for n in cert.notes)

    def test_scaling_translation_stays_evidence(self):
        cert = certify_semidiscrete(SCALING_TRANSLATION)
        assert cert.status is SDStatus.EVIDENCE_ONLY
        assert not cert.decided
        # products keep a healthy distance from +-identity
        assert cert.min_dist_to_identity > 0.5

    def test_rotation_stays_evidence(self):
        cert = certify_semidiscrete(ROTATION)
        assert cert.status is SDStatus.EVIDENCE_ONLY
        assert not cert.decided

    def test_profiles_no_level_past_the_exact_pair_limit(self):
        # 65 letters: level 2 has 4,225 words, more than _EXACT_PAIR_LIMIT
        cfg = SystemConfig(matrices=tuple(
            sl2_from_params(1.0 + 0.01 * j, 0.0, 0.0) for j in range(65)
        ))
        certify_semidiscrete(cfg)
        assert [r.depth for r in cfg.memo["discreteness"].rows] == [1]


def _scalar_seeds(cfg, seed_depth, budget=640):
    """Seeds from one scalar product per word: the first `budget` words,
    shortest first."""
    words = itertools.islice(
        (w for n in range(1, seed_depth + 1)
         for w in itertools.product(range(cfg.k), repeat=n)),
        budget,
    )
    seeds = []
    for w in words:
        fp = fixed_points(word_product(cfg, w))
        if fp.kind is MatrixClass.HYPERBOLIC:
            seeds.append(fp.attracting)
        elif fp.kind is MatrixClass.PARABOLIC:
            seeds.append(fp.parabolic)
    return seeds


def _bundled_systems():
    out = []
    for path in sorted(CONFIGS.glob("*.cfg")):
        if path.stem.startswith("family_"):
            continue
        cfg = parse_config(path)
        out.append(pytest.param(cfg, id=path.stem))
        out.append(pytest.param(cfg.inverse(), id=f"{path.stem}-inverse"))
    return out


@pytest.mark.parametrize("cfg", _bundled_systems())
def test_table_seeds_match_scalar_products(cfg, monkeypatch):
    seeds = cones._seed_points(cfg, 8)
    assert all(type(t) is float for t in seeds)
    assert sorted(seeds) == pytest.approx(
        sorted(_scalar_seeds(cfg, 8)), rel=0.0, abs=1e-12
    )
    kind = find_invariant_multicone(cfg).kind
    monkeypatch.setattr(cones, "_seed_points", _scalar_seeds)
    assert find_invariant_multicone(cfg).kind is kind


def _family_members():
    out = []
    for stem in ("family_hyperbolic_interior", "family_identity_limit"):
        family = parse_family(CONFIGS / f"{stem}.cfg")
        out.extend(pytest.param(family.at(t), id=f"{stem}-{t:g}")
                   for t in family.grid)
    return out


# rotations whose tenth power is -identity, exactly up to rounding or 1e-3
# past it: products reach +-identity only at the deepest level of depth 10
TENTH_TURNS = [
    pytest.param(SystemConfig(matrices=(sl2_from_params(angle, 0.0, 0.0),)),
                 id=f"tenth-turn-{name}")
    for name, angle in (("exact", PI / 10), ("past", PI / 10 + 1e-4))
]


@pytest.mark.parametrize("depth", [8, 10])
@pytest.mark.parametrize(
    "cfg", _bundled_systems() + _family_members() + TENTH_TURNS
)
def test_sd_status_matches_the_certificate(cfg, depth):
    status = sd_status(cfg, depth)
    refuted = sd_refuted(cfg, depth)
    cert = certify_semidiscrete(cfg, depth)
    assert status is cert.status
    assert refuted is (cert.status is SDStatus.REFUTED_VIA_IDENTITY_APPROACH)
    if not cert.cone.found:
        assert identity_approach(cfg, depth) == cert.min_dist_to_identity
