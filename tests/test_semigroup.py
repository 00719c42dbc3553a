import dataclasses
import gc
import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_sl2
from projifs.config import parse_config, parse_family
from projifs.geometry import IDENTITY2, Matrix2, op_norm, renormalize_array
from projifs.semigroup import (
    DiscretenessProfile,
    ProductTable,
    SeparationRow,
    SystemConfig,
    common_fixed_points,
    diophantine_profile,
    discreteness_profile,
    identity_approach,
    left_invariant_dist,
    word_product,
)
from projifs import semigroup

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SHEAR = Matrix2(1.0, 1.0, 0.0, 1.0)
DIAG2 = Matrix2(2.0, 0.0, 0.0, 0.5)
HALF_DIAG = Matrix2(0.5, 0.0, 0.0, 2.0)

PAIR = SystemConfig(matrices=(DIAG2, SHEAR))


def rotation(t):
    return Matrix2(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))


class TestConfig:
    def test_probs_normalize(self):
        cfg = SystemConfig(matrices=(DIAG2, SHEAR), probs=(1.0, 3.0))
        assert cfg.probs == pytest.approx((0.25, 0.75))

    def test_uniform_weights(self):
        assert PAIR.weights() == (0.5, 0.5)

    def test_bad_probs_length(self):
        with pytest.raises(ValueError):
            SystemConfig(matrices=(DIAG2,), probs=(0.5, 0.5))

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            SystemConfig(matrices=(DIAG2,), norm="frobenius")

    def test_empty(self):
        with pytest.raises(ValueError):
            SystemConfig(matrices=())


class TestProductTable:
    def test_level_matches_word_products(self):
        table = ProductTable(PAIR)
        lev = table.level(2)
        assert lev.shape == (4, 2, 2)
        for idx, w in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            assert np.allclose(lev[idx], word_product(PAIR, w).array, atol=1e-14)

    def test_norms_match_scalar(self):
        table = ProductTable(PAIR)
        ns = table.norms(3)
        for idx in range(8):
            w = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
            assert ns[idx] == pytest.approx(op_norm(word_product(PAIR, w)), rel=1e-12)

    def test_word_inverts_row_order(self):
        cfg = SystemConfig(matrices=(DIAG2, SHEAR, HALF_DIAG))
        for n in (1, 2, 3):
            words = [cfg.table.word(n, i) for i in range(cfg.k ** n)]
            assert words == list(itertools.product(range(3), repeat=n))

    def test_config_owns_one_table(self):
        cfg = SystemConfig(matrices=(DIAG2, SHEAR))
        assert cfg.table is cfg.table
        # shared arrays: no analysis may write into another's products
        assert not cfg.table.level(2).flags.writeable
        assert not cfg.table.norms(2).flags.writeable
        assert dataclasses.replace(cfg, seed=3).table is not cfg.table
        inv = cfg.inverse()
        assert inv.table is not cfg.table
        assert np.allclose(inv.table.level(1)[0], DIAG2.inverse().array)

    def test_table_freed_with_its_config(self):
        # no config <-> table cycle: refcounting alone frees both
        cfg = SystemConfig(matrices=(DIAG2, SHEAR))
        cfg.table.level(4)
        ref = weakref.ref(cfg.table)
        gc.disable()
        try:
            del cfg
            assert ref() is None
        finally:
            gc.enable()

    def test_determinants_stay_one(self):
        table = ProductTable(PAIR)
        lev = table.level(10)
        det = lev[:, 0, 0] * lev[:, 1, 1] - lev[:, 0, 1] * lev[:, 1, 0]
        assert np.max(np.abs(det - 1.0)) < 1e-12

    def test_depth_within_edges(self):
        # one letter: every level has one word, so the cap decides
        assert ProductTable(SystemConfig(matrices=(DIAG2,))).depth_within(
            1, 30) == 30
        table = ProductTable(SystemConfig(matrices=(DIAG2, SHEAR, HALF_DIAG)))
        # a budget below k still gives level 1
        assert table.depth_within(2, 10) == 1
        assert table.depth_within(26, 10) == 2
        assert table.depth_within(27, 10) == 3
        assert table.depth_within(10 ** 9, 1) == 1

    @pytest.mark.parametrize("k", range(1, 6))
    def test_depth_within_matches_the_loops_it_replaced(self, k):
        table = ProductTable(SystemConfig(matrices=(DIAG2,) * k))
        for cap in range(1, 15):
            new = (
                list(range(2, table.depth_within(2048, min(cap, 11)) + 1)),
                table.depth_within(4096, cap),
                list(range(1, table.depth_within(262144, cap) + 1)),
                list(range(1, table.depth_within(65536, cap) + 1)),
                table.depth_within(4096, cap),
                table.depth_within(260_000, cap),
            )
            assert new == _budget_loops(k, cap), cap


def _bundled_systems():
    plain = sorted(
        p for p in CONFIGS.glob("*.cfg") if not p.stem.startswith("family_")
    )
    out = []
    for p in plain:
        cfg = parse_config(p)
        out += [pytest.param(cfg, id=p.stem),
                pytest.param(cfg.inverse(), id=f"{p.stem}-inverse")]
    # at t = 0 both letters are the identity: every level is exact zeros
    # and ones
    limit = parse_family(CONFIGS / "family_identity_limit.cfg").at(0.0)
    return out + [pytest.param(limit, id="identity_limit-0.0")]


@pytest.mark.parametrize("cfg", _bundled_systems())
def test_levels_match_the_broadcast_product(cfg):
    """Each level is the bits of the one broadcast product that the
    per-letter GEMMs replaced, to the deepest level of at most 2**16 rows."""
    table = ProductTable(cfg)
    base = np.stack([m.array for m in cfg.matrices])
    prev = renormalize_array(base.copy())
    assert table.level(1).tobytes() == prev.tobytes()
    for n in range(2, table.depth_within(1 << 16, 40) + 1):
        prev = renormalize_array(
            np.matmul(base[:, None], prev[None]).reshape(-1, 2, 2))
        assert table.level(n).tobytes() == prev.tobytes(), n


def _budget_loops(k, cap):
    """The level-budget loops that ProductTable.depth_within replaced, as
    they read in first_collision_depth, certify_semidiscrete,
    _growth_estimate, _parabolic_word, find_pivot (the cloud depth) and
    gamma_lower_bound (the default depth), each with `cap` in place of its
    own cap: the levels each scanned, or the depth each chose."""
    collision = []
    for n in range(2, min(cap, 11) + 1):
        if k ** n > 2048:
            break
        collision.append(n)
    scan_depth = cap
    while k ** scan_depth > 4096 and scan_depth > 1:
        scan_depth -= 1
    growth = []
    for n in range(1, cap + 1):
        if k ** n > 262144:
            break
        growth.append(n)
    parabolic = []
    for n in range(1, cap + 1):
        if k ** n > 65536:
            break
        parabolic.append(n)
    cloud_depth = 1
    while k ** (cloud_depth + 1) <= 4096 and cloud_depth < cap:
        cloud_depth += 1
    gamma_depth = 1
    while k ** (gamma_depth + 1) <= 260_000 and gamma_depth < cap:
        gamma_depth += 1
    return (collision, scan_depth, growth, parabolic, cloud_depth,
            gamma_depth)


class TestMetric:
    def test_diag_distance_exact(self):
        e = math.exp(1.0)
        m = Matrix2(e, 0.0, 0.0, 1.0 / e)
        assert left_invariant_dist(IDENTITY2, m) == pytest.approx(math.sqrt(2.0))

    def test_doubling_map_distance(self):
        # log diag(2, 1/2) = diag(log 2, -log 2)
        assert left_invariant_dist(IDENTITY2, DIAG2) == pytest.approx(
            math.sqrt(2.0) * math.log(2.0)
        )

    def test_rotation_distance(self):
        assert left_invariant_dist(IDENTITY2, rotation(0.3)) == pytest.approx(
            0.3 * math.sqrt(2.0)
        )

    def test_shear_distance(self):
        assert left_invariant_dist(IDENTITY2, SHEAR) == pytest.approx(1.0)

    def test_zero_on_diagonal(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = random_sl2(rng)
            assert left_invariant_dist(m, m) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            a, b = random_sl2(rng), random_sl2(rng)
            assert left_invariant_dist(a, b) == pytest.approx(
                left_invariant_dist(b, a), rel=1e-9, abs=1e-12
            )

    def test_left_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g, a, b = random_sl2(rng), random_sl2(rng), random_sl2(rng)
            assert left_invariant_dist(g @ a, g @ b) == pytest.approx(
                left_invariant_dist(a, b), rel=1e-7, abs=1e-10
            )

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(24)
        ms = [random_sl2(rng) for _ in range(100)]
        arr = np.stack([m.array for m in ms])
        vec = semigroup._displacement_norms_array(arr)
        for m, v in zip(ms, vec):
            assert v == pytest.approx(
                left_invariant_dist(IDENTITY2, m), rel=1e-9, abs=1e-12
            )


class TestPairwiseMin:
    def test_duplicate_counts_as_collision(self):
        arr = np.stack([DIAG2.array, SHEAR.array, DIAG2.array])
        d, coll = semigroup._pairwise_min(arr)
        assert coll == 1
        assert d == pytest.approx(left_invariant_dist(DIAG2, SHEAR))

    def test_windowed_is_upper_bound(self):
        rng = np.random.default_rng(25)
        arr = np.stack([random_sl2(rng).array for _ in range(300)])
        exact, _ = semigroup._pairwise_min(arr)
        windowed, _ = semigroup._window_scan(arr)
        assert windowed >= exact - 1e-12

    def test_cross_arrays(self):
        # rows from head on are only ever the later row of a pair: the two
        # shears past head would collide with each other
        stack = np.stack([DIAG2.array, SHEAR.array, DIAG2.array, SHEAR.array])
        d, coll = semigroup._pairwise_min(stack, head=1)
        assert coll == 1
        assert d == pytest.approx(left_invariant_dist(DIAG2, SHEAR))
        assert semigroup._pairwise_min(stack)[1] == 2


def _random_stack(rng, n, max_log):
    return np.stack([random_sl2(rng, max_log).array for _ in range(n)])


def _near_copies(rng, rows, radii):
    """A @ (I + X) for each row A, with X traceless of Frobenius norm r:
    log-distance r from A up to O(r^2) and the rounding of the product."""
    out = []
    for a, r in zip(rows, radii):
        x = rng.normal(size=3)
        x = np.array([[x[0], x[1]], [x[2], -x[0]]])
        x *= r / np.linalg.norm(x)
        out.append(a @ (np.eye(2) + x))
    return np.stack(out)


def _shuffled(rng, *parts):
    arr = np.concatenate(parts)
    return arr[rng.permutation(len(arr))]


def _collision_stacks():
    """Stacks that stress the collision sweep, each with its own seed."""
    tol = semigroup.COLLISION_TOL
    rng = np.random.default_rng(7)
    base = _random_stack(rng, 200, 3.0)
    dupes = _shuffled(rng, base, base[rng.integers(200, size=40)])
    rng = np.random.default_rng(8)
    base = _random_stack(rng, 150, 3.0)
    near = _shuffled(
        rng, base,
        _near_copies(rng, base[:50], [0.9 * tol] * 25 + [1.1 * tol] * 25),
    )
    rng = np.random.default_rng(9)
    base = _random_stack(rng, 150, 3.0)
    signs = _shuffled(rng, base, -base[:50])
    # rounding of adj(A) @ B is comparable to COLLISION_TOL at norm 1e3
    rng = np.random.default_rng(10)
    base = _random_stack(rng, 150, 7.0)
    noisy = _shuffled(
        rng, base, _near_copies(rng, base, tol * rng.uniform(0.2, 3.0, 150))
    )
    # c A counts as a collision with A (its log-norm ignores scalars), and
    # its determinant c^2 widens the radius
    rng = np.random.default_rng(13)
    base = _random_stack(rng, 150, 3.0)
    scaled = _shuffled(rng, base, 1.01 * base[:20])
    # norms near 1e8: every pair is a candidate
    rng = np.random.default_rng(11)
    base = _random_stack(rng, 120, 19.0)
    large = _shuffled(rng, base, base[:30])
    return {
        "duplicates": dupes, "near_tol": near, "minus_a": signs,
        "rounding_noise": noisy, "scaled": scaled, "large_norm": large,
    }


COLLISION_STACKS = _collision_stacks()


class TestCollisionCount:
    @pytest.mark.parametrize("name", sorted(COLLISION_STACKS))
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_matches_all_pairs_scan(self, name, chunk, monkeypatch):
        arr = COLLISION_STACKS[name]
        if chunk is not None:
            monkeypatch.setattr(semigroup, "_SWEEP_CHUNK", chunk)
        assert semigroup._pairwise_min(arr)[1] == _reference_pairwise_min(arr)[1]

    def test_planted_cases_count_as_expected(self):
        def count(name):
            return semigroup._pairwise_min(COLLISION_STACKS[name])[1]

        # 40 planted copies: at least 40 colliding pairs
        assert count("duplicates") >= 40
        # only the 25 copies at 0.9 tol collide, not the 25 at 1.1 tol
        assert count("near_tol") == 25
        # -A is the same projective map but not the same matrix
        assert count("minus_a") == 0
        assert count("scaled") == 20
        assert count("rounding_noise") > 0

    def test_pairs_are_evaluated_in_row_order(self):
        # at norm ~3e3 the rounding of adj(A) @ B and of adj(B) @ A can put
        # a pair near COLLISION_TOL on opposite sides of it
        tol = semigroup.COLLISION_TOL
        rng = np.random.default_rng(12)
        base = _random_stack(rng, 300, 8.0)
        near = _near_copies(rng, base, tol * rng.uniform(0.9, 1.1, 300))
        order_matters = 0
        for a, b in zip(base, near):
            counts = []
            for pair in (np.stack([a, b]), np.stack([b, a])):
                counts.append(semigroup._pairwise_min(pair)[1])
                assert counts[-1] == _reference_pairwise_min(pair)[1]
            order_matters += counts[0] != counts[1]
        assert order_matters > 0

    def test_radius_filters_small_norms_and_covers_large(self, monkeypatch):
        # the half-trace window skips most pairs at small norms and keeps
        # every pair near norm 1e8, evaluating none twice
        seen = []
        evaluate = semigroup._displacement_norms_array

        def counting(c):
            seen.append(len(c))
            return evaluate(c)

        monkeypatch.setattr(semigroup, "_displacement_norms_array", counting)
        for name, every_pair in (("near_tol", False), ("large_norm", True)):
            arr = COLLISION_STACKS[name]
            seen.clear()
            semigroup._pairwise_min(arr)
            all_pairs = len(arr) * (len(arr) - 1) // 2
            assert (sum(seen) == all_pairs) is every_pair
            assert sum(seen) <= all_pairs

    def test_singletons(self):
        assert semigroup._pairwise_min(np.empty((0, 2, 2)))[1] == 0
        assert semigroup._pairwise_min(np.stack([DIAG2.array]))[1] == 0


def _collision_systems():
    """Systems and largest level sizes for the equivalence check."""
    plain = sorted(
        p for p in CONFIGS.glob("*.cfg") if not p.stem.startswith("family_")
    )
    out = [pytest.param(parse_config(p), 1024, id=p.stem) for p in plain]
    out += [
        pytest.param(parse_config(CONFIGS / f"{name}.cfg"), 2048, id=f"{name}-2048")
        for name in ("shared_fixed_pair", "scaling_translation")
    ]
    limit = parse_family(CONFIGS / "family_identity_limit.cfg")
    out += [
        pytest.param(limit.at(t), 2048, id=f"identity_limit-{t}")
        for t in (0.0, 0.1, 0.5)
    ]
    interior = parse_family(CONFIGS / "family_hyperbolic_interior.cfg")
    out += [
        pytest.param(interior.at(t), 2048, id=f"interior-{t:.4f}")
        for t in interior.grid[::12]
    ]
    return out


@pytest.mark.parametrize("cfg,rows", _collision_systems())
def test_collision_count_and_note_match_all_pairs_scan(cfg, rows):
    depth = 1
    while cfg.k ** (depth + 1) <= rows and depth < 11:
        depth += 1
    counts = [semigroup._pairwise_min(cfg.table.level(n))[1]
              for n in range(2, depth + 1)]
    first = next((n for n, c in enumerate(counts, 2) if c), None)
    assert semigroup.first_collision_depth(cfg, depth) == first


def _reference_pairwise_min(arr, other=None):
    """The per-row scan that _pairwise_min replaced, kept as its reference."""
    best = math.inf
    collisions = 0

    def absorb(dists):
        nonlocal best, collisions
        hit = dists < semigroup.COLLISION_TOL
        collisions += int(hit.sum())
        live = dists[~hit]
        if live.size:
            best = min(best, float(live.min()))

    if other is None:
        n = len(arr)
        if n < 2:
            return math.inf, 0
        if n <= semigroup._EXACT_PAIR_LIMIT:
            adj = semigroup._adjugates(arr)
            for i in range(n - 1):
                c = np.matmul(adj[i], arr[i + 1:])
                absorb(semigroup._displacement_norms_array(c))
        else:
            order = np.lexsort(
                (arr[:, 1, 1], arr[:, 1, 0], arr[:, 0, 1], arr[:, 0, 0])
            )
            s = arr[order]
            adj = semigroup._adjugates(s)
            for i in range(n - 1):
                j = min(n, i + 1 + semigroup._WINDOW)
                c = np.matmul(adj[i], s[i + 1: j])
                absorb(semigroup._displacement_norms_array(c))
        return best, collisions

    if len(arr) == 0 or len(other) == 0:
        return math.inf, 0
    adj = semigroup._adjugates(arr)
    for i in range(len(arr)):
        absorb(semigroup._displacement_norms_array(np.matmul(adj[i], other)))
    return best, collisions


def _merged_reference(arr, other):
    """The reference for the pairs within arr and from arr to other."""
    d_in, c_in = _reference_pairwise_min(arr)
    d_x, c_x = _reference_pairwise_min(arr, other)
    return min(d_in, d_x), c_in + c_x


def _assert_same_scan(arr, other=None):
    """_pairwise_min on arr, or on arr followed by other with head len(arr),
    against the reference."""
    if other is None:
        got = semigroup._pairwise_min(arr)
        want = _reference_pairwise_min(arr)
    else:
        got = semigroup._pairwise_min(np.concatenate([arr, other]),
                                      head=len(arr))
        want = _merged_reference(arr, other)
    assert got == want
    assert type(got[0]) is float and type(got[1]) is int


def _random_stacks():
    out = {}
    for seed, max_log in ((21, 1.0), (22, 5.0), (23, 10.0), (24, 19.0)):
        rng = np.random.default_rng(seed)
        base = _random_stack(rng, 150, max_log)
        out[f"random-{max_log:g}"] = _shuffled(
            rng, base, base[:10],
            _near_copies(rng, base[10:40], 10.0 ** rng.uniform(-12, -1, 30)),
        )
    # scaled copies far apart in projection order, so that no seed pair
    # finds them
    rng = np.random.default_rng(25)
    base = _random_stack(rng, 400, 6.0)
    out["scaled-spread"] = _shuffled(rng, base, 1.01 * base[:40])
    # a run of identical rows longer than the window
    rng = np.random.default_rng(26)
    base = _random_stack(rng, 100, 3.0)
    out["long-run"] = _shuffled(rng, base, np.repeat(base[:1], 80, axis=0))
    return out


SCAN_STACKS = {**COLLISION_STACKS, **_random_stacks()}


class TestPairwiseScan:
    @pytest.mark.parametrize("name", sorted(SCAN_STACKS))
    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_matches_per_row_scan(self, name, chunk, monkeypatch):
        arr = SCAN_STACKS[name]
        if chunk is not None:
            monkeypatch.setattr(semigroup, "_SWEEP_CHUNK", chunk)
        _assert_same_scan(arr)
        split = len(arr) // 3
        _assert_same_scan(arr[:split], arr[split:])
        _assert_same_scan(arr[split:], arr[:split])

    @pytest.mark.parametrize("name", sorted(SCAN_STACKS))
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_windowed_matches_per_row_scan(self, name, chunk, monkeypatch):
        # the reference windows past _EXACT_PAIR_LIMIT rows
        monkeypatch.setattr(semigroup, "_EXACT_PAIR_LIMIT", 10)
        if chunk is not None:
            monkeypatch.setattr(semigroup, "_SWEEP_CHUNK", chunk)
        arr = SCAN_STACKS[name]
        got = semigroup._window_scan(arr)
        assert got == _reference_pairwise_min(arr)
        assert type(got[0]) is float and type(got[1]) is int

    def test_pairs_are_evaluated_in_row_order(self):
        # adj(earlier) @ later: at norm ~3e3 the two orders of a pair near
        # COLLISION_TOL can fall on opposite sides of it
        tol = semigroup.COLLISION_TOL
        rng = np.random.default_rng(12)
        base = _random_stack(rng, 300, 8.0)
        near = _near_copies(rng, base, tol * rng.uniform(0.9, 1.1, 300))
        order_matters = 0
        for a, b in zip(base, near):
            counts = []
            for x, y in ((a, b), (b, a)):
                _assert_same_scan(np.stack([x, y]))
                _assert_same_scan(x[None], y[None])
                counts.append(semigroup._pairwise_min(np.stack([x, y]))[1])
            order_matters += counts[0] != counts[1]
        assert order_matters > 0

    def test_empty_and_single(self):
        one = np.stack([DIAG2.array])
        none = np.empty((0, 2, 2))
        assert semigroup._pairwise_min(one) == (math.inf, 0)
        assert semigroup._pairwise_min(none) == (math.inf, 0)
        assert semigroup._pairwise_min(one, head=1) == (math.inf, 0)
        assert semigroup._pairwise_min(one, head=0) == (math.inf, 0)
        assert semigroup._pairwise_min(np.stack([one[0]] * 3), head=0) == (
            math.inf, 0)

    def test_prefilter_prunes_and_never_repeats_a_pair(self, monkeypatch):
        seen = []
        evaluate = semigroup._displacement_norms_array

        def counting(c):
            seen.append(len(c))
            return evaluate(c)

        monkeypatch.setattr(semigroup, "_displacement_norms_array", counting)
        lev = parse_config(CONFIGS / "positive_pair.cfg").table.level(10)
        semigroup._pairwise_min(lev)
        all_pairs = len(lev) * (len(lev) - 1) // 2
        assert all_pairs == 523_776
        assert sum(seen) < 0.05 * all_pairs
        for arr in SCAN_STACKS.values():
            n, split = len(arr), len(arr) // 3
            for head, pairs in (
                (None, n * (n - 1) // 2),
                (split, split * (split - 1) // 2 + split * (n - split)),
            ):
                seen.clear()
                semigroup._pairwise_min(arr, head)
                assert sum(seen) <= pairs
        # norms near 1e8 leave no window: every pair, each once
        arr = COLLISION_STACKS["large_norm"]
        seen.clear()
        semigroup._pairwise_min(arr)
        assert sum(seen) == len(arr) * (len(arr) - 1) // 2


def _level_scan_systems():
    plain = sorted(
        p for p in CONFIGS.glob("*.cfg") if not p.stem.startswith("family_")
    )
    return [pytest.param(parse_config(p), id=p.stem) for p in plain]


@pytest.mark.parametrize("cfg", _level_scan_systems())
def test_scan_matches_per_row_scan_on_bundled_levels(cfg):
    """Every level of up to _EXACT_PAIR_LIMIT rows, within itself and
    against the pool of shorter levels that discreteness_profile builds."""
    pool = np.empty((0, 2, 2))
    depth = 1
    while cfg.k ** depth <= semigroup._EXACT_PAIR_LIMIT and depth <= 24:
        lev = cfg.table.level(depth)
        d_in, c_in = _reference_pairwise_min(lev)
        d_x, c_x = _reference_pairwise_min(lev, pool)
        assert semigroup._pairwise_min(lev) == (d_in, c_in)
        assert semigroup._pairwise_min(
            np.concatenate([lev, pool]), head=len(lev)
        ) == (min(d_in, d_x), c_in + c_x)
        pool = np.concatenate([pool, lev])
        depth += 1


@st.composite
def _near_pairs(draw):
    """A det-one A and B = s A exp(X): X traceless of norm up to 3, and a
    scalar s that moves det B as far as the `scaled` stack does."""
    alpha, beta = (draw(st.floats(0.0, math.pi)) for _ in range(2))
    r = draw(st.floats(0.0, 19.0))
    rot = [np.array([[math.cos(v), -math.sin(v)], [math.sin(v), math.cos(v)]])
           for v in (alpha, beta)]
    a = rot[0] @ np.diag([math.exp(r), math.exp(-r)]) @ rot[1]
    x = np.array(draw(st.lists(
        st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3)))
    size = draw(st.sampled_from([0.0, 1e-14, 1e-11, 1e-9, 1e-6, 1e-3, 0.3, 3.0]))
    norm = float(np.linalg.norm(x))
    x = x * (size / norm if norm > 0 else 0.0)
    gen = np.array([[x[0], x[1]], [x[2], -x[0]]])
    # gen^2 = q I, so exp(gen) = cosh(sqrt q) I + sinh(sqrt q) / sqrt q gen
    q = x[0] * x[0] + x[1] * x[2]
    lam = math.sqrt(abs(q))
    if lam == 0.0:
        c0, c1 = 1.0, 1.0
    elif q > 0:
        c0, c1 = math.cosh(lam), math.sinh(lam) / lam
    else:
        c0, c1 = math.cos(lam), math.sin(lam) / lam
    scale = draw(st.floats(1.0 / 1.01, 1.01))
    b = scale * (a @ (c0 * np.eye(2) + c1 * gen))
    return draw(st.permutations([a, b]))


@settings(max_examples=400, deadline=None)
@given(_near_pairs())
def test_half_trace_window_contains_every_close_pair(pair):
    """The filter's bound: a pair at computed distance d lies inside the
    window of any tau > d, slack included."""
    a, b = pair
    dist = semigroup._displacement_norms_array(
        np.matmul(semigroup._adjugates(a[None]), b[None]))[0]
    f2, eta = semigroup._norm_and_drift(np.stack([a, b]))
    t = (a.reshape(1, 4) @ semigroup._half_trace_weights(b[None]).T)[0, 0]
    tau = max(np.nextafter(dist, math.inf), semigroup.COLLISION_TOL)
    lo, hi = semigroup._half_trace_window(tau, f2, eta)
    assert not (t < lo or t > hi), (dist, t, lo, hi, f2, eta)


class TestDiophantineProfile:
    def test_free_pair_stays_free(self):
        prof = diophantine_profile(PAIR, 5)
        assert prof.total_collisions == 0
        assert prof.free_so_far
        assert all(r.min_dist > 1e-4 for r in prof.rows)

    def test_relation_detected_at_depth_seven(self):
        # half/double scaling with a unit shear satisfies a length-7 relation
        cfg = SystemConfig(matrices=(HALF_DIAG, SHEAR))
        prof = diophantine_profile(cfg, 7)
        assert not prof.free_so_far
        assert prof.rows[6].collisions > 0
        assert all(r.collisions == 0 for r in prof.rows[:6])

    def test_fitted_c_in_range(self):
        prof = diophantine_profile(PAIR, 6)
        if prof.fitted_c is not None:
            assert 0.0 < prof.fitted_c <= 1.0


class TestDiscretenessProfile:
    def test_singleton_scaling(self):
        cfg = SystemConfig(matrices=(DIAG2,))
        prof = discreteness_profile(cfg, 4)
        assert identity_approach(cfg, 4) == pytest.approx(
            math.sqrt(2.0) * math.log(2.0)
        )
        assert prof.total_collisions == 0
        assert prof.final_min_pairwise == pytest.approx(
            math.sqrt(2.0) * math.log(2.0)
        )

    def test_pairwise_shrinks_for_dense_system(self):
        # an irrational rotation generates arbitrarily close returns
        cfg = SystemConfig(matrices=(rotation(1.0),))
        prof = discreteness_profile(cfg, 12)
        assert prof.final_min_pairwise < 0.6
        first = prof.rows[0].min_dist
        assert prof.final_min_pairwise < first

    def test_shallower_profile_is_the_prefix_of_the_kept_one(self):
        # the half/double scaling and unit shear pair collides from depth 7
        cfg = SystemConfig(matrices=(HALF_DIAG, SHEAR))
        deep = discreteness_profile(cfg, 9)
        shallow = discreteness_profile(cfg, 8)
        fresh = discreteness_profile(SystemConfig(matrices=cfg.matrices), 8)
        assert shallow == fresh
        assert shallow.rows == deep.rows[:8]
        assert 0 < shallow.total_collisions < deep.total_collisions

    def test_rows_stay_exact_past_the_pair_limit(self, monkeypatch):
        # each row merges the level's scan within itself and against the
        # shorter levels; a smaller limit does not window either of them.
        # A window of 64 neighbours would miss collisions of level 8.
        cfg = parse_config(CONFIGS / "inverse_pair.cfg")
        want = []
        pool = np.empty((0, 2, 2))
        running = math.inf
        for n in range(1, 9):
            lev = cfg.table.level(n)
            d, coll = _merged_reference(lev, pool)
            running = min(running, d)
            want.append((len(lev), running, coll))
            pool = np.concatenate([pool, lev])
        monkeypatch.setattr(semigroup, "_EXACT_PAIR_LIMIT", 10)
        fresh = parse_config(CONFIGS / "inverse_pair.cfg")
        prof = discreteness_profile(fresh, 8)
        assert [(r.word_count, r.min_dist, r.collisions)
                for r in prof.rows] == want

    @pytest.mark.parametrize("minima, accumulates", [
        # depth-2 minimum 2e-3, then 9e-4: below the tolerance but not below
        # a quarter of depth 2
        ((3e-3, 2e-3, 9e-4), False),
        ((1.0, 1.0, 5e-4), True),
        ((1.0, 1.0, 1e-3), False),
        # the last row of two is the depth-2 minimum itself
        ((1.0, 5e-4), False),
        # one row is its own depth-2 minimum
        ((5e-4,), False),
        ((math.inf,), False),
        # no finite depth-2 minimum to compare with
        ((math.inf, math.inf, 5e-4), True),
        ((math.inf, math.inf, 2e-3), False),
        ((), False),
    ])
    def test_accumulates(self, minima, accumulates):
        rows = tuple(SeparationRow(n + 1, 2 ** (n + 1), d, 0)
                     for n, d in enumerate(minima))
        prof = DiscretenessProfile(rows=rows, total_collisions=0)
        assert prof.accumulates is accumulates


class TestCommonFixedPoints:
    def test_simultaneously_diagonal(self):
        cfg = SystemConfig(matrices=(DIAG2, Matrix2(3.0, 0.0, 0.0, 1.0 / 3.0)))
        pts = common_fixed_points(cfg)
        assert pts == pytest.approx((math.pi / 2.0, math.pi))

    def test_shared_horizontal_only(self):
        pts = common_fixed_points(PAIR)
        assert pts == pytest.approx((math.pi,))

    def test_elliptic_letter_kills_it(self):
        cfg = SystemConfig(matrices=(DIAG2, rotation(0.5)))
        assert common_fixed_points(cfg) == ()

    def test_generic_pair_has_none(self):
        cfg = SystemConfig(matrices=(DIAG2, Matrix2(2.0, 1.0, 1.0, 1.0)))
        assert common_fixed_points(cfg) == ()

    def test_identity_letter_ignored(self):
        cfg = SystemConfig(matrices=(IDENTITY2, DIAG2))
        assert common_fixed_points(cfg) == pytest.approx((math.pi / 2.0, math.pi))
