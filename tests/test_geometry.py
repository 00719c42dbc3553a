import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_sl2, sl2_matrices
from projifs.config import parse_config, parse_family
from projifs.errors import DegenerateDirectionsError, DegenerateMatrixError
from projifs.geometry import (
    BLOCK_ROWS,
    CLASS_TOL,
    IDENTITY2,
    PI,
    FixedPointData,
    Matrix2,
    MatrixClass,
    attracting_directions_array,
    circ_dist,
    classify,
    classify_array,
    fixed_points,
    normalize_angle,
    normalize_angles_array,
    op_norm,
    op_norms_array,
    proj_act,
    proj_act_array,
    proj_deriv,
    renormalize_array,
    row_blocks,
    singular_directions,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

SHEAR = Matrix2(1.0, 1.0, 0.0, 1.0)
LOWER_SHEAR = Matrix2(1.0, 0.0, 1.0, 1.0)
DIAG2 = Matrix2(2.0, 0.0, 0.0, 0.5)
ROT90 = Matrix2(0.0, -1.0, 1.0, 0.0)


def rotation(t):
    return Matrix2(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))


class TestMatrix2:
    def test_renormalizes_determinant(self):
        m = Matrix2(2.0, 0.0, 0.0, 2.0)
        assert m.entries == (1.0, 0.0, 0.0, 1.0)

    def test_rejects_singular(self):
        with pytest.raises(DegenerateMatrixError):
            Matrix2(1.0, 1.0, 1.0, 1.0)

    def test_rejects_orientation_reversing(self):
        with pytest.raises(DegenerateMatrixError):
            Matrix2(1.0, 0.0, 0.0, -1.0)

    def test_rejects_nan(self):
        with pytest.raises(DegenerateMatrixError):
            Matrix2(math.nan, 0.0, 0.0, 1.0)

    def test_matmul(self):
        p = SHEAR @ DIAG2
        assert p.entries == pytest.approx((2.0, 0.5, 0.0, 0.5))

    def test_inverse_exact(self):
        m = Matrix2(2.0, 1.0, 1.0, 1.0)
        assert (m @ m.inverse()).entries == pytest.approx((1, 0, 0, 1), abs=1e-15)

    def test_hashable(self):
        assert len({SHEAR, SHEAR, DIAG2}) == 2


class TestAngles:
    def test_normalize_zero_to_pi(self):
        assert normalize_angle(0.0) == PI
        assert normalize_angle(PI) == PI
        assert normalize_angle(2 * PI) == PI

    def test_normalize_negative(self):
        assert normalize_angle(-PI / 4) == pytest.approx(3 * PI / 4)

    def test_circ_dist_wraps(self):
        assert circ_dist(0.05, PI - 0.05) == pytest.approx(0.1)


class TestClassify:
    def test_identity_both_signs(self):
        assert classify(IDENTITY2) is MatrixClass.IDENTITY
        assert classify(Matrix2(-1.0, 0.0, 0.0, -1.0)) is MatrixClass.IDENTITY

    def test_rotation_is_elliptic(self):
        assert classify(rotation(PI / 5)) is MatrixClass.ELLIPTIC

    def test_shear_is_parabolic(self):
        assert classify(SHEAR) is MatrixClass.PARABOLIC
        assert classify(SHEAR.neg()) is MatrixClass.PARABOLIC

    def test_diag_is_hyperbolic(self):
        assert classify(DIAG2) is MatrixClass.HYPERBOLIC

    def test_near_parabolic_within_tol(self):
        m = Matrix2(1.0 + 5e-10, 1.0, 0.0, 1.0 / (1.0 + 5e-10))
        assert classify(m) is MatrixClass.PARABOLIC


class TestNorms:
    def test_shear_norm_is_golden_ratio(self):
        # singular values of [[1,1],[0,1]] are phi and 1/phi
        assert op_norm(SHEAR) == pytest.approx(GOLDEN, abs=1e-12)

    def test_diag_norm(self):
        assert op_norm(DIAG2) == pytest.approx(2.0, abs=1e-15)

    def test_max_norm(self):
        assert op_norm(Matrix2(2.0, 3.0, 0.0, 0.5), kind="max") == 3.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = random_sl2(rng)
            ref = np.linalg.svd(m.array, compute_uv=False)[0]
            assert op_norm(m) == pytest.approx(ref, rel=1e-10)

    def test_norm_duality(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = random_sl2(rng)
            assert op_norm(m.inverse()) == pytest.approx(op_norm(m), rel=1e-10)

    def test_norm_at_least_one(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            assert op_norm(random_sl2(rng)) >= 1.0 - 1e-12


class TestProjectiveAction:
    def test_diag_contracts_toward_horizontal(self):
        assert proj_act(DIAG2, PI / 4) == pytest.approx(math.atan(0.25))

    def test_rotation_moves_vertical_to_horizontal(self):
        assert proj_act(ROT90, PI / 2) == pytest.approx(PI)

    def test_inverse_undoes(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            m = random_sl2(rng)
            t = rng.uniform(0.0, PI)
            t = PI if t == 0.0 else t
            back = proj_act(m.inverse(), proj_act(m, t))
            assert circ_dist(back, t) < 1e-9

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(11)
        m = random_sl2(rng)
        thetas = rng.uniform(1e-3, PI, size=64)
        vec = proj_act_array(m, thetas)
        for t, v in zip(thetas, vec):
            assert v == pytest.approx(proj_act(m, t))


class TestDerivative:
    def test_diag_derivative_at_fixed_points(self):
        assert proj_deriv(DIAG2, PI) == pytest.approx(0.25)
        assert proj_deriv(DIAG2, PI / 2) == pytest.approx(4.0)

    def test_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            m = random_sl2(rng)
            t = rng.uniform(1e-6, PI)
            n2 = op_norm(m) ** 2
            d = proj_deriv(m, t)
            assert d <= n2 * (1.0 + 1e-9)
            assert d >= (1.0 - 1e-9) / n2

    def test_chain_rule(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            a, b = random_sl2(rng), random_sl2(rng)
            t = rng.uniform(1e-6, PI)
            lhs = proj_deriv(a @ b, t)
            rhs = proj_deriv(a, proj_act(b, t)) * proj_deriv(b, t)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_rotation_is_isometry(self):
        for t in np.linspace(0.1, PI, 11):
            assert proj_deriv(rotation(0.7), t) == pytest.approx(1.0)


class TestFixedPoints:
    def test_diag_pair(self):
        fp = fixed_points(DIAG2)
        assert fp.kind is MatrixClass.HYPERBOLIC
        assert fp.attracting == pytest.approx(PI)
        assert fp.repelling == pytest.approx(PI / 2)
        assert fp.multipliers == pytest.approx((0.25, 4.0))

    def test_shear_parabolic_point(self):
        fp = fixed_points(SHEAR)
        assert fp.kind is MatrixClass.PARABOLIC
        assert fp.parabolic == pytest.approx(PI)
        assert fp.multipliers[0] == pytest.approx(1.0)

    def test_lower_shear_fixes_vertical(self):
        # eigenvector rows degenerate differently here; exercises selection
        fp = fixed_points(LOWER_SHEAR)
        assert fp.parabolic == pytest.approx(PI / 2)

    def test_elliptic_has_no_real_fixed_points(self):
        fp = fixed_points(rotation(1.0))
        assert fp.kind is MatrixClass.ELLIPTIC
        assert fp.attracting is None and fp.parabolic is None

    def test_identity_kind(self):
        assert fixed_points(IDENTITY2).kind is MatrixClass.IDENTITY

    def test_negative_trace_hyperbolic(self):
        fp = fixed_points(DIAG2.neg())
        assert fp.attracting == pytest.approx(PI)
        assert fp.multipliers[0] == pytest.approx(0.25)

    def test_fixed_points_are_fixed(self):
        rng = np.random.default_rng(16)
        n = 0
        while n < 400:
            m = random_sl2(rng)
            fp = fixed_points(m)
            if fp.kind is not MatrixClass.HYPERBOLIC:
                continue
            n += 1
            assert circ_dist(proj_act(m, fp.attracting), fp.attracting) < 1e-7
            assert circ_dist(proj_act(m, fp.repelling), fp.repelling) < 1e-7
            assert fp.multipliers[0] < 1.0 < fp.multipliers[1]


class TestSingularDirections:
    def test_shear_directions(self):
        u_minus, u_plus = singular_directions(SHEAR)
        assert u_plus == pytest.approx(math.atan(GOLDEN))
        assert u_minus == pytest.approx(math.atan(GOLDEN) + PI / 2)

    def test_extremes_of_derivative(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            m = random_sl2(rng)
            n2 = op_norm(m) ** 2
            if n2 < 1.01:
                continue
            u_minus, u_plus = singular_directions(m)
            assert proj_deriv(m, u_minus) == pytest.approx(n2, rel=1e-7)
            assert proj_deriv(m, u_plus) == pytest.approx(1.0 / n2, rel=1e-7)

    def test_rotation_raises(self):
        with pytest.raises(DegenerateDirectionsError):
            singular_directions(rotation(0.3))


class TestArrayHelpers:
    def test_renormalize_array(self):
        arr = np.array([[[2.0, 0.0], [0.0, 2.0]], [[3.0, 0.0], [0.0, 3.0]]])
        renormalize_array(arr)
        assert np.allclose(arr[0], np.eye(2))
        assert np.allclose(arr[1], np.eye(2))

    def test_op_norms_array_matches_scalar(self):
        rng = np.random.default_rng(18)
        ms = [random_sl2(rng) for _ in range(50)]
        arr = np.stack([m.array for m in ms])
        for kind in ("op2", "max"):
            ns = op_norms_array(arr, kind)
            for m, n in zip(ms, ns):
                assert n == pytest.approx(op_norm(m, kind), rel=1e-12)


def _one_shot_renormalize(arr):
    """renormalize_array as one whole-stack formula, before row blocks."""
    det = arr[:, 0, 0] * arr[:, 1, 1] - arr[:, 0, 1] * arr[:, 1, 0]
    arr *= (det ** -0.5)[:, None, None]
    return arr


def _one_shot_op_norms(arr, kind):
    """op_norms_array as one whole-stack formula, before row blocks."""
    if kind == "max":
        return np.abs(arr).max(axis=(1, 2))
    t = (arr * arr).sum(axis=(1, 2))
    det = arr[:, 0, 0] * arr[:, 1, 1] - arr[:, 0, 1] * arr[:, 1, 0]
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    return np.sqrt(0.5 * (t + np.sqrt(disc)))


def _random_det_one_stack(n, seed):
    """n rows R(a) diag(s, 1/s) R(b) with s log-uniform in [1, 1e8]."""
    rng = np.random.default_rng(seed)
    s = 10.0 ** rng.uniform(0.0, 8.0, n)
    a, b = rng.uniform(0.0, 2.0 * PI, (2, n))
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    arr = np.empty((n, 2, 2))
    arr[:, 0, 0] = ca * s * cb - sa / s * sb
    arr[:, 0, 1] = -ca * s * sb - sa / s * cb
    arr[:, 1, 0] = sa * s * cb + ca / s * sb
    arr[:, 1, 1] = -sa * s * sb + ca / s * cb
    return arr


class TestRowBlocks:
    """The stack kernels work on row blocks; their bits must not depend on
    it, and their temporaries must be one block in size, not one stack."""

    N = 2 * BLOCK_ROWS + 3

    def test_blocks_cover_the_rows_in_order(self):
        for n in (0, 1, BLOCK_ROWS, self.N):
            blocks = list(row_blocks(n))
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            assert all(b.stop - b.start <= BLOCK_ROWS for b in blocks)
        assert len(list(row_blocks(self.N))) == 3

    def test_renormalize_matches_one_shot(self):
        arr = _random_det_one_stack(self.N, 28)
        arr *= np.random.default_rng(29).uniform(0.5, 2.0, self.N)[:, None, None]
        want = _one_shot_renormalize(arr.copy())
        assert renormalize_array(arr).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["op2", "max"])
    def test_op_norms_match_one_shot(self, kind):
        arr = _random_det_one_stack(self.N, 28)
        want = _one_shot_op_norms(arr, kind)
        assert op_norms_array(arr, kind).tobytes() == want.tobytes()

    def test_renormalize_rejects_a_bad_row_in_a_later_block(self):
        arr = _random_det_one_stack(self.N, 30)
        arr[-1, 0, 0] = arr[-1, 0, 1] = 0.0
        with pytest.raises(DegenerateMatrixError):
            renormalize_array(arr)

    @staticmethod
    def _peak_bytes(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_temporaries_are_one_block_in_size(self):
        n = 1 << 19
        arr = _random_det_one_stack(n, 31)
        block = arr[:BLOCK_ROWS].nbytes
        # before row blocks: 21 MB and 8.5 MB, whole-stack temporaries
        for kind in ("op2", "max"):
            peak = self._peak_bytes(lambda: op_norms_array(arr, kind))
            assert peak <= 8 * n + 2 * block, (kind, peak)
        peak = self._peak_bytes(lambda: renormalize_array(arr))
        assert peak <= block, peak


def _reference_attracting_directions(arr):
    """The whole-stack +-I test that attracting_directions_array replaced,
    kept as its reference."""
    a = arr[:, 0, 0]
    b = arr[:, 0, 1]
    c = arr[:, 1, 0]
    d = arr[:, 1, 1]
    tr = a + d
    eye = np.eye(2)
    pm_id = (
        (np.abs(arr - eye).max(axis=(1, 2)) <= CLASS_TOL)
        | (np.abs(arr + eye).max(axis=(1, 2)) <= CLASS_TOL)
    )
    hyp = np.abs(tr) > 2.0 + CLASS_TOL
    par = (np.abs(np.abs(tr) - 2.0) <= CLASS_TOL) & ~pm_id
    sel = hyp | par
    if not sel.any():
        return np.empty(0)
    disc = np.sqrt(np.maximum(tr * tr - 4.0, 0.0))
    lam = 0.5 * (tr + np.sign(tr) * disc)
    v1x, v1y = b, lam - a
    v2x, v2y = lam - d, c
    use1 = v1x * v1x + v1y * v1y >= v2x * v2x + v2y * v2y
    vx = np.where(use1, v1x, v2x)
    vy = np.where(use1, v1y, v2y)
    return normalize_angles_array(np.arctan2(vy[sel], vx[sel]))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _direction_systems():
    plain = sorted(
        p for p in CONFIGS.glob("*.cfg") if not p.stem.startswith("family_")
    )
    out = [pytest.param(parse_config(p), id=p.stem) for p in plain]
    # at t = 0 both shears are the identity, so the +-I branch runs
    limit = parse_family(CONFIGS / "family_identity_limit.cfg")
    out += [
        pytest.param(limit.at(t), id=f"identity_limit-{t}")
        for t in (0.0, 0.02, 0.5)
    ]
    return out


@pytest.mark.parametrize("cfg", _direction_systems())
def test_attracting_directions_match_reference_on_levels(cfg):
    for n in range(1, 11):
        lev = cfg.table.level(n)
        got = attracting_directions_array(lev)
        assert got.tobytes() == _reference_attracting_directions(lev).tobytes(), n


def _near_parabolic(e, sign=1.0):
    """[[1 + e, 1], [e, 1]]: determinant one and trace 2 + e."""
    return sign * np.array([[1.0 + e, 1.0], [e, 1.0]])


def _edge_stack():
    eye = np.eye(2)
    r = 1e-10
    rows = [
        eye, -eye,
        eye + [[0.0, r], [0.0, 0.0]], eye - [[0.0, 0.0], [r, 0.0]],
        np.diag([1.0 + r, 1.0 / (1.0 + r)]), np.diag([1.0 - r, 1.0 / (1.0 - r)]),
        -eye + [[0.0, r], [0.0, 0.0]], -np.diag([1.0 + r, 1.0 / (1.0 + r)]),
        # off-diagonal entry past CLASS_TOL: parabolic, not the identity
        eye + [[0.0, 1e-8], [0.0, 0.0]],
        SHEAR.array, -SHEAR.array, LOWER_SHEAR.array, -LOWER_SHEAR.array,
        Matrix2(1.0, -1.0, 0.0, 1.0).array,
        rotation(0.7).array, ROT90.array, DIAG2.array, -DIAG2.array,
        Matrix2(2.0, 1.0, 1.0, 1.0).array,
    ]
    for e in (0.99 * CLASS_TOL, 1.01 * CLASS_TOL):
        for sign in (1.0, -1.0):
            rows += [_near_parabolic(e, sign), _near_parabolic(-e, sign)]
    return np.stack(rows)


def _trace_boundary_rows():
    """_near_parabolic rows whose |tr| is fl(2 + CLASS_TOL) or
    fl(2 - CLASS_TOL) exactly, at both signs: classify calls them parabolic,
    while |(|tr| - 2)| exceeds CLASS_TOL by about 8e-17."""
    return np.stack([
        _near_parabolic(edge - 2.0, sign)
        for edge in (2.0 + CLASS_TOL, 2.0 - CLASS_TOL)
        for sign in (1.0, -1.0)
    ])


def test_attracting_directions_match_reference_on_edge_stack():
    arr = _edge_stack()
    got = attracting_directions_array(arr)
    assert got.tobytes() == _reference_attracting_directions(arr).tobytes()
    for i in range(len(arr)):
        row = arr[i : i + 1]
        assert (
            attracting_directions_array(row).tobytes()
            == _reference_attracting_directions(row).tobytes()
        ), i


def test_attracting_directions_select_the_rows_fixed_points_does():
    kept = (MatrixClass.HYPERBOLIC, MatrixClass.PARABOLIC)
    arr = np.concatenate([_edge_stack(), _trace_boundary_rows()])
    kinds = []
    for row in arr:
        m = Matrix2(*row.ravel())
        assert m.entries == tuple(row.ravel())  # det one: no renormalization
        kinds.append(fixed_points(m).kind)
    assert MatrixClass.IDENTITY in kinds and MatrixClass.ELLIPTIC in kinds
    for row, kind in zip(arr, kinds):
        assert attracting_directions_array(row[None]).size == (kind in kept), (
            row, kind
        )


def test_classify_array_matches_classify():
    arr = np.concatenate([_edge_stack(), _trace_boundary_rows()])
    for row in _trace_boundary_rows():
        assert abs(row[0, 0] + row[1, 1]) in (2.0 + CLASS_TOL, 2.0 - CLASS_TOL)
    hyp, par = classify_array(arr)
    for i, row in enumerate(arr):
        kind = classify(Matrix2(*row.ravel()))
        assert hyp[i] == (kind is MatrixClass.HYPERBOLIC), (row, kind)
        assert par[i] == (kind is MatrixClass.PARABOLIC), (row, kind)


@given(sl2_matrices())
def test_negation_preserves_class(m):
    assert classify(m.neg()) is classify(m)


@given(sl2_matrices())
def test_norm_duality_property(m):
    # near rotations the discriminant square root turns ulp noise in the
    # entry sum into sqrt(eps)-scale noise in the norm
    assert op_norm(m.inverse()) == pytest.approx(
        op_norm(m), rel=1e-9, abs=5e-8
    )


@given(sl2_matrices(max_log=2.0), sl2_matrices(max_log=2.0))
def test_submultiplicative(a, b):
    # closed-form norm has sqrt(eps) absolute error near rotations
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) * (1.0 + 1e-7)


@settings(max_examples=200)
@given(sl2_matrices(max_log=2.0), sl2_matrices(max_log=2.0))
def test_action_is_homomorphism(a, b):
    t = 1.2345
    lhs = proj_act(a @ b, t)
    rhs = proj_act(a, proj_act(b, t))
    assert circ_dist(lhs, rhs) < 1e-8
