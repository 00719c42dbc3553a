"""Projective geometry of unit-determinant 2x2 real matrices.

The projective line RP^1 is parametrized by the angle theta in (0, pi] of the
direction vector v(theta) = (cos theta, sin theta); theta = pi is the
horizontal direction.  A matrix M acts by

    phi_M(theta) = angle of M v(theta)  (mod pi),

and the chart psi(theta) = cos(theta)/sin(theta) (with psi(pi) = inf)
conjugates phi_M to the Mobius map z -> (a z + b)/(c z + d) on the extended
real line and the upper half-plane.

Matrices are renormalized to determinant one on construction and after
products, so every matrix handled downstream satisfies |det - 1| <= 1e-9.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionsError, DegenerateMatrixError

#: Classification tolerance on |tr| - 2 and on the distance to +-I.
CLASS_TOL = 1e-9

#: Entry tolerance below which renormalization is skipped entirely.
_RENORM_SKIP = 1e-12

#: Relative spread of the singular values below which their directions are
#: treated as undefined.
_SINGULAR_TOL = 1e-9

PI = math.pi

OP2 = "op2"
MAXENTRY = "max"
NORM_KINDS = (OP2, MAXENTRY)

#: Rows per block of the stack kernels that touch a whole level: their
#: temporaries are one block in size, not one level.  At 8,192 rows a
#: block's float temporary is 64 KB: it stays in L2 cache and the allocator
#: reuses it.  Blocks of 65,536 rows make each temporary a fresh 512 KB
#: mapping whose first touch page-faults, which nearly doubles the direction
#: kernel's time per row.
BLOCK_ROWS = 1 << 13


class MatrixClass(enum.Enum):
    """Projective type of a unit-determinant matrix; -M and M share a class."""

    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def normalize_angle(t: float) -> float:
    """Reduce an angle mod pi into the canonical interval (0, pi]."""
    t = t % PI
    if t == 0.0:
        return PI
    return t


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 real matrix with determinant renormalized to one.

    Construction rescales by det^{-1/2} when |det - 1| exceeds 1e-12 and
    rejects singular or orientation-reversing input.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = float(self.a), float(self.b), float(self.c), float(self.d)
        if not all(map(math.isfinite, (a, b, c, d))):
            raise DegenerateMatrixError(f"non-finite entries: {(a, b, c, d)}")
        det = a * d - b * c
        if det <= 0.0 or not math.isfinite(det):
            raise DegenerateMatrixError(f"determinant {det} is not positive")
        if abs(det - 1.0) > _RENORM_SKIP:
            s = 1.0 / math.sqrt(det)
            a, b, c, d = a * s, b * s, c * s, d * s
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    @property
    def array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    @property
    def trace(self) -> float:
        return self.a + self.d

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Matrix2":
        # det == 1, so the adjugate is the inverse
        return Matrix2(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "Matrix2":
        return Matrix2(-self.a, -self.b, -self.c, -self.d)


IDENTITY2 = Matrix2(1.0, 0.0, 0.0, 1.0)


def classify(m: Matrix2) -> MatrixClass:
    """Projective class from the trace: |tr| < 2 elliptic, = 2 parabolic,
    > 2 hyperbolic, with +-Id singled out first.  Comparisons use
    CLASS_TOL."""
    if max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0)) <= CLASS_TOL:
        return MatrixClass.IDENTITY
    if max(abs(m.a + 1.0), abs(m.b), abs(m.c), abs(m.d + 1.0)) <= CLASS_TOL:
        return MatrixClass.IDENTITY
    t = abs(m.trace)
    if t < 2.0 - CLASS_TOL:
        return MatrixClass.ELLIPTIC
    if t <= 2.0 + CLASS_TOL:
        return MatrixClass.PARABOLIC
    return MatrixClass.HYPERBOLIC


def op_norm(m: Matrix2, kind: str = OP2) -> float:
    """Largest singular value (kind='op2') or largest absolute entry ('max')."""
    if kind == MAXENTRY:
        return max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
    if kind != OP2:
        raise ValueError(f"unknown norm kind {kind!r}")
    t = m.a * m.a + m.b * m.b + m.c * m.c + m.d * m.d
    det = m.det()
    disc = max(t * t - 4.0 * det * det, 0.0)
    return math.sqrt(0.5 * (t + math.sqrt(disc)))


def proj_act(m: Matrix2, theta: float) -> float:
    """Image angle of theta under the projective action of m, in (0, pi]."""
    ct, st = math.cos(theta), math.sin(theta)
    wx = m.a * ct + m.b * st
    wy = m.c * ct + m.d * st
    return normalize_angle(math.atan2(wy, wx))


def proj_deriv(m: Matrix2, theta: float) -> float:
    """|phi_m'(theta)| = ||M v(theta)||^{-2} for unit-determinant m.

    Bounded between ||m||^{-2} and ||m||^2 in the op2 norm, with the extremes
    attained at the singular directions u_plus and u_minus respectively.
    """
    ct, st = math.cos(theta), math.sin(theta)
    wx = m.a * ct + m.b * st
    wy = m.c * ct + m.d * st
    return 1.0 / (wx * wx + wy * wy)


def circ_dist(s: float, t: float) -> float:
    """Distance between two angles on the circle of circumference pi."""
    d = abs(s - t) % PI
    return min(d, PI - d)


def ccw_span(lo: float, hi: float) -> float:
    """Length of the counterclockwise arc from lo to hi, in [0, pi)."""
    return (hi - lo) % PI


@dataclass(frozen=True)
class FixedPointData:
    """Fixed points of a projective action and the derivatives there.

    Hyperbolic matrices carry an attracting and a repelling point; parabolic
    ones a single neutral point.  Elliptic and identity classes have no
    isolated real fixed points and every field except `kind` is None.
    """

    kind: MatrixClass
    attracting: float | None = None
    repelling: float | None = None
    parabolic: float | None = None
    multipliers: tuple[float, ...] = ()


def _eigen_angle(m: Matrix2, lam: float) -> float:
    """Angle of an eigenvector of m for eigenvalue lam, picking the better
    conditioned of the two candidate rows."""
    v1 = (m.b, lam - m.a)
    v2 = (lam - m.d, m.c)
    n1 = v1[0] * v1[0] + v1[1] * v1[1]
    n2 = v2[0] * v2[0] + v2[1] * v2[1]
    vx, vy = v1 if n1 >= n2 else v2
    if vx == 0.0 and vy == 0.0:
        raise DegenerateMatrixError("eigenvector numerically undefined")
    return normalize_angle(math.atan2(vy, vx))


def fixed_points(m: Matrix2) -> FixedPointData:
    """Fixed points of phi_m on RP^1, labelled by the derivative there.

    The eigendirection for the eigenvalue of modulus > 1 is attracting
    (derivative lambda^{-2} < 1), the other repelling.  Elliptic input is a
    result, not an error: no real fixed points.
    """
    kind = classify(m)
    if kind in (MatrixClass.ELLIPTIC, MatrixClass.IDENTITY):
        return FixedPointData(kind=kind)
    tr = m.trace
    if kind is MatrixClass.PARABOLIC:
        lam = 1.0 if tr >= 0 else -1.0
        theta = _eigen_angle(m, lam)
        return FixedPointData(
            kind=kind, parabolic=theta, multipliers=(proj_deriv(m, theta),)
        )
    disc = math.sqrt(tr * tr - 4.0)
    lam_big = 0.5 * (tr + math.copysign(disc, tr))
    lam_small = 1.0 / lam_big
    att = _eigen_angle(m, lam_big)
    rep = _eigen_angle(m, lam_small)
    return FixedPointData(
        kind=kind,
        attracting=att,
        repelling=rep,
        multipliers=(proj_deriv(m, att), proj_deriv(m, rep)),
    )


def singular_directions(m: Matrix2) -> tuple[float, float]:
    """Angles (u_minus, u_plus) of the singular directions of m.

    u_minus is the eigendirection of M^T M for the eigenvalue ||m||^{-2}; the
    projective derivative attains its maximum ||m||^2 there, and its minimum
    ||m||^{-2} at the orthogonal direction u_plus.  Rotation-like input
    (sigma_1 ~ sigma_2) has no well-defined directions and raises.
    """
    g11 = m.a * m.a + m.c * m.c
    g12 = m.a * m.b + m.c * m.d
    g22 = m.b * m.b + m.d * m.d
    t = g11 + g22
    det = m.det()
    disc = max(t * t - 4.0 * det * det, 0.0)
    root = math.sqrt(disc)
    if root <= _SINGULAR_TOL * t:
        raise DegenerateDirectionsError(
            f"singular values coincide within tolerance (spread {root:.3e})"
        )
    lam_min = 0.5 * (t - root)
    v1 = (g12, lam_min - g11)
    v2 = (lam_min - g22, g12)
    n1 = v1[0] * v1[0] + v1[1] * v1[1]
    n2 = v2[0] * v2[0] + v2[1] * v2[1]
    vx, vy = v1 if n1 >= n2 else v2
    u_minus = normalize_angle(math.atan2(vy, vx))
    u_plus = normalize_angle(u_minus + 0.5 * PI)
    return (u_minus, u_plus)


# ---------------------------------------------------------------------------
# Vectorized counterparts on (n, 2, 2) arrays.

def row_blocks(n: int):
    """Slices that cover rows 0..n-1 in order, BLOCK_ROWS rows at most each."""
    return (slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS))


def renormalize_array(arr: np.ndarray) -> np.ndarray:
    """Rescale every matrix in the stack to determinant one, in place.

    Works on `row_blocks`, so its temporaries are one block in size; each
    row's result is the same bits whatever the block size.  A bad row
    raises after the blocks before its own have been rescaled."""
    for rows in row_blocks(len(arr)):
        sub = arr[rows]
        det = sub[:, 0, 0] * sub[:, 1, 1]
        det -= sub[:, 0, 1] * sub[:, 1, 0]
        if np.any(det <= 0.0) or not np.all(np.isfinite(det)):
            raise DegenerateMatrixError(
                "non-positive determinant in matrix stack")
        det **= -0.5
        sub *= det[:, None, None]
    return arr


def left_multiply_array(m: np.ndarray, arr: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """out[i] = m @ arr[i], renormalized to determinant one, for a 2x2
    array m, an (n, 2, 2) stack arr and a C-contiguous (n, 2, 2) out.

    On flattened rows the product is one GEMM against kron(m, I).T, run
    one `row_blocks` block at a time and renormalized while the block is
    in cache; each row is the same bits as np.matmul(m, arr[i])."""
    src, dst = arr.reshape(-1, 4), out.reshape(-1, 4)
    left = np.kron(m, np.eye(2)).T
    for rows in row_blocks(len(arr)):
        np.matmul(src[rows], left, out=dst[rows])
        renormalize_array(out[rows])
    return out


def op_norms_array(arr: np.ndarray, kind: str = OP2) -> np.ndarray:
    """Norms of a stack of det-one matrices.

    Fills its output one `row_blocks` block at a time, so its temporaries
    are one block in size; each row's norm is the same bits whatever the
    block size.  ||A||_F^2 is a*a + b*b + c*c + d*d, in that order."""
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    out = np.empty(len(arr))
    for rows in row_blocks(len(arr)):
        sub = arr[rows]
        if kind == MAXENTRY:
            out[rows] = np.abs(sub).max(axis=(1, 2))
        else:
            a, b, c, d = sub[:, 0, 0], sub[:, 0, 1], sub[:, 1, 0], sub[:, 1, 1]
            t = a * a + b * b + c * c + d * d
            det = a * d - b * c
            disc = np.maximum(t * t - 4.0 * det * det, 0.0)
            out[rows] = np.sqrt(0.5 * (t + np.sqrt(disc)))
    return out


def normalize_angles_array(t: np.ndarray) -> np.ndarray:
    """Fold arctan2 output, angles in [-pi, pi], into (0, pi]: the same bits
    as np.mod(t, PI) with 0 sent to PI, on that domain only (-0.0 and -pi
    go to PI, NaN stays NaN)."""
    t = np.where(t > 0.0, t, t + PI)
    t[t == 0.0] = PI
    return t


def classify_array(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks (hyperbolic, parabolic) over a det-one stack, with `classify`'s
    comparisons.  A det-one matrix within CLASS_TOL of +-I has |tr| = 2 up
    to rounding, so the +-I test runs only on the near-parabolic rows."""
    t = np.abs(arr[:, 0, 0] + arr[:, 1, 1])
    hyp = t > 2.0 + CLASS_TOL
    par = (t >= 2.0 - CLASS_TOL) & ~hyp
    near = np.flatnonzero(par)
    sub, eye = arr[near], np.eye(2)
    dev = np.minimum(np.abs(sub - eye).max(axis=(1, 2)),
                     np.abs(sub + eye).max(axis=(1, 2)))
    par[near[dev <= CLASS_TOL]] = False
    return hyp, par


def attracting_directions_array(arr: np.ndarray) -> np.ndarray:
    """Attracting fixed directions of the hyperbolic matrices in a det-one
    stack and neutral ones of the parabolic matrices, in stack order; the
    vector counterpart of `fixed_points`, classified by `classify_array`.
    Elliptic and +-identity matrices contribute nothing.  The selected rows
    are gathered first, so the formulas run on those rows alone."""
    sel = np.logical_or(*classify_array(arr))
    if not sel.any():
        return np.empty(0)
    a, b, c, d = np.compress(sel, arr.reshape(-1, 4), axis=0).T
    tr = a + d
    disc = np.sqrt(np.maximum(tr * tr - 4.0, 0.0))
    lam = 0.5 * (tr + np.sign(tr) * disc)
    # eigenvector candidates (b, lam - a) and (lam - d, c)
    v1y, v2x = lam - a, lam - d
    use1 = b * b + v1y * v1y >= v2x * v2x + c * c
    return normalize_angles_array(
        np.arctan2(np.where(use1, v1y, c), np.where(use1, b, v2x)))


def proj_act_array(m: Matrix2, thetas: np.ndarray) -> np.ndarray:
    """phi_m applied to an array of angles."""
    ct, st = np.cos(thetas), np.sin(thetas)
    wx = m.a * ct + m.b * st
    wy = m.c * ct + m.d * st
    return normalize_angles_array(np.arctan2(wy, wx))
