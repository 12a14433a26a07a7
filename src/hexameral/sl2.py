"""Unit-determinant frames, traceless tangents, and their action on the plane.

Plane points are float arrays whose last axis is (x, y).  Frames act on
them as on column vectors: (x, y) -> (alpha*x + beta*y, gamma*x + delta*y).
Tangents (a, b, c) stand for the traceless matrix [[a, b], [c, -a]].
The private entry-tuple helpers take the numbers of a ``kit``, floats by default.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import _np as np
from .errors import DegenerateVelocity, FrameDeterminantError
from .kit import FLOATS

# Construction rejects frames whose determinant cannot be repaired by scaling.
DET_REJECT_TOL = 1e-9
# After repair the determinant is within this bound of one.
DET_TOL = 1e-12

SQRT3 = FLOATS.SQRT3


def wedge(u, v) -> np.ndarray:
    """Signed parallelogram area u ^ v = u.x*v.y - u.y*v.x over (..., 2) arrays."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _act(m00: float, m01: float, m10: float, m11: float, points) -> np.ndarray:
    """The matrix [[m00, m01], [m10, m11]] applied entrywise to (..., 2) points."""
    p = np.asarray(points, dtype=float)
    x, y = p[..., 0], p[..., 1]
    return np.stack((m00 * x + m01 * y, m10 * x + m11 * y), axis=-1)


# Frames inside hot loops are plain entry tuples (alpha, beta, gamma, delta).
Frame = tuple[float, float, float, float]


def _unit_det(al, be, ga, de, kit=FLOATS) -> Frame:
    """The determinant rule of every frame: reject far from one, rescale near it."""
    det = al * de - be * ga
    off = abs(det - 1.0)
    # a NaN determinant fails too; a check on floats that passes skips the call
    if (bad := (off <= DET_REJECT_TOL) ^ True) is not False:
        kit.fail(bad, FrameDeterminantError, "frame determinant {!r} too far from 1", det)
    drift = off > DET_TOL
    if drift is False or not kit.any(drift):
        return (al, be, ga, de)
    # det is within 1e-9 of 1, hence positive; rescale to kill drift (x * 1.0 is x)
    fix = kit.where(drift, 1.0 / kit.sqrt(det), 1.0)
    return (al * fix, be * fix, ga * fix, de * fix)


def _product(g: Frame, h: Frame) -> Frame:
    """Entries of the matrix product g h, before the determinant rule."""
    al, be, ga, de = g
    ph, qh, rh, sh = h
    return (al * ph + be * rh, al * qh + be * sh, ga * ph + de * rh, ga * qh + de * sh)


def _inverse(g: Frame) -> Frame:
    """The adjugate of g, its inverse where g met the determinant rule: its
    determinant de al - (-be)(-ga) is g's own float, so it meets the rule too."""
    al, be, ga, de = g
    return (de, -be, -ga, al)


class _Frozen:
    """A frozen record of ``__slots__`` set by ``__init__``, which copies and pickles call."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _Checked:
    """Base of a NamedTuple whose ``__new__`` checks it: ``_make`` and ``_replace`` call it."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class FrameMatrix(_Checked, NamedTuple("FrameMatrix", [("alpha", float), ("beta", float),
                                                       ("gamma", float), ("delta", float)])):
    """Element of SL2(R), its entry tuple; determinant is re-projected to one on construction."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, gamma: float, delta: float) -> FrameMatrix:
        given = tuple.__new__(cls, (alpha, beta, gamma, delta))
        given.__post_init__()
        fixed = _unit_det(alpha, beta, gamma, delta)
        return given if fixed == given else tuple.__new__(cls, fixed)

    def __post_init__(self) -> None:
        """A hook that sees the given entries before the determinant rule; it does nothing."""

    def det(self) -> float:
        return self.alpha * self.delta - self.beta * self.gamma

    def apply(self, points) -> np.ndarray:
        """The frame applied to an array (..., 2) of plane points."""
        return _act(*self, points)

    def compose(self, other: "FrameMatrix") -> "FrameMatrix":
        """Matrix product self * other (other acts first)."""
        return FrameMatrix(*_product(self, other))

    __matmul__ = compose

    def inverse(self) -> "FrameMatrix":
        return FrameMatrix(*_inverse(self))


IDENTITY = FrameMatrix(1.0, 0.0, 0.0, 1.0)


def rotation(angle: float) -> FrameMatrix:
    """Counterclockwise rotation frame."""
    c, s = math.cos(angle), math.sin(angle)
    return FrameMatrix(c, -s, s, c)


# Closure of a chain composes the initial frame with this rotation.
ROT60 = rotation(math.pi / 3.0)


def frame_distance(g: FrameMatrix, h: FrameMatrix) -> float:
    """Max-norm of the entrywise difference."""
    return max(abs(p - q) for p, q in zip(g, h))


class TangentElement(NamedTuple):
    """Traceless 2x2 matrix [[a, b], [c, -a]] in coordinates (a, b, c)."""

    a: float
    b: float
    c: float

    def apply(self, points) -> np.ndarray:
        """The matrix [[a, b], [c, -a]] applied to an array (..., 2) of plane points."""
        return _act(self.a, self.b, self.c, -self.a, points)

    def det(self) -> float:
        return -self.a * self.a - self.b * self.c

    def norm(self) -> float:
        return math.sqrt(self.a * self.a + self.b * self.b + self.c * self.c)

    def scaled(self, factor: float) -> "TangentElement":
        return TangentElement(factor * self.a, factor * self.b, factor * self.c)

    def unit(self) -> "TangentElement":
        """The unit-norm representative of the tangent's positive-scalar class."""
        return TangentElement(*_unit_tangent(self.a, self.b, self.c))

    def distance(self, other: "TangentElement") -> float:
        """|r - s| of unit tangents, 2 sin(angle / 2): zero exactly on equal classes."""
        return math.hypot(self.a - other.a, self.b - other.b, self.c - other.c)


def _adjoint(g: Frame, a: float, b: float, c: float) -> tuple[float, float, float]:
    """Coordinates of g X g^{-1} for X = [[a, b], [c, -a]]."""
    al, be, ga, de = g
    # First column of X g^{-1} then of g (X g^{-1}); inverse is the adjugate.
    m00 = a * de + b * (-ga)
    m01 = a * (-be) + b * al
    m10 = c * de - a * (-ga)
    m11 = c * (-be) - a * al
    return (al * m00 + be * m10, al * m01 + be * m11, ga * m00 + de * m10)


def _adjoint_matrix(g: Frame) -> tuple[tuple[float, float, float], ...]:
    """Rows of X -> g X g^{-1} on coordinates (a, b, c), for unit-determinant g."""
    al, be, ga, de = g
    return ((al * de + be * ga, -al * ga, be * de),
            (-2.0 * al * be, al * al, -be * be),
            (2.0 * ga * de, -ga * ga, de * de))


def _sphere_basis(a, b, c, kit=FLOATS) -> tuple[tuple[float, float, float], ...]:
    """Two orthonormal directions tangent to the unit sphere at (a, b, c).

    The first is the coordinate axis least aligned with the point, less its
    component along the point; the second is the point crossed with the first.
    """
    on_a = (abs(a) <= abs(b)) & (abs(a) <= abs(c))
    on_b = (on_a ^ True) & (abs(b) <= abs(c))
    on_c = (on_a | on_b) ^ True
    p = kit.where(on_a, a, kit.where(on_b, b, c))
    f = 1.0 / kit.sqrt(1.0 - p * p)
    # entry k is (1 - p^2) f, the others -p u_i f (products commute bitwise)
    e0 = kit.where(on_a, (1.0 - p * p) * f, -p * a * f)
    e1 = kit.where(on_b, (1.0 - p * p) * f, -p * b * f)
    e2 = kit.where(on_c, (1.0 - p * p) * f, -p * c * f)
    return ((e0, e1, e2), (b * e2 - c * e1, c * e0 - a * e2, a * e1 - b * e0))


def adjoint(g: FrameMatrix, x: TangentElement) -> TangentElement:
    """Conjugated tangent g X g^{-1}, again traceless."""
    return TangentElement(*_adjoint(g, *x))


def _star(a, b, c, kit=FLOATS):
    return (kit.SQRT3 * abs(a) < c) & (3.0 * b + c < 0.0)


def star_check(x: TangentElement) -> bool:
    """Strict convexity inequalities sqrt(3)|a| < c and 3b + c < 0."""
    return _star(*x)


def exp_tangent(x: TangentElement, t: float) -> FrameMatrix:
    """Closed-form exponential exp(t X) of a traceless 2x2 matrix."""
    # X^2 = -det(X) I, so the series splits into cosine and sinc parts.
    a, b, c = x
    q = (-a * a - b * c) * t * t
    if abs(q) < 1e-12:
        cos_part = 1.0 - q / 2.0 + q * q / 24.0
        sinc = t * (1.0 - q / 6.0 + q * q / 120.0)
    elif q > 0.0:
        w = math.sqrt(q)
        cos_part = math.cos(w)
        sinc = t * math.sin(w) / w
    else:
        w = math.sqrt(-q)
        cos_part = math.cosh(w)
        sinc = t * math.sinh(w) / w
    return FrameMatrix(cos_part + sinc * a, sinc * b, sinc * c, cos_part - sinc * a)


def _unit_tangent(a, b, c, kit=FLOATS) -> tuple[float, float, float]:
    """The unit-norm representative of a tangent's positive-scalar class."""
    n = kit.sqrt(a * a + b * b + c * c)
    if (bad := n < 1e-300) is not False:
        kit.fail(bad, DegenerateVelocity, "cannot project a zero tangent")
    f = 1.0 / n
    return (f * a, f * b, f * c)
