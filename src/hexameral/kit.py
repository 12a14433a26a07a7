"""Number kits: one link kernel body over floats, (B,) arrays or other numbers.

A kit holds what the kernel (``sl2``'s entry-tuple helpers, ``propagate``
and its derivative path) cannot write the same way on every number type:
sqrt, hypot, log, ``where``, ``any``, ``stack``, the tables read at a link
index, the rule for a failed check, and the constants at the kit's precision.
"""
from __future__ import annotations

import math

from . import _np as np


def _form(ux, uy, vx, vy) -> tuple:
    """Gradient in y of u ^ y v = ux (yc vx - ya vy) - uy (ya vx + yb vy)."""
    return (-(ux * vy + uy * vx), -uy * vy, ux * vx)


class _NumpyPart:
    """A kit class attribute numpy provides: the first read of one sets them all on
    their classes in place of these, so a kit loads no numpy before and costs no call after."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, kit, owner: type):
        Kit.stack = staticmethod(np.array)
        Arrays.sqrt, Arrays.where, Arrays.any = map(staticmethod, (
            np.sqrt, np.where, np.count_nonzero))
        Arrays.STANDARD_INVERSE, Arrays.EDGE_POINTS, Arrays.EDGE_FORMS = map(
            _Columns, (FLOATS.STANDARD_INVERSE, FLOATS.EDGE_POINTS, FLOATS.EDGE_FORMS))
        return getattr(owner if kit is None else kit, self.name)


class Kit:
    """The kit of floats, or of the numbers of ``lib`` (mpmath's ``mp``, say),
    whose sqrt, hypot, log, cos, sin and pi it uses; a failed check raises.

    With u*_m = (cos(pi m/3), sin(pi m/3)), row j = 0..5 of the tables is the
    inverse of the columns (u*_j, u*_{j+2}), the edge points u2 = u*_{j+2},
    u4 = u*_{j+4}, and the gradients in y of u2 ^ y u2, u4 ^ y u4, u2 ^ y u4.
    """

    stack = _NumpyPart()

    def __init__(self, lib=math):
        self.sqrt, self.hypot, self.log = lib.sqrt, lib.hypot, lib.log
        self.where = lambda cond, yes, no: yes if cond else no
        # a scalar kit checks each link it runs, so it is its own masked kit
        self.any, self.masked = bool, lambda keep: self
        self.SQRT3 = lib.sqrt(3.0)
        self.MIN_SCALE_SQ = self.SQRT3 / 2.0  # a^2 at most this gives k >= 1: no hyperbola
        u = [(lib.cos(lib.pi * m / 3.0), lib.sin(lib.pi * m / 3.0)) for m in range(6)] * 2
        rows = []
        for (p1x, p1y), (u2x, u2y), (u4x, u4y) in zip(u, u[2:], u[4:10]):
            w = p1x * u2y - p1y * u2x
            rows.append(((u2y / w, -u2x / w, -p1y / w, p1x / w), (u2x, u2y, u4x, u4y),
                         (*_form(u2x, u2y, u2x, u2y), *_form(u4x, u4y, u4x, u4y),
                          *_form(u2x, u2y, u4x, u4y), u2x * u4y - u2y * u4x)))
        self.STANDARD_INVERSE, self.EDGE_POINTS, self.EDGE_FORMS = zip(*rows)

    @staticmethod
    def fail(bad, error: type, message: str, *args) -> None:
        """Raise error(message) where a check is bad (``ok ^ True`` fails NaN)."""
        if bad:
            raise error(message.format(*args))


def _each(fn):
    """``fn`` element by element: numpy's log and hypot are not math's in the last bit."""
    return staticmethod(lambda *args: np.array(list(map(fn, *(v.tolist() for v in args)))))


FLOATS = Kit()


class _Columns:
    """A table read at an array of indices j: the entries of rows j, as arrays."""

    def __init__(self, rows):
        self.columns = np.array(rows).T

    def __getitem__(self, j):
        return self.columns[:, j]


class Arrays(Kit):
    """The kit of (B,) arrays, each element with its float bits: rows stack as
    (B, r, c), and a failed check is noted in ``checks``, if a list."""

    sqrt, where, any, STANDARD_INVERSE, EDGE_POINTS, EDGE_FORMS = (_NumpyPart() for _ in range(6))
    # log is NaN where v is not positive, as in a chain of a batch that failed
    hypot, log = _each(math.hypot), _each(lambda v: math.log(v) if v > 0.0 else math.nan)
    stack = staticmethod(lambda rows: np.ascontiguousarray(np.moveaxis(np.array(rows), -1, 0)))
    SQRT3, MIN_SCALE_SQ = FLOATS.SQRT3, FLOATS.MIN_SCALE_SQ

    def __init__(self, checks: list | None = None, mask=True):
        self.checks, self.mask = checks, mask

    def fail(self, bad, error: type, message: str, *args) -> None:
        if self.checks is not None:
            self.checks.append((bad & self.mask, error))

    def masked(self, keep) -> Arrays:
        """This kit, with its checks counted only where ``keep`` holds."""
        return Arrays(self.checks, keep)


ARRAYS = Arrays()


def kit_of(value) -> Kit:
    """The kit of a kernel input: arrays for an array, else floats; a float reads no numpy."""
    return FLOATS if isinstance(value, float) or not isinstance(value, np.ndarray) else ARRAYS
