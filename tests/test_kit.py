"""The link kernel on a third number type: mpmath numbers at 40 digits.

A test-local kit of mpmath functions, its constants and tables computed
from mpmath's cos and sin, runs the smoothed octagon's four links through
``propagate``, the body that floats and arrays run.  Nothing in the library
is rebound; the kit is the only thing that knows the number type.
``tests/test_cli.py`` checks that the library itself never loads mpmath.
"""
from mpmath import mp, mpf

from hexameral.domain import OCTAGON_INDICES
from hexameral.hyperlink import _link_area, _square_frame, _square_tangent, propagate
from hexameral.kit import Kit
from hexameral.sl2 import _unit_det, _unit_tangent

DIGITS = 40
RESIDUAL_TOL = mpf("1e-35")


def _octagon_at_40_digits():
    """The octagon's start state and its links' out states, as entries, and
    each link's (a, t0, tau), at 40 digits."""
    kit = Kit(mp)  # mpmath numbers at the working precision
    a = mpf(12) ** mpf("0.25") / mp.sqrt(4 - mp.sqrt(2))
    t0, tau = -1 / mp.sqrt(2), 2 - mp.sqrt(2)
    k = kit.SQRT3 / (2 * a * a)
    start = (_unit_det(*_square_frame(a, k, t0, 0, kit), kit),
             _unit_tangent(*_square_tangent(a, k, t0), kit))
    states, links = [start], []
    for j in OCTAGON_INDICES:
        state, a, t0 = propagate(states[-1], tau, j, kit)
        states.append(state)
        links.append((a, t0, tau))
    return kit, states, links


def test_mpmath_kit_closes_the_octagon():
    with mp.workdps(DIGITS):
        kit, states, links = _octagon_at_40_digits()
        assert all(isinstance(v, mpf) for link in links for v in link)
        assert all(isinstance(v, mpf) for state in states for part in state for v in part)
        (start_frame, start_tangent), (end_frame, end_tangent) = states[0], states[-1]
        # the start frame turned by pi/3: F R, R the rotation by pi/3
        c, s = mp.cos(mp.pi / 3), mp.sin(mp.pi / 3)
        al, be, ga, de = start_frame
        turned = (al * c + be * s, be * c - al * s, ga * c + de * s, de * c - ga * s)
        frame_residual = max(abs(p - q) for p, q in zip(end_frame, turned))
        tangent_residual = max(abs(p - q) for p, q in zip(end_tangent, start_tangent))
        assert frame_residual < RESIDUAL_TOL
        assert tangent_residual < RESIDUAL_TOL


def test_mpmath_kit_gives_the_octagon_density():
    with mp.workdps(DIGITS):
        kit, _, links = _octagon_at_40_digits()
        area = sum(_link_area(a, t0, tau, kit) for a, t0, tau in links)
        density = 2 * area / mp.sqrt(12)
        closed_form = (8 - mp.sqrt(32) - mp.log(2)) / (mp.sqrt(8) - 1)
        assert abs(density - closed_form) < RESIDUAL_TOL
