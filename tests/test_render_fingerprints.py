"""Golden fingerprints of the rendered domain outputs.

For the octagon, an SL2-moved octagon and a split period: the SHA-256 of
``export_svg`` at its default sampling, and ``repr`` of the area functional
of ``chain_path`` at its default sampling.  A change to how the boundary
polyline or the frame path is stored must leave these exactly as they are.
The values were captured with numpy 2.4.6; another numpy may round
differently and move them.
"""
import hashlib

import pytest

from hexameral.chain import ChainParams
from hexameral.domain import export_svg, from_chain
from hexameral.hyperlink import transform_state
from hexameral.sl2 import TangentElement, exp_tangent
from hexameral.variational import area_functional, chain_path

from conftest import split_octagon_period

GOLDEN = {
    "octagon": ("8adc1c97896b1e5da4a619509460891b9ee5f16ff6580190d6dfd46a21ed57c4",
                "3.126054012262321"),
    "moved": ("36dfeac8a0fb5d1f262b857b41ddc595ffab0db2400c125136a67e94413bcbd7",
              "3.1260540122623235"),
    "split": ("3a8fd4c05977aa5304f4a20e41d3a0c99736a52bf799ff65bb2382bae3eb4bf4",
              "3.126054090648906"),
}


def _chain(name: str, octagon) -> ChainParams:
    if name == "moved":
        g = exp_tangent(TangentElement(0.4, -0.7, 0.2), 1.0)
        return ChainParams(transform_state(g, octagon.chain.initial), octagon.chain.links)
    if name == "split":
        return split_octagon_period(octagon, 0.3)
    return octagon.chain


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_render_fingerprint(octagon, name):
    chain = _chain(name, octagon)
    svg_sha, area = GOLDEN[name]
    assert hashlib.sha256(export_svg(from_chain(chain)).encode()).hexdigest() == svg_sha
    assert repr(area_functional(chain_path(chain))) == area
