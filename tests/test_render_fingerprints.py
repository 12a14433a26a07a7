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
from hexameral.domain import star_profile
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

# Away from the default sampling, captured the same way: the SHA-256 of
# export_svg at per_link 1 and 97 and of star_profile(dom, 32).tobytes(), and
# repr(area_functional(chain_path(chain, 5))).  A change to how the links are
# sampled must leave these exactly as they are too.
GOLDEN_SAMPLING = {
    "octagon": ("ff7ddf0bb24a80e8121b325691b0908ff71ebdf77f852ea4cb5b6032a6fe1c6f",
                "e07b0b8f271b523fb2326f46b26b547bad227b43dc94256e9cb505eee6713993",
                "63ab2b3432be257a7fefa9cc12c58f433a6b50b1b735b476515144fc91487e40",
                "3.1243641227233807"),
    "moved": ("dd034687e03e3291a92fa5551dfcc8d8316f7d6ee6ae75ad032e6447bb3e8859",
              "ab83bc3c551ba80a3b5ee90f6b9d8877af3beeed26199e015145388f952f51b2",
              "a52ae986b13f014920f84cf9326b0db94602c53ed04b3754ef10bc9492c97654",
              "3.1243641227233834"),
    "split": ("df1653c3c18b603e1a42a8890eecb373cf34dc5e61d287aaf1ec544e9266849c",
              "272a49a7da7a4af35aed9b0665ad9b21a46d22cb894276c06d4f3bb8bd822b52",
              "ae12340de7fa36bb59960aa35a57cd617bf2a5ee76c5338357a66d048b24b6a9",
              "3.124682055106858"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLING))
def test_render_fingerprint_away_from_defaults(octagon, name):
    chain = _chain(name, octagon)
    dom = from_chain(chain)
    coarse, fine, star, area = GOLDEN_SAMPLING[name]
    assert _sha(export_svg(dom, 1).encode()) == coarse
    assert _sha(export_svg(dom, 97).encode()) == fine
    assert _sha(star_profile(dom, 32).tobytes()) == star
    assert repr(area_functional(chain_path(chain, 5))) == area
