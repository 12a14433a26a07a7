"""Fuzz of the input boundary: chain documents and the density/verify commands.

Any document, however malformed, must either parse, with a unit initial
tangent, or be rejected with a ChainFormatError; the CLI must answer every
chain file with exit code 0, 1 or 2 and a one-line JSON diagnostic on
failure, never with an uncaught exception.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hexameral.chain import ChainParams, chain_from_dict, chain_to_dict
from hexameral.cli import main
from hexameral.domain import smoothed_octagon
from hexameral.errors import ChainFormatError

OCTAGON_DOC = chain_to_dict(smoothed_octagon().chain)

# Integers beyond float range overflow float(); the rest cover signs and edges.
numbers = st.one_of(
    st.floats(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2 ** 1030, max_value=2 ** 1100),
    st.booleans(),
)
junk = st.recursive(
    st.none() | numbers | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=4),
    max_leaves=8,
)


def _row(length: int, exact: list):
    return st.one_of(st.just(exact), st.lists(numbers, min_size=length, max_size=length), junk)


link = st.one_of(
    st.fixed_dictionaries({
        "tau": st.one_of(st.floats(min_value=0.0, max_value=1.0), numbers),
        "j": st.one_of(st.sampled_from((0, 2, 4)), st.integers(-2, 8), junk),
    }),
    junk,
)
structured = st.fixed_dictionaries({
    "initial": st.fixed_dictionaries({
        "frame": _row(4, OCTAGON_DOC["initial"]["frame"]),
        "tangent": _row(3, OCTAGON_DOC["initial"]["tangent"]),
    }),
    "links": st.one_of(st.lists(link, max_size=6), junk),
})


@st.composite
def near_octagon(draw):
    """The octagon with its turning fractions moved a little: often closed."""
    doc = json.loads(json.dumps(OCTAGON_DOC))
    for entry in doc["links"]:
        entry["tau"] += draw(st.one_of(st.floats(min_value=-1e-9, max_value=1e-9),
                                       st.floats(min_value=-1e-3, max_value=1e-3)))
    return doc


documents = st.one_of(near_octagon(), structured, junk)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents)
def test_chain_from_dict_rejects_with_geometry_errors(doc):
    try:
        chain = chain_from_dict(doc)
    except ChainFormatError:
        return
    assert isinstance(chain, ChainParams)
    assert abs(chain.initial.tangent.norm() - 1.0) <= 1e-15


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(("density", "verify")),
    content=st.one_of(documents.map(json.dumps).map(str.encode), st.binary(max_size=24)),
    tol=st.one_of(st.none(), st.floats().map(repr), st.text(max_size=4)),
)
def test_cli_exit_codes_stay_in_range(chain_dir, command, content, tol):
    path = chain_dir / "chain.json"
    path.write_bytes(content)
    argv = [command, str(path)] + ([] if tol is None else [f"--closure-tol={tol}"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        [line] = err.getvalue().splitlines()
        assert "error" in json.loads(line)
