"""The package source's rules, read from the files alone.  The first three
are the CI workflow's shell rules, so that a local test run fails where CI
would: at most ``LINE_BUDGET`` lines in ``src/hexameral/*.py``, no line wider
than ``LINE_WIDTH`` characters, and numpy imported only in ``_np.py`` (every
other module reads it lazily through ``hexameral._np``).  The fourth keeps
one representation of a link inside the library: no module but ``chain.py``
reads an assembly's ``states``, ``reps`` or ``final`` views, and no module
but ``hyperlink.py`` calls ``link_map``; the rest read the record's entries."""
import re
from pathlib import Path

LINE_BUDGET = 3000
LINE_WIDTH = 99
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hexameral"
NUMPY_IMPORT = re.compile(r"^\s*(import|from) numpy")
VIEW_READ = re.compile(r"\.(states|reps|final)\b")
LINK_MAP_CALL = re.compile(r"\blink_map\(")


def _texts() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _sources() -> dict[str, list[str]]:
    return {name: text.splitlines() for name, text in _texts().items()}


def test_package_source_is_found():
    assert {"__init__.py", "_np.py", "optimize.py"} <= set(_sources())


def test_line_budget():
    # newlines, as ``wc -l`` counts them
    assert sum(text.count("\n") for text in _texts().values()) <= LINE_BUDGET


def test_line_width():
    wide = [f"{name}:{n}" for name, lines in _sources().items()
            for n, line in enumerate(lines, 1) if len(line) > LINE_WIDTH]
    assert wide == []


def test_numpy_is_imported_only_in_np():
    imports = [f"{name}:{n}" for name, lines in _sources().items() if name != "_np.py"
               for n, line in enumerate(lines, 1) if NUMPY_IMPORT.match(line)]
    assert imports == []


def test_views_and_link_map_stay_in_their_modules():
    reads = [f"{name}:{n}" for name, lines in _sources().items()
             for n, line in enumerate(lines, 1)
             if name != "chain.py" and VIEW_READ.search(line)
             or name != "hyperlink.py" and LINK_MAP_CALL.search(line)]
    assert reads == []
