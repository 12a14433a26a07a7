"""The package source's three shell rules from the CI workflow, read from the
files alone, so that a local test run fails where CI would: at most
``LINE_BUDGET`` lines in ``src/hexameral/*.py``, no line wider than
``LINE_WIDTH`` characters, and numpy imported only in ``_np.py`` (every
other module reads it lazily through ``hexameral._np``)."""
import re
from pathlib import Path

LINE_BUDGET = 3000
LINE_WIDTH = 99
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hexameral"
NUMPY_IMPORT = re.compile(r"^\s*(import|from) numpy")


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
