"""The library imports numpy and the standard library only, and parses as Python 3.10.

CI installs no scipy for the tier-1 legs, but pytest and hypothesis are
installed there, so an import of either from src/ would pass every leg; this
test reads the imports instead of relying on what happens to be installed.

pyproject.toml allows Python 3.10, so every file of the library and its tests
must parse with the 3.10 grammar whatever interpreter runs this.  That checks
grammar only (``ast.parse`` with ``feature_version``): a name or library call
that 3.10 lacks, such as ``tomllib``, passes it.
"""

import ast
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "npspace"
OLDEST = (3, 10)  # pyproject.toml's requires-python
ALLOWED = {"numpy"} | set(sys.stdlib_module_names)


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every import, nested ones included, that is neither
    relative, numpy nor a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_the_check_sees_nested_and_dotted_imports():
    source = (
        "import json, numpy.linalg\nfrom . import maps\nfrom .spaces import realize\n"
        "def f():\n    import pytest\n    from scipy.special import zeta\n"
    )
    assert _foreign_imports(source) == [(5, "pytest"), (6, "scipy.special")]


def test_src_imports_only_numpy_and_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {f.name: _foreign_imports(f.read_text(encoding="utf-8")) for f in files}
    assert {name: found for name, found in foreign.items() if found} == {}


def _parses_as_oldest(source: str) -> bool:
    try:
        ast.parse(source, feature_version=OLDEST)
    except SyntaxError:
        return False
    return True


def test_the_grammar_check_refuses_newer_syntax():
    assert _parses_as_oldest("try:\n    pass\nexcept ValueError:\n    pass\n")
    assert not _parses_as_oldest("try:\n    pass\nexcept* ValueError:\n    pass\n")


def test_src_and_tests_parse_with_the_oldest_supported_grammar():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 2
    refused = [f.name for f in files if not _parses_as_oldest(f.read_text(encoding="utf-8"))]
    assert refused == []
