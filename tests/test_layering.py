"""The model, preprocessing, lexicon and search layers never reach the parser.

Everything the search mines comes from the model that `ingest` builds, so
these modules read that model alone: none imports `ingest` or `xmlio`.
The XML tree is a parse detail: only `ingest` and `writer` read it, and
the package exports nothing of `xmlio` but its parse error.  Every run
pays the package's import, so it loads no dataclass machinery.
"""

import ast
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

PARSER_MODULES = {"ingest", "xmlio"}
XMLIO_IMPORTERS = {"ingest", "writer", "__init__"}
PACKAGE = REPO_ROOT / "src" / "semwsdl"


def imported_modules(path):
    """The last dotted part of each module the file imports, and each imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["model", "preprocess", "lexicon", "explore", "metrics"])
def test_module_does_not_import_the_parser(module):
    path = PACKAGE / f"{module}.py"
    assert not imported_modules(path) & PARSER_MODULES


def test_only_ingest_writer_and_the_package_import_xmlio():
    importers = {path.stem for path in PACKAGE.glob("*.py") if "xmlio" in imported_modules(path)}
    assert importers <= XMLIO_IMPORTERS


def test_the_package_takes_only_the_parse_error_from_xmlio():
    tree = ast.parse((PACKAGE / "__init__.py").read_text("utf-8"))
    taken = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "xmlio"
             for alias in node.names]
    assert taken == ["MalformedXml"]


def test_importing_the_cli_loads_no_dataclass_machinery():
    # dataclasses loads inspect, ast, dis and tokenize, and each class runs exec
    code = ("import sys; before = set(sys.modules); import semwsdl.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                           check=True, timeout=60)
    assert child.stdout.decode().split() == []
