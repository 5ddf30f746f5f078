"""The model, preprocessing, lexicon and search layers never reach the parser.

Everything the search mines comes from the model that `ingest` builds, so
these modules read that model alone: none imports `ingest` or `xmlio`.
"""

import ast

import pytest

from conftest import REPO_ROOT

PARSER_MODULES = {"ingest", "xmlio"}


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
    path = REPO_ROOT / "src" / "semwsdl" / f"{module}.py"
    assert not imported_modules(path) & PARSER_MODULES
