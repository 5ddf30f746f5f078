"""The model, preprocessing, lexicon and search layers never reach the parser.

Everything the search mines comes from the model that `ingest` builds, so
these modules read that model alone: none imports `ingest` or `xmlio`.
The XML tree is a parse detail: only `ingest` and `writer` read it, and
the package exports nothing of `xmlio` but its parse error.  Every run
pays the package's import, so it loads no dataclass machinery.  Every
file is read by `preprocess.read_regular` and written by
`cli._write_output`, so none of them is waited on.
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
# calls that open a file by path or descriptor: open(), os.open(), Path.open(), ...
OPENER_ATTRS = {"open", "fdopen", "read_bytes", "read_text", "write_bytes", "write_text"}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


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


def test_the_oracle_imports_nothing_from_the_package():
    # a constant shared with the package would pass both the search and its oracle
    package = {"semwsdl"} | {path.stem for path in PACKAGE.glob("*.py")}
    assert not imported_modules(REPO_ROOT / "tests" / "bruteforce.py") & package


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


def _opens_a_file(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and func.attr in OPENER_ATTRS


def _writes(call, constants):
    """True when the call opens for writing: a write method, a write flag or a mode."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr.startswith("write"):
        return True
    for arg in [*call.args, *(keyword.value for keyword in call.keywords)]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if set(arg.value) & set("wax+"):
                return True
            continue
        if isinstance(arg, ast.Name):  # a module constant such as _OUTPUT_FLAGS
            arg = constants.get(arg.id, arg)
        if any(isinstance(node, ast.Attribute) and node.attr in WRITE_FLAGS
               for node in ast.walk(arg)):
            return True
    return False


def file_openings(path):
    """(module, enclosing function, "read" or "write") for each call that opens a file."""
    tree = ast.parse(path.read_text("utf-8"))
    constants = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _opens_a_file(child):
                found.add((path.stem, function, "write" if _writes(child, constants) else "read"))
            visit(child, function)

    visit(tree, None)
    return found


def test_one_reader_and_one_writer_open_every_file():
    # a second way in, such as Path.read_bytes(), could wait on a FIFO or read a device
    openings = set().union(*map(file_openings, PACKAGE.glob("*.py")))
    assert openings == {("preprocess", "read_regular", "read"),
                        ("cli", "_write_output", "write")}


def test_no_module_imports_importlib():
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "importlib" for module in modules):
                importers.add(path.stem)
    assert importers == set()
