"""Every output of the three commands on the fixtures matches tests/golden.json.

A mismatch means an output byte, an exit code or a message changed.  If
the change is on purpose, rewrite the manifest with
`python3 tests/golden.py --update` and say in CHANGES.md which entries
changed and why.  The manifest's seed-1 bench-corpus entries are checked
the same way, and `python3 tests/golden.py --bench` checks them by itself.
The bare command also checks the fixture entries under each other
supported CPython that starts, found on PATH or beside this one's
installation.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden

SUPPORTED_MINORS = (10, 11, 12, 13)


def test_outputs_match_the_manifest():
    expected = golden.read_manifest()
    actual = golden.build_manifest()
    assert sorted(actual) == sorted(expected)
    assert [key for key in expected if actual[key] != expected[key]] == []


def test_bench_outputs_match_the_manifest():
    expected = golden.read_manifest(bench=True)
    actual = golden.build_bench_manifest()
    assert sorted(actual) == sorted(expected)
    assert [key for key in expected if actual[key] != expected[key]] == []


def check_bare_command(executable):
    child = subprocess.run([executable, str(golden.REPO_ROOT / "tests" / "golden.py")],
                           capture_output=True, text=True, check=False, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.splitlines()[-1] == "21 of 21 entries match"


def test_bare_command_checks_the_fixture_entries():
    check_bare_command(sys.executable)


def interpreters(minor):
    """Each python3.<minor> on PATH, then in a sibling of sys.base_prefix (pyenv's layout)."""
    name = f"python3.{minor}"
    on_path = shutil.which(name)
    siblings = sorted(Path(sys.base_prefix).parent.glob(f"3.{minor}*/bin/{name}"))
    return [*([on_path] if on_path else []), *map(str, siblings)]


def refusal(executable, minor):
    """Why the executable is no python3.<minor> that starts, or None when it is one."""
    try:
        child = subprocess.run([executable, "-c", "import sys; print(sys.version_info[:2])"],
                               capture_output=True, text=True, check=False, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{executable}: {exc}"
    if child.returncode != 0:
        return f"{executable}: exit {child.returncode}"
    if child.stdout.strip() != f"(3, {minor})":
        return f"{executable}: reports {child.stdout.strip()!r}"
    return None


@pytest.mark.parametrize("minor", SUPPORTED_MINORS)
def test_bare_command_checks_the_fixture_entries_under_other_interpreters(minor):
    if sys.version_info[:2] == (3, minor):
        pytest.skip("the running interpreter, checked by the test above")
    reasons = []
    for executable in interpreters(minor):
        reason = refusal(executable, minor)
        if reason is None:
            check_bare_command(executable)
            return
        reasons.append(reason)
    pytest.skip("; ".join(reasons) or f"no python3.{minor} found")
