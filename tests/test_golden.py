"""Every output of the three commands on the fixtures matches tests/golden.json.

A mismatch means an output byte, an exit code or a message changed.  If
the change is on purpose, rewrite the manifest with
`python3 tests/golden.py --update` and say in CHANGES.md which entries
changed and why.  The manifest's bench-corpus entries are checked by
hand, with `python3 tests/golden.py --bench`.
"""

import subprocess
import sys

import golden


def test_outputs_match_the_manifest():
    expected = golden.read_manifest()
    actual = golden.build_manifest()
    assert sorted(actual) == sorted(expected)
    assert [key for key in expected if actual[key] != expected[key]] == []


def test_bare_command_checks_the_fixture_entries():
    child = subprocess.run([sys.executable, str(golden.REPO_ROOT / "tests" / "golden.py")],
                           capture_output=True, text=True, check=False, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout.splitlines()[-1] == "21 of 21 entries match"
