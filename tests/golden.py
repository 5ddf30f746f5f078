"""The output manifest: sha256 of everything the three commands emit.

Each of `annotate`, `ablate` and `wordfreq` runs in process, through
`cli.run`, on each `fixtures/` directory, with the packaged lexicon.
Inputs are named relative to the repository root, so every `param_id`
and every message is the same in any checkout.  For each run the
manifest records the exit code and the sha256 of stdout, stderr and
every file in the output directory.

`tests/test_golden.py` compares a fresh run with the manifest.  A
change that alters output bytes on purpose rewrites it in the same
commit; a refactor leaves it untouched.

    python3 tests/golden.py --update
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
MANIFEST = REPO_ROOT / "tests" / "golden.json"
COMMANDS = ("annotate", "ablate", "wordfreq")
LEXICON = "src/semwsdl/data/lexicon.tsv"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixture_dirs() -> list[str]:
    return sorted(f"fixtures/{path.name}" for path in (REPO_ROOT / "fixtures").iterdir()
                  if path.is_dir())


def run_one(command: str, input_dir: str) -> dict:
    """One run's entry; the working directory must be the repository root."""
    from semwsdl import cli

    with tempfile.TemporaryDirectory() as output_dir:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run([command, "--input-paths", input_dir, "--output-dir", output_dir,
                            "--lexicon-path", LEXICON])
        files = {path.name: _sha256(path.read_bytes())
                 for path in sorted(Path(output_dir).iterdir())}
    return {"exit": code,
            "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "stderr": _sha256(stderr.getvalue().encode("utf-8")),
            "files": files}


def build_manifest() -> dict:
    """Every (command, fixture directory) entry, keyed "command fixtures/dir"."""
    before = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return {f"{command} {input_dir}": run_one(command, input_dir)
                for input_dir in fixture_dirs() for command in COMMANDS}
    finally:
        os.chdir(before)


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print("usage: golden.py --update", file=sys.stderr)
        return 2
    manifest = build_manifest()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(manifest)} entries to {MANIFEST.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
