"""The output manifest: sha256 of everything the three commands emit.

Each of `annotate`, `ablate` and `wordfreq` runs in process, through
`cli.run`, on each `fixtures/` directory, with the packaged lexicon.
Inputs are named relative to the repository root, so every `param_id`
and every message is the same in any checkout.  For each run the
manifest records the exit code and the sha256 of stdout, stderr and
every file in the output directory.

`tests/test_golden.py` compares a fresh run with the manifest, and so
does the bare command, under any interpreter and without pytest.  A
change that alters output bytes on purpose rewrites it in the same
commit; a refactor leaves it untouched.

    python3 tests/golden.py [--update]

The manifest also holds the runs of the three commands on each seed-1
benchmark corpus (annotate-mix, ablate-deep, wordfreq-imports), which
`bench/generate.py` writes into a temporary directory with its own
lexicon and overrides.  They take seconds, so the bare command leaves
them to `tests/test_golden.py` and to `--bench`, which checks them, or
with `--update` rewrites them; one digest covers all the
`*.sawsdl.wsdl` copies of a run.

    python3 tests/golden.py --bench [--update]
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
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
BENCH_CORPORA = ("annotate-mix", "ablate-deep", "wordfreq-imports")
BENCH_SEED = 1
COPIES = "*.sawsdl.wsdl"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixture_dirs() -> list[str]:
    return sorted(f"fixtures/{path.name}" for path in (REPO_ROOT / "fixtures").iterdir()
                  if path.is_dir())


def run_one(command: str, input_dir: str, extra: tuple[str, ...] = (),
            lexicon: str = LEXICON, fold_copies: bool = False) -> dict:
    """One run's entry; input paths are relative to the working directory.

    With fold_copies, one digest of every copy's name and digest stands
    for the copies.
    """
    from semwsdl import cli

    with tempfile.TemporaryDirectory() as output_dir:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run([command, "--input-paths", input_dir, "--output-dir", output_dir,
                            "--lexicon-path", lexicon, *extra])
        files = {path.name: _sha256(path.read_bytes())
                 for path in sorted(Path(output_dir).iterdir())}
    if fold_copies:
        copies = {name: digest for name, digest in files.items()
                  if name.endswith(".sawsdl.wsdl")}
        files = {name: digest for name, digest in files.items() if name not in copies}
        if copies:
            lines = "".join(f"{name} {digest}\n" for name, digest in copies.items())
            files[COPIES] = _sha256(lines.encode("utf-8", "surrogateescape"))
    return {"exit": code,
            "stdout": _sha256(stdout.getvalue().encode("utf-8")),
            "stderr": _sha256(stderr.getvalue().encode("utf-8")),
            "files": files}


@contextlib.contextmanager
def _working_directory(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def build_manifest() -> dict:
    """Every (command, fixture directory) entry, keyed "command fixtures/dir"."""
    with _working_directory(REPO_ROOT):
        return {f"{command} {input_dir}": run_one(command, input_dir)
                for input_dir in fixture_dirs() for command in COMMANDS}


def _bench_generate():
    spec = importlib.util.spec_from_file_location(
        "bench_generate", REPO_ROOT / "bench" / "generate.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports tests/corpusgen.py from sys.path
    return module.generate


def build_bench_manifest() -> dict:
    """Every (command, seed-1 bench corpus) entry, keyed "command bench/<workload>@1"."""
    generate = _bench_generate()
    entries = {}
    for workload in BENCH_CORPORA:
        with tempfile.TemporaryDirectory() as work:
            generate(workload, BENCH_SEED, REPO_ROOT, Path(work))
            with _working_directory(Path(work)):
                for command in COMMANDS:
                    entries[f"{command} bench/{workload}@{BENCH_SEED}"] = run_one(
                        command, "corpus", ("--overrides-path", "overrides.txt"),
                        lexicon="lexicon.tsv", fold_copies=True)
    return entries


def _is_bench(key: str) -> bool:
    return " bench/" in key


def read_manifest(bench: bool = False) -> dict:
    """The manifest's fixture entries, or with bench its bench-corpus entries."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    return {key: entry for key, entry in manifest.items() if _is_bench(key) == bench}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--update"], ["--bench"], ["--bench", "--update"]):
        print("usage: golden.py [--bench] [--update]", file=sys.stderr)
        return 2
    bench, update = "--bench" in argv, "--update" in argv
    actual = build_bench_manifest() if bench else build_manifest()
    if not update:
        expected = read_manifest(bench)
        changed = sorted(key for key in expected.keys() | actual.keys()
                         if expected.get(key) != actual.get(key))
        for key in changed:
            print(f"differs: {key}")
        print(f"{len(actual) - len(changed)} of {len(actual)} entries match")
        return 1 if changed else 0
    manifest = {**read_manifest(not bench), **actual}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(actual)} entries to {MANIFEST.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
