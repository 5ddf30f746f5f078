"""Batch command line: annotate, ablate, wordfreq.

Exit codes: 0 full success, 1 partial (some inputs skipped), 2 fatal
(bad flags, unreadable config or lexicon, nothing parseable, a
report.json, ablation.json or words.csv that cannot be written, or an
internal error).
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from pathlib import Path

from .explore import annotate_description
from .ingest import Corpus, SkippedFile, load_corpus
from .lexicon import load_lexicon, load_overrides
from .metrics import (
    ablation_to_json,
    render_ablation_table,
    run_ablation,
    word_frequency,
    word_frequency_to_csv,
)
from .preprocess import (
    ALL_STAGES,
    ConfigError,
    SearchConfig,
    Stage,
    default_config,
    parse_abbreviations,
    parse_stop_words,
    read_text,
)
from .writer import WriterConfig, write_report, write_sawsdl

# the name ending of every written copy, which a directory listing passes over
_COPY_SUFFIX = ".sawsdl.wsdl"
_STAGE_NAMES = [stage.value for stage in Stage]
_STAGE_CHOICES = f"{', '.join(_STAGE_NAMES)}, or none"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semwsdl",
        description="Batch semantic annotator for WSDL files (SAWSDL output).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input-paths", nargs="+", required=True, metavar="PATH",
                        help="WSDL/XSD files or directories containing them")
    common.add_argument("--output-dir", required=True,
                        help="directory for generated files (created if missing)")
    common.add_argument("--lexicon-path", required=True, help="ranked lexicon TSV file")
    common.add_argument("--abbreviations-path", help="abbreviation file (default: packaged list)")
    common.add_argument("--stopwords-path", help="stop-word file (default: packaged list)")
    common.add_argument("--overrides-path", help="word=Concept override file (default: none)")
    common.add_argument("--max-depth", type=int,
                        default=SearchConfig._field_defaults["max_depth"],
                        help="maximum exploration depth (default %(default)s)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    annotate = subparsers.add_parser("annotate", parents=[common],
                                     help=f"write {_COPY_SUFFIX} copies plus report.json")
    annotate.set_defaults(runner=_run_annotate)
    # ablate and wordfreq set the stages themselves and write no copies
    annotate.add_argument("--stages", help=f"comma list of {','.join(_STAGE_NAMES)} "
                                           "or 'none' (default: all)")
    annotate.add_argument("--uri-prefix", default=WriterConfig._field_defaults["uri_prefix"],
                          help="prefix for concept URIs in modelReference values")
    subparsers.add_parser("ablate", parents=[common],
                          help="run the five-stage evaluation, write ablation.json"
                          ).set_defaults(runner=_run_ablate)
    subparsers.add_parser("wordfreq", parents=[common],
                          help="count emitted words, write words.csv"
                          ).set_defaults(runner=_run_wordfreq)
    return parser


def _parse_stages(text: str | None) -> frozenset[Stage]:
    if text is None:
        return ALL_STAGES
    if text.strip().lower() == "none":
        return frozenset()
    tokens = [token.strip().lower() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ConfigError(f"--stages {text!r} names no stage; expected a comma list of "
                          f"{_STAGE_CHOICES}")
    stages = set()
    for token in tokens:
        try:
            stages.add(Stage(token))
        except ValueError:
            raise ConfigError(f"unknown stage {token!r}; expected {_STAGE_CHOICES}") from None
    return frozenset(stages)


def _gather_inputs(paths: list[str]) -> tuple[list[str], int]:
    """Expand directories (non-recursive *.wsdl + *.xsd, sorted) in flag order.

    A listed entry is passed on by name only: read_regular decides what is
    read, so an entry that is no regular file (a dangling or looping
    symlink, a FIFO, a directory) is skipped as it is when named by flag.
    Directories never yield a name ending in _COPY_SUFFIX, so outputs are
    not re-annotated; the second value counts the copies passed over.  A
    file named twice is left in twice; load_corpus loads it once.
    """
    files: list[str] = []
    copies = 0
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            listed = sorted(str(child) for child in path.iterdir()
                            if child.suffix in (".wsdl", ".xsd"))
            kept = [name for name in listed if not name.endswith(_COPY_SUFFIX)]
            copies += len(listed) - len(kept)
            files.extend(kept)
        else:
            files.append(raw)
    return files, copies


def _build_setup(args):
    stages = _parse_stages(getattr(args, "stages", None))
    defaults = default_config()
    abbreviations, stop_words = defaults.abbreviations, defaults.stop_words
    if args.abbreviations_path:
        abbreviations = parse_abbreviations(read_text(args.abbreviations_path),
                                            args.abbreviations_path)
    if args.stopwords_path:
        stop_words = parse_stop_words(read_text(args.stopwords_path), args.stopwords_path)
    config = SearchConfig(abbreviations, stop_words, stages, args.max_depth)
    lexicon = load_lexicon(read_text(args.lexicon_path), source=args.lexicon_path)
    if args.overrides_path:  # in place: an override replaces its word's rank-1 concept
        lexicon.entries.update(
            load_overrides(read_text(args.overrides_path), source=args.overrides_path))
    # only annotate writes copies; a bad prefix stops it before any input is read
    return config, lexicon, WriterConfig(args.uri_prefix) if args.command == "annotate" else None


def _print_skipped(skipped: list[SkippedFile]) -> None:
    for skip in skipped:
        print(f"skipped {skip.path}: {skip.error}", file=sys.stderr)


def _load_inputs(files: list[str]) -> Corpus:
    corpus = load_corpus(files)
    _print_skipped(corpus.skipped)
    for description in corpus.descriptions:
        for warning in description.warnings:
            print(f"{description.source_id}: {warning}", file=sys.stderr)
    return corpus


_OUTPUT_FLAGS = (os.O_WRONLY | os.O_CREAT | getattr(os, "O_NONBLOCK", 0)
                 | getattr(os, "O_BINARY", 0))


def _write_output(path: Path, data: bytes) -> None:
    """Write `data` to `path`, rewriting an existing file in place.

    Truncating a file to zero frees its blocks only for the write to
    allocate them again, and ext4 flushes a file truncated and rewritten
    that way when it is closed; a rerun into the same output directory
    mostly writes outputs of the same size.  So an existing file keeps its
    inode and mode and is cut only when it used to be longer than `data`.
    A new file gets 0o666 less the umask.  The open does not block, so a
    FIFO without a reader fails it, and one with a reader is refused: a
    FIFO is never written.  A device, such as /dev/null, is written.
    """
    fd = os.open(path, _OUTPUT_FLAGS, 0o666)
    with open(fd, "wb") as file:  # the buffered writer retries short writes
        status = os.fstat(fd)
        if stat.S_ISFIFO(status.st_mode):
            raise OSError(f"{path}: is a FIFO")
        longer = status.st_size > len(data)
        file.write(data)
        if longer:
            file.truncate()


def _output_names(paths: list[str]) -> list[str]:
    """Distinct output file names for the input paths, in order.

    A name keeps the bytes of its input's stem, even those that are not UTF-8.
    """
    names: list[str] = []
    taken: set[str] = set()
    for path in paths:
        stem = Path(path).stem
        candidate = stem + _COPY_SUFFIX
        counter = 1
        while candidate in taken:
            counter += 1
            candidate = f"{stem}-{counter}{_COPY_SUFFIX}"
        taken.add(candidate)
        names.append(candidate)
    return names


def _run_annotate(args, corpus: Corpus, setup) -> None:
    """Write each copy; one that cannot be written becomes a skipped entry."""
    config, lexicon, writer_config = setup
    output_dir = Path(args.output_dir)
    names = _output_names([parsed.path for parsed in corpus.documents])
    all_annotations = []
    written = []
    for parsed, name in zip(corpus.documents, names):
        description = parsed.description
        annotations = annotate_description(description, config, lexicon)
        output = write_sawsdl(parsed, annotations, writer_config)
        try:
            _write_output(output_dir / name, output)
        except OSError as exc:
            skip = SkippedFile(description.source_id, f"write error: {exc}")
            corpus.skipped.append(skip)
            _print_skipped([skip])
            continue
        written.append(description)
        all_annotations.extend(annotations)
    report = write_report(all_annotations, written, corpus.skipped)
    _write_output(output_dir / "report.json", report)
    annotated = sum(1 for a in all_annotations if a.entries)
    print(f"annotated {annotated}/{len(all_annotations)} parameters across "
          f"{len(written)} files", file=sys.stderr)


def _run_ablate(args, corpus: Corpus, setup) -> None:
    config, lexicon, _ = setup
    report = run_ablation(corpus.descriptions, config, lexicon)
    _write_output(Path(args.output_dir) / "ablation.json", ablation_to_json(report))
    sys.stdout.write(render_ablation_table(report))


def _run_wordfreq(args, corpus: Corpus, setup) -> None:
    config, lexicon, _ = setup
    rows = word_frequency(corpus.descriptions, config, lexicon)
    _write_output(Path(args.output_dir) / "words.csv", word_frequency_to_csv(rows))
    print(f"counted {len(rows)} distinct words", file=sys.stderr)


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return exit_request.code
    # A command builds large acyclic tables; the few cycles it leaves
    # (argparse's, not one per input file) wait for the caller's collector,
    # whose setting comes back on the way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_command(args)
    except Exception as exc:  # a bug, not a bad input: one line, never exit 1
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def _run_command(args) -> int:
    try:
        setup = _build_setup(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    files, copies = _gather_inputs(args.input_paths)
    corpus = _load_inputs(files)
    if not corpus.documents:
        message = "error: no parseable WSDL description in input"
        if corpus.schemas:
            read = "file" if corpus.schemas == 1 else "files"
            message += (f"; read {corpus.schemas} schema {read} (schema files are import "
                        "targets, not descriptions)")
        if copies:
            written = "copy" if copies == 1 else "copies"
            message += (f"; passed over {copies} written {written} (*{_COPY_SUFFIX}) "
                        "in directory listings")
        print(message, file=sys.stderr)
        return 2
    try:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
        args.runner(args, corpus, setup)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if corpus.skipped else 0


def main(argv: list[str] | None = None) -> int:
    """The program entry: run, then leave what the run built to the OS.

    The process exits right after, and the interpreter's last collection
    would walk every object the imports and the run left behind; frozen,
    they are out of its reach.  A library caller uses run(), which leaves
    the collector as it found it.
    """
    code = run(sys.argv[1:] if argv is None else argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
