"""Output checks against independent oracles, run outside the timed region.

``report.json``, ``ablation.json`` and ``words.csv`` are recomputed with the
brute-force reference in ``tests/bruteforce.py``.  Every ``.sawsdl.wsdl``
copy is re-parsed with the stdlib's namespace-aware expat mode and must
match its input event for event; the only allowed extras are SAWSDL
``modelReference`` values, and those must be the report's concepts.
"""

from __future__ import annotations

import csv
import io
import json
import xml.parsers.expat
from pathlib import Path

import bruteforce  # tests/bruteforce.py, put on sys.path by run.py

from semwsdl import load_corpus

SAWSDL_ATTR = "http://www.w3.org/ns/sawsdl modelReference"
WSDL_PART = "http://schemas.xmlsoap.org/wsdl/ part"
XSD_ELEMENT = "http://www.w3.org/2001/XMLSchema element"
URI_PREFIX = "http://www.ontologyportal.org/SUMO.owl#"
FULL_STAGES = bruteforce.STAGE_ROWS[-1][1]


class CheckFailed(AssertionError):
    """An output differs from what the oracle computes."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Oracle:
    """Word lists parsed independently of the package's own parsers."""

    def __init__(self, root: Path, lexicon: Path, overrides: Path):
        data = root / "src" / "semwsdl" / "data"
        self.abbreviations = {}
        for line in _content_lines(data / "abbreviations.txt"):
            short, _, long = line.partition("=")
            self.abbreviations[short.strip().lower()] = long.strip().lower()
        self.stop_words = {line.lower() for line in _content_lines(data / "stopwords.txt")}
        self.rank1 = bruteforce.oracle_parse_lexicon(lexicon.read_text("utf-8"))
        self.overrides = {}
        for line in _content_lines(overrides):
            word, _, concept = line.partition("=")
            self.overrides[word.strip().lower()] = concept.strip()

    def lookup(self, word: str):
        return bruteforce.oracle_lookup(word, self.rank1, self.overrides)

    def search(self, param, desc):
        return bruteforce.oracle_search(param, desc, FULL_STAGES, True,
                                        self.abbreviations, self.stop_words,
                                        self.rank1, self.overrides)


def _content_lines(path: Path) -> list[str]:
    lines = (line.strip() for line in path.read_text("utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def check_skipped(stderr: str, planted: list[str]) -> int:
    """The CLI reported exactly the planted files as skipped; return the count."""
    skipped = sorted(Path(line[len("skipped "):].split(": ", 1)[0]).name
                     for line in stderr.splitlines() if line.startswith("skipped "))
    _require(skipped == sorted(planted),
             f"skipped files {skipped[:5]}... differ from the planted {sorted(planted)[:5]}...")
    return len(skipped)


def _descriptions(inputs: list[str]):
    return load_corpus(inputs).descriptions


# -- annotate ----------------------------------------------------------------

def check_annotate(out: Path, inputs: list[str], planted: set[str], oracle: Oracle) -> int:
    report = json.loads((out / "report.json").read_text("utf-8"))
    skipped = sorted(Path(entry["path"]).name for entry in report["skipped"])
    _require(skipped == sorted(planted), "report.json skipped list differs from the planted files")
    descriptions = _descriptions(inputs)
    records = report["parameters"]
    expected_ids = [param.param_id for desc in descriptions for param in desc.parameters()]
    _require([record["param_id"] for record in records] == expected_ids,
             "report.json parameters differ from the parsed corpus")
    concepts_by_file: dict[str, set[str]] = {}
    position = 0
    annotated = 0
    for desc in descriptions:
        uris = concepts_by_file.setdefault(desc.source_id, set())
        for param in desc.parameters():
            record = records[position]
            position += 1
            success, emitted = oracle.search(param, desc)
            hits = [word for word in emitted if oracle.lookup(word) is not None]
            entries = record["entries"]
            _require(record["status"] == ("annotated" if success else "failed"),
                     f"{param.param_id}: status {record['status']} but oracle success={success}")
            _require([entry["word"] for entry in entries] == hits,
                     f"{param.param_id}: words {[e['word'] for e in entries]} != oracle {hits}")
            for entry in entries:
                _require(entry["concept"] == oracle.lookup(entry["word"]),
                         f"{param.param_id}: concept of {entry['word']} differs from the lexicon")
                uris.add(URI_PREFIX + entry["concept"])
            annotated += bool(entries)
    summary = report["summary"]
    _require(summary["total"] == len(records) and summary["annotated"] == annotated,
             "report.json summary counts differ from its parameter records")
    expected_files = {_output_name(desc.source_id) for desc in descriptions}
    produced = {path.name for path in out.iterdir()} - {"report.json"}
    _require(produced == expected_files, "output directory holds unexpected or missing files")
    for desc in descriptions:
        check_round_trip(Path(desc.source_id), out / _output_name(desc.source_id),
                         concepts_by_file[desc.source_id])
    return len(records)


def _output_name(source_id: str) -> str:
    return f"{Path(source_id).stem}.sawsdl.wsdl"


def _events(data: bytes) -> list[tuple]:
    """Namespace-resolved events; adjacent character data merged."""
    events: list[tuple] = []
    text: list[str] = []

    def flush():
        if text:
            events.append(("text", "".join(text)))
            text.clear()

    def start(name, attrs):
        flush()
        events.append(("start", name, attrs))

    def end(name):
        flush()
        events.append(("end", name))

    def comment(data):
        flush()
        events.append(("comment", data))

    def pi(target, data):
        flush()
        events.append(("pi", target, data))

    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = text.append
    parser.CommentHandler = comment
    parser.ProcessingInstructionHandler = pi
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise CheckFailed(f"not namespace-well-formed: {exc}") from None
    flush()
    return events


def check_round_trip(source: Path, copy: Path, report_uris: set[str]) -> None:
    """The copy equals the source except for added modelReference values."""
    before = _events(source.read_bytes())
    after = _events(copy.read_bytes())
    _require(len(before) == len(after),
             f"{copy.name}: {len(after)} events, the source has {len(before)}")
    added: set[str] = set()
    for old, new in zip(before, after):
        if old[0] != "start" or new[0] != "start":
            _require(old == new, f"{copy.name}: {new!r} differs from source {old!r}")
            continue
        _require(old[1] == new[1], f"{copy.name}: element {new[1]} differs from {old[1]}")
        old_attrs = dict(old[2])
        new_attrs = dict(new[2])
        old_value = old_attrs.pop(SAWSDL_ATTR, None)
        new_value = new_attrs.pop(SAWSDL_ATTR, None)
        _require(old_attrs == new_attrs, f"{copy.name}: attributes of {new[1]} changed")
        if new_value == old_value:
            continue
        _require(new_value is not None and new[1] in (WSDL_PART, XSD_ELEMENT),
                 f"{copy.name}: modelReference changed on {new[1]}")
        kept = (old_value or "").split()
        tokens = new_value.split()
        _require(tokens[:len(kept)] == kept, f"{copy.name}: existing modelReference altered")
        fresh = tokens[len(kept):]
        _require(fresh and len(set(fresh)) == len(fresh),
                 f"{copy.name}: empty or repeated modelReference values on {new[1]}")
        added.update(fresh)
    _require(added == report_uris,
             f"{copy.name}: added concepts {sorted(added)[:3]} differ from the report's "
             f"{sorted(report_uris)[:3]}")


# -- ablate and wordfreq ---------------------------------------------------------

def check_ablate(out: Path, inputs: list[str], oracle: Oracle) -> int:
    rows = json.loads((out / "ablation.json").read_text("utf-8"))["rows"]
    descriptions = _descriptions(inputs)
    expected = bruteforce.oracle_ablation(descriptions, oracle.abbreviations,
                                          oracle.stop_words, oracle.rank1, oracle.overrides)
    _require([(row["stage"], row["annotated"], row["total"]) for row in rows] == expected,
             f"ablation.json rows differ from the oracle {expected}")
    for row in rows:
        _require(row["rate"] == row["annotated"] / row["total"], "ablation.json rate is wrong")
    return _parameter_count(descriptions)


def check_wordfreq(out: Path, inputs: list[str], oracle: Oracle) -> int:
    descriptions = _descriptions(inputs)
    counts = bruteforce.oracle_word_counts(descriptions, oracle.abbreviations,
                                           oracle.stop_words, oracle.rank1, oracle.overrides)
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    expected = [["word", "occurrences", "concept"]] + [
        [word, str(count), oracle.lookup(word) or ""] for word, count in ordered]
    text = (out / "words.csv").read_text("utf-8")
    _require(list(csv.reader(io.StringIO(text))) == expected,
             "words.csv differs from the oracle word counts")
    return _parameter_count(descriptions)


def _parameter_count(descriptions) -> int:
    return sum(1 for desc in descriptions for _ in desc.parameters())


def check_outputs(command: str, out: Path, inputs: list[str], planted: list[str],
                  oracle: Oracle) -> int:
    """Check one invocation's outputs; return the corpus's parameter count."""
    if command == "annotate":
        return check_annotate(out, inputs, set(planted), oracle)
    if command == "ablate":
        return check_ablate(out, inputs, oracle)
    return check_wordfreq(out, inputs, oracle)
