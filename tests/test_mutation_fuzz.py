"""The batch promise under a seeded mutation fuzz.

Copies of the fixture WSDLs get their reference attributes (type,
element, message, name, ref, schemaLocation, xmlns*) rewritten and some
lines duplicated; batches of three files, one of them under a name that
is not UTF-8, go through all three commands along with a FIFO named by
flag.  A bad file may only become a skipped entry: no run raises an
internal error, every exit code is 0, 1 or 2, and 2 means nothing
parsed.  The FIFO is always skipped, and every command skips the same
files.  The loader accounts for every file: each is a document, a
skipped entry or a schema file.
"""

import json
import os
import random
import re
import shutil

import pytest

from semwsdl import cli, load_corpus

from conftest import CORPUS_DIR, DERIVED_DIR, IMPORTS_DIR, LEXICON_PATH, SPECIAL_DIR

SOURCES = sorted([*CORPUS_DIR.glob("*.wsdl"), *DERIVED_DIR.glob("*.wsdl"),
                  IMPORTS_DIR / "main.wsdl", SPECIAL_DIR / "cyclic.wsdl"])
ATTRIBUTE = re.compile(
    r'\b(type|element|message|name|ref|schemaLocation|xmlns(?::[\w.-]+)?)="([^"]*)"')
NAMESPACES = ["", "http://schemas.xmlsoap.org/wsdl/", "http://www.w3.org/2001/XMLSchema",
              "http://www.w3.org/ns/sawsdl", "urn:other"]
BATCHES = 80


def mutated_value(rng, attribute, value, values):
    if attribute.startswith("xmlns"):
        return rng.choice(NAMESPACES)
    if attribute == "schemaLocation":
        return rng.choice(["", "missing.xsd", "common.xsd", "x0.wsdl", "./", "../common.xsd"])
    prefix, _, local = value.rpartition(":")
    return rng.choice([
        "", " ", ":", "a:b:c", "zz:" + local, local, prefix + ":", value * 2,
        rng.choice(values), "tns:" + rng.choice(values).rpartition(":")[2],
    ])


def mutate(rng, text):
    matches = list(ATTRIBUTE.finditer(text))
    values = [match.group(2) for match in matches]
    chosen = sorted(rng.sample(matches, min(len(matches), rng.randint(1, 4))),
                    key=lambda match: match.start(), reverse=True)
    for match in chosen:
        attribute = match.group(1)
        value = mutated_value(rng, attribute, match.group(2), values)
        text = text[:match.start()] + f'{attribute}="{value}"' + text[match.end():]
    lines = text.split("\n")
    if rng.random() < 0.3:  # most duplicated lines break the XML
        position = rng.randrange(len(lines))
        lines.insert(position, lines[position])
    return "\n".join(lines)


def make_fifo(path):
    """A FIFO at path, or None where there are none."""
    try:
        os.mkfifo(path)
    except (AttributeError, OSError):
        return None
    return path


@pytest.mark.parametrize("seed", range(BATCHES))
def test_mutated_batches_keep_the_batch_promise(seed, tmp_path, capsys):
    rng = random.Random(seed)
    batch = tmp_path / "in"
    batch.mkdir()
    shutil.copy(IMPORTS_DIR / "common.xsd", batch / "common.xsd")
    names = ["x0.wsdl", "x1.wsdl", os.fsdecode(b"x2\xff.wsdl")]
    for name, source in zip(names, rng.sample(SOURCES, 3)):
        data = mutate(rng, source.read_text("utf-8")).encode("utf-8")
        try:
            (batch / name).write_bytes(data)
        except (OSError, UnicodeError):  # a file system that refuses the name
            (batch / "x2.wsdl").write_bytes(data)
    fifo = make_fifo(tmp_path / "pipe.wsdl")
    inputs = [batch] + [fifo] * (fifo is not None)
    files = [*sorted(batch.iterdir()), *inputs[1:]]
    corpus = load_corpus(files)
    assert len(corpus.documents) + len(corpus.skipped) + corpus.schemas == len(files)
    capsys.readouterr()
    skipped = {}
    for command in ("annotate", "ablate", "wordfreq"):
        out = tmp_path / command
        code = cli.run([command, "--input-paths", *map(str, inputs), "--output-dir", str(out),
                        "--lexicon-path", str(LEXICON_PATH)])
        err = capsys.readouterr().err
        assert "error: internal:" not in err
        assert code in (0, 1, 2), err
        if code == 2:
            assert "no parseable WSDL description" in err
        skipped[command] = [line for line in err.splitlines() if line.startswith("skipped ")]
        if fifo is not None:
            assert f"skipped {fifo}: not a regular file" in skipped[command]
        if command == "annotate" and code != 2:
            # each WSDL and the FIFO give a copy or a skipped entry; the XSD neither
            report = json.loads((out / "report.json").read_text("utf-8"))
            copies = sum(1 for _ in out.glob("*.sawsdl.wsdl"))
            assert copies + len(report["skipped"]) == 3 + (fifo is not None)
    assert skipped["ablate"] == skipped["wordfreq"] == skipped["annotate"]
