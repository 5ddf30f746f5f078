"""A fixed CPU workload that does not use semwsdl: the host-speed probe.

    python3 bench/probe.py

It parses a fixed namespaced XML document with expat, splits its names into
words, builds a dict of 60k generated words and looks words up in it,
and writes a sorted report to memory: the same kinds of interpreter work as
one CLI invocation, on fixed inputs.  The runner times it between CLI
invocations, so it measures how fast the host ran the interpreter during the
same window (see bench/NOTES.md).
"""

from __future__ import annotations

import io
import random
import re
import xml.parsers.expat

ITEMS = 3000
PASSES = 4
WORDS = 60_000
LOOKUPS = 300_000
_WORD = re.compile(r"[A-Z]?[a-z]+|[0-9]+")


def _document() -> bytes:
    items = "".join(
        f'<t:item xmlns:t="urn:probe:{i % 7}" name="ItemName{i}Code" '
        f'type="t:ValueType{i % 97}"><t:doc>text for item {i}</t:doc></t:item>'
        for i in range(ITEMS))
    return f'<root xmlns="urn:probe">{items}</root>'.encode()


def probe() -> str:
    counts: dict[str, int] = {}
    data = _document()
    for _ in range(PASSES):
        parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")

        def start(name: str, attrs: dict) -> None:
            for value in attrs.values():
                for word in _WORD.findall(value):
                    word = word.lower()
                    counts[word] = counts.get(word, 0) + 1

        parser.StartElementHandler = start
        parser.Parse(data, True)
    rng = random.Random(0)
    letters = "bdfgklmnprstvzaeiou"
    senses = {"".join(rng.choices(letters, k=8)): [f"Concept{i}", i % 3]
              for i in range(WORDS)}
    keys = list(senses)
    hits = sum(1 for i in range(LOOKUPS)
               if keys[(i * 7919) % WORDS] in senses and str(i) not in senses)
    out = io.StringIO()
    for word, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        out.write(f"{word},{count}\n")
    out.write(f"hits,{hits}\n")
    return out.getvalue()


if __name__ == "__main__":
    probe()
