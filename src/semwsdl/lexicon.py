"""Word-to-concept association through a ranked lexicon.

The lexicon file carries one sense per line (word, rank, concept); rank 1
is the preferred sense, and the only one kept once every line is checked.
Overrides exist because rank-1 senses are sometimes absurd for the
service domain (a "user" of drugs).  They are laid over the lexicon's
entries when it is built, so an override replaces its word's rank-1
concept, or adds the word, and a lookup reads one table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import add, eq, mul, not_

from .model import Concept, Word
from .preprocess import content_lines, read_text

_WORD_RE = re.compile(r"[a-z]+")


class LexiconError(ValueError):
    """Base for lexicon and override file problems."""


class MalformedLexiconLine(LexiconError):
    pass


class DuplicateSense(LexiconError):
    pass


class NonContiguousRanks(LexiconError):
    pass


class MalformedOverrideLine(LexiconError):
    pass


@dataclass(frozen=True)
class Lexicon:
    """word text -> its override if it has one, else its rank-1 concept."""

    entries: dict[str, Concept] = field(default_factory=dict)

    def __post_init__(self):
        if not all(map(isinstance, self.entries.values(), repeat(Concept))):
            raise LexiconError("lexicon entries must map each word to one Concept")


def load_lexicon(text: str, source: str = "<lexicon>") -> Lexicon:
    """Parse the TSV lexicon format: word<TAB>rank<TAB>concept per line.

    Blank lines and '#' comments are ignored.  Ranks per word must form
    1..k with no gaps or duplicates.  Every line is checked, but only each
    word's rank-1 concept is kept; words whose rank-1 concepts have the
    same id share one Concept object.

    A canonical document (see _load_canonical) is read column by column;
    any other document goes through the line loop, which accepts every
    form and reports the first error with its line number.  Both give the
    same entries in the same order.  `text` is decoded already; read a
    file with preprocess.read_text.
    """
    entries = _load_canonical(text)
    if entries is None:
        entries = _load_lines(text, source)
    return Lexicon(entries=entries)


# every line break str.splitlines honours, except \n
_OTHER_BREAKS = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_SPACE_RE = re.compile(r"\s")
# only one block's field strings are alive at a time
_BLOCK_CHARS = 1 << 18


def _blocks(text: str):
    r"""Slices of whole lines, about _BLOCK_CHARS each; text ends in \n."""
    start = 0
    while start < len(text):
        end = text.find("\n", min(start + _BLOCK_CHARS, len(text)) - 1) + 1
        yield text[start:end]
        start = end


def _load_canonical(text: str) -> dict[str, Concept] | None:
    r"""The entries of a canonical document, else None; never raises.

    Canonical: every line ends in \n and no other line break appears; each
    line is empty, a '#' comment from column 0, or word<TAB>rank<TAB>concept
    with no other whitespace; each word's lines are consecutive with ranks
    1..k in order, and no word has a second run of lines.  So the first
    line of each run is its word's rank-1 line.  The checks and the build
    work on whole columns of a block at a time, with string and iterator
    operations that loop in C.
    """
    if text and not text.endswith("\n") or _OTHER_BREAKS.search(text):
        return None
    concepts: dict[str, Concept] = {}
    entries: dict[str, Concept] = {}
    heads = 0
    word, rank = "", 0  # before the first line: it must start a word at rank 1
    for block in _blocks(text):
        lines = [line for line in block.split("\n") if line and line[0] != "#"]
        if not lines:
            continue
        if set(map(str.count, lines, repeat("\t"))) != {2}:
            return None
        fields = "\t".join(lines).split("\t")
        words, rank_texts, ids = fields[0::3], fields[1::3], fields[2::3]
        letters, digits = "".join(words), "".join(rank_texts)
        if not (letters.isascii() and letters.isalpha() and letters.islower()
                and digits.isascii() and digits.isdigit()):
            return None
        # the joined columns hide an empty field
        if "" in words or "" in rank_texts or "" in ids or _SPACE_RE.search("".join(ids)):
            return None
        try:
            ranks = list(map(int, rank_texts))
        except ValueError:  # more digits than int() converts
            return None
        continues = list(map(eq, words, chain((word,), words)))
        # a line continuing its word has the previous rank + 1, any other rank 1
        if list(map(add, map(mul, chain((rank,), ranks), continues), repeat(1))) != ranks:
            return None
        new_words = list(map(not_, continues))
        firsts = list(compress(ids, new_words))
        for concept_id in set(firsts).difference(concepts):
            concepts[concept_id] = Concept(concept_id)
        entries.update(zip(compress(words, new_words), map(concepts.__getitem__, firsts)))
        heads += len(firsts)
        word, rank = words[-1], ranks[-1]
    if len(entries) != heads:  # a word with a second run of lines
        return None
    return entries


def _load_lines(text: str, source: str) -> dict[str, Concept]:
    """Line by line, for any document; raises on the first bad line."""
    ranks: dict[str, set[int]] = {}
    firsts: dict[str, Concept] = {}
    concepts: dict[str, Concept] = {}
    for number, line in content_lines(text):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLexiconLine(
                f"{source}:{number}: expected word<TAB>rank<TAB>concept")
        word, rank_text, concept_id = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if not _WORD_RE.fullmatch(word):
            raise MalformedLexiconLine(
                f"{source}:{number}: word must be lowercase letters: {word!r}")
        try:
            rank = int(rank_text)
        except ValueError:
            raise MalformedLexiconLine(
                f"{source}:{number}: rank must be an integer: {rank_text!r}") from None
        if rank < 1:
            raise MalformedLexiconLine(f"{source}:{number}: rank must be >= 1")
        seen = ranks.setdefault(word, set())
        if rank in seen:
            raise DuplicateSense(f"{source}:{number}: duplicate sense {word!r} rank {rank}")
        seen.add(rank)
        if rank == 1:
            firsts[word] = concepts.setdefault(concept_id, Concept(concept_id))
    for word, seen in ranks.items():
        if max(seen) != len(seen):  # distinct ranks >= 1 are 1..k when the largest is k
            raise NonContiguousRanks(
                f"{source}: ranks for {word!r} must be 1..{len(seen)}, got {sorted(seen)}")
    return {word: firsts[word] for word in ranks}


def load_overrides(text: str, source: str = "<overrides>") -> dict[str, Concept]:
    """Parse 'word=Concept' lines into word -> Concept; '#' comments, blanks ignored.

    `text` is decoded already, as for load_lexicon.  Lay the result over
    a lexicon with `lexicon.entries.update(...)`.
    """
    entries: dict[str, Concept] = {}
    for number, line in content_lines(text):
        if "=" not in line:
            raise MalformedOverrideLine(f"{source}:{number}: expected word=Concept")
        word, _, concept_id = line.partition("=")
        word = word.strip().lower()
        concept_id = concept_id.strip()
        if not _WORD_RE.fullmatch(word):
            raise MalformedOverrideLine(
                f"{source}:{number}: word must be letters only: {word!r}")
        if not concept_id:
            raise MalformedOverrideLine(f"{source}:{number}: concept must be non-empty")
        entries[word] = Concept(concept_id)
    return entries


def associate(word: Word, lexicon: Lexicon) -> Concept | None:
    """The word's concept in the lexicon, else None."""
    return lexicon.entries.get(word.text)


def associate_words(words: list[Word], lexicon: Lexicon) -> list[tuple[Word, Concept]]:
    """Associate each word, keeping hits only; order and duplicates preserved."""
    entries = lexicon.entries
    return [(word, concept) for word in words
            if (concept := entries.get(word.text)) is not None]


def default_lexicon() -> Lexicon:
    """The small demo lexicon shipped with the package."""
    return load_lexicon(read_text("lexicon.tsv", packaged=True), source="lexicon.tsv")
