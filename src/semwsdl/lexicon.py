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
from operator import eq, mul, not_

from .model import WORD_RE, Concept, Word
from .preprocess import content_lines, read_text


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

    A canonical document (see _load_canonical) is checked with one
    pattern per block of lines and split into fields; any other document
    goes through the line loop, which accepts every form and reports the
    first error with its line number.  Both give the same entries in the
    same order.  `text` is decoded already; read a file with
    preprocess.read_text.
    """
    entries = _load_canonical(text)
    if entries is None:
        entries = _load_lines(text, source)
    return Lexicon(entries=entries)


# lines of three kinds, each ending in \n: word<TAB>rank<TAB>concept with a
# rank free of leading zeros, a '#' comment free of every line break
# str.splitlines honours other than \n, and an empty line
_CANONICAL_BLOCK = re.compile(
    r"(?:[a-z]+\t[1-9][0-9]*\t\S+\n|#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*\n|\n)*")
# the rank text of a word's next line; "" stands before a word's first line
_NEXT_RANK = {"": "1", **{str(rank): str(rank + 1) for rank in range(1, 100)}}
# the text one fullmatch covers; see _load_canonical
_BLOCK_CHARS = 1 << 16


def _blocks(text: str):
    r"""Slices of whole lines, about _BLOCK_CHARS each; text ends in \n."""
    start = 0
    while start < len(text):
        end = text.find("\n", min(start + _BLOCK_CHARS, len(text)) - 1) + 1
        yield text[start:end]
        start = end


def _load_canonical(text: str) -> dict[str, Concept] | None:
    r"""The entries of a canonical document, else None; never raises.

    Canonical: every line ends in \n, and each block of whole lines
    fullmatches _CANONICAL_BLOCK, one pattern of three kinds of line:
    word<TAB>rank<TAB>concept with no other whitespace and a rank without
    leading zeros, a '#' comment from column 0 with no line break but \n,
    and an empty line.  Ranks are compared as text, never converted: a
    word's first line has rank "1", each later line the successor of the
    rank before it in _NEXT_RANK, so a longer run goes to the line loop.
    No word has a second run of lines, so the first line of each run is
    its word's rank-1 line.  A block costs a few passes that loop in C.
    Blocks are about 64k characters because the pattern's plain * (a
    possessive *+ needs Python 3.11) keeps a backtracking frame per line
    it matches: bigger blocks raise peak memory and run no faster.
    """
    if text and not text.endswith("\n"):
        return None
    concepts: dict[str, Concept] = {}
    entries: dict[str, Concept] = {}
    heads = 0
    word, rank = "", ""  # before the first line: it must start a word at rank 1
    for block in _blocks(text):
        if not _CANONICAL_BLOCK.fullmatch(block):
            return None
        if block[0] in "#\n" or "\n#" in block or "\n\n" in block:
            block = "".join(line + "\n" for line in block.split("\n") if line and line[0] != "#")
            if not block:
                continue
        fields = block.replace("\n", "\t").split("\t")
        words, rank_texts, ids = fields[0:-1:3], fields[1::3], fields[2::3]
        continues = list(map(eq, words, chain((word,), words)))
        # look up the previous line's rank text if the line continues its word, else ""
        if list(map(_NEXT_RANK.get, map(mul, chain((rank,), rank_texts), continues))) != rank_texts:
            return None
        new_words = list(map(not_, continues))
        firsts = list(compress(ids, new_words))
        for concept_id in set(firsts).difference(concepts):
            concepts[concept_id] = Concept(concept_id)
        entries.update(zip(compress(words, new_words), map(concepts.__getitem__, firsts)))
        heads += len(firsts)
        word, rank = words[-1], rank_texts[-1]
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
        if not WORD_RE.fullmatch(word):
            raise MalformedLexiconLine(
                f"{source}:{number}: word must be lowercase letters: {word!r}")
        try:
            rank = int(rank_text)
        except ValueError:
            raise MalformedLexiconLine(
                f"{source}:{number}: rank must be an integer: {rank_text!r}") from None
        if rank < 1:
            raise MalformedLexiconLine(f"{source}:{number}: rank must be >= 1")
        if concept_id.split() != [concept_id]:
            raise MalformedLexiconLine(
                f"{source}:{number}: concept must not contain whitespace: {concept_id!r}")
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
        if not WORD_RE.fullmatch(word):
            raise MalformedOverrideLine(
                f"{source}:{number}: word must be letters only: {word!r}")
        if not concept_id:
            raise MalformedOverrideLine(f"{source}:{number}: concept must be non-empty")
        if concept_id.split() != [concept_id]:
            raise MalformedOverrideLine(
                f"{source}:{number}: concept must not contain whitespace: {concept_id!r}")
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
