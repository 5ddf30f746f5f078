"""Word-to-concept association through a ranked lexicon plus overrides.

The lexicon file carries one sense per line (word, rank, concept); rank 1
is the preferred sense and the only one consulted automatically.  The
override map exists because rank-1 senses are sometimes absurd for the
service domain (a "user" of drugs); an override always wins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, compress, repeat
from operator import add, eq, mul, not_

from .model import Concept, Word

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
    """word text -> concepts ordered by ascending sense rank."""

    entries: dict[str, tuple[Concept, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for word, concepts in self.entries.items():
            if not concepts:
                raise LexiconError(f"lexicon entry {word!r} has no senses")


@dataclass(frozen=True)
class OverrideMap:
    entries: dict[str, Concept] = field(default_factory=dict)

    def __post_init__(self):
        for word in self.entries:
            if word != word.lower():
                raise LexiconError(f"override key must be lowercase: {word!r}")


EMPTY_OVERRIDES = OverrideMap()


def _as_text(document: bytes | str, source: str) -> str:
    if isinstance(document, str):
        return document
    try:
        return document.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedLexiconLine(f"{source}: not UTF-8 text: {exc}") from None


def load_lexicon(document: bytes | str, source: str = "<lexicon>") -> Lexicon:
    """Parse the TSV lexicon format: word<TAB>rank<TAB>concept per line.

    Blank lines and '#' comments are ignored.  Ranks per word must form
    1..k with no gaps or duplicates.  Words that name the same concept id
    share one Concept object.

    A canonical document (see _load_canonical) is read column by column;
    any other document goes through the line loop, which accepts every
    form and reports the first error with its line number.  Both give the
    same entries in the same order.
    """
    text = _as_text(document, source)
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


def _load_canonical(text: str) -> dict[str, tuple[Concept, ...]] | None:
    r"""The entries of a canonical document, else None; never raises.

    Canonical: every line ends in \n and no other line break appears; each
    line is empty, a '#' comment from column 0, or word<TAB>rank<TAB>concept
    with no other whitespace; each word's lines are consecutive with ranks
    1..k in order, and no word has a second run of lines.  The checks and
    the build work on whole columns of a block at a time, with string and
    iterator operations that loop in C.
    """
    if text and not text.endswith("\n") or _OTHER_BREAKS.search(text):
        return None
    concepts: dict[str, Concept] = {}
    senses: list[Concept] = []
    starts: list[int] = []
    heads: list[str] = []
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
        starts.extend(compress(range(len(senses), len(senses) + len(words)), new_words))
        heads.extend(compress(words, new_words))
        for concept_id in set(ids).difference(concepts):
            concepts[concept_id] = Concept(concept_id)
        senses.extend(map(concepts.__getitem__, ids))
        word, rank = words[-1], ranks[-1]
    runs = map(slice, starts, chain(starts[1:], (len(senses),)))
    entries = dict(zip(heads, map(tuple, map(senses.__getitem__, runs))))
    if len(entries) != len(heads):  # a word with a second run of lines
        return None
    return entries


def _load_lines(text: str, source: str) -> dict[str, tuple[Concept, ...]]:
    """Line by line, for any document; raises on the first bad line."""
    senses: dict[str, dict[int, Concept]] = {}
    concepts: dict[str, Concept] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split("\t")
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
        if not concept_id:
            raise MalformedLexiconLine(f"{source}:{number}: concept must be non-empty")
        concept = concepts.get(concept_id)
        if concept is None:
            concept = concepts[concept_id] = Concept(concept_id)
        ranks = senses.setdefault(word, {})
        if rank in ranks:
            raise DuplicateSense(f"{source}:{number}: duplicate sense {word!r} rank {rank}")
        ranks[rank] = concept
    entries: dict[str, tuple[Concept, ...]] = {}
    for word, ranks in senses.items():
        expected = list(range(1, len(ranks) + 1))
        if sorted(ranks) != expected:
            raise NonContiguousRanks(
                f"{source}: ranks for {word!r} must be 1..{len(ranks)}, got {sorted(ranks)}")
        entries[word] = tuple(ranks[rank] for rank in expected)
    return entries


def load_overrides(document: bytes | str, source: str = "<overrides>") -> OverrideMap:
    """Parse 'word=Concept' lines; '#' comments and blanks ignored."""
    entries: dict[str, Concept] = {}
    for number, line in enumerate(_as_text(document, source).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise MalformedOverrideLine(f"{source}:{number}: expected word=Concept")
        word, _, concept_id = stripped.partition("=")
        word = word.strip().lower()
        concept_id = concept_id.strip()
        if not _WORD_RE.fullmatch(word):
            raise MalformedOverrideLine(
                f"{source}:{number}: word must be letters only: {word!r}")
        if not concept_id:
            raise MalformedOverrideLine(f"{source}:{number}: concept must be non-empty")
        entries[word] = Concept(concept_id)
    return OverrideMap(entries=entries)


def associate(word: Word, lexicon: Lexicon,
              overrides: OverrideMap = EMPTY_OVERRIDES) -> Concept | None:
    """Override concept if present, else the word's rank-1 sense, else None."""
    override = overrides.entries.get(word.text)
    if override is not None:
        return override
    senses = lexicon.entries.get(word.text)
    if senses:
        return senses[0]
    return None


def associate_words(words: list[Word], lexicon: Lexicon,
                    overrides: OverrideMap = EMPTY_OVERRIDES) -> list[tuple[Word, Concept]]:
    """Associate each word, keeping hits only; order and duplicates preserved."""
    pairs = []
    for word in words:
        concept = associate(word, lexicon, overrides)
        if concept is not None:
            pairs.append((word, concept))
    return pairs


def default_lexicon() -> Lexicon:
    """The small demo lexicon shipped with the package."""
    data = resources.files("semwsdl.data").joinpath("lexicon.tsv").read_bytes()
    return load_lexicon(data, source="lexicon.tsv")
