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
    """
    senses: dict[str, dict[int, Concept]] = {}
    concepts: dict[str, Concept] = {}
    for number, line in enumerate(_as_text(document, source).splitlines(), start=1):
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
    return Lexicon(entries=entries)


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
