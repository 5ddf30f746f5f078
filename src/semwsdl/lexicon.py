"""Word-to-concept association through a ranked lexicon.

The lexicon file carries one sense per line (word, rank, concept); rank 1
is the preferred sense, and the only one kept once every line is checked.
Overrides exist because rank-1 senses are sometimes absurd for the
service domain (a "user" of drugs).  They are laid over the lexicon's
entries when it is built, so an override replaces its word's rank-1
concept, or adds the word, and a lookup reads one table.  A fault in
either file raises preprocess.ConfigError naming the source and line.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import repeat

from .model import NON_XML_ASCII, WORD_RE, Concept, Word, checked_make, is_xml_text, token_fault
from .preprocess import DATA_DIR, ConfigError, content_lines, read_text


class Lexicon(namedtuple("Lexicon", "entries")):
    """word text -> its override if it has one, else its rank-1 concept."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, entries: dict[str, Concept]):
        if not all(map(isinstance, entries.values(), repeat(Concept))):
            raise ConfigError("lexicon entries must map each word to one Concept")
        return tuple.__new__(cls, (entries,))


def load_lexicon(text: str, source: str = "<lexicon>") -> Lexicon:
    """Parse the TSV lexicon format: word<TAB>rank<TAB>concept per line.

    Blank lines and '#' comments are ignored.  Ranks per word must form
    1..k with no gaps or duplicates.  Every line is checked, but only each
    word's rank-1 concept is kept; words whose rank-1 concepts have the
    same id share one Concept object.

    A canonical document (see _load_canonical) is checked with one
    pattern per block of lines, and its run heads are read in one more
    pass; any other document goes through the line loop, which accepts
    every form and reports the first error with its line number.  Both give the same entries in the
    same order.  `text` is decoded already; read a file with
    preprocess.read_text.
    """
    entries = _load_canonical(text)
    if entries is None:
        entries = _load_lines(text, source)
    return Lexicon(entries=entries)


# a run is one word's consecutive lines; none holds more ranks than this
_MAX_RUN = 100


def _run_pattern(max_run: int) -> str:
    r"""Zero or more runs: word<TAB>1<TAB>concept, then the same word at rank 2,
    3, ... up to max_run, each further line optional, every line ending in \n.
    A concept is one token free of the ASCII characters XML forbids; a class
    with code points past U+00FF would compile to a big charset, about 0.2 ms
    for each of its max_run copies, so _load_canonical checks those apart."""
    concept = rf"[^\s{NON_XML_ASCII}]+"
    rest = ""
    for rank in range(max_run, 1, -1):
        rest = rf"(?:\1\t{rank}\t{concept}\n{rest})?"
    return rf"(?:([a-z]+)\t1\t{concept}\n{rest})*"


# the text only, so an import compiles nothing: re compiles it on the
# first canonical load and caches it
_RUNS = _run_pattern(_MAX_RUN)
# a '#' comment line free of every line break str.splitlines honours other
# than \n, or an empty line; a comment with such a break is left in place
_SKIPPED_LINE = re.compile(r"^(?:#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*)?\n", re.M)
# after a line break: a run head's word and concept
_RUN_HEAD = re.compile(r"\n([a-z]+)\t1\t([^\n]+)")
# the line break before a line at rank 1, where a block may end
_RUN_START = re.compile(r"\n(?=[a-z]+\t1\t)")
# the text one block covers at least; see _load_canonical
_BLOCK_CHARS = 1 << 16


def _blocks(text: str):
    r"""Slices of whole lines, each cut before a rank-1 line after _BLOCK_CHARS."""
    start = 0
    while start < len(text):
        cut = _RUN_START.search(text, start + _BLOCK_CHARS - 1)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def _load_canonical(text: str) -> dict[str, Concept] | None:
    r"""The entries of a canonical document, else None; never raises.

    Canonical: every line ends in \n and is a '#' comment from column 0
    with no line break but \n, an empty line, or word<TAB>rank<TAB>concept
    with no other whitespace and only XML characters; without the comments
    and empty lines, each word's lines are one run ranked 1, 2, ... in
    order, up to _MAX_RUN.  Blocks are cut before a rank-1 line, so no run
    straddles two.  A block costs two passes that loop in C: it must
    fullmatch _RUNS, whose pattern spells out each rank and repeats the
    run's word by backreference, and then _RUN_HEAD finds each run's word
    and rank-1 concept.  A block with a non-ASCII character costs a third,
    a search for the characters XML forbids.  No word may have a second
    run, so there are as many entries as heads.  Blocks are about 64k
    characters because the pattern's plain * and ? (possessive forms need
    Python 3.11) keep backtracking frames for what they match: bigger
    blocks raise peak memory and run no faster.
    """
    if text and not text.endswith("\n"):
        return None
    concepts: dict[str, Concept] = {}
    entries: dict[str, Concept] = {}
    heads = 0
    for block in _blocks(text):
        if block[0] in "#\n" or "\n#" in block or "\n\n" in block:
            block = _SKIPPED_LINE.sub("", block)
        if not re.fullmatch(_RUNS, block) or not (block.isascii() or is_xml_text(block)):
            return None
        pairs = _RUN_HEAD.findall("\n" + block)
        for word, concept_id in pairs:
            concept = concepts.get(concept_id)
            if concept is None:
                concept = concepts[concept_id] = Concept(concept_id)
            entries[word] = concept
        heads += len(pairs)
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
            raise ConfigError(f"{source}:{number}: expected word<TAB>rank<TAB>concept")
        word, rank_text, concept_id = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if not WORD_RE.fullmatch(word):
            raise ConfigError(f"{source}:{number}: word must be lowercase letters: {word!r}")
        try:
            rank = int(rank_text)
        except ValueError:
            raise ConfigError(
                f"{source}:{number}: rank must be an integer: {rank_text!r}") from None
        if rank < 1:
            raise ConfigError(f"{source}:{number}: rank must be >= 1")
        if fault := token_fault(concept_id):
            raise ConfigError(f"{source}:{number}: concept {fault}")
        seen = ranks.setdefault(word, set())
        if rank in seen:
            raise ConfigError(f"{source}:{number}: duplicate sense {word!r} rank {rank}")
        seen.add(rank)
        if rank == 1:
            firsts[word] = concepts.setdefault(concept_id, Concept(concept_id))
    for word, seen in ranks.items():
        if max(seen) != len(seen):  # distinct ranks >= 1 are 1..k when the largest is k
            raise ConfigError(
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
            raise ConfigError(f"{source}:{number}: expected word=Concept")
        word, _, concept_id = line.partition("=")
        word = word.strip().lower()
        concept_id = concept_id.strip()
        if not WORD_RE.fullmatch(word):
            raise ConfigError(f"{source}:{number}: word must be letters only: {word!r}")
        if fault := token_fault(concept_id):
            raise ConfigError(f"{source}:{number}: concept {fault}")
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
    return load_lexicon(read_text(DATA_DIR / "lexicon.tsv"), source="lexicon.tsv")
