"""Turning raw identifier names into clean lowercase words, and the search config.

The search has four stages that can be switched off independently for
the staged evaluation.  Three act here: decomposition (splitting on case
changes and non-letter separators), normalization (abbreviation
expansion), and filtering (stop-word removal).  The fourth, type
exploration, is read by `explore`.  Lowercasing is not a stage; it
always happens, otherwise the output would not be made of valid Words.
Every file semwsdl reads, an input or a config file, goes through
`read_regular` here, the lowest module that reads files.
"""

from __future__ import annotations

import os
import re
import stat
import unicodedata
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from pathlib import Path

from .model import WORD_RE, Word, checked_make

# Splits a folded name (ASCII letters and spaces) at case boundaries and
# spaces: every part matches letters only, so neither a match nor a
# lookahead crosses a space.  The first alternative peels an uppercase
# acronym off a following capitalized word (XMLParser -> XML, Parser);
# the rest take capitalized words, lowercase runs, and trailing acronyms.
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+")


class ConfigError(ValueError):
    """A config file or config value that cannot be used."""


class Stage(Enum):
    DECOMPOSE = "decompose"
    NORMALIZE = "normalize"
    FILTER = "filter"
    EXPLORE = "explore"


ALL_STAGES = frozenset(Stage)


class SearchConfig(namedtuple("SearchConfig",
                              "abbreviations stop_words enabled_stages max_depth",
                              defaults=(frozenset(), ALL_STAGES, 8))):
    """Everything the annotation search can be told.

    (dict of str, frozenset of str, frozenset of Stage, int).
    Stage.EXPLORE gates the type-name stage and the structural descent
    together; max_depth bounds that descent.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, abbreviations: dict[str, str] | None = None, *args, **kwargs):
        if abbreviations is None:  # each config its own empty table, never a shared one
            abbreviations = {}
        self = super().__new__(cls, abbreviations, *args, **kwargs)
        for key, value in self.abbreviations.items():
            if not WORD_RE.fullmatch(key):
                raise ConfigError(f"abbreviation key must be lowercase letters: {key!r}")
            if not WORD_RE.fullmatch(value):
                raise ConfigError(f"abbreviation expansion must be a word: {value!r}")
        for entry in self.stop_words:
            if not WORD_RE.fullmatch(entry):
                raise ConfigError(f"stop word must be lowercase letters: {entry!r}")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        return self


# every ASCII code point but a letter, to a space
_ASCII_NON_LETTERS = {code: " " for code in range(128) if not chr(code).isalpha()}


def _fold_to_letters(raw: str) -> str:
    """ASCII letters kept, diacritics folded, everything else becomes a space."""
    if raw.isascii():  # nothing for NFD to decompose, and no combining mark
        return raw.translate(_ASCII_NON_LETTERS)
    decomposed = unicodedata.normalize("NFD", raw)
    out = []
    for ch in decomposed:
        if unicodedata.category(ch) == "Mn":
            continue
        out.append(ch if ch.isascii() and ch.isalpha() else " ")
    return "".join(out)


def decompose(raw: str) -> list[str]:
    """Split an identifier into letter tokens.

    'GetCityNameById_42' -> ['Get', 'City', 'Name', 'By', 'Id']
    """
    return _CAMEL_RE.findall(_fold_to_letters(raw))


def normalize(tokens: list[str], config: SearchConfig) -> list[Word]:
    """Lowercase and expand abbreviations (whole token, exactly once)."""
    words = []
    for token in tokens:
        lowered = token.lower()
        words.append(Word(config.abbreviations.get(lowered, lowered)))
    return words


def filter_words(words: list[Word], config: SearchConfig) -> list[Word]:
    """Drop stop words; order of the survivors is unchanged."""
    return [word for word in words if word.text not in config.stop_words]


def preprocess(raw: str, config: SearchConfig) -> list[Word]:
    """Run the enabled stages over one raw name.

    With decomposition off the name collapses to a single letters-only
    token, so camel-cased names usually miss the lexicon.  Lowercasing
    still applies even with normalization off.
    """
    if Stage.DECOMPOSE in config.enabled_stages:
        tokens = decompose(raw)
    else:
        collapsed = _fold_to_letters(raw).replace(" ", "")
        tokens = [collapsed] if collapsed else []
    if Stage.NORMALIZE in config.enabled_stages:
        words = normalize(tokens, config)
    else:
        words = [Word(token.lower()) for token in tokens]
    if Stage.FILTER in config.enabled_stages:
        words = filter_words(words, config)
    return words


# the packaged lexicon, abbreviation and stop-word files
DATA_DIR = Path(__file__).parent / "data"
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def read_regular(path: str | os.PathLike) -> bytes | None:
    """The bytes of a regular file; None for any other kind of file.

    The open does not block, so a FIFO without a writer is refused, not
    waited on, and a device is never read.
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        status = os.fstat(fd)
        if not stat.S_ISREG(status.st_mode):
            return None
        chunks = []
        while chunk := os.read(fd, status.st_size + 1):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


def read_text(path: str | os.PathLike) -> str:
    """The text of a UTF-8 regular file, less a leading byte order mark.

    A file of another kind, or one that is not UTF-8, raises ConfigError
    naming `path`.
    """
    data = read_regular(path)
    if data is None:
        raise ConfigError(f"{path}: not a regular file")
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is not blank or a '#' comment."""
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def parse_abbreviations(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse 'short=expansion' lines; '#' starts a comment, blanks ignored."""
    table: dict[str, str] = {}
    for number, line in content_lines(text):
        if "=" not in line:
            raise ConfigError(f"{source}:{number}: expected 'short=expansion'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip().lower()
        if not WORD_RE.fullmatch(key) or not WORD_RE.fullmatch(value):
            raise ConfigError(f"{source}:{number}: abbreviation entries must be letters only")
        table[key] = value
    return table


def parse_stop_words(text: str, source: str = "<string>") -> frozenset[str]:
    """Parse one stop word per line; '#' starts a comment, blanks ignored."""
    entries = set()
    for number, line in content_lines(text):
        entry = line.lower()
        if not WORD_RE.fullmatch(entry):
            raise ConfigError(f"{source}:{number}: stop words must be letters only")
        entries.add(entry)
    return frozenset(entries)


def default_config(enabled_stages: frozenset[Stage] = ALL_STAGES) -> SearchConfig:
    """Config backed by the packaged abbreviation and stop-word files."""
    return SearchConfig(
        abbreviations=parse_abbreviations(read_text(DATA_DIR / "abbreviations.txt"),
                                          "abbreviations.txt"),
        stop_words=parse_stop_words(read_text(DATA_DIR / "stopwords.txt"), "stopwords.txt"),
        enabled_stages=enabled_stages,
    )
