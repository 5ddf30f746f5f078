import random
import tracemalloc
from importlib.resources import files
from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from semwsdl import lexicon
from semwsdl.lexicon import (
    Lexicon,
    _load_lines,
    associate,
    associate_words,
    default_lexicon,
    load_lexicon,
    load_overrides,
)
from semwsdl.model import Concept, Word
from semwsdl.preprocess import ConfigError

from bruteforce import oracle_parse_lexicon


def test_load_single_entry():
    lx = load_lexicon("buffalo\t1\tHoofedMammal\n")
    assert lx.entries["buffalo"] == Concept("HoofedMammal")


def test_load_keeps_rank_one_whatever_the_line_order():
    lines = ["user\t1\tDiseaseOrSyndrome\n", "user\t2\tHuman\n", "user\t3\tSocialRole\n"]
    for order in permutations(lines):
        lx = load_lexicon("".join(order))
        assert lx.entries == {"user": Concept("DiseaseOrSyndrome")}


def test_load_empty_document_is_valid():
    assert load_lexicon("").entries == {}
    assert load_lexicon("# only comments\n\n").entries == {}


def test_load_rejects_bad_lines():
    with pytest.raises(ConfigError):
        load_lexicon("word only\n")
    with pytest.raises(ConfigError):
        load_lexicon("Word\t1\tX\n")  # uppercase word
    with pytest.raises(ConfigError):
        load_lexicon("word\tone\tX\n")
    with pytest.raises(ConfigError):
        load_lexicon("word\t0\tX\n")
    with pytest.raises(ConfigError):
        load_lexicon("word\t1\t\n")


def test_load_reports_line_numbers():
    try:
        load_lexicon("ok\t1\tFine\nbroken line\n", source="demo.tsv")
    except ConfigError as exc:
        assert "demo.tsv:2" in str(exc)
    else:
        pytest.fail("expected ConfigError")


def test_load_rejects_duplicate_sense():
    with pytest.raises(ConfigError):
        load_lexicon("word\t1\tX\nword\t1\tY\n")


def test_load_rejects_rank_gaps():
    with pytest.raises(ConfigError):
        load_lexicon("word\t2\tX\n")
    with pytest.raises(ConfigError, match=r"^demo.tsv: ranks for 'word' must be "
                                          r"1..2, got \[1, 3\]$"):
        load_lexicon("word\t1\tX\nword\t3\tY\n", source="demo.tsv")


@pytest.mark.parametrize("word,concept", [
    ("buffalo", "HoofedMammal"),
    ("school", "EducationalProcess"),
    ("talk", "Communication"),
])
def test_demo_lexicon_reference_lookups(demo_lexicon, word, concept):
    assert associate(Word(word), demo_lexicon) == Concept(concept)


def test_associate_takes_rank_one(demo_lexicon):
    assert associate(Word("user"), demo_lexicon) == Concept("DiseaseOrSyndrome")


def test_associate_misses_return_none(demo_lexicon):
    assert associate(Word("zzzz"), demo_lexicon) is None


def test_override_beats_lexicon(demo_lexicon):
    lx = Lexicon(entries=dict(demo_lexicon.entries))
    lx.entries.update(load_overrides("user=Human\nzzzz=Thing\n"))
    assert associate(Word("user"), lx) == Concept("Human")
    # an override can also introduce a word the lexicon lacks
    assert associate(Word("zzzz"), lx) == Concept("Thing")
    # the other words keep their rank-1 concepts
    assert associate(Word("talk"), lx) == Concept("Communication")
    assert associate(Word("user"), demo_lexicon) == Concept("DiseaseOrSyndrome")


def test_associate_words_keeps_hits_in_order(demo_lexicon):
    words = [Word("session"), Word("zzzz"), Word("identity"), Word("session")]
    pairs = associate_words(words, demo_lexicon)
    assert [(w.text, c.id) for w, c in pairs] == [
        ("session", "SocialInteraction"),
        ("identity", "TraitAttribute"),
        ("session", "SocialInteraction"),
    ]
    assert associate_words([], demo_lexicon) == []
    assert associate_words([Word("parameter")], demo_lexicon) == []


def test_load_overrides_format():
    overrides = load_overrides("# c\nuser=Human\n CITY = City \n")
    assert overrides == {"user": Concept("Human"), "city": Concept("City")}
    with pytest.raises(ConfigError):
        load_overrides("user Human\n")
    with pytest.raises(ConfigError):
        load_overrides("user=\n")
    with pytest.raises(ConfigError) as raised:
        load_overrides("us3r=Human\n", source="ov.txt")
    assert str(raised.value) == "ov.txt:1: word must be letters only: 'us3r'"
    # modelReference splits at whitespace, so such a concept would read as two URIs
    with pytest.raises(ConfigError) as raised:
        load_overrides("user=Human\ncity=Foo Bar\n", source="ov.txt")
    assert str(raised.value) == "ov.txt:2: concept must not contain whitespace: 'Foo Bar'"
    # nor may it hold a character that XML forbids
    with pytest.raises(ConfigError) as raised:
        load_overrides("city=Foo\x01Bar\n", source="ov.txt")
    assert str(raised.value) == "ov.txt:1: concept must contain only XML characters: 'Foo\\x01Bar'"


def test_lexicon_invariants():
    with pytest.raises(Exception):
        Lexicon(entries={"word": ()})


def test_default_lexicon_loads(demo_lexicon):
    # the packaged demo file should be well-formed and reasonably sized
    assert len(demo_lexicon.entries) >= 50


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"[a-z]{1,10}", fullmatch=True),
       st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True),
       st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True))
def test_override_precedence_property(word, lexicon_concept, override_concept):
    lx = load_lexicon(f"{word}\t1\t{lexicon_concept}\n")
    assert associate(Word(word), lx) == Concept(lexicon_concept)
    lx.entries.update(load_overrides(f"{word.upper()}={override_concept}\n"))
    assert associate(Word(word), lx) == Concept(override_concept)
    assert lx.entries == {word: Concept(override_concept)}


def test_default_lexicon_matches_packaged_file():
    assert default_lexicon().entries == default_lexicon().entries


_CONCEPTS = st.sampled_from(["Human", "City", "Process", "Artifact", "Region"])


@st.composite
def lexicon_documents(draw):
    """(text, word -> concept ids by rank): shuffled lines, comments, blanks, spaces."""
    senses = draw(st.dictionaries(
        st.from_regex(r"[a-z]{1,8}", fullmatch=True),
        st.lists(_CONCEPTS, min_size=1, max_size=4), max_size=12))
    pad = st.sampled_from(["", " ", "  "])
    lines = [f"{draw(pad)}{word}{draw(pad)}\t{draw(pad)}{rank}{draw(pad)}\t"
             f"{draw(pad)}{concept}{draw(pad)}"
             for word, concepts in senses.items()
             for rank, concept in enumerate(concepts, start=1)]
    lines += draw(st.lists(st.sampled_from(["", "   ", "# comment", "  # indented\tcomment"]),
                           max_size=5))
    lines = draw(st.permutations(lines))
    return "\n".join(lines), senses


@settings(max_examples=200, deadline=None)
@given(lexicon_documents())
def test_load_matches_oracle_on_shuffled_documents(document):
    text, senses = document
    lx = load_lexicon(text)
    rank_one = {word: concept.id for word, concept in lx.entries.items()}
    assert rank_one == oracle_parse_lexicon(text)
    assert rank_one == {word: concepts[0] for word, concepts in senses.items()}


def test_same_concept_id_is_one_object():
    for text in ("city\t1\tRegion\ntown\t1\tRegion\ntown\t2\tCity\n",  # canonical
                 "city\t1\tRegion\ntown\t2\tCity\ntown\t1\tRegion\n"):  # line loop
        lx = load_lexicon(text)
        assert lx.entries["city"] is lx.entries["town"]


# `fault` names the kind of fault, and so the test; every kind raises ConfigError
@pytest.mark.parametrize("text,fault,message", [
    ("ab\t1\tX\nab\t3\tY\n", "NonContiguousRanks",
     ": ranks for 'ab' must be 1..2, got [1, 3]"),
    ("ab\t1\tX\nab\t2\tY\nab\t2\tZ\n", "DuplicateSense", ":3: duplicate sense 'ab' rank 2"),
    ("ab\t1\tX\nab\t2\t\n", "MalformedLexiconLine", ":2: expected word<TAB>rank<TAB>concept"),
    ("ab\t1\tX\nab\t2x\tY\n", "MalformedLexiconLine", ":2: rank must be an integer: '2x'"),
    ("ab\t1\tX\n ab\t3\tY\n", "NonContiguousRanks",
     ": ranks for 'ab' must be 1..2, got [1, 3]"),
    ("ab\t1\tX\nab\t2\tY\nab\t 2\tZ\n", "DuplicateSense",
     ":3: duplicate sense 'ab' rank 2"),
    ("ab\t1\tX\nab\t2\tFoo Bar\n", "MalformedLexiconLine",
     ":2: concept must not contain whitespace: 'Foo Bar'"),
    ("ab\t1\tX\nab\t2\tFoo\x01Bar\n", "MalformedLexiconLine",
     ":2: concept must contain only XML characters: 'Foo\\x01Bar'"),
])
def test_faults_on_lower_ranked_lines_still_fail(text, fault, message):
    # only rank 1 is kept, but every line is checked
    with pytest.raises(ConfigError) as raised:
        load_lexicon(text, source="demo.tsv")
    assert str(raised.value) == f"demo.tsv{message}"


@pytest.mark.parametrize("text,fault,message", [
    ("word\t1\tX\nword\t1\tY\n", "DuplicateSense", "2: duplicate sense 'word' rank 1"),
    ("ok\t1\tFine\n# note\nok\ttwo\tX\n", "MalformedLexiconLine",
     "3: rank must be an integer: 'two'"),
    ("word\t one \tX\n", "MalformedLexiconLine", "1: rank must be an integer: 'one'"),
    ("ok\t1\tFine\nok\t0\tX\n", "MalformedLexiconLine", "2: rank must be >= 1"),
    ("city\t1\tFoo Bar\n", "MalformedLexiconLine",
     "1: concept must not contain whitespace: 'Foo Bar'"),
    ("city\t1\tFoo\x01Bar\n", "MalformedLexiconLine",
     "1: concept must contain only XML characters: 'Foo\\x01Bar'"),
])
def test_line_errors_name_the_offending_line(text, fault, message):
    with pytest.raises(ConfigError) as raised:
        load_lexicon(text, source="demo.tsv")
    assert str(raised.value) == f"demo.tsv:{message}"


# -- the column-wise path against the line loop ------------------------------

# a\x7fb: a control character that XML allows and str.split() keeps
_IDS = st.sampled_from(["Human", "City", "Process", "C#", "Área", "a\x7fb"])
_EXTRAS = st.sampled_from(["", "#", "# note", "#\ttabbed\tcomment", "# ünïcode"])


@st.composite
def canonical_lines(draw):
    """Lines of a canonical document: sorted or not, with comments and blanks."""
    senses = draw(st.dictionaries(st.from_regex(r"[a-z]{1,6}", fullmatch=True),
                                  st.lists(_IDS, min_size=1, max_size=4),
                                  min_size=1, max_size=10))
    lines = [f"{word}\t{rank}\t{concept_id}"
             for word, ids in senses.items()
             for rank, concept_id in enumerate(ids, start=1)]
    for extra in draw(st.lists(_EXTRAS, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


def _data_indexes(lines):
    return [i for i, line in enumerate(lines)
            if line.count("\t") == 2 and not line.startswith("#")]


def _data_index(draw, lines):
    data = _data_indexes(lines)
    return draw(st.sampled_from(data)) if data else None


def _crlf(draw, lines):
    if lines:
        lines[draw(st.integers(0, len(lines) - 1))] += "\r"


def _break_in_comment(draw, lines):
    mark = draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", " ", " ", "\r"]))
    lines.insert(draw(st.integers(0, len(lines))), f"# before{mark}after")


def _pad(draw, lines):
    i = _data_index(draw, lines)
    pad = draw(st.sampled_from([" ", "　", "\x1f"]))
    if i is None:
        lines.append(f"{pad}# indented")
        return
    fields = lines[i].split("\t")
    field = draw(st.integers(0, 2))
    fields[field] = draw(st.sampled_from([pad + fields[field], fields[field] + pad]))
    lines[i] = "\t".join(fields)


def _odd_rank(draw, lines):
    i = _data_index(draw, lines)
    if i is not None:
        word, rank, concept_id = lines[i].split("\t")
        odd = draw(st.sampled_from(["0" + rank, "0", "+1", "١", "", "9" * 5000]))
        lines[i] = f"{word}\t{odd}\t{concept_id}"


def _swap(draw, lines):
    if len(lines) >= 2:
        i = draw(st.integers(0, len(lines) - 2))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]


def _second_run(draw, lines):
    i = _data_index(draw, lines)
    if i is not None:
        lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))


def _repeat_line(draw, lines):
    i = _data_index(draw, lines)
    if i is not None:
        lines.insert(draw(st.integers(0, len(lines))), lines[i])


def _shift_field(draw, lines):
    # a line short of its concept, the next one starting with it: the
    # columns of the block are those of the document before
    data = _data_indexes(lines)
    if len(data) >= 2:
        k = draw(st.integers(0, len(data) - 2))
        i, j = data[k], data[k + 1]
        lines[i], moved = lines[i].rsplit("\t", 1)
        lines[j] = f"{moved}\t{lines[j]}"


def _bad_field(draw, lines):
    i = _data_index(draw, lines)
    if i is not None:
        fields = lines[i].split("\t")
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(["", "Up", "a b", "   ",
                                                                "a\x00b"]))
        lines[i] = "\t".join(fields)


_MUTATIONS = [_crlf, _break_in_comment, _pad, _odd_rank, _swap, _second_run,
              _repeat_line, _shift_field, _bad_field]


@st.composite
def near_canonical_documents(draw):
    """(text, mutated): a canonical document, or one bent by a few mutations."""
    lines = draw(canonical_lines())
    mutations = draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2))
    for mutate in mutations:
        mutate(draw, lines)
    text = "".join(line + "\n" for line in lines)
    if draw(st.integers(0, 9)) == 9:
        text, mutations = text[:-1], [*mutations, "no final newline"]
    return text, bool(mutations)


def _outcome(load, text):
    try:
        return load(text)
    except ConfigError as exc:
        return type(exc), str(exc)


def _one_object_per_id(entries):
    objects = {}
    for concept in entries.values():
        assert objects.setdefault(concept.id, concept) is concept


@settings(max_examples=600, deadline=None)
@given(near_canonical_documents(), st.integers(1, 40))
@example(("ab\t1\tX\nab\t2\tY\ncd\t1\tZ\n", False), 1)
@example(("\t1\tX\nab\t1\tY\n", True), 40)
@example(("ab\t1\nX\tcd\t1\tY\n", True), 40)
@example(("ab\t1\tX\ncd\t1\tY\nab\t1\tZ\n", True), 40)
@example(("ab\t01\tX\nab\t2\tY\n", True), 40)
@example(("ab\t" + "9" * 5000 + "\tX\n", True), 40)
@example(("# note\x85more\nab\t1\tX\n", True), 40)
@example(("ab\t1\tX\r\n", True), 40)
@example(("ab\t1\t X\n", True), 40)
@example(("ab\t1\tX\x1f\n", True), 40)
@example(("# a\x1fcomment\nab\t1\tX\n", False), 40)
@example(("ab\t1\tX\nab\t2\tY\x01\ncd\t1\tZ\n", True), 40)
@example(("ab\t1\tÁrea\nab\t2\tY\uffff\ncd\t1\tZ\n", True), 40)
@example(("".join(f"ab\t{rank}\tX{rank}\n" for rank in range(1, 11)), False), 1)
@example(("cd\t1\tX\ncd\t2\tY\nab\t01\tZ\n", True), 40)
# a blank line and a comment inside a run, right after the first line break a
# block of 7 characters may end at; the block runs on to the next rank-1 line
@example(("ab\t1\tX\n\n# c\nab\t2\tY\ncd\t1\tZ\n", False), 7)
@example(("# a\n\n# b\n", False), 1)
def test_column_path_matches_line_loop(document, block_chars):
    text, mutated = document
    expected = _outcome(lambda t: _load_lines(t, "demo.tsv"), text)
    # a few characters per block, so word runs straddle block boundaries
    with patch.object(lexicon, "_BLOCK_CHARS", block_chars):
        fast = lexicon._load_canonical(text)
        loaded = _outcome(lambda t: load_lexicon(t, "demo.tsv").entries, text)
    if not mutated:
        assert fast is not None
    if fast is not None:
        assert fast == expected and list(fast) == list(expected)
        _one_object_per_id(fast)
    assert loaded == expected
    if isinstance(expected, dict):
        assert list(loaded) == list(expected)
        _one_object_per_id(loaded)


def _sorted_lexicon(words):
    rng = random.Random(0)
    lines = ["# generated: word<TAB>rank<TAB>concept", ""]
    for word in sorted(words):
        lines += [f"{word}\t{rank}\tConcept{rng.randrange(300)}"
                  for rank in range(1, rng.randint(1, 3) + 1)]
    return "".join(line + "\n" for line in lines)


def test_column_path_takes_the_shipped_and_a_generated_lexicon():
    shipped = (files("semwsdl.data") / "lexicon.tsv").read_text("utf-8")
    letters = "abcdefgh"
    words = {"".join(letters[(n >> shift) & 7] for shift in (0, 3, 6, 9, 12))
             for n in range(12_000)}
    # about 24k lines, so the default block size splits it
    generated = _sorted_lexicon(words)
    # words with 75 senses, as many as WordNet's longest runs, and with 100,
    # the longest run the canonical form allows, mid-document
    middle = generated.index("\nb") + 1
    texts = [shipped, generated]
    for senses in (75, 100):
        long_run = "".join(f"break\t{rank}\tConcept{rank}\n" for rank in range(1, senses + 1))
        texts.append(generated[:middle] + long_run + generated[middle:])
    for text in texts:
        entries = lexicon._load_canonical(text)
        assert entries is not None
        assert entries == _load_lines(text, "x") and list(entries) == list(_load_lines(text, "x"))
    # ranks past 100, the longest run the block pattern spells out, go to the line loop
    too_long = "".join(f"break\t{rank}\tConcept{rank}\n" for rank in range(1, 102))
    text = generated[:middle] + too_long + generated[middle:]
    assert lexicon._load_canonical(text) is None
    entries = load_lexicon(text, "x").entries
    assert entries == _load_lines(text, "x") and list(entries) == list(_load_lines(text, "x"))
    assert entries["break"] == Concept("Concept1")


def test_column_path_peak_memory_stays_near_its_entries():
    letters = "abcdefgh"
    words = {"".join(letters[(n >> shift) & 7] for shift in (0, 3, 6, 9, 12, 15))
             for n in range(60_000)}
    text = _sorted_lexicon(words)  # about 120k lines
    tracemalloc.start()
    try:
        entries = lexicon._load_canonical(text)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entries is not None and len(entries) == len(words)
    # blocks are checked and read one at a time, never the whole document at once
    assert peak - current < 2 * 2**20
