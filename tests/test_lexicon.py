import pytest
from hypothesis import given, settings, strategies as st

from semwsdl.lexicon import (
    DuplicateSense,
    EMPTY_OVERRIDES,
    Lexicon,
    MalformedLexiconLine,
    MalformedOverrideLine,
    NonContiguousRanks,
    OverrideMap,
    associate,
    associate_words,
    default_lexicon,
    load_lexicon,
    load_overrides,
)
from semwsdl.model import Concept, Word

from bruteforce import oracle_parse_lexicon


def test_load_single_entry():
    lx = load_lexicon(b"buffalo\t1\tHoofedMammal\n")
    assert lx.entries["buffalo"] == (Concept("HoofedMammal"),)


def test_load_orders_senses_by_rank():
    lx = load_lexicon("user\t2\tHuman\nuser\t1\tDiseaseOrSyndrome\nuser\t3\tSocialRole\n")
    assert [c.id for c in lx.entries["user"]] == [
        "DiseaseOrSyndrome", "Human", "SocialRole"]


def test_load_empty_document_is_valid():
    assert load_lexicon(b"").entries == {}
    assert load_lexicon("# only comments\n\n").entries == {}


def test_load_rejects_bad_lines():
    with pytest.raises(MalformedLexiconLine):
        load_lexicon("word only\n")
    with pytest.raises(MalformedLexiconLine):
        load_lexicon("Word\t1\tX\n")  # uppercase word
    with pytest.raises(MalformedLexiconLine):
        load_lexicon("word\tone\tX\n")
    with pytest.raises(MalformedLexiconLine):
        load_lexicon("word\t0\tX\n")
    with pytest.raises(MalformedLexiconLine):
        load_lexicon("word\t1\t\n")


def test_load_reports_line_numbers():
    try:
        load_lexicon("ok\t1\tFine\nbroken line\n", source="demo.tsv")
    except MalformedLexiconLine as exc:
        assert "demo.tsv:2" in str(exc)
    else:
        pytest.fail("expected MalformedLexiconLine")


def test_load_rejects_duplicate_sense():
    with pytest.raises(DuplicateSense):
        load_lexicon("word\t1\tX\nword\t1\tY\n")


def test_load_rejects_rank_gaps():
    with pytest.raises(NonContiguousRanks):
        load_lexicon("word\t2\tX\n")
    with pytest.raises(NonContiguousRanks, match=r"^demo.tsv: ranks for 'word' must be "
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
    overrides = OverrideMap({"user": Concept("Human")})
    assert associate(Word("user"), demo_lexicon, overrides) == Concept("Human")
    # an override can also introduce a word the lexicon lacks
    overrides = OverrideMap({"zzzz": Concept("Thing")})
    assert associate(Word("zzzz"), demo_lexicon, overrides) == Concept("Thing")


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
    assert overrides.entries == {"user": Concept("Human"), "city": Concept("City")}
    with pytest.raises(MalformedOverrideLine):
        load_overrides("user Human\n")
    with pytest.raises(MalformedOverrideLine):
        load_overrides("user=\n")


def test_lexicon_invariants():
    with pytest.raises(Exception):
        Lexicon(entries={"word": ()})
    with pytest.raises(Exception):
        OverrideMap(entries={"Word": Concept("X")})


def test_default_lexicon_loads(demo_lexicon):
    # the packaged demo file should be well-formed and reasonably sized
    assert len(demo_lexicon.entries) >= 50


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"[a-z]{1,10}", fullmatch=True),
       st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True),
       st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True))
def test_override_precedence_property(word, lexicon_concept, override_concept):
    lx = Lexicon(entries={word: (Concept(lexicon_concept),)})
    overrides = OverrideMap({word: Concept(override_concept)})
    assert associate(Word(word), lx, overrides) == Concept(override_concept)
    assert associate(Word(word), lx, EMPTY_OVERRIDES) == Concept(lexicon_concept)


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
    assert {word: concepts[0].id for word, concepts in lx.entries.items()} == \
        oracle_parse_lexicon(text)
    assert {word: [c.id for c in concepts] for word, concepts in lx.entries.items()} == senses


def test_same_concept_id_is_one_object():
    lx = load_lexicon("city\t1\tRegion\ntown\t2\tRegion\ntown\t1\tCity\n")
    assert lx.entries["city"][0] is lx.entries["town"][1]


@pytest.mark.parametrize("text,error,message", [
    ("word\t1\tX\nword\t1\tY\n", DuplicateSense, "2: duplicate sense 'word' rank 1"),
    ("ok\t1\tFine\n# note\nok\ttwo\tX\n", MalformedLexiconLine,
     "3: rank must be an integer: 'two'"),
    ("word\t one \tX\n", MalformedLexiconLine, "1: rank must be an integer: 'one'"),
    ("ok\t1\tFine\nok\t0\tX\n", MalformedLexiconLine, "2: rank must be >= 1"),
])
def test_line_errors_name_the_offending_line(text, error, message):
    with pytest.raises(error) as raised:
        load_lexicon(text, source="demo.tsv")
    assert str(raised.value) == f"demo.tsv:{message}"
