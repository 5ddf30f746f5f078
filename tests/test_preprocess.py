import pytest
from hypothesis import given, settings, strategies as st

from semwsdl.model import Word
from semwsdl.preprocess import (
    ALL_STAGES,
    ConfigError,
    SearchConfig,
    Stage,
    _fold_to_letters,
    decompose,
    default_config,
    filter_words,
    normalize,
    parse_abbreviations,
    parse_stop_words,
    preprocess,
)

from bruteforce import oracle_letters, oracle_preprocess, oracle_split


@pytest.mark.parametrize("raw,expected", [
    ("WhiteMovesNext", ["White", "Moves", "Next"]),
    ("Number3Format", ["Number", "Format"]),
    ("User_name", ["User", "name"]),
    ("ASessionId_02", ["A", "Session", "Id"]),
    ("_42", []),
    ("XMLParser", ["XML", "Parser"]),
    ("AUsername", ["A", "Username"]),
    ("GetCityNameById_42", ["Get", "City", "Name", "By", "Id"]),
    ("a.b-c", ["a", "b", "c"]),
    ("", []),
])
def test_decompose_cases(raw, expected):
    assert decompose(raw) == expected


def test_decompose_folds_diacritics():
    assert decompose("CaféMenu") == ["Cafe", "Menu"]
    # letters that do not fold to ASCII act as separators
    assert decompose("straße") == ["stra", "e"]


def test_normalize_lowercases_and_expands():
    config = default_config()
    assert [w.text for w in normalize(["no"], config)] == ["number"]
    assert [w.text for w in normalize(["Password"], config)] == ["password"]
    assert [w.text for w in normalize(["Id", "ID", "id"], config)] == ["identity"] * 3


def test_normalize_expands_once_not_transitively():
    config = SearchConfig(abbreviations={"a": "b", "b": "c"})
    assert [w.text for w in normalize(["a"], config)] == ["b"]


def test_filter_drops_stop_words():
    config = default_config()
    words = [Word("parameter"), Word("city"), Word("body")]
    assert [w.text for w in filter_words(words, config)] == ["city"]


def test_preprocess_full_pipeline_examples():
    config = default_config()
    assert [w.text for w in preprocess("ASessionId_02", config)] == ["session", "identity"]
    assert [w.text for w in preprocess("Parameter", config)] == []
    assert [w.text for w in preprocess("Body", config)] == []
    assert [w.text for w in preprocess("AUsername", config)] == ["username"]


def test_preprocess_without_decompose_collapses_name():
    config = default_config(enabled_stages=frozenset())
    assert [w.text for w in preprocess("PlayList_2", config)] == ["playlist"]
    assert [w.text for w in preprocess("_42", config)] == []


def test_preprocess_stage_toggles():
    # normalization off: abbreviations stay, lowercasing still happens
    config = default_config(enabled_stages=frozenset({Stage.DECOMPOSE}))
    assert [w.text for w in preprocess("UserId", config)] == ["user", "id"]
    # filtering off: stop words stay
    config = default_config(enabled_stages=frozenset({Stage.DECOMPOSE, Stage.NORMALIZE}))
    assert [w.text for w in preprocess("TheBody", config)] == ["the", "body"]


def test_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(abbreviations={"Id": "identity"})
    with pytest.raises(ConfigError):
        SearchConfig(abbreviations={"id": "two words"})
    with pytest.raises(ConfigError):
        SearchConfig(stop_words=frozenset({"Body"}))


def test_derived_config_is_checked_and_owns_its_table():
    # _replace builds through the constructor, so a derived config is checked too
    with pytest.raises(ConfigError):
        default_config()._replace(max_depth=-1)
    assert SearchConfig().abbreviations is not SearchConfig().abbreviations


def test_parse_abbreviations_format():
    table = parse_abbreviations("# comment\nno=number\n id = identity \n\n")
    assert table == {"no": "number", "id": "identity"}
    with pytest.raises(ConfigError):
        parse_abbreviations("no number")
    with pytest.raises(ConfigError):
        parse_abbreviations("no=42")


def test_parse_stop_words_format():
    stops = parse_stop_words("# c\nA\nbody\n\n")
    assert stops == frozenset({"a", "body"})
    with pytest.raises(ConfigError):
        parse_stop_words("not ok")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30))
def test_decompose_matches_character_walk_oracle(raw):
    assert decompose(raw) == oracle_split(raw)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30),
       st.sets(st.sampled_from([Stage.DECOMPOSE, Stage.NORMALIZE, Stage.FILTER]),
               max_size=3))
def test_preprocess_matches_oracle(raw, stage_set):
    config = SearchConfig(abbreviations={"no": "number", "id": "identity"},
                          stop_words=frozenset({"a", "body", "parameter"}),
                          enabled_stages=frozenset(stage_set))
    names = {Stage.DECOMPOSE: "decompose", Stage.NORMALIZE: "normalize",
             Stage.FILTER: "filter"}
    expected = oracle_preprocess(raw, {names[s] for s in stage_set},
                                 dict(config.abbreviations), set(config.stop_words))
    assert [w.text for w in preprocess(raw, config)] == expected


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30))
def test_outputs_always_satisfy_word_invariant(raw):
    for word in preprocess(raw, default_config()):
        assert word.text and word.text.isascii() and word.text.islower()
        assert word.text.isalpha()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.from_regex(r"[a-z]{1,8}", fullmatch=True), max_size=10),
       st.sets(st.from_regex(r"[a-z]{1,8}", fullmatch=True), max_size=5))
def test_filter_output_is_subsequence(texts, stops):
    config = SearchConfig(stop_words=frozenset(stops))
    words = [Word(t) for t in texts]
    filtered = filter_words(words, config)
    iterator = iter(words)
    assert all(any(w == candidate for candidate in iterator) for w in filtered)
    assert not any(w.text in stops for w in filtered)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30))
def test_filtering_monotonicity(raw):
    with_filter = preprocess(raw, default_config())
    without = preprocess(raw, default_config(
        enabled_stages=frozenset({Stage.DECOMPOSE, Stage.NORMALIZE})))
    assert {w.text for w in with_filter} <= {w.text for w in without}


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=30))
def test_idempotence_without_abbreviations(raw):
    # rejoining the output and rerunning returns the same words; abbreviation
    # keys are excluded because expanding "no" again would not be stable
    config = SearchConfig(stop_words=default_config().stop_words,
                          enabled_stages=ALL_STAGES)
    once = preprocess(raw, config)
    again = preprocess(" ".join(w.text for w in once), config)
    assert sorted(w.text for w in once) == sorted(w.text for w in again)


# an ASCII name takes the translate table; the oracle is the NFD loop
@pytest.mark.parametrize("code", range(128))
def test_ascii_fold_matches_nfd_loop_per_character(code):
    assert _fold_to_letters(chr(code)) == oracle_letters(chr(code))


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=40))
def test_ascii_fold_matches_nfd_loop(raw):
    assert _fold_to_letters(raw) == oracle_letters(raw)
