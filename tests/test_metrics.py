import csv
import io
import json

import pytest

from semwsdl import cli
from semwsdl.explore import annotate_description, annotate_parameter
from semwsdl.metrics import (
    AblationRow,
    STAGE_NAMES,
    WordFrequencyRow,
    ablation_to_json,
    render_ablation_table,
    run_ablation,
    stage_configurations,
    word_frequency,
    word_frequency_to_csv,
)
from semwsdl.model import (
    Concept,
    Direction,
    Operation,
    Parameter,
    QName,
    Word,
    WsDescription,
    XSD_NAMESPACE,
)
from semwsdl.preprocess import ALL_STAGES, Stage

import bruteforce
from corpusgen import random_corpus
from conftest import CORPUS_DIR, LEXICON_PATH

XSD_STRING = QName(XSD_NAMESPACE, "string")

# annotated counts per cumulative stage for the checked-in corpus; the
# dip at +Filtering is real (a stop word can kill a winning token)
EXPECTED_FIXTURE_COUNTS = (8, 13, 14, 13, 19)
FIXTURE_TOTAL = 27

# replaces a rank-1 sense, adds a word the lexicon lacks, pads an upper-case key
OVERRIDES = "# pins\nuser=Human\nplay=RecreationOrExercise\n CITY = City \n"


def oracle_rows(descriptions, search_config, overrides=None):
    rank1 = bruteforce.oracle_parse_lexicon(LEXICON_PATH.read_text())
    return bruteforce.oracle_ablation(
        descriptions, search_config.abbreviations,
        search_config.stop_words, rank1, overrides or {})


def run_with_overrides(command, tmp_path):
    """Run a command on the fixture corpus with OVERRIDES; its output directory."""
    overrides = tmp_path / "overrides.txt"
    overrides.write_text(OVERRIDES, "utf-8")
    out = tmp_path / "out"
    assert cli.run([command, "--input-paths", str(CORPUS_DIR), "--output-dir", str(out),
                    "--lexicon-path", str(LEXICON_PATH),
                    "--overrides-path", str(overrides)]) == 0
    return out


def name_only_corpus(names):
    params = tuple(
        Parameter(name, Direction.INPUT, XSD_STRING, f"t::Op{i}::input::{name}")
        for i, name in enumerate(names))
    desc = WsDescription("t", (Operation("Op", params),))
    return [desc]


def test_fixture_ablation_matches_reference_search(fixture_corpus, search_config, demo_lexicon,
                                                   tmp_path):
    rows = run_ablation(fixture_corpus.descriptions, search_config, demo_lexicon)
    expected = oracle_rows(fixture_corpus.descriptions, search_config)
    assert [(r.stage_name, r.annotated, r.total) for r in rows] == expected
    # with an overrides file, through the command line
    out = run_with_overrides("ablate", tmp_path)
    written = json.loads((out / "ablation.json").read_bytes())["rows"]
    pinned = oracle_rows(fixture_corpus.descriptions, search_config,
                         bruteforce.oracle_parse_overrides(OVERRIDES))
    assert [(row["stage"], row["annotated"], row["total"]) for row in written] == pinned
    assert pinned != expected  # "play" rescues a parameter


def test_fixture_ablation_counts_are_stable(fixture_corpus, search_config, demo_lexicon):
    rows = run_ablation(fixture_corpus.descriptions, search_config, demo_lexicon)
    assert tuple(r.annotated for r in rows) == EXPECTED_FIXTURE_COUNTS
    assert all(r.total == FIXTURE_TOTAL for r in rows)
    assert rows[0].rate == pytest.approx(8 / 27)
    assert rows[4].rate == pytest.approx(19 / 27)


def test_filtering_can_cost_and_explorer_always_gains(fixture_corpus,
                                                      search_config, demo_lexicon):
    rows = run_ablation(fixture_corpus.descriptions, search_config, demo_lexicon)
    by_name = {row.stage_name: row for row in rows}
    assert by_name["+Filtering"].annotated <= by_name["+Normalization"].annotated
    assert by_name["+TypeExplorer"].annotated >= by_name["+Filtering"].annotated


def test_collapsed_name_can_beat_decomposition(fixture_corpus, search_config, demo_lexicon):
    # "PlayList_2" collapses to the known word "playlist"; splitting it
    # yields "play" and "list", which the lexicon does not know
    desc = next(d for d in fixture_corpus.descriptions
                for p in d.parameters() if p.name == "PlayList_2")
    param = next(p for p in desc.parameters() if p.name == "PlayList_2")
    (_, collapsed_cfg), (_, split_cfg), *_ = stage_configurations(search_config)
    assert annotate_parameter(param, desc, collapsed_cfg, demo_lexicon).annotated
    assert not annotate_parameter(param, desc, split_cfg, demo_lexicon).annotated


def test_stage_configurations_shape(search_config):
    # only the stage set differs between rows, and it grows by one stage a row
    config = search_config._replace(max_depth=3, enabled_stages=frozenset({Stage.FILTER}))
    configs = stage_configurations(config)
    assert [name for name, _ in configs] == list(STAGE_NAMES)
    D, N, F = Stage.DECOMPOSE, Stage.NORMALIZE, Stage.FILTER
    assert [row.enabled_stages for _, row in configs] == [
        frozenset(), {D}, {D, N}, {D, N, F}, ALL_STAGES]
    assert ALL_STAGES == {D, N, F, Stage.EXPLORE}
    for _, row in configs:
        assert row._replace(enabled_stages=config.enabled_stages) == config


def test_all_stages_hit_on_plain_names(search_config, demo_lexicon):
    corpus = name_only_corpus(["city", "customer", "password"])
    rows = run_ablation(corpus, search_config, demo_lexicon)
    assert all(row.annotated == 3 and row.total == 3 and row.rate == 1.0
               for row in rows)


def test_empty_corpus_gives_zero_rows(search_config, demo_lexicon):
    rows = run_ablation([], search_config, demo_lexicon)
    assert all((row.annotated, row.total, row.rate) == (0, 0, 0.0)
               for row in rows)


def test_final_row_equals_standard_annotation(fixture_corpus, search_config, demo_lexicon):
    rows = run_ablation(fixture_corpus.descriptions, search_config, demo_lexicon)
    annotated = sum(
        annotation.annotated
        for desc in fixture_corpus.descriptions
        for annotation in annotate_description(desc, search_config, demo_lexicon))
    assert rows[4].annotated == annotated


def with_first_operation_repeated(desc):
    """desc plus a copy of its first operation under a new name: new ids, same names and types."""
    first, *_ = desc.operations
    again = Operation(f"{first.name}Again",
                      tuple(p._replace(param_id=f"{p.param_id}::again") for p in first.parameters))
    return desc._replace(operations=desc.operations + (again,))


# "-repeat" cases add a copy of each description's first operation, so
# their parameters share searches within the description
@pytest.mark.parametrize("seed, repeat", [
    pytest.param(seed, repeat, id=f"{seed}-repeat" if repeat else str(seed))
    for repeat in (False, True) for seed in range(0, 120, 7)])
def test_generated_corpora_match_reference_search(seed, repeat, search_config, demo_lexicon):
    corpus = random_corpus(seed)
    if repeat:
        corpus = [with_first_operation_repeated(desc) for desc in corpus]
    rows = run_ablation(corpus, search_config, demo_lexicon)
    expected = oracle_rows(corpus, search_config)
    assert [(r.stage_name, r.annotated, r.total) for r in rows] == expected
    by_name = {row.stage_name: row for row in rows}
    assert by_name["+Filtering"].annotated <= by_name["+Normalization"].annotated
    assert by_name["+TypeExplorer"].annotated >= by_name["+Filtering"].annotated


def test_word_frequency_counts_and_order(search_config, demo_lexicon):
    corpus = name_only_corpus(["userId", "userId", "userId"])
    rows = word_frequency(corpus, search_config, demo_lexicon)
    assert [(r.word.text, r.occurrences) for r in rows] == [
        ("identity", 3), ("user", 3)]
    assert rows[0].concept == Concept("TraitAttribute")
    assert rows[1].concept == Concept("DiseaseOrSyndrome")


def test_word_frequency_includes_failed_search_words(search_config, demo_lexicon):
    corpus = name_only_corpus(["xyzzy"])
    rows = word_frequency(corpus, search_config, demo_lexicon)
    assert [(r.word.text, r.occurrences, r.concept) for r in rows] == [
        ("xyzzy", 1, None)]


def test_word_frequency_matches_reference_counts(fixture_corpus, search_config, demo_lexicon,
                                                  tmp_path):
    rows = word_frequency(fixture_corpus.descriptions, search_config, demo_lexicon)
    counted = {row.word.text: row.occurrences for row in rows}
    rank1 = bruteforce.oracle_parse_lexicon(LEXICON_PATH.read_text())
    expected = bruteforce.oracle_word_counts(
        fixture_corpus.descriptions, search_config.abbreviations,
        search_config.stop_words, rank1, {})
    assert counted == expected
    # descending occurrences, ties broken alphabetically
    keys = [(-row.occurrences, row.word.text) for row in rows]
    assert keys == sorted(keys)
    # with an overrides file, through the command line
    text = (run_with_overrides("wordfreq", tmp_path) / "words.csv").read_text("utf-8")
    header, *listed = csv.reader(io.StringIO(text))
    assert header == ["word", "occurrences", "concept"]
    pins = bruteforce.oracle_parse_overrides(OVERRIDES)
    assert {word: int(count) for word, count, _ in listed} == bruteforce.oracle_word_counts(
        fixture_corpus.descriptions, search_config.abbreviations,
        search_config.stop_words, rank1, pins)
    assert [concept for _, _, concept in listed] == [
        bruteforce.oracle_lookup(word, rank1, pins) or "" for word, _, _ in listed]
    assert {"user", "play", "city"} <= {word for word, _, _ in listed}


def test_word_frequency_empty_corpus(search_config, demo_lexicon):
    assert word_frequency([], search_config,
                          demo_lexicon) == []


def test_csv_format():
    rows = [
        WordFrequencyRow(Word("identity"), 3, Concept("TraitAttribute")),
        WordFrequencyRow(Word("xyzzy"), 1, None),
    ]
    data = word_frequency_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    assert parsed == [
        ["word", "occurrences", "concept"],
        ["identity", "3", "TraitAttribute"],
        ["xyzzy", "1", ""],
    ]
    assert word_frequency_to_csv(rows) == data


def test_ablation_json_round_trip(fixture_corpus, search_config, demo_lexicon):
    rows = run_ablation(fixture_corpus.descriptions, search_config, demo_lexicon)
    payload = json.loads(ablation_to_json(rows))
    assert [row["stage"] for row in payload["rows"]] == list(STAGE_NAMES)
    assert payload["rows"][4]["annotated"] == 19
    assert "counted per occurrence" in payload["counting"]
    assert ablation_to_json(rows) == ablation_to_json(rows)


def test_table_rendering(fixture_corpus, search_config, demo_lexicon):
    rows = run_ablation(fixture_corpus.descriptions, search_config, demo_lexicon)
    table = render_ablation_table(rows)
    for name in STAGE_NAMES:
        assert name in table
    assert "70.37%" in table
    assert table.endswith("\n")


def test_report_invariants():
    with pytest.raises(ValueError):
        AblationRow("x", 3, 2)
    with pytest.raises(ValueError):
        WordFrequencyRow(Word("a"), 0, None)
