"""End-to-end acceptance checks.

Each numbered test prints one PASS/FAIL line so a plain run (pytest -s
tests/test_acceptance.py) reads as a verdict list.  The checks exercise
the documented behavior through public entry points only; the reference
results come from tests/bruteforce.py, a from-scratch reimplementation.
"""

import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

import pytest

from semwsdl import (
    Annotation,
    AnnotationEntry,
    AnnotationSource,
    Concept,
    Direction,
    Lexicon,
    Operation,
    Parameter,
    QName,
    Word,
    WsDescription,
    annotate_description,
    annotate_parameter_with_trace,
    associate,
    cli,
    decompose,
    default_config,
    default_lexicon,
    load_corpus,
    load_overrides,
    parse_wsdl,
    preprocess,
    run_ablation,
    write_report,
    write_sawsdl,
)
from semwsdl.model import XSD_NAMESPACE
from semwsdl.preprocess import Stage
import json

import bruteforce
from corpusgen import random_corpus
from conftest import CORPUS_DIR, LEXICON_PATH, SPECIAL_DIR


def _verdict(number, title, check):
    try:
        check()
    except BaseException:
        print(f"criterion {number} FAIL  {title}")
        raise
    print(f"criterion {number} PASS  {title}")


def _texts(words):
    return [word.text for word in words]


def test_criterion_1_name_splitting_reference_rows():
    def check():
        started = time.perf_counter()
        config = default_config()
        assert decompose("WhiteMovesNext") == ["White", "Moves", "Next"]
        assert decompose("Number3Format") == ["Number", "Format"]
        assert decompose("User_name") == ["User", "name"]
        assert _texts(preprocess("no", config)) == ["number"]
        assert _texts(preprocess("Password", config)) == ["password"]
        assert _texts(preprocess("Parameter", config)) == []
        assert _texts(preprocess("Body", config)) == []
        assert set(_texts(preprocess("AUsername", config))) == {"username"}
        assert time.perf_counter() - started < 1.0
    _verdict(1, "name splitting and default filtering reference rows", check)


def test_criterion_2_worked_example_trace():
    def check():
        assert _texts(preprocess("ASessionId_02", default_config())) == [
            "session", "identity"]
    _verdict(2, "worked example ASessionId_02 -> session, identity", check)


def test_criterion_3_structure_exploration_scenario():
    def check():
        data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
        desc = parse_wsdl("music_catalog.wsdl", data).description
        param = next(p for p in desc.parameters() if p.name == "category")
        lexicon = default_lexicon()
        plain = default_config()
        blocked = plain._replace(stop_words=plain.stop_words | {"category"})
        annotation, trace = annotate_parameter_with_trace(param, desc, blocked, lexicon)
        assert {e.source for e in annotation.entries} == {
            AnnotationSource.SUBPARAMETER_NAME}
        assert {e.depth for e in annotation.entries} == {1}
        assert {e.concept.id for e in annotation.entries} == {
            "Musician", "ComposingMusic"}
        annotation, trace = annotate_parameter_with_trace(param, desc, plain, lexicon)
        assert {e.depth for e in annotation.entries} == {0}
        assert len(trace) == 1
        assert trace[0].source is AnnotationSource.PARAMETER_NAME
    _verdict(3, "member exploration fires only when the name stage fails", check)


def test_criterion_4_reference_concept_lookups():
    def check():
        lexicon = default_lexicon()
        assert associate(Word("buffalo"), lexicon) == Concept("HoofedMammal")
        assert associate(Word("school"), lexicon) == Concept("EducationalProcess")
        assert associate(Word("talk"), lexicon) == Concept("Communication")
    _verdict(4, "demo lexicon rank-1 lookups", check)


def test_criterion_5_staged_evaluation_against_reference(fixture_corpus):
    def check():
        started = time.perf_counter()
        config = default_config()
        lexicon = default_lexicon()
        rows = run_ablation(fixture_corpus.descriptions, config, lexicon)
        rank1 = bruteforce.oracle_parse_lexicon(LEXICON_PATH.read_text())
        expected = bruteforce.oracle_ablation(
            fixture_corpus.descriptions, config.abbreviations,
            config.stop_words, rank1, {})
        assert [(r.stage_name, r.annotated, r.total) for r in rows] == expected
        total = sum(1 for d in fixture_corpus.descriptions for _ in d.parameters())
        assert total >= 20

        def order_holds(ablation):
            by_name = {row.stage_name: row for row in ablation}
            assert by_name["+Filtering"].annotated <= by_name["+Normalization"].annotated
            assert by_name["+TypeExplorer"].annotated >= by_name["+Filtering"].annotated

        order_holds(rows)
        for seed in range(200):
            order_holds(run_ablation(random_corpus(seed), config, lexicon))
        assert time.perf_counter() - started < 10.0
    _verdict(5, "staged evaluation equals exhaustive recount, order laws hold", check)


def test_criterion_6_cyclic_type_terminates():
    def check():
        corpus = load_corpus([SPECIAL_DIR / "cyclic.wsdl"])
        started = time.perf_counter()
        annotations = annotate_description(
            corpus.descriptions[0], default_config(), default_lexicon())
        assert time.perf_counter() - started < 1.0
        assert all(isinstance(a, Annotation) for a in annotations)
    _verdict(6, "self-referential type terminates within the depth bound", check)


def test_criterion_7_round_trip_and_idempotence(fixture_corpus):
    def check():
        config = default_config()
        lexicon = default_lexicon()
        for desc in fixture_corpus.descriptions:
            data = Path(desc.source_id).read_bytes()
            annotations = annotate_description(desc, config, lexicon)
            first = write_sawsdl(parse_wsdl(desc.source_id, data), annotations)
            again = parse_wsdl(desc.source_id, first)
            assert again.description.operations == desc.operations
            assert again.description.types == desc.types
            assert write_sawsdl(again, annotations) == first, desc.source_id
    _verdict(7, "annotated copies re-ingest equal and re-inject byte-identical", check)


def test_criterion_8_repeated_runs_are_deterministic(tmp_path):
    def check():
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            code = cli.run([
                "annotate", "--input-paths", str(CORPUS_DIR),
                "--output-dir", str(out), "--lexicon-path", str(LEXICON_PATH)])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == sorted(outputs[1])
        assert outputs[0] == outputs[1]
    _verdict(8, "two runs produce byte-identical outputs", check)


def test_criterion_9_module_invariant_properties():
    config = default_config()
    prefilter_config = config._replace(
        enabled_stages=frozenset({Stage.DECOMPOSE, Stage.NORMALIZE}))
    string_type = QName(XSD_NAMESPACE, "string")

    @settings(max_examples=1000, deadline=None)
    @given(st.text(max_size=30))
    def words_are_always_valid(raw):
        for word in preprocess(raw, config):
            assert isinstance(word, Word)
            assert word.text.isascii() and word.text.islower() and word.text.isalpha()

    @settings(max_examples=1000, deadline=None)
    @given(st.text(max_size=30))
    def filtering_only_removes(raw):
        before = _texts(preprocess(raw, prefilter_config))
        after = _texts(preprocess(raw, config))
        iterator = iter(before)
        assert all(any(candidate == word for candidate in iterator) for word in after)

    @settings(max_examples=1000, deadline=None)
    @given(st.from_regex(r"[a-z]{1,12}", fullmatch=True),
           st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True),
           st.from_regex(r"[A-Za-z]{1,12}", fullmatch=True))
    def overrides_always_win(word, ranked, overriding):
        lexicon = Lexicon(entries={word: Concept(ranked)})
        lexicon.entries.update(load_overrides(f"{word}={overriding}\n"))
        assert associate(Word(word), lexicon) == Concept(overriding)

    lexicon = default_lexicon()

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def annotations_stay_level_pure(seed):
        for desc in random_corpus(seed, size=1):
            for annotation in annotate_description(desc, config, lexicon):
                assert len({(e.source, e.depth) for e in annotation.entries}) <= 1

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(min_value=0, max_value=5), st.data())
    def report_rates_are_exact(total, data):
        annotated = data.draw(st.integers(min_value=0, max_value=total))
        params = tuple(
            Parameter(f"p{i}", Direction.INPUT, string_type, f"r::Op::input::p{i}")
            for i in range(total))
        desc = WsDescription("r", (Operation("Op", params),) if params else ())
        annotations = [
            Annotation(p.param_id,
                       (AnnotationEntry(Concept("City"), Word("city"),
                                        AnnotationSource.PARAMETER_NAME),)
                       if i < annotated else ())
            for i, p in enumerate(params)]
        summary = json.loads(write_report(annotations, [desc]))["summary"]
        assert summary["total"] == total
        assert summary["annotated"] == annotated
        expected = annotated / total if total else 0.0
        assert summary["rate"] == pytest.approx(expected)

    def check():
        words_are_always_valid()
        filtering_only_removes()
        overrides_always_win()
        annotations_stay_level_pure()
        report_rates_are_exact()
    _verdict(9, "module invariants hold on 1000 generated cases each", check)
