import time

import pytest

from semwsdl.explore import (
    annotate_description,
    annotate_parameter,
    annotate_parameter_with_trace,
)
from semwsdl.lexicon import Lexicon, load_lexicon, load_overrides
from semwsdl.model import (
    AnnotationSource,
    Concept,
    Direction,
    Operation,
    Parameter,
    QName,
    SubParameter,
    TypeDefinition,
    WsDescription,
    XSD_NAMESPACE,
)
from semwsdl.ingest import load_corpus
from semwsdl.preprocess import SearchConfig, Stage

from corpusgen import random_corpus
from conftest import SPECIAL_DIR

XSD_STRING = QName(XSD_NAMESPACE, "string")


def find_param(corpus, name):
    for desc in corpus.descriptions:
        for param in desc.parameters():
            if param.name == name:
                return desc, param
    raise AssertionError(f"no parameter named {name!r} in fixture corpus")


def chain_description(type_names, leaf_member="price"):
    """seq type chain: first -> second -> ... -> leaf_member: string."""
    ns = "urn:chain"
    types = {}
    for here, nxt in zip(type_names, type_names[1:]):
        types[QName(ns, here)] = TypeDefinition(QName(ns, here),
                                                (SubParameter("a", QName(ns, nxt)),))
    last = QName(ns, type_names[-1])
    types[last] = TypeDefinition(last, (SubParameter(leaf_member, XSD_STRING),))
    param = Parameter("p", Direction.INPUT, QName(ns, type_names[0]), "c::Op::input::p")
    return WsDescription("c", (Operation("Op", (param,)),), types), param


def test_name_stage_wins_when_word_is_known(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "category")
    annotation, trace = annotate_parameter_with_trace(
        param, desc, search_config, demo_lexicon)
    assert len(trace) == 1
    assert trace[0].source is AnnotationSource.PARAMETER_NAME
    assert [(e.concept.id, e.word.text, e.depth, e.path) for e in annotation.entries] == [
        ("Class", "category", 0, ())]


def test_descent_reaches_sequence_members(fixture_corpus, search_config, demo_lexicon):
    # with the parameter's own word suppressed the search walks into the type
    desc, param = find_param(fixture_corpus, "category")
    blocked = search_config._replace(stop_words=search_config.stop_words | {"category"})
    annotation, trace = annotate_parameter_with_trace(
        param, desc, blocked, demo_lexicon)
    assert [v.source for v in trace] == [
        AnnotationSource.PARAMETER_NAME,
        AnnotationSource.TYPE_NAME,
        AnnotationSource.SUBPARAMETER_NAME,
    ]
    assert [(e.concept.id, e.word.text, e.path, e.depth) for e in annotation.entries] == [
        ("Musician", "singer", ("singer",), 1),
        ("ComposingMusic", "composer", ("composer",), 1),
    ]


def test_simple_name_annotates_at_depth_zero(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "Password")
    annotation = annotate_parameter(
        param, desc, search_config, demo_lexicon)
    assert annotation.annotated
    entry = annotation.entries[0]
    assert entry.concept == Concept("LinguisticExpression")
    assert entry.depth == 0


def test_builtin_type_offers_no_fallback(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "result")
    annotation, trace = annotate_parameter_with_trace(
        param, desc, search_config, demo_lexicon)
    assert not annotation.annotated
    assert annotation.entries == ()
    # xsd:string has no name worth mining and nothing to descend into
    assert [(v.source, v.depth, v.words) for v in trace] == [
        (AnnotationSource.PARAMETER_NAME, 0, ()), (AnnotationSource.TYPE_NAME, 0, ())]


def test_type_name_stage_runs_after_fruitless_name_words(
        fixture_corpus, search_config, demo_lexicon):
    # "shade" produces a word but no concept; the type name still gets a turn
    desc, param = find_param(fixture_corpus, "shade")
    annotation, trace = annotate_parameter_with_trace(
        param, desc, search_config, demo_lexicon)
    assert trace[0].words and not trace[0].entries
    assert trace[-1].source is AnnotationSource.TYPE_NAME
    assert {e.concept.id for e in annotation.entries} == {"ColorAttribute", "Procedure"}
    assert {e.depth for e in annotation.entries} == {0}


def test_anonymous_type_names_are_never_mined(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "DepositNote")
    annotation, trace = annotate_parameter_with_trace(
        param, desc, search_config, demo_lexicon)
    # the parameter's own type is anonymous: its type-name visit mines nothing
    assert [v.words for v in trace if v.source is AnnotationSource.TYPE_NAME] == [()]
    for visit in trace:
        for word in visit.words:
            assert "anon" not in word.text
    assert [(e.concept.id, e.depth) for e in annotation.entries] == [
        ("FinancialAccount", 1)]


# the full search order: each level's names, then its type names
SEARCH_ORDER = [(AnnotationSource.PARAMETER_NAME, 0), (AnnotationSource.TYPE_NAME, 0)] + [
    (source, depth) for depth in range(1, 9)
    for source in (AnnotationSource.SUBPARAMETER_NAME, AnnotationSource.SUBPARAMETER_TYPE_NAME)]


@pytest.mark.parametrize("seed", range(25))
def test_every_trace_follows_the_one_search_rule(seed, search_config, demo_lexicon):
    configs = [search_config._replace(max_depth=depth) for depth in (0, 1, 8)]
    no_explore = search_config._replace(
        enabled_stages=search_config.enabled_stages - {Stage.EXPLORE})
    for desc in random_corpus(seed):
        for param in desc.parameters():
            for config in [*configs, no_explore]:
                annotation, trace = annotate_parameter_with_trace(
                    param, desc, config, demo_lexicon)
                stamps = [(visit.source, visit.depth) for visit in trace]
                # names before type names, depths in order, none past max_depth
                assert stamps == SEARCH_ORDER[:len(stamps)]
                assert trace[-1].depth <= config.max_depth
                assert not any(visit.entries for visit in trace[:-1])
                assert annotation.entries == trace[-1].entries
                if config is no_explore:
                    assert len(trace) == 1
                elif not annotation.entries:
                    # a failed search ends on a level's type names, even at level 0
                    assert trace[-1].source in (AnnotationSource.TYPE_NAME,
                                                AnnotationSource.SUBPARAMETER_TYPE_NAME)


def test_level_pools_all_member_hits(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "arg01")
    annotation = annotate_parameter(
        param, desc, search_config, demo_lexicon)
    assert [(e.concept.id, e.path) for e in annotation.entries] == [
        ("CurrencyMeasure", ("itemblock", "price")),
        ("CurrencyMeasure", ("itemblock", "currency")),
    ]
    assert {e.depth for e in annotation.entries} == {2}
    assert {e.source for e in annotation.entries} == {AnnotationSource.SUBPARAMETER_NAME}


def test_every_annotation_is_level_pure(fixture_corpus, search_config, demo_lexicon):
    for desc in fixture_corpus.descriptions:
        for annotation in annotate_description(
                desc, search_config, demo_lexicon):
            stamps = {(e.source, e.depth) for e in annotation.entries}
            assert len(stamps) <= 1, annotation.param_id


def test_cyclic_schema_terminates_quickly(search_config, demo_lexicon):
    corpus = load_corpus([SPECIAL_DIR / "cyclic.wsdl"])
    desc = corpus.descriptions[0]
    started = time.perf_counter()
    annotations = annotate_description(
        desc, search_config, demo_lexicon)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert all(not a.annotated for a in annotations)


def test_max_depth_bounds_the_search(search_config, demo_lexicon):
    desc, param = chain_description(["L1", "L2", "L3"])
    shallow = annotate_parameter(
        param, desc, search_config._replace(max_depth=2), demo_lexicon)
    assert not shallow.annotated
    deep = annotate_parameter(
        param, desc, search_config._replace(max_depth=3), demo_lexicon)
    assert [(e.concept.id, e.depth, e.path) for e in deep.entries] == [
        ("CurrencyMeasure", 3, ("a", "a", "price"))]


def sequence_description(param_name, members):
    """p: Qwrtx, a type with the given string members, or with none."""
    name = QName("urn:shape", "Qwrtx")
    definition = TypeDefinition(name, tuple(SubParameter(m, XSD_STRING) for m in members))
    param = Parameter(param_name, Direction.INPUT, name, "s::Op::input::p")
    return WsDescription("s", (Operation("Op", (param,)),), {name: definition}), param


NAME, TYPE = AnnotationSource.PARAMETER_NAME, AnnotationSource.TYPE_NAME
SUB_NAME = AnnotationSource.SUBPARAMETER_NAME
SUB_TYPE = AnnotationSource.SUBPARAMETER_TYPE_NAME


@pytest.mark.parametrize("build, max_depth, shape, wordless", [
    # price would win at depth 1, but the member level is never reached
    (lambda: sequence_description("xyzzy", ["price"]), 0, [(NAME, 0), (TYPE, 0)], []),
    (lambda: sequence_description("xyzzy", ["plugh"]), 8,
     [(NAME, 0), (TYPE, 0), (SUB_NAME, 1), (SUB_TYPE, 1)], [3]),
    (lambda: sequence_description("", []), 8, [(NAME, 0), (TYPE, 0)], [0]),
    (lambda: chain_description(["Qwrtx", "Zork"]), 8,
     [(NAME, 0), (TYPE, 0), (SUB_NAME, 1), (SUB_TYPE, 1), (SUB_NAME, 2)], [2]),
], ids=["max-depth-0", "builtin-members", "empty-name", "depth-2"])
def test_trace_shape(build, max_depth, shape, wordless, search_config, demo_lexicon):
    desc, param = build()
    _, trace = annotate_parameter_with_trace(
        param, desc, search_config._replace(max_depth=max_depth), demo_lexicon)
    assert [(visit.source, visit.depth) for visit in trace] == shape
    assert [i for i, visit in enumerate(trace) if not visit.words] == wordless


def test_unnamed_member_is_skipped_but_descended(search_config, demo_lexicon):
    ns = "urn:x"
    inner = TypeDefinition(QName(ns, "Inner"), (SubParameter("singer", XSD_STRING),))
    outer = TypeDefinition(QName(ns, "Outer"), (SubParameter("", QName(ns, "Inner")),))
    param = Parameter("xyzzy", Direction.INPUT, QName(ns, "Outer"), "u::Op::input::xyzzy")
    desc = WsDescription("u", (Operation("Op", (param,)),),
                         {outer.name: outer, inner.name: inner})
    annotation = annotate_parameter(
        param, desc, search_config, demo_lexicon)
    assert [(e.concept.id, e.depth, e.path) for e in annotation.entries] == [
        ("Musician", 2, ("", "singer"))]


def test_shared_member_type_is_expanded_once(search_config, demo_lexicon):
    ns = "urn:x"
    dup = TypeDefinition(QName(ns, "Dup"), (SubParameter("price", XSD_STRING),))
    pair = TypeDefinition(QName(ns, "Pair"), (SubParameter("x", QName(ns, "Dup")),
                                              SubParameter("y", QName(ns, "Dup"))))
    param = Parameter("xyzzy", Direction.INPUT, QName(ns, "Pair"), "u::Op::input::xyzzy")
    desc = WsDescription("u", (Operation("Op", (param,)),),
                         {dup.name: dup, pair.name: pair})
    annotation = annotate_parameter(
        param, desc, search_config, demo_lexicon)
    assert [(e.concept.id, e.path) for e in annotation.entries] == [
        ("CurrencyMeasure", ("x", "price"))]


def test_disabling_descent_never_adds_successes(fixture_corpus, search_config,
                                                demo_lexicon):
    off = search_config._replace(
        enabled_stages=search_config.enabled_stages - {Stage.EXPLORE})
    on = search_config
    for desc in fixture_corpus.descriptions:
        for param in desc.parameters():
            a_off = annotate_parameter(param, desc, off, demo_lexicon)
            a_on = annotate_parameter(param, desc, on, demo_lexicon)
            if a_off.annotated:
                assert a_on.annotated
                assert a_off.entries == a_on.entries


def with_overrides(lexicon, document):
    """A copy of the lexicon with the override file laid over it."""
    folded = Lexicon(entries=dict(lexicon.entries))
    folded.entries.update(load_overrides(document))
    return folded


def test_overrides_rewrite_the_winning_concept(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "Password")
    lexicon = with_overrides(demo_lexicon, "password=SecurityToken\n")
    annotation = annotate_parameter(param, desc, search_config, lexicon)
    assert annotation.entries[0].concept == Concept("SecurityToken")


def test_override_can_rescue_a_failure(fixture_corpus, search_config, demo_lexicon):
    desc, param = find_param(fixture_corpus, "PlayList_2")
    plain = annotate_parameter(param, desc, search_config, demo_lexicon)
    assert not plain.annotated
    lexicon = with_overrides(demo_lexicon, "play=RecreationOrExercise\n")
    rescued = annotate_parameter(param, desc, search_config, lexicon)
    assert rescued.entries[0].concept == Concept("RecreationOrExercise")
    assert rescued.entries[0].word.text == "play"


def test_annotate_description_order(fixture_corpus, search_config, demo_lexicon):
    desc = fixture_corpus.descriptions[0]
    annotations = annotate_description(
        desc, search_config, demo_lexicon)
    assert [a.param_id for a in annotations] == [p.param_id for p in desc.parameters()]


def test_empty_lexicon_annotates_nothing(fixture_corpus, search_config):
    empty = load_lexicon("")
    for desc in fixture_corpus.descriptions:
        for annotation in annotate_description(
                desc, search_config, empty):
            assert not annotation.annotated


def test_negative_max_depth_rejected():
    with pytest.raises(ValueError):
        SearchConfig(max_depth=-1)
