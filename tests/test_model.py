import pytest
from hypothesis import given, strategies as st

from semwsdl.model import (
    ONTOLOGY,
    XSD_BUILTIN_TYPES,
    XSD_NAMESPACE,
    Annotation,
    AnnotationEntry,
    AnnotationSource,
    Concept,
    Direction,
    Operation,
    Parameter,
    QName,
    SubParameter,
    TypeDefinition,
    Word,
    WsDescription,
    is_builtin,
)

import bruteforce


def test_is_builtin_for_schema_types():
    assert is_builtin(QName(XSD_NAMESPACE, "string"))
    assert is_builtin(QName(XSD_NAMESPACE, "int"))
    assert not is_builtin(QName("http://example.com/ns", "categoryDetail"))
    # right local name in the wrong namespace is not a builtin
    assert not is_builtin(QName("http://example.com/ns", "string"))


def test_builtin_types_match_the_oracle_spelling():
    # the oracle spells both constants from XML Schema Part 2 on its own
    assert (XSD_NAMESPACE, XSD_BUILTIN_TYPES) == (
        bruteforce.XSD_NAMESPACE, bruteforce.XSD_BUILTIN_TYPES)
    assert len(XSD_BUILTIN_TYPES) == 44


def test_qname_requires_local_name():
    with pytest.raises(ValueError):
        QName("urn:x", "")
    assert QName("", "ok").local_name == "ok"
    # Clark notation, and the bare local name when there is no namespace
    assert str(QName("urn:x", "T")) == "{urn:x}T"
    assert str(QName("", "T")) == "T"


@given(st.text(max_size=20))
def test_word_accepts_exactly_lowercase_letters(text):
    valid = text != "" and all("a" <= ch <= "z" for ch in text)
    if valid:
        assert Word(text).text == text
    else:
        with pytest.raises(ValueError):
            Word(text)


@given(st.from_regex(r"[a-z]{1,15}", fullmatch=True))
def test_word_valid_inputs_round_trip(text):
    assert str(Word(text)) == text


def test_concept_requires_id():
    # the id lands in an XML attribute, so a character XML forbids is refused
    for bad in ("", "Foo Bar", "Foo\tBar", " Foo", "Foo\x01Bar"):
        with pytest.raises(ValueError):
            Concept(bad)
    # the ontology is one constant, not a field every concept carries
    assert Concept._fields == ("id",)
    assert ONTOLOGY == "SUMO"
    assert str(Concept("City")) == "City"
    with pytest.raises(ValueError):  # a derived value is checked like a new one
        Concept("X")._replace(id="a b")


def test_type_definition_is_a_name_with_members():
    # a type is found or not, and has members or not: no kind is stored
    assert TypeDefinition._fields == ("name", "subparameters", "anonymous")
    qn = QName("urn:x", "T")
    sub = SubParameter("a", QName(XSD_NAMESPACE, "string"))
    assert TypeDefinition(qn) == TypeDefinition(qn, (), False)
    assert TypeDefinition(qn, (sub,)).subparameters == (sub,)


def test_annotation_entry_depth_must_match_path():
    concept, word = Concept("City"), Word("city")
    entry = AnnotationEntry(concept, word, AnnotationSource.SUBPARAMETER_NAME, ("a", "b"))
    assert entry.depth == 2
    with pytest.raises(ValueError):
        # depth-0 sources cannot carry a path
        AnnotationEntry(concept, word, AnnotationSource.PARAMETER_NAME, ("a",))
    with pytest.raises(ValueError):
        AnnotationEntry(concept, word, AnnotationSource.SUBPARAMETER_NAME, ())


def test_annotation_annotated_flag():
    entry = AnnotationEntry(Concept("City"), Word("city"),
                            AnnotationSource.PARAMETER_NAME)
    assert Annotation("p1", (entry,)).annotated
    assert not Annotation("p1").annotated


def test_operation_and_parameter_validation():
    with pytest.raises(ValueError):
        Operation("")
    with pytest.raises(ValueError):
        Parameter("x", Direction.INPUT, QName(XSD_NAMESPACE, "string"), "")


def test_description_parameter_order():
    string_ref = QName(XSD_NAMESPACE, "string")
    op1 = Operation(
        "First",
        (Parameter("a", Direction.INPUT, string_ref, "1"),
         Parameter("b", Direction.OUTPUT, string_ref, "2")))
    op2 = Operation("Second", (Parameter("c", Direction.INPUT, string_ref, "3"),))
    desc = WsDescription("s", (op1, op2))
    assert [p.param_id for p in desc.parameters()] == ["1", "2", "3"]


def test_descriptions_built_without_types_do_not_share_a_table():
    first, second = WsDescription("a"), WsDescription("b")
    assert first.types == second.types == {}
    assert first.types is not second.types


def test_values_are_tuples():
    # a value equals any tuple with the same items, and hashes like it
    qname = QName("urn:x", "T")
    assert qname == ("urn:x", "T") and hash(qname) == hash(("urn:x", "T"))
    assert TypeDefinition(qname)._replace(anonymous=True) == (qname, (), True)
