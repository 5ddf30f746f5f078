"""Derived types as they are handled today.

A complexType whose content is complexContent, by extension or by
restriction, has no members: the search mines its name and never
reaches its base's members or its own.  These tests pin that
behaviour on the fixtures under fixtures/derived, so that treating an
extension as a sequence is a deliberate change to them.
"""

import json

import pytest

from semwsdl import (
    AnnotationSource,
    annotate_description,
    annotate_parameter_with_trace,
    cli,
    load_corpus,
    parse_wsdl,
    resolve_type,
    write_sawsdl,
)

from conftest import DERIVED_DIR, LEXICON_PATH
from test_writer import expat_events

DERIVED_TYPES = {"ShippingAddress", "Zorp", "Blivet", "ArrayOfString"}


@pytest.fixture(scope="module")
def derived():
    corpus = load_corpus(sorted(str(path) for path in DERIVED_DIR.glob("*.wsdl")))
    assert not corpus.skipped
    return {param.name: (param, desc)
            for desc in corpus.descriptions for param in desc.parameters()}


@pytest.fixture
def search(derived, search_config, demo_lexicon):
    """The annotation and trace of the derived fixtures' parameter `name`."""
    def run(name):
        param, desc = derived[name]
        return annotate_parameter_with_trace(param, desc, search_config, demo_lexicon)
    return run


def test_derived_types_are_complex_other(derived):
    members = {}
    for param, desc in derived.values():
        for definition in desc.types.values():
            members[definition.name.local_name] = definition.subparameters
        assert resolve_type(desc, param.type_ref).name.local_name in DERIVED_TYPES
    assert members["Address"]
    for name in DERIVED_TYPES:
        assert members[name] == (), name


def test_extension_is_annotated_from_its_type_name_alone(search):
    annotation, trace = search("shipTo")
    assert [(e.word.text, e.source, e.path, e.depth) for e in annotation.entries] == [
        ("address", AnnotationSource.TYPE_NAME, (), 0)]
    assert [visit.source for visit in trace] == [
        AnnotationSource.PARAMETER_NAME, AnnotationSource.TYPE_NAME]
    # the base's member is never reached
    assert "city" not in {word.text for visit in trace for word in visit.words}


@pytest.mark.parametrize("name", ["loopA", "loopB", "items"])
def test_cycling_extensions_and_soap_arrays_fail(search, name):
    annotation, trace = search(name)
    assert not annotation.annotated
    # no descent: the type's name is the last stage tried
    assert [visit.source for visit in trace] == [
        AnnotationSource.PARAMETER_NAME, AnnotationSource.TYPE_NAME]


def test_report_pins_derived_types(tmp_path, capsys):
    code = cli.run(["annotate", "--input-paths", str(DERIVED_DIR), "--output-dir",
                    str(tmp_path), "--lexicon-path", str(LEXICON_PATH)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_bytes())
    statuses = {row["param_id"].rsplit("::", 1)[1]: (row["status"], row["entries"])
                for row in report["parameters"]}
    assert statuses == {
        "shipTo": ("annotated", [{"concept": "SubjectiveAssessmentAttribute",
                                  "ontology": "SUMO", "word": "address",
                                  "source": "type_name", "path": [], "depth": 0}]),
        "loopA": ("failed", []),
        "loopB": ("failed", []),
        "items": ("failed", []),
    }
    assert (report["summary"]["total"], report["summary"]["annotated"]) == (4, 1)
    assert "annotated 1/4 parameters across 3 files" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["extension.wsdl", "extension_cycle.wsdl",
                                  "soapenc_array.wsdl"])
def test_derived_types_round_trip(name, search_config, demo_lexicon):
    source_id = str(DERIVED_DIR / name)
    data = (DERIVED_DIR / name).read_bytes()
    assert expat_events(write_sawsdl(parse_wsdl(source_id, data), [])) == expat_events(data)
    parsed = parse_wsdl(source_id, data)
    annotations = annotate_description(parsed.description, search_config, demo_lexicon)
    first = write_sawsdl(parsed, annotations)
    again = parse_wsdl(source_id, first)
    assert again.description.operations == parsed.description.operations
    assert again.description.types == parsed.description.types
    assert write_sawsdl(again, annotations) == first
