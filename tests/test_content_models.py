"""Content models as they are handled today.

Only the direct `element` children of a complexType's own `sequence` are
members.  Each WSDL under fixtures/content_models has a part `zork` of
type `tns:Qux`, whose `city` (a lexicon word) sits in a content model
that this rule skips, so the search never reaches it.  These tests pin
that behaviour, so that one member rule for every content model is a
deliberate change to them.
"""

from pathlib import Path

import pytest

from semwsdl import AnnotationSource, annotate_parameter_with_trace, load_corpus, resolve_type
from semwsdl.model import QName

from conftest import CONTENT_MODELS_DIR

# fixture -> members of its Qux
QUX_MEMBERS = {
    "sequence_choice": [],
    "sequence_sequence": [],
    "element_and_choice": ["zip"],
    "all": [],
    "group_ref": [],
    "attribute": [],
}


@pytest.fixture(scope="module")
def content_models():
    corpus = load_corpus(sorted(str(path) for path in CONTENT_MODELS_DIR.iterdir()))
    assert not corpus.skipped
    return {Path(desc.source_id).stem: (next(desc.parameters()), desc)
            for desc in corpus.descriptions}


def test_every_shape_has_a_fixture(content_models):
    assert sorted(content_models) == sorted([*QUX_MEMBERS, "chameleon_include"])


@pytest.mark.parametrize("shape", sorted(QUX_MEMBERS))
def test_only_direct_sequence_elements_are_members(content_models, shape):
    param, desc = content_models[shape]
    assert param.name == "zork"
    qux = resolve_type(desc, param.type_ref)
    assert qux.name == param.type_ref
    assert [member.name for member in qux.subparameters] == QUX_MEMBERS[shape]


def test_chameleon_include_keeps_no_namespace(content_models):
    param, desc = content_models["chameleon_include"]
    assert param.type_ref == QName("http://example.com/content/chameleon-include", "Qux")
    assert resolve_type(desc, param.type_ref) is None
    assert [member.name for member in desc.types[QName("", "Qux")].subparameters] == ["city"]


@pytest.mark.parametrize("shape", sorted([*QUX_MEMBERS, "chameleon_include"]))
def test_city_is_never_reached(content_models, search_config, demo_lexicon, shape):
    param, desc = content_models[shape]
    annotation, trace = annotate_parameter_with_trace(param, desc, search_config, demo_lexicon)
    assert not annotation.annotated
    words = [(visit.source, [word.text for word in visit.words]) for visit in trace]
    # the chameleon's Qux is out of reach, so its type-name visit mines nothing
    expected = [(AnnotationSource.PARAMETER_NAME, ["zork"]),
                (AnnotationSource.TYPE_NAME, ["qux"] if shape in QUX_MEMBERS else [])]
    if shape == "element_and_choice":
        expected += [(AnnotationSource.SUBPARAMETER_NAME, ["zip"]),
                     (AnnotationSource.SUBPARAMETER_TYPE_NAME, [])]
    assert words == expected
