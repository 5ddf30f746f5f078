import pytest

from semwsdl.ingest import (
    Corpus,
    EmptyCorpus,
    load_corpus,
    parse_wsdl,
    resolve_type,
)
from semwsdl.model import Direction, QName, SubParameter, TypeKind, XSD_NAMESPACE
from semwsdl.xmlio import MalformedXml

from conftest import CORPUS_DIR, IMPORTS_DIR, SPECIAL_DIR

TNS = "http://example.com/music-catalog"


def wsdl(body, tns="urn:test"):
    return f"""<?xml version="1.0"?>
<wsdl:definitions targetNamespace="{tns}"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="{tns}">
{body}
</wsdl:definitions>""".encode()

MINIMAL = wsdl("""
  <wsdl:message name="In"><wsdl:part name="q" type="xsd:string"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Ask"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""")


def test_parse_minimal_document():
    desc = parse_wsdl("mini.wsdl", MINIMAL)
    assert desc.source_id == "mini.wsdl"
    assert len(desc.operations) == 1
    op = desc.operations[0]
    assert op.name == "Ask"
    assert [p.name for p in op.inputs] == ["q"]
    assert op.outputs == ()
    param = op.inputs[0]
    assert param.direction is Direction.INPUT
    assert param.type_ref == QName(XSD_NAMESPACE, "string")
    assert param.param_id == "mini.wsdl::Ask::input::q"
    assert desc.types == {}
    assert desc.warnings == ()


def test_parse_catalog_fixture():
    data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
    desc = parse_wsdl("music_catalog.wsdl", data)
    op = desc.operations[0]
    assert op.name == "GetCategory"
    category = op.inputs[0]
    assert category.name == "category"
    assert category.type_ref == QName(TNS, "categoryDetail")
    detail = desc.types[QName(TNS, "categoryDetail")]
    assert detail.kind is TypeKind.COMPLEX_SEQUENCE
    assert detail.subparameters == (
        SubParameter("singer", QName(XSD_NAMESPACE, "string")),
        SubParameter("composer", QName(XSD_NAMESPACE, "string")),
    )
    assert not detail.anonymous
    assert [p.name for p in op.outputs] == ["result"]


def test_parse_is_deterministic():
    data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
    assert parse_wsdl("x", data) == parse_wsdl("x", data)


def test_truncated_document_raises():
    with pytest.raises(MalformedXml):
        parse_wsdl("bad", b"<wsdl:definitions xmlns:wsdl='http://schemas.xmlsoap.org/wsdl/'><wsdl:t")


def test_wrong_root_raises():
    with pytest.raises(MalformedXml):
        parse_wsdl("bad", b"<html><body/></html>")


def test_operation_with_undeclared_message_is_skipped():
    doc = wsdl("""
  <wsdl:message name="Known"><wsdl:part name="ok" type="xsd:string"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Good"><wsdl:input message="tns:Known"/></wsdl:operation>
    <wsdl:operation name="Broken"><wsdl:input message="tns:Missing"/></wsdl:operation>
  </wsdl:portType>
""")
    desc = parse_wsdl("s", doc)
    assert [op.name for op in desc.operations] == ["Good"]
    assert len(desc.warnings) == 1
    assert "Broken" in desc.warnings[0]
    assert "skipped" in desc.warnings[0]


def test_duplicate_part_names_get_distinct_ids():
    doc = wsdl("""
  <wsdl:message name="In">
    <wsdl:part name="item" type="xsd:string"/>
    <wsdl:part name="item" type="xsd:int"/>
  </wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Op"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""")
    desc = parse_wsdl("d", doc)
    ids = [p.param_id for p in desc.parameters()]
    assert ids == ["d::Op::input::item", "d::Op::input::item::2"]
    assert len(set(ids)) == 2


def test_element_style_parts():
    data = (CORPUS_DIR / "bank_transfer.wsdl").read_bytes()
    desc = parse_wsdl("bank_transfer.wsdl", data)
    params = list(desc.parameters())
    # part name "body" is replaced by the referenced element's name
    assert [p.name for p in params] == ["TransferRequest", "DepositNote"]
    tns = "http://example.com/bank-transfer"
    assert params[0].type_ref == QName(tns, "TransferInfo")
    info = desc.types[QName(tns, "TransferInfo")]
    assert [m.name for m in info.subparameters] == ["amount", "payee"]
    # the inline complexType becomes an anonymous synthesized definition
    anon_ref = params[1].type_ref
    assert anon_ref == QName(tns, "DepositNote$anon")
    anon = desc.types[anon_ref]
    assert anon.anonymous
    assert anon.kind is TypeKind.COMPLEX_SEQUENCE
    assert [m.name for m in anon.subparameters] == ["account", "memo"]


def test_type_kind_classification():
    data = (CORPUS_DIR / "registry_types.wsdl").read_bytes()
    desc = parse_wsdl("registry_types.wsdl", data)
    tns = "http://example.com/registry-types"
    assert desc.types[QName(tns, "ColorCode")].kind is TypeKind.CUSTOM_SIMPLE
    assert desc.types[QName(tns, "MiscUnion")].kind is TypeKind.COMPLEX_OTHER


def test_empty_sequence_means_empty_complex():
    doc = wsdl("""
  <wsdl:types>
    <xsd:schema targetNamespace="urn:test">
      <xsd:complexType name="Hollow"><xsd:sequence/></xsd:complexType>
      <xsd:complexType name="Bare"/>
    </xsd:schema>
  </wsdl:types>
""")
    desc = parse_wsdl("e", doc)
    assert desc.types[QName("urn:test", "Hollow")].kind is TypeKind.EMPTY_COMPLEX
    assert desc.types[QName("urn:test", "Bare")].kind is TypeKind.EMPTY_COMPLEX


def test_resolve_type_is_total():
    data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
    desc = parse_wsdl("m", data)
    builtin = resolve_type(desc, QName(XSD_NAMESPACE, "string"))
    assert builtin.kind is TypeKind.BUILTIN
    local = resolve_type(desc, QName(TNS, "categoryDetail"))
    assert local.kind is TypeKind.COMPLEX_SEQUENCE
    missing = resolve_type(desc, QName(TNS, "Nothing"))
    assert missing.kind is TypeKind.UNKNOWN
    assert missing.name == QName(TNS, "Nothing")


def test_bom_prefixed_document():
    desc = parse_wsdl("bom", b"\xef\xbb\xbf" + MINIMAL)
    assert desc.operations[0].name == "Ask"


def test_load_corpus_records_failures(tmp_path):
    good = tmp_path / "good.wsdl"
    good.write_bytes(MINIMAL)
    bad = tmp_path / "bad.wsdl"
    bad.write_bytes(b"<wsdl:definitions")
    corpus = load_corpus([good, bad])
    assert len(corpus.descriptions) == 1
    assert corpus.descriptions[0].source_id == str(good)
    assert list(corpus.trees) == [str(good)]
    assert len(corpus.skipped) == 1
    assert corpus.skipped[0].path == str(bad)
    assert corpus.skipped[0].error


def test_load_corpus_empty_input():
    with pytest.raises(EmptyCorpus):
        load_corpus([])


def test_load_corpus_nothing_parseable(tmp_path):
    bad = tmp_path / "only.wsdl"
    bad.write_bytes(b"not xml at all")
    with pytest.raises(EmptyCorpus):
        load_corpus([bad])


def test_load_corpus_over_fixture_directory(fixture_corpus):
    assert len(fixture_corpus.descriptions) == 10
    assert fixture_corpus.skipped == []
    total = sum(len(list(d.parameters())) for d in fixture_corpus.descriptions)
    assert total == 27
    # every description keeps its tree, with one node per parameter in order
    assert list(fixture_corpus.trees) == [d.source_id for d in fixture_corpus.descriptions]
    for desc in fixture_corpus.descriptions:
        nodes = fixture_corpus.trees[desc.source_id].nodes
        assert list(nodes) == [param.param_id for param in desc.parameters()]


def test_corrupt_fixture_is_skipped():
    paths = sorted(CORPUS_DIR.glob("*.wsdl")) + [SPECIAL_DIR / "corrupt.wsdl"]
    corpus = load_corpus(paths)
    assert len(corpus.descriptions) == 10
    assert [s.path for s in corpus.skipped] == [str(SPECIAL_DIR / "corrupt.wsdl")]


def test_schema_import_resolved_within_batch():
    main = IMPORTS_DIR / "main.wsdl"
    common = IMPORTS_DIR / "common.xsd"
    with_schema = load_corpus([main, common])
    assert len(with_schema.descriptions) == 1
    desc = with_schema.descriptions[0]
    address = QName("http://example.com/common", "Address")
    assert desc.types[address].kind is TypeKind.COMPLEX_SEQUENCE
    assert [m.name for m in desc.types[address].subparameters] == ["street", "city"]
    # the xsd file itself is an import target, not a description
    assert [d.source_id for d in with_schema.descriptions] == [str(main)]


def test_schema_import_ignored_outside_batch():
    corpus = load_corpus([IMPORTS_DIR / "main.wsdl"])
    desc = corpus.descriptions[0]
    address = QName("http://example.com/common", "Address")
    assert address not in desc.types
    assert resolve_type(desc, address).kind is TypeKind.UNKNOWN


def test_corpus_is_plain_data():
    corpus = Corpus(descriptions=[], trees={}, skipped=[])
    assert corpus.descriptions == []
    assert corpus.skipped == []
