import gc
import os
import random
import shutil
import tracemalloc

import pytest

from semwsdl.explore import annotate_parameter_with_trace
from semwsdl.ingest import (
    Corpus,
    load_corpus,
    parse_wsdl,
)
from semwsdl.model import (
    AnnotationSource,
    Direction,
    QName,
    SubParameter,
    XSD_NAMESPACE,
    resolve_type,
)
from semwsdl.xmlio import MalformedXml, XmlElement

from conftest import CORPUS_DIR, IMPORTED_ELEMENT_DIR, IMPORTS_DIR, SPECIAL_DIR

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
    desc = parse_wsdl("mini.wsdl", MINIMAL).description
    assert desc.source_id == "mini.wsdl"
    assert len(desc.operations) == 1
    op = desc.operations[0]
    assert op.name == "Ask"
    assert [p.name for p in op.parameters] == ["q"]
    param = op.parameters[0]
    assert param.direction is Direction.INPUT
    assert param.type_ref == QName(XSD_NAMESPACE, "string")
    assert param.param_id == "mini.wsdl::Ask::input::q"
    assert desc.types == {}
    assert desc.warnings == ()


def test_parse_catalog_fixture():
    data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
    desc = parse_wsdl("music_catalog.wsdl", data).description
    op = desc.operations[0]
    assert op.name == "GetCategory"
    category = op.parameters[0]
    assert category.name == "category"
    assert category.type_ref == QName(TNS, "categoryDetail")
    detail = desc.types[QName(TNS, "categoryDetail")]
    assert detail.subparameters == (
        SubParameter("singer", QName(XSD_NAMESPACE, "string")),
        SubParameter("composer", QName(XSD_NAMESPACE, "string")),
    )
    assert not detail.anonymous
    assert [(p.name, p.direction) for p in op.parameters] == [
        ("category", Direction.INPUT), ("result", Direction.OUTPUT)]


def test_parse_is_deterministic():
    data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
    assert parse_wsdl("x", data).description == parse_wsdl("x", data).description


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
    desc = parse_wsdl("s", doc).description
    assert [op.name for op in desc.operations] == ["Good"]
    assert len(desc.warnings) == 1
    assert "Broken" in desc.warnings[0]
    assert "skipped" in desc.warnings[0]


def test_duplicate_part_names_get_distinct_ids():
    for names, suffixes in [
        (["item", "item"], ["item", "item::2"]),
        # a part whose name looks like a suffix takes the next free one
        (["city", "city", "city::2"], ["city", "city::2", "city::2::2"]),
    ]:
        parts = "".join(f'<wsdl:part name="{name}" type="xsd:string"/>' for name in names)
        doc = wsdl(f"""
  <wsdl:message name="In">{parts}</wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Op"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""")
        parsed = parse_wsdl("d", doc)
        ids = [p.param_id for p in parsed.description.parameters()]
        assert ids == [f"d::Op::input::{suffix}" for suffix in suffixes]
        assert list(parsed.nodes) == ids


def test_element_style_parts():
    data = (CORPUS_DIR / "bank_transfer.wsdl").read_bytes()
    desc = parse_wsdl("bank_transfer.wsdl", data).description
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
    assert [m.name for m in anon.subparameters] == ["account", "memo"]


def test_type_kind_classification():
    data = (CORPUS_DIR / "registry_types.wsdl").read_bytes()
    desc = parse_wsdl("registry_types.wsdl", data).description
    tns = "http://example.com/registry-types"
    # a simple type, and a complexType whose choice is not a sequence: no members
    for name in ("ColorCode", "MiscUnion"):
        definition = desc.types[QName(tns, name)]
        assert (definition.subparameters, definition.anonymous) == ((), False)


def test_empty_sequence_means_empty_complex():
    doc = wsdl("""
  <wsdl:types>
    <xsd:schema targetNamespace="urn:test">
      <xsd:complexType name="Hollow"><xsd:sequence/></xsd:complexType>
      <xsd:complexType name="Bare"/>
    </xsd:schema>
  </wsdl:types>
""")
    desc = parse_wsdl("e", doc).description
    assert desc.types[QName("urn:test", "Hollow")].subparameters == ()
    assert desc.types[QName("urn:test", "Bare")].subparameters == ()


# what an element declares (attributes, content) -> the local name of its
# type, and that type's member names and anonymity, or None when no schema
# defines it; "{anon}" stands for the name synthesized for an inline type
DECLARED_TYPES = {
    "type_attr": ('type="tns:Code"', "", "Code", ([], False)),
    "unusable_type_attr": ('type="tns:"', "", "anyType", None),
    "inline_complex": ("", '<xsd:complexType><xsd:sequence><xsd:element name="v" '
                           'type="xsd:int"/></xsd:sequence></xsd:complexType>',
                       "{anon}", (["v"], True)),
    "inline_simple": ("", '<xsd:simpleType><xsd:restriction base="xsd:string"/>'
                          '</xsd:simpleType>', "{anon}", ([], True)),
    "nothing": ("", "", "anyType", None),
}


@pytest.mark.parametrize("branch", sorted(DECLARED_TYPES))
@pytest.mark.parametrize("place", ["top_level", "sequence_member"])
def test_declared_type_precedence(branch, place):
    attrs, content, local, shape = DECLARED_TYPES[branch]
    element = f'<xsd:element name="X" {attrs}>{content}</xsd:element>'
    top_level = place == "top_level"
    doc = wsdl(f"""
  <wsdl:types>
    <xsd:schema targetNamespace="urn:test">
      <xsd:simpleType name="Code"><xsd:restriction base="xsd:string"/></xsd:simpleType>
      {element if top_level else ""}
      <xsd:complexType name="Base"><xsd:sequence>
        <xsd:element name="first" type="xsd:int"/>{"" if top_level else element}
      </xsd:sequence></xsd:complexType>
    </xsd:schema>
  </wsdl:types>
  <wsdl:message name="In">
    <wsdl:part name="p" {'element="tns:X"' if top_level else 'type="tns:Base"'}/>
  </wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Ask"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""")
    desc = parse_wsdl("d", doc).description
    if top_level:
        type_ref, anon = desc.operations[0].parameters[0].type_ref, "X$anon"
    else:
        members = desc.types[QName("urn:test", "Base")].subparameters
        assert [m.name for m in members] == ["first", "X"]
        type_ref, anon = members[1].type_ref, "Base$2$anon"
    namespace = XSD_NAMESPACE if local == "anyType" else "urn:test"
    assert type_ref == QName(namespace, local.format(anon=anon))
    definition = resolve_type(desc, type_ref)
    assert shape == (None if definition is None else
                     ([m.name for m in definition.subparameters], definition.anonymous))


def _holding(name, content):
    """A global or member element `name` whose inline complexType's sequence is content."""
    return (f'<xsd:element name="{name}"><xsd:complexType><xsd:sequence>{content}'
            '</xsd:sequence></xsd:complexType></xsd:element>')


def _complex(name, content):
    return (f'<xsd:complexType name="{name}"><xsd:sequence>{content}'
            '</xsd:sequence></xsd:complexType>')


_PRICE = '<xsd:element name="price" type="xsd:string"/>'
_CITY = '<xsd:element name="city" type="xsd:string"/>'

# two holders of inline types whose names must not clash -> the parts, and
# the members reached from each part along a path of member names
INLINE_HOLDERS = {
    "type_and_element_of_one_name": (
        _complex("A", _holding("x", _PRICE)) + _holding("A", _holding("y", _CITY)),
        '<wsdl:part name="zork" type="tns:A"/><wsdl:part name="el" element="tns:A"/>',
        {("zork", "x"): ["price"], ("A", "y"): ["city"]}),
    "dot_in_a_name": (
        _complex("A", _holding("x", _holding("y", _PRICE))) + _complex("A.1", _holding("z", _CITY)),
        '<wsdl:part name="zork" type="tns:A"/><wsdl:part name="blort" type="tns:A.1"/>',
        {("zork", "x", "y"): ["price"], ("blort", "z"): ["city"]}),
}


@pytest.mark.parametrize("case", sorted(INLINE_HOLDERS))
def test_inline_type_names_do_not_clash(case):
    content, parts, expected = INLINE_HOLDERS[case]
    desc = parse_wsdl("d", wsdl(f"""
  <wsdl:types><xsd:schema targetNamespace="urn:test">{content}</xsd:schema></wsdl:types>
  <wsdl:message name="In">{parts}</wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Ask"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""")).description
    params = {param.name: param for param in desc.parameters()}
    reached = {}
    for part, *path in expected:
        definition = resolve_type(desc, params[part].type_ref)
        for name in path:
            member = next(m for m in definition.subparameters if m.name == name)
            definition = resolve_type(desc, member.type_ref)
        reached[(part, *path)] = [m.name for m in definition.subparameters]
    assert reached == expected


def _sequence_type(name, member):
    return (f'<xsd:complexType name="{name}"><xsd:sequence>'
            f'<xsd:element name="{member}" type="xsd:string"/></xsd:sequence></xsd:complexType>')


_SIMPLE_DUP = '<xsd:simpleType name="Dup"><xsd:restriction base="xsd:string"/></xsd:simpleType>'
_EL_DUP = '<xsd:element name="El" type="tns:Dup"/>'

# a schema that defines a global name twice -> the members of El's type,
# which the first definition gives
DEFINED_TWICE = {
    "complex_then_complex": (_sequence_type("Dup", "first") + _sequence_type("Dup", "second")
                             + _EL_DUP, ["first"]),
    "simple_then_complex": (_SIMPLE_DUP + _sequence_type("Dup", "second") + _EL_DUP, []),
    "complex_then_simple": (_sequence_type("Dup", "first") + _SIMPLE_DUP + _EL_DUP, ["first"]),
    "element_then_element": (_sequence_type("One", "first") + _sequence_type("Two", "second")
                             + '<xsd:element name="El" type="tns:One"/>'
                             + '<xsd:element name="El" type="tns:Two"/>', ["first"]),
}


@pytest.mark.parametrize("case", sorted(DEFINED_TWICE))
def test_first_definition_of_a_global_name_wins(case):
    content, members = DEFINED_TWICE[case]
    parsed = parse_wsdl("d", wsdl(f"""
  <wsdl:types><xsd:schema targetNamespace="urn:test">{content}</xsd:schema></wsdl:types>
  <wsdl:message name="In"><wsdl:part name="p" element="tns:El"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Ask"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
"""))
    param = parsed.description.operations[0].parameters[0]
    definition = resolve_type(parsed.description, param.type_ref)
    assert [m.name for m in definition.subparameters] == members
    # the part's declaring node is the first El, as its type is
    assert parsed.nodes[param.param_id].attrs["type"] in ("tns:Dup", "tns:One")


def test_ref_member_takes_the_global_element_name_and_type(search_config, demo_lexicon):
    """A `ref=` member is named and typed by the global element it names.

    An element its document does not declare gives anyType; an unusable
    ref drops the member.  The global `city` is declared after the type
    that refers to it.
    """
    refs = ('<xsd:element ref="tns:city"/><xsd:element ref="tns:nowhere"/>'
            '<xsd:element ref="tns:"/><xsd:element name="zip" type="xsd:string"/>')
    desc = parse_wsdl("d", wsdl(f"""
  <wsdl:types><xsd:schema targetNamespace="urn:test">
    {_complex("Holder", refs)}
    <xsd:element name="city" type="tns:CityType"/>
  </xsd:schema></wsdl:types>
  <wsdl:message name="In"><wsdl:part name="xyzzy" type="tns:Holder"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Ask"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""")).description
    members = desc.types[QName("urn:test", "Holder")].subparameters
    assert members == (SubParameter("city", QName("urn:test", "CityType")),
                       SubParameter("nowhere", QName(XSD_NAMESPACE, "anyType")),
                       SubParameter("zip", QName(XSD_NAMESPACE, "string")))
    param = next(desc.parameters())
    annotation, _ = annotate_parameter_with_trace(param, desc, search_config, demo_lexicon)
    assert [(e.concept.id, e.source, e.path) for e in annotation.entries] == [
        ("City", AnnotationSource.SUBPARAMETER_NAME, ("city",))]


def test_a_non_xsd_child_of_a_schema_is_passed_over():
    desc = parse_wsdl("d", wsdl(f"""
  <wsdl:types><xsd:schema targetNamespace="urn:test">
    <wsdl:documentation name="City"/>
    {_complex("After", _CITY)}
  </xsd:schema></wsdl:types>
""")).description
    assert list(desc.types) == [QName("urn:test", "After")]
    assert [m.name for m in desc.types[QName("urn:test", "After")].subparameters] == ["city"]


def test_resolve_type_is_total():
    data = (CORPUS_DIR / "music_catalog.wsdl").read_bytes()
    desc = parse_wsdl("m", data).description
    assert resolve_type(desc, QName(XSD_NAMESPACE, "string")) is None
    local = resolve_type(desc, QName(TNS, "categoryDetail"))
    assert local is desc.types[QName(TNS, "categoryDetail")]
    assert resolve_type(desc, QName(TNS, "Nothing")) is None


def test_bom_prefixed_document():
    desc = parse_wsdl("bom", b"\xef\xbb\xbf" + MINIMAL).description
    assert desc.operations[0].name == "Ask"


def test_load_corpus_records_failures(tmp_path):
    good = tmp_path / "good.wsdl"
    good.write_bytes(MINIMAL)
    bad = tmp_path / "bad.wsdl"
    bad.write_bytes(b"<wsdl:definitions")
    corpus = load_corpus([good, bad])
    assert len(corpus.descriptions) == 1
    assert corpus.descriptions[0].source_id == str(good)
    assert len(corpus.skipped) == 1
    assert corpus.skipped[0].path == str(bad)
    assert corpus.skipped[0].error


def test_load_corpus_empty_input():
    assert load_corpus([]) == Corpus([], [], 0)


def test_load_corpus_nothing_parseable(tmp_path):
    bad = tmp_path / "only.wsdl"
    bad.write_bytes(b"not xml at all")
    corpus = load_corpus([bad, IMPORTS_DIR / "common.xsd"])
    # no document, but the reasons and the schema count come back
    assert corpus.documents == []
    assert [skip.path for skip in corpus.skipped] == [str(bad)]
    assert corpus.schemas == 1


def test_load_corpus_over_fixture_directory(fixture_corpus):
    assert len(fixture_corpus.descriptions) == 10
    assert fixture_corpus.skipped == []
    total = sum(len(list(d.parameters())) for d in fixture_corpus.descriptions)
    assert total == 27
    # every document keeps its tree, with one node per parameter in order
    for parsed in fixture_corpus.documents:
        assert list(parsed.nodes) == [p.param_id for p in parsed.description.parameters()]


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
    assert [m.name for m in desc.types[address].subparameters] == ["street", "city"]
    # the xsd file itself is an import target, not a description
    assert [d.source_id for d in with_schema.descriptions] == [str(main)]


def test_schema_import_ignored_outside_batch():
    corpus = load_corpus([IMPORTS_DIR / "main.wsdl"])
    desc = corpus.descriptions[0]
    address = QName("http://example.com/common", "Address")
    assert address not in desc.types
    assert resolve_type(desc, address) is None


def test_part_naming_an_imported_element_is_not_resolved(search_config, demo_lexicon):
    """Only the imports' types are merged, not their global elements.

    So a part naming an imported element gets anyType as its type_ref,
    the declared type Parcel and its member `city` (a lexicon word) are
    never reached, and the parameter fails.  This pins today's behaviour,
    not the wanted one.
    """
    corpus = load_corpus([IMPORTED_ELEMENT_DIR / "svc.wsdl", IMPORTED_ELEMENT_DIR / "lib.xsd"])
    desc = corpus.descriptions[0]
    parcel = QName("http://example.com/logistics", "Parcel")
    assert [m.name for m in desc.types[parcel].subparameters] == ["city"]
    param = next(desc.parameters())
    assert param.name == "shipment"
    assert param.type_ref == QName(XSD_NAMESPACE, "anyType")
    assert resolve_type(desc, param.type_ref) is None
    annotation, trace = annotate_parameter_with_trace(param, desc, search_config, demo_lexicon)
    assert not annotation.annotated
    assert [(v.source, [w.text for w in v.words]) for v in trace] == [
        (AnnotationSource.PARAMETER_NAME, ["shipment"]), (AnnotationSource.TYPE_NAME, [])]


def test_undeclared_element_is_not_looked_up_as_a_type(tmp_path, search_config, demo_lexicon):
    """Elements and types are apart: a type named like the element is not its type."""
    shutil.copytree(IMPORTED_ELEMENT_DIR, tmp_path, dirs_exist_ok=True)
    library = tmp_path / "lib.xsd"
    library.write_text(library.read_text().replace("</xsd:schema>", """\
  <xsd:complexType name="shipment">
    <xsd:sequence><xsd:element name="price" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>"""))
    desc = load_corpus([tmp_path / "svc.wsdl", library]).descriptions[0]
    assert [m.name for m in desc.types[QName("http://example.com/logistics", "shipment")]
            .subparameters] == ["price"]
    param = next(desc.parameters())
    assert param.type_ref == QName(XSD_NAMESPACE, "anyType")
    annotation, trace = annotate_parameter_with_trace(param, desc, search_config, demo_lexicon)
    assert not annotation.annotated
    # anyType has no name to mine: the type-name visit holds no words
    assert [(v.source, [w.text for w in v.words]) for v in trace] == [
        (AnnotationSource.PARAMETER_NAME, ["shipment"]), (AnnotationSource.TYPE_NAME, [])]


def test_corpus_is_plain_data():
    parsed = parse_wsdl("mini.wsdl", MINIMAL)
    corpus = Corpus([parsed], [], 0)
    assert corpus.descriptions == [parsed.description]
    assert corpus.skipped == []


# -- import closures: computed once per list of target files ----------------

def schema(tns, body):
    return f"""<?xml version="1.0"?>
<xsd:schema targetNamespace="{tns}" xmlns:xsd="http://www.w3.org/2001/XMLSchema">
{body}
</xsd:schema>""".encode()


def importing(locations, own_types="", tns="urn:test"):
    imports = "".join(f'<xsd:import schemaLocation="{loc}"/>' for loc in locations)
    return wsdl(f"""
  <wsdl:types><xsd:schema targetNamespace="{tns}">{imports}{own_types}</xsd:schema></wsdl:types>
  <wsdl:message name="In"><wsdl:part name="q" type="xsd:string"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Ask"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
""", tns)


def write_library(directory, rng, tag):
    """Six XSDs that include each other: shared, chained and in a ring.

    Every schema also defines a type its neighbours define, so precedence
    shows in the merged table.
    """
    names = [f"s{n}" for n in range(6)]
    directory.mkdir(parents=True)
    for position, name in enumerate(names):
        includes = rng.sample(names, rng.randint(0, 3))
        includes.append(names[(position + 1) % len(names)])  # the ring
        body = "".join(f'<xsd:include schemaLocation="{inc}.xsd"/>' for inc in includes)
        body += (f'<xsd:simpleType name="T{position}{tag}"/>'
                 f'<xsd:complexType name="Shared"><xsd:sequence>'
                 f'<xsd:element name="from{name}{tag}" type="xsd:string"/>'
                 f'</xsd:sequence></xsd:complexType>')
        (directory / f"{name}.xsd").write_bytes(schema("urn:lib", body))
    return names


def write_import_tree(root, rng):
    """WSDLs in three directories; "../lib" names root/lib from a and c, b/lib from b/sub."""
    names = write_library(root / "lib", rng, "")
    write_library(root / "b" / "lib", rng, "b")
    # few distinct location lists, so descriptions meet the same closure
    choices = [[f"../lib/{name}.xsd" for name in rng.sample(names, rng.randint(0, 3))]
               for _ in range(3)]
    choices[0].append("../lib/missing.xsd")
    wsdls = []
    for directory in ("a", "b/sub", "c"):
        (root / directory).mkdir(parents=True)
        for number in range(5):
            # an own type may shadow an imported one of the same name
            own = rng.choice(["", '<xsd:simpleType name="Own"/>',
                              '<xsd:simpleType name="Shared"/>'])
            path = root / directory / f"svc{number}.wsdl"
            path.write_bytes(importing(rng.choice(choices), own, tns="urn:lib"))
            wsdls.append(path)
    return wsdls, sorted(root.glob("**/*.xsd"))


@pytest.mark.parametrize("seed", range(8))
def test_import_closure_does_not_depend_on_the_batch(tmp_path, seed):
    wsdls, xsds = write_import_tree(tmp_path, random.Random(seed))
    batch = load_corpus([*wsdls, *xsds])
    assert [d.source_id for d in batch.descriptions] == [str(p) for p in wsdls]
    for path, desc in zip(wsdls, batch.descriptions):
        alone = load_corpus([path, *xsds]).descriptions[0]
        assert desc.types == alone.types
        assert list(desc.types) == list(alone.types)


def test_same_location_in_two_directories_resolves_apart(tmp_path):
    member = '<xsd:sequence><xsd:element name="part" type="xsd:string"/></xsd:sequence>'
    for directory, content in (("x", ""), ("y", member)):
        (tmp_path / directory).mkdir()
        (tmp_path / directory / "svc.wsdl").write_bytes(importing(["types.xsd"]))
        (tmp_path / directory / "types.xsd").write_bytes(
            schema("urn:lib", f'<xsd:complexType name="Item">{content}</xsd:complexType>'))
    corpus = load_corpus(sorted(tmp_path.glob("*/*")))
    item = QName("urn:lib", "Item")
    assert [[m.name for m in d.types[item].subparameters] for d in corpus.descriptions] == [
        [], ["part"]]


def test_own_type_wins_over_imported(tmp_path):
    common = IMPORTS_DIR / "common.xsd"
    shutil.copy(common, tmp_path)
    address = QName("http://example.com/common", "Address")
    own = importing(["common.xsd"], '<xsd:simpleType name="Address"/>',
                    tns="http://example.com/common")
    (tmp_path / "own.wsdl").write_bytes(own)
    (tmp_path / "plain.wsdl").write_bytes(importing(["common.xsd"]))
    corpus = load_corpus([tmp_path / "own.wsdl", tmp_path / "plain.wsdl",
                          tmp_path / "common.xsd"])
    own_desc, plain_desc = corpus.descriptions
    assert own_desc.types[address].subparameters == ()
    assert [m.name for m in plain_desc.types[address].subparameters] == ["street", "city"]


def test_include_ring_terminates(tmp_path):
    for name, other in (("a", "b"), ("b", "c"), ("c", "a")):
        (tmp_path / f"{name}.xsd").write_bytes(schema("urn:lib", (
            f'<xsd:include schemaLocation="{other}.xsd"/>'
            f'<xsd:simpleType name="{name.upper()}"/>')))
    (tmp_path / "svc.wsdl").write_bytes(importing(["b.xsd"]))
    corpus = load_corpus(sorted(tmp_path.iterdir()))
    assert list(corpus.descriptions[0].types) == [
        QName("urn:lib", "B"), QName("urn:lib", "C"), QName("urn:lib", "A")]


def test_descriptions_without_own_types_share_the_closure(tmp_path):
    shutil.copy(IMPORTS_DIR / "common.xsd", tmp_path)
    for name in ("one", "two"):
        (tmp_path / f"{name}.wsdl").write_bytes(importing(["common.xsd"]))
    (tmp_path / "own.wsdl").write_bytes(
        importing(["common.xsd"], '<xsd:simpleType name="Own"/>'))
    one, two, own = load_corpus([tmp_path / "one.wsdl", tmp_path / "two.wsdl",
                                 tmp_path / "own.wsdl", tmp_path / "common.xsd"]).descriptions
    assert one.types is two.types
    assert own.types is not one.types
    assert QName("urn:test", "Own") in own.types
    assert QName("urn:test", "Own") not in one.types


def test_file_named_twice_is_loaded_once(tmp_path):
    folder = tmp_path / "dir"
    folder.mkdir()
    source = folder / "music_catalog.wsdl"
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", source)
    os.symlink(source, folder / "link.wsdl")
    os.symlink(folder, tmp_path / "linkdir")
    spellings = [source, folder / "link.wsdl", tmp_path / "linkdir" / source.name,
                 folder / ".." / "dir" / source.name]
    for other in spellings:
        for paths in ([source, other], [other, source]):
            corpus = load_corpus(paths)
            assert [d.source_id for d in corpus.descriptions] == [str(paths[0])]


def test_imports_of_a_symlinked_file_are_relative_to_its_target(tmp_path):
    linked, target = tmp_path / "a", tmp_path / "b"
    linked.mkdir()
    target.mkdir()
    shutil.copy(IMPORTS_DIR / "main.wsdl", target)
    shutil.copy(IMPORTS_DIR / "common.xsd", target)
    os.symlink(target / "main.wsdl", linked / "main.wsdl")
    corpus = load_corpus([linked / "main.wsdl", target / "common.xsd"])
    assert [d.source_id for d in corpus.descriptions] == [str(linked / "main.wsdl")]
    assert QName("http://example.com/common", "Address") in corpus.descriptions[0].types


def test_file_through_a_symlinked_directory_shares_the_closure(tmp_path):
    folder = tmp_path / "d"
    folder.mkdir()
    shutil.copy(IMPORTS_DIR / "common.xsd", folder)
    for name in ("one", "two"):
        (folder / f"{name}.wsdl").write_bytes(importing(["common.xsd"]))
    os.symlink(folder, tmp_path / "link")
    one, two = load_corpus([tmp_path / "link" / "one.wsdl", folder / "two.wsdl",
                            folder / "common.xsd"]).descriptions
    assert one.types is two.types
    assert QName("http://example.com/common", "Address") in one.types


def test_one_library_reached_from_three_directories_shares_the_closure(tmp_path):
    (tmp_path / "lib").mkdir()
    shutil.copy(IMPORTS_DIR / "common.xsd", tmp_path / "lib")
    wsdls = []
    for directory, location in (("a", "../lib/common.xsd"), ("b", "link.xsd"),
                                ("c", "../lib/common.xsd")):
        (tmp_path / directory).mkdir()
        wsdls.append(tmp_path / directory / "svc.wsdl")
        wsdls[-1].write_bytes(importing([location]))
    os.symlink(tmp_path / "lib" / "common.xsd", tmp_path / "b" / "link.xsd")
    a, b, c = load_corpus([*wsdls, tmp_path / "lib" / "common.xsd"]).descriptions
    assert a.types is b.types is c.types
    for path, desc in zip(wsdls, (a, b, c)):
        alone = load_corpus([path, tmp_path / "lib" / "common.xsd"]).descriptions[0]
        assert desc.types == alone.types
        assert list(desc.types) == list(alone.types)


def test_location_naming_a_symlinked_file_includes_from_its_target(tmp_path):
    lib, other = tmp_path / "svc" / "lib", tmp_path / "other"
    lib.mkdir(parents=True)
    other.mkdir()
    (other / "main.xsd").write_bytes(schema("urn:lib", (
        '<xsd:include schemaLocation="part.xsd"/><xsd:simpleType name="Main"/>')))
    (other / "part.xsd").write_bytes(schema("urn:lib", '<xsd:simpleType name="Physical"/>'))
    (lib / "part.xsd").write_bytes(schema("urn:lib", '<xsd:simpleType name="Lexical"/>'))
    os.symlink(other / "main.xsd", lib / "main.xsd")
    (tmp_path / "svc" / "svc.wsdl").write_bytes(importing(["lib/main.xsd"]))
    corpus = load_corpus([tmp_path / "svc" / "svc.wsdl", other / "main.xsd",
                          other / "part.xsd", lib / "part.xsd"])
    # the link names other/main.xsd, whose include names other/part.xsd
    assert list(corpus.descriptions[0].types) == [
        QName("urn:lib", "Main"), QName("urn:lib", "Physical")]


def test_location_through_a_symlinked_directory_resolves_physically(tmp_path):
    deep = tmp_path / "other" / "deep"
    deep.mkdir(parents=True)
    (tmp_path / "other" / "lib.xsd").write_bytes(
        schema("urn:lib", '<xsd:simpleType name="Physical"/>'))
    (tmp_path / "lib.xsd").write_bytes(schema("urn:lib", '<xsd:simpleType name="Lexical"/>'))
    os.symlink(deep, tmp_path / "sub")
    (tmp_path / "svc.wsdl").write_bytes(importing(["sub/../lib.xsd"]))
    corpus = load_corpus([tmp_path / "svc.wsdl", tmp_path / "lib.xsd",
                          tmp_path / "other" / "lib.xsd"])
    # `..` leaves the symlink's target, other/deep, not the directory it sits in
    assert list(corpus.descriptions[0].types) == [QName("urn:lib", "Physical")]


def test_bare_name_and_absolute_spelling_are_loaded_once(tmp_path, monkeypatch):
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", tmp_path)
    monkeypatch.chdir(tmp_path)
    absolute = str(tmp_path / "music_catalog.wsdl")
    for paths in (["music_catalog.wsdl", absolute], [absolute, "music_catalog.wsdl"]):
        corpus = load_corpus(paths)
        assert [d.source_id for d in corpus.descriptions] == [paths[0]]


def test_symlink_beside_regular_files_imports_from_its_target(tmp_path):
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    there.mkdir()
    (here / "lib.xsd").write_bytes(schema("urn:lib", '<xsd:simpleType name="Here"/>'))
    (there / "lib.xsd").write_bytes(schema("urn:lib", '<xsd:simpleType name="There"/>'))
    (here / "plain.wsdl").write_bytes(importing(["lib.xsd"]))
    (there / "svc.wsdl").write_bytes(importing(["lib.xsd"]))
    os.symlink(there / "svc.wsdl", here / "link.wsdl")
    plain, link = here / "plain.wsdl", here / "link.wsdl"
    for first in ([plain, link], [link, plain]):
        corpus = load_corpus([*first, here / "lib.xsd", there / "lib.xsd"])
        types = {d.source_id: list(d.types) for d in corpus.descriptions}
        assert types == {str(plain): [QName("urn:lib", "Here")],
                         str(link): [QName("urn:lib", "There")]}


def test_only_a_regular_file_is_read(tmp_path):
    good = tmp_path / "good.wsdl"
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", good)
    corpus = load_corpus([tmp_path, good])
    assert [d.source_id for d in corpus.descriptions] == [str(good)]
    assert [(s.path, s.error) for s in corpus.skipped] == [(str(tmp_path), "not a regular file")]


def test_a_utf8_name_is_its_own_source_id(tmp_path):
    path = tmp_path / "caf\u00e9_\u6771\u4eac.wsdl"
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", path)
    description = load_corpus([path]).descriptions[0]
    assert description.source_id == str(path)
    assert all(p.param_id.startswith(f"{path}::") for p in description.parameters())


def test_unresolvable_paths_are_skipped_or_ignored(tmp_path):
    os.symlink("loop", tmp_path / "loop")
    svc = tmp_path / "svc.wsdl"
    svc.write_bytes(importing(["loop/x.xsd", "common.xsd"]))
    shutil.copy(IMPORTS_DIR / "common.xsd", tmp_path)
    looped = tmp_path / "loop" / "a" / "x.wsdl"
    corpus = load_corpus([svc, looped, tmp_path / "common.xsd"])
    assert [d.source_id for d in corpus.descriptions] == [str(svc)]
    assert QName("http://example.com/common", "Address") in corpus.descriptions[0].types
    assert [s.path for s in corpus.skipped] == [str(looped)]
    assert corpus.skipped[0].error.startswith("io error:")


def test_location_with_a_trailing_slash_names_no_file(tmp_path):
    shutil.copy(IMPORTS_DIR / "common.xsd", tmp_path)
    (tmp_path / "svc.wsdl").write_bytes(importing(["common.xsd/", "common.xsd/."]))
    corpus = load_corpus([tmp_path / "svc.wsdl", tmp_path / "common.xsd"])
    assert corpus.descriptions[0].types == {}
    # the same spelling of an input is no file either
    spelled = f"{tmp_path}/common.xsd/"
    assert [s.path for s in load_corpus([spelled]).skipped] == [spelled]


def padded_catalog():
    """music_catalog.wsdl, and the same with 1,000 more wsdl:binding elements."""
    source = (CORPUS_DIR / "music_catalog.wsdl").read_text("utf-8")
    bindings = '<wsdl:binding name="b" type="tns:musicCatalogPort"/>' * 1000
    return source, source.replace("</wsdl:definitions>", bindings + "</wsdl:definitions>")


def test_no_tree_outlives_analysis(tmp_path):
    source, padded = padded_catalog()
    assert padded.count("<wsdl:binding ") >= 1000

    def live_elements(text):
        path = tmp_path / "in.wsdl"
        path.write_text(text, "utf-8")
        gc.collect()
        corpus = load_corpus([str(path)])
        assert len(corpus.documents) == 1
        return sum(type(thing) is XmlElement for thing in gc.get_objects())

    assert live_elements(padded) == live_elements(source)


def test_batch_peak_memory_grows_with_input_bytes_not_elements(tmp_path):
    _, padded = padded_catalog()
    paths = []
    for copy in range(40):
        path = tmp_path / f"copy{copy}.wsdl"
        path.write_text(padded, "utf-8")
        paths.append(str(path))

    def peak(files):
        gc.collect()
        tracemalloc.start()
        try:
            corpus = load_corpus(files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus.documents) == len(files)
        return peak

    # each document keeps its bytes and its start tags; a tree of its 1000
    # padding elements would cost several times its bytes again
    extra_bytes = 20 * len(padded.encode("utf-8"))
    assert peak(paths) - peak(paths[:20]) < 3 * extra_bytes
