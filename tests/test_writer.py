import json
import re
import xml.parsers.expat
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from semwsdl.explore import annotate_description
from semwsdl.ingest import SkippedFile, parse_wsdl
from semwsdl.model import (
    Annotation,
    AnnotationEntry,
    AnnotationSource,
    Concept,
    Word,
)
from semwsdl.writer import (
    SAWSDL_NAMESPACE,
    WriterConfig,
    write_report,
    write_sawsdl,
)
from semwsdl.xmlio import parse_xml

from conftest import CORPUS_DIR, ENCODINGS_DIR

PREFIX = "http://www.ontologyportal.org/SUMO.owl#"


def entry(concept, word, source=AnnotationSource.PARAMETER_NAME, path=()):
    return AnnotationEntry(Concept(concept), Word(word), source, path)


def load(name):
    data = (CORPUS_DIR / name).read_bytes()
    return data, parse_wsdl(name, data).description


def write(data, source_id, annotations, config=None):
    return write_sawsdl(parse_wsdl(source_id, data), annotations, config)


def annotation_for(desc, param_name, entries):
    for param in desc.parameters():
        if param.name == param_name:
            return Annotation(param.param_id, tuple(entries))
    raise AssertionError(param_name)


def find_part(root, part_name):
    for element in root.children:
        if element.qname[1] == "part" and element.attrs.get("name") == part_name:
            return element
        found = find_part(element, part_name)
        if found is not None:
            return found
    return None


def test_injects_multiple_uris_space_separated():
    data, desc = load("music_catalog.wsdl")
    ann = annotation_for(desc, "category", [
        entry("Musician", "singer", AnnotationSource.SUBPARAMETER_NAME, ("singer",)),
        entry("ComposingMusic", "composer", AnnotationSource.SUBPARAMETER_NAME,
              ("composer",)),
    ])
    output = write(data, desc.source_id, [ann])
    root = parse_xml(output)
    assert any(v == SAWSDL_NAMESPACE for k, v in root.attrs.items()
               if k.startswith("xmlns:"))
    part = find_part(root, "category")
    value = part.attrs["sawsdl:modelReference"]
    assert value == f"{PREFIX}Musician {PREFIX}ComposingMusic"
    # the untouched sibling part carries no annotation
    other = find_part(root, "result")
    assert not any("modelReference" in k for k in other.attrs)


def test_duplicate_concepts_collapse_to_one_uri():
    data, desc = load("music_catalog.wsdl")
    ann = annotation_for(desc, "category", [
        entry("Class", "category"),
        entry("Class", "category", AnnotationSource.TYPE_NAME),
    ])
    output = write(data, desc.source_id, [ann])
    part = find_part(parse_xml(output), "category")
    assert part.attrs["sawsdl:modelReference"] == f"{PREFIX}Class"


def test_no_annotations_changes_only_the_declaration():
    data, desc = load("music_catalog.wsdl")
    empty = [Annotation(p.param_id) for p in desc.parameters()]
    output = write(data, desc.source_id, empty)
    assert b"modelReference" not in output
    root = parse_xml(output)
    assert root.attrs["xmlns:sawsdl"] == SAWSDL_NAMESPACE


def test_unannotated_parameters_need_no_annotation_objects():
    data, desc = load("music_catalog.wsdl")
    assert write(data, desc.source_id, []) == write(
        data, desc.source_id, [Annotation(p.param_id) for p in desc.parameters()])


def test_injection_is_idempotent():
    data, desc = load("user_service.wsdl")
    ann = annotation_for(desc, "UserName", [entry("HoldsRight", "name")])
    first = write(data, desc.source_id, [ann])
    # the annotated copy still parses as the same service, so a second
    # pass over it must change nothing
    second = write(first, desc.source_id, [ann])
    assert first == second


def test_annotated_copy_reingests_identically(fixture_corpus, search_config, demo_lexicon):
    for desc in fixture_corpus.descriptions:
        data = Path(desc.source_id).read_bytes()
        annotations = annotate_description(
            desc, search_config, demo_lexicon)
        output = write(data, desc.source_id, annotations)
        again = parse_wsdl(desc.source_id, output).description
        assert again.operations == desc.operations
        assert again.types == desc.types


def test_element_style_annotation_lands_on_the_element():
    data, desc = load("bank_transfer.wsdl")
    ann = annotation_for(desc, "TransferRequest", [
        entry("CurrencyMeasure", "amount", AnnotationSource.SUBPARAMETER_NAME,
              ("amount",))])
    root = parse_xml(write(data, desc.source_id, [ann]))
    carriers = [
        element for element in _walk(root)
        if any("modelReference" in name for name in element.attrs)
    ]
    assert len(carriers) == 1
    carrier = carriers[0]
    assert carrier.qname[1] == "element"
    assert carrier.attrs["name"] == "TransferRequest"


def _walk(element):
    yield element
    for child in element.children:
        yield from _walk(child)


def test_existing_model_reference_is_merged():
    data, desc = load("music_catalog.wsdl")
    ann = annotation_for(desc, "category", [entry("Class", "category")])
    first = write(data, desc.source_id, [ann])
    desc2 = parse_wsdl("music_catalog.wsdl", first).description
    ann2 = annotation_for(desc2, "category", [entry("Collection", "category")])
    second = write(first, desc2.source_id, [ann2])
    part = find_part(parse_xml(second), "category")
    assert part.attrs["sawsdl:modelReference"] == f"{PREFIX}Class {PREFIX}Collection"


def test_foreign_prefix_for_sawsdl_is_reused():
    data = f"""<?xml version="1.0"?>
<wsdl:definitions targetNamespace="urn:t"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:sem="{SAWSDL_NAMESPACE}"
    xmlns:tns="urn:t">
  <wsdl:message name="In">
    <wsdl:part name="city" type="xsd:string" sem:modelReference="urn:old#Kept"/>
  </wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Go"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>""".encode()
    desc = parse_wsdl("pre.wsdl", data).description
    ann = annotation_for(desc, "city", [entry("City", "city")])
    output = write(data, desc.source_id, [ann])
    part = find_part(parse_xml(output), "city")
    assert part.attrs["sem:modelReference"] == f"urn:old#Kept {PREFIX}City"
    assert "sawsdl:modelReference" not in part.attrs


SHADOWING = """<?xml version="1.0"?>
<wsdl:definitions targetNamespace="urn:t"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"{root_attrs}
    xmlns:tns="urn:t">
  <wsdl:message name="In"{message_attrs}>
    <wsdl:part name="city" type="xsd:string"{part_attrs}/>
  </wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Go"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>"""


@pytest.mark.parametrize("message_attrs, part_attrs", [
    (' xmlns:sawsdl="urn:other"', ""),
    ("", ' xmlns:sawsdl="urn:other"'),
    # a modelReference under a prefix the document never declares is not SAWSDL's
    ("", ' sem:modelReference="urn:old#Unbound"'),
    # the default namespace does not apply to attributes, so it offers no prefix
    (f' xmlns:sawsdl="urn:other" xmlns="{SAWSDL_NAMESPACE}"', ""),
], ids=["shadowed-on-message", "shadowed-on-part", "undeclared-prefix",
        "shadowed-under-default-sawsdl"])
def test_model_reference_resolves_to_sawsdl(message_attrs, part_attrs):
    data = SHADOWING.format(root_attrs=f' xmlns:sawsdl="{SAWSDL_NAMESPACE}"',
                            message_attrs=message_attrs, part_attrs=part_attrs).encode()
    parsed = parse_wsdl("shadow.wsdl", data)
    ann = annotation_for(parsed.description, "city", [entry("City", "city")])
    first = write_sawsdl(parsed, [ann])
    assert write_sawsdl(parsed, [ann]) == first
    assert write(first, "shadow.wsdl", [ann]) == first
    part = find_part(parse_xml(first), "city")
    references = [name for name in part.attrs if name.endswith(":modelReference")
                  and part.resolve_qname(name)[0] == SAWSDL_NAMESPACE]
    assert [part.attrs[name] for name in references] == [f"{PREFIX}City"]
    assert not any(name.startswith(":") for name in part.attrs)


@pytest.mark.parametrize("root_attrs, declarations, attr_name", [
    ("", ["xmlns:sawsdl"], "sawsdl:modelReference"),
    (' xmlns:sawsdl="urn:other"', ["xmlns:sawsdl1"], "sawsdl1:modelReference"),
    # the first binding wins, also over the reserved xml prefix bound after it
    (f' xmlns:a="{SAWSDL_NAMESPACE}" xmlns:xml="{SAWSDL_NAMESPACE}"',
     ["xmlns:a", "xmlns:xml"], "a:modelReference"),
], ids=["undeclared", "sawsdl-taken", "xml-after-a"])
def test_writing_one_tree_twice(root_attrs, declarations, attr_name):
    data = SHADOWING.format(root_attrs=root_attrs, message_attrs="", part_attrs="").encode()
    parsed = parse_wsdl("root.wsdl", data)
    ann = annotation_for(parsed.description, "city", [entry("City", "city")])
    first = write_sawsdl(parsed, [ann])
    assert write_sawsdl(parsed, [ann]) == first
    root = parse_xml(first)
    assert [name for name, value in root.attrs.items()
            if name.startswith("xmlns:") and value == SAWSDL_NAMESPACE] == declarations
    part = find_part(root, "city")
    assert [name for name in part.attrs if name.endswith(":modelReference")] == [attr_name]
    assert part.attrs[attr_name] == f"{PREFIX}City"


WSDL_NAMESPACE = "http://schemas.xmlsoap.org/wsdl/"
# sawsdl and sawsdl1 are the writer's own prefixes; binding them elsewhere
# makes it pick another one
ROUND_TRIP_PREFIXES = ["", "a", "sawsdl", "sawsdl1"]
ROUND_TRIP_URIS = ["urn:one", "urn:two", SAWSDL_NAMESPACE]
TEXT_PIECES = ["x", "é", " ", "\n", "\r\n", "\r", "\t", "&amp;", "&lt;", "&gt;",
               "&quot;", "&#13;", "&#9;", "&#10;", "]]", ">", "'", '"', "-"]
CDATA_PIECES = ["x", "<", "&", "&amp;", "]", "\r\n", "\r"]
XML_DECLARATIONS = ['<?xml version="1.0"?>\n', '<?xml version="1.0" encoding="UTF-8"?>', ""]


@st.composite
def round_trip_documents(draw):
    """WSDL documents full of what a copy must keep: every node kind,
    character references, line ends, prolog and epilog nodes, shadowed prefixes."""

    def text(pieces=TEXT_PIECES):
        return "".join(draw(st.lists(st.sampled_from(pieces), max_size=6)))

    def misc():
        kind = draw(st.sampled_from(["comment", "pi", "space"]))
        if kind == "comment":
            return f"<!--{text(TEXT_PIECES[:-1])}-->"  # no "-": "--" ends a comment
        if kind == "pi":
            return f"<?pi{draw(st.integers(0, 2))} {text()}?>"
        return text([" ", "\n", "\t"])

    def declarations(scope):
        declared = draw(st.dictionaries(st.sampled_from(ROUND_TRIP_PREFIXES),
                                        st.sampled_from(ROUND_TRIP_URIS), max_size=2))
        scope.update(declared)
        return "".join(f' xmlns:{p}="{uri}"' if p else f' xmlns="{uri}"'
                       for p, uri in declared.items())

    def content(scope, depth):
        nodes = []
        for kind in draw(st.lists(st.sampled_from(
                ["text", "cdata", "misc", "element"] if depth < 3 else ["text", "misc"]),
                max_size=4)):
            if kind == "text":
                nodes.append(text())
            elif kind == "cdata":
                nodes.append(f"<![CDATA[{text(CDATA_PIECES)}]]>")
            elif kind == "misc":
                nodes.append(misc())
            else:
                inner = dict(scope)
                attrs = declarations(inner)
                prefix = draw(st.sampled_from(ROUND_TRIP_PREFIXES))
                if prefix and prefix not in inner:
                    inner[prefix] = draw(st.sampled_from(ROUND_TRIP_URIS))
                    attrs += f' xmlns:{prefix}="{inner[prefix]}"'
                name = f"{prefix}:e{depth}" if prefix else f"e{depth}"
                usable = ["v", *(f"{p}:v" for p in ("a", "sawsdl") if p in inner)]
                for attr in draw(st.lists(st.sampled_from(usable), max_size=2, unique=True)):
                    attrs += f' {attr}="{text()}"'.replace("<", "&lt;")
                nodes.append(f"<{name}{attrs}>{''.join(content(inner, depth + 1))}</{name}>")
        return nodes

    scope = {"w": WSDL_NAMESPACE}
    root_attrs = declarations(scope)
    body = "".join(content(scope, 0))
    document = (
        draw(st.sampled_from(XML_DECLARATIONS))
        + "".join(misc() for _ in range(draw(st.integers(0, 2))))
        + f'<w:definitions xmlns:w="{WSDL_NAMESPACE}" targetNamespace="urn:t"{root_attrs}>'
        + '<w:message name="In"><w:part name="q" type="x"/></w:message>'
        + body + "</w:definitions>"
        + "".join(misc() for _ in range(draw(st.integers(0, 2)))))
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return document.replace("\n", line_end).encode()


def expat_events(data):
    """Namespace-aware expat's events, adjacent text runs merged."""
    events = []

    def text(data):
        if events and events[-1][0] == "text":
            events[-1] = ("text", events[-1][1] + data)
        else:
            events.append(("text", data))

    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")
    parser.ordered_attributes = True
    parser.StartElementHandler = lambda name, attrs: events.append(("start", name, attrs))
    parser.EndElementHandler = lambda name: events.append(("end", name))
    parser.CharacterDataHandler = text
    parser.CommentHandler = lambda data: events.append(("comment", data))
    parser.ProcessingInstructionHandler = lambda target, data: events.append(
        ("pi", target, data))
    parser.Parse(data, True)
    return events


@settings(max_examples=300, deadline=None)
@given(round_trip_documents())
def test_unannotated_copy_keeps_the_document(data):
    try:
        source = expat_events(data)
    except xml.parsers.expat.ExpatError:
        assume(False)
    copy = write_sawsdl(parse_wsdl("doc.wsdl", data), [])
    # nothing before the root's start tag holds "<", and the generator
    # writes that tag's attributes last, right before its ">"
    tag_end = data.index(b">", data.index(b"<w:definitions "))
    declared = dict(re.findall(r'xmlns:(\w+)="([^"]*)"', data[:tag_end].decode()))
    if SAWSDL_NAMESPACE in declared.values():
        expected = data
    else:
        prefix = next(p for p in ("sawsdl", "sawsdl1", "sawsdl2") if p not in declared)
        declaration = f' xmlns:{prefix}="{SAWSDL_NAMESPACE}"'.encode()
        expected = data[:tag_end] + declaration + data[tag_end:]
    assert copy == expected
    assert expat_events(copy) == source
    assert write(copy, "doc.wsdl", []) == copy


def test_attribute_escaping_round_trips():
    # inserted text is ASCII: whatever else a URI holds becomes a character reference
    data, desc = load("music_catalog.wsdl")
    odd = "a\"b<c>&'é\U0001F600"
    ann = annotation_for(desc, "category", [entry(odd, "category")])
    output = write(data, desc.source_id, [ann])
    assert data.isascii() and output.isascii()
    part = find_part(parse_xml(output), "category")
    assert part.attrs["sawsdl:modelReference"] == PREFIX + odd
    assert write(output, desc.source_id, [ann]) == output


def test_non_ascii_prefix_for_sawsdl_is_not_reused_for_a_new_attribute():
    data = SHADOWING.format(root_attrs=f' xmlns:é="{SAWSDL_NAMESPACE}"', message_attrs="",
                            part_attrs="").encode("latin-1").replace(
        b'<?xml version="1.0"?>', b'<?xml version="1.0" encoding="ISO-8859-1"?>')
    parsed = parse_wsdl("latin.wsdl", data)
    ann = annotation_for(parsed.description, "city", [entry("City", "city")])
    output = write_sawsdl(parsed, [ann])
    assert output == data.replace(
        b'xmlns:tns="urn:t">',
        f'xmlns:tns="urn:t" xmlns:sawsdl="{SAWSDL_NAMESPACE}">'.encode()).replace(
        b'type="xsd:string"/>',
        f'type="xsd:string" sawsdl:modelReference="{PREFIX}City"/>'.encode())


def test_existing_model_reference_under_a_non_ascii_prefix_is_merged():
    data = SHADOWING.format(root_attrs=f' xmlns:é="{SAWSDL_NAMESPACE}"', message_attrs="",
                            part_attrs=' é:modelReference="urn:old#Kept"').encode()
    parsed = parse_wsdl("utf8.wsdl", data)
    ann = annotation_for(parsed.description, "city", [entry("City", "city")])
    output = write_sawsdl(parsed, [ann])
    assert output == data.replace(
        b'xmlns:tns="urn:t">',
        f'xmlns:tns="urn:t" xmlns:sawsdl="{SAWSDL_NAMESPACE}">'.encode()).replace(
        b'"urn:old#Kept"', f'"urn:old#Kept {PREFIX}City"'.encode())
    assert write(output, "utf8.wsdl", [ann]) == output


def without_model_references(events):
    """expat_events with every SAWSDL modelReference attribute left out."""
    reference = f"{SAWSDL_NAMESPACE} modelReference"
    kept = []
    for event in events:
        if event[0] == "start":
            attrs = event[2]
            event = ("start", event[1], [item for pair in zip(attrs[::2], attrs[1::2])
                                         if pair[0] != reference for item in pair])
        kept.append(event)
    return kept


@pytest.mark.parametrize("name, codec", [
    ("utf16le_bom.wsdl", "utf-16-le"),
    ("utf16be_bom.wsdl", "utf-16-be"),
    ("latin1.wsdl", "latin-1"),
    ("utf8_bom.wsdl", "utf-8"),
])
def test_copy_keeps_the_input_encoding(name, codec, search_config, demo_lexicon):
    data = (ENCODINGS_DIR / name).read_bytes()
    parsed = parse_wsdl(name, data)
    copy = write_sawsdl(parsed, annotate_description(parsed.description, search_config,
                                                     demo_lexicon))
    # the inserted text is encoded like the input, whose byte order mark
    # (U+FEFF) and non-ASCII name both decode from the copy unchanged
    text, copied = data.decode(codec), copy.decode(codec)
    assert ("Paßwort" in text) and (text[0] == "\ufeff") == (codec != "latin-1")
    inserted = re.compile(' (?:xmlns:sawsdl|sawsdl:modelReference)="[^"]*"')
    assert len(inserted.findall(copied)) == 2
    assert inserted.sub("", copied) == text
    assert without_model_references(expat_events(copy)) == expat_events(data)


def test_custom_uri_prefix():
    data, desc = load("music_catalog.wsdl")
    ann = annotation_for(desc, "category", [entry("Class", "category")])
    config = WriterConfig(uri_prefix="https://onto.example/x#")
    output = write(data, desc.source_id, [ann], config)
    assert b"https://onto.example/x#Class" in output
    with pytest.raises(ValueError):
        WriterConfig(uri_prefix="no-scheme")
    with pytest.raises(ValueError):  # a derived config is checked like a new one
        WriterConfig()._replace(uri_prefix="x")


def test_report_summary_arithmetic():
    _, desc = load("music_catalog.wsdl")
    params = list(desc.parameters())
    annotations = [
        Annotation(params[0].param_id, (entry("Class", "category"),)),
        Annotation(params[1].param_id),
    ]
    payload = json.loads(write_report(annotations, [desc]))
    assert payload["summary"] == {
        "total": 2, "annotated": 1, "rate": 0.5,
        "inputs": {"total": 1, "annotated": 1, "rate": 1.0},
        "outputs": {"total": 1, "annotated": 0, "rate": 0.0},
    }
    first, second = payload["parameters"]
    assert first["status"] == "annotated"
    assert first["entries"] == [{
        "concept": "Class", "ontology": "SUMO", "word": "category",
        "source": "parameter_name", "path": [], "depth": 0,
    }]
    assert second["status"] == "failed"
    assert second["entries"] == []
    assert payload["skipped"] == []


def test_report_empty_batch_has_zero_rate():
    payload = json.loads(write_report([], []))
    assert payload["summary"]["total"] == 0
    assert payload["summary"]["rate"] == 0.0


def test_report_lists_skipped_files():
    payload = json.loads(write_report([], [], [SkippedFile("x.wsdl", "broken")]))
    assert payload["skipped"] == [{"path": "x.wsdl", "error": "broken"}]


def test_report_bytes_are_deterministic():
    _, desc = load("music_catalog.wsdl")
    annotations = [Annotation(p.param_id) for p in desc.parameters()]
    assert write_report(annotations, [desc]) == write_report(annotations, [desc])

