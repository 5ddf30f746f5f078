import re
import xml.parsers.expat

import pytest
from hypothesis import given, settings, strategies as st

from semwsdl.xmlio import XML_NAMESPACE, MalformedXml, parse_xml, serialize, start_tag

SAMPLE = b"""<?xml version="1.0" encoding="UTF-8"?>
<a:root xmlns:a="urn:alpha" xmlns:b="urn:beta" b:flag="1">
  <a:child attr="v&amp;w">text &lt;here&gt;</a:child>
  <!-- a note -->
  <plain xmlns="urn:default"><inner/></plain>
</a:root>
"""


def test_names_and_prefixes_kept_as_written():
    root = parse_xml(SAMPLE)
    assert root.qname == ("urn:alpha", "root")
    # declarations are not attributes; a prefixed attribute is keyed by
    # namespace-aware expat's "URI local prefix"
    assert root.declarations == {"a": "urn:alpha", "b": "urn:beta"}
    assert root.attrs == {"urn:beta flag b": "1"}
    children = root.children
    assert children[0].qname == ("urn:alpha", "child")
    assert children[0].attrs == {"attr": "v&w"}


def test_qname_resolution_with_default_namespace():
    root = parse_xml(SAMPLE)
    plain = root.children[1]
    assert plain.qname == ("urn:default", "plain")
    inner = plain.children[0]
    assert inner.qname == ("urn:default", "inner")
    assert root.qname == ("urn:alpha", "root")


def test_resolve_qname_value_uses_scope():
    child = parse_xml(b'<r xmlns:t="urn:t"><c type="t:Foo"/></r>').children[0]
    assert child.resolve_qname(child.attrs["type"]) == ("urn:t", "Foo")
    # unprefixed attribute values resolve through the default namespace
    child2 = parse_xml(b'<r xmlns="urn:d"><c type="Foo"/></r>').children[0]
    assert child2.resolve_qname("Foo") == ("urn:d", "Foo")


def test_nested_prefix_redefinition():
    root = parse_xml(b'<r xmlns:p="urn:one"><p:mid xmlns:p="urn:two"><p:leaf/></p:mid></r>')
    mid = root.children[0]
    leaf = mid.children[0]
    assert mid.qname == ("urn:two", "mid")
    assert leaf.qname == ("urn:two", "leaf")
    # a declaration copies the map; an element without one shares its parent's
    assert mid.nsmap() is not root.nsmap()
    assert leaf.nsmap() is mid.nsmap()


def test_serialization_is_stable_after_one_round():
    # a copy is its input spliced: no insertion gives the input back
    assert serialize(SAMPLE, []) == SAMPLE
    root = parse_xml(SAMPLE)
    child = root.children[0]
    first = serialize(SAMPLE, [(start_tag(SAMPLE, child)[0], ' n="1"')])
    assert b'<a:child attr="v&amp;w" n="1">text &lt;here&gt;</a:child>' in first
    assert serialize(first, []) == first
    assert parse_xml(first).attrs == root.attrs


def test_comment_and_pi_survive_round_trip():
    source = b'<?xml version="1.0"?>\n<?style sheet?>\n<r><!--inside--><x/></r>\n<!--after-->\n'
    root = parse_xml(source)
    out = serialize(source, [(start_tag(source, root)[0], ' n="1"')])
    assert out == source.replace(b"<r>", b'<r n="1">')


def test_top_level_nodes_keep_their_order_and_whitespace():
    source = (b'<?xml version="1.0"?>\n  <!-- before -->\n<?first a b?>\n\n'
              b'<r> <x/> </r>\n<?last?>  <!--after-->\n\t\n')
    root = parse_xml(source)
    assert source[root.offset:root.offset + 4] == b"<r> "
    out = serialize(source, [(start_tag(source, root)[0], ' n="1"')])
    assert out == source.replace(b"<r>", b'<r n="1">')


def test_empty_element_forms_are_kept():
    for source in (b"<r><a></a></r>", b"<r><a/></r>", b"<r><a  /></r>"):
        a = parse_xml(source).children[0]
        out = serialize(source, [(start_tag(source, a)[0], ' n="1"')])
        assert out == source.replace(b"<a", b'<a n="1"')


def test_tree_holds_elements_only():
    root = parse_xml(b"<r>one &amp; two<!--c--><?p?><x/>three</r>")
    assert [child.qname for child in root.children] == [("", "x")]


@pytest.mark.parametrize("tag, end, quotes", [
    ("<a>", 2, []),
    ("<a/>", 2, []),
    ("<p:a\n/>", 4, []),
    ("<a x='1' y = \"a>b\"  >", 18, [7, 17]),
    ("<a\tx=\"\"\r\n/>", 7, [6]),
    ("<a é='1'>", 9, [8]),  # positions count bytes
    # text after the tag stays text, however much it looks like an attribute
    ("<a x='1' >k=\"v\"", 8, [7]),
    ("<a x='1'/>k=\"v\"", 8, [7]),
    ("<a x='1' />k=\"v\"", 8, [7]),
    # a declaration is read, but lists no quote: it is not in attrs
    ("<a x='1' xmlns:p='u' p:y=\"2\" xmlns='v'>", 38, [7, 27]),
])
def test_start_tag_positions(tag, end, quotes):
    root = '<r xmlns:p="urn:p">'
    data = f"{root}{tag}{'' if '/>' in tag else '</a>'}</r>".encode()
    a = parse_xml(data).children[0]
    assert a.offset == len(root)
    assert start_tag(data, a) == (len(root) + end, [len(root) + quote for quote in quotes])


@pytest.mark.parametrize("encoding, prolog, value", [
    ("utf-8", "", "\U0001F600"),
    ("utf-8", "\ufeff", "\U0001F600"),
    # the bytes of "Ā㰀Ā" hold a "<" that straddles two UTF-16 units
    ("utf-16-le", "\ufeff", "Ā㰀Ā\U0001F600"),
    ("utf-16-be", "\ufeff", "Ā㰀Ā\U0001F600"),
    ("utf-16-le", "", "Ā㰀Ā"),
    ("latin-1", '<?xml version="1.0" encoding="ISO-8859-1"?>', "ÿ"),
])
def test_offsets_and_splices_are_in_the_input_code_units(encoding, prolog, value):
    text = f'{prolog}<r é="1"><a x="{value}"/></r>'
    source = text.encode(encoding)
    root = parse_xml(source)
    a = root.children[0]
    out = serialize(source, [(start_tag(source, root)[0], ' n="1"'),
                             (start_tag(source, a)[1][0], "!")])
    expected = text.replace('é="1"', 'é="1" n="1"').replace('"/>', '!"/>')
    assert out == expected.encode(encoding)
    assert parse_xml(out).attrs == {"é": "1", "n": "1"}


def test_bom_is_tolerated():
    root = parse_xml(b"\xef\xbb\xbf<r/>")
    assert root.qname == ("", "r")
    # offsets index the bytes as read, the byte order mark among them
    assert root.offset == 3


def test_malformed_raises():
    with pytest.raises(MalformedXml):
        parse_xml(b"<r><unclosed></r>")
    with pytest.raises(MalformedXml):
        parse_xml(b"not xml at all")
    with pytest.raises(MalformedXml):
        parse_xml(b"")


def test_doctype_is_refused_before_entities_expand():
    # a billion-laughs bomb: expat's amplification limit would stop it too,
    # but only after seconds of expansion and with another message
    entities = ['<!ENTITY e0 "xxxxxxxxxx">'] + [
        f'<!ENTITY e{level} "{f"&e{level - 1};" * 10}">' for level in range(1, 10)]
    bomb = f'<!DOCTYPE r [{"".join(entities)}]><r>&e9;</r>'.encode()
    with pytest.raises(MalformedXml, match="DOCTYPE"):
        parse_xml(bomb)


@pytest.mark.parametrize("data", [
    b'<r xmlns:="http://www.w3.org/ns/sawsdl"/>',
    b'<r><c xmlns:="urn:x"/></r>',
])
def test_xmlns_colon_with_no_prefix_is_refused(data):
    # namespace-aware expat refuses it, so a copy must never carry it
    with pytest.raises(xml.parsers.expat.ExpatError):
        xml.parsers.expat.ParserCreate(namespace_separator=" ").Parse(data, True)
    with pytest.raises(MalformedXml, match=r"^XML parse error: not well-formed \(invalid token\)"):
        parse_xml(data)


PREFIXES = ["a", "b", "c"]
URIS = ["urn:one", "urn:two", "urn:three"]


@st.composite
def namespaced_documents(draw):
    """Nested elements that declare, redeclare, shadow and undeclare prefixes."""

    def element(scope, depth):
        declared = draw(st.dictionaries(st.sampled_from(["", *PREFIXES]),
                                        st.sampled_from(["", *URIS]), max_size=3))
        # only the default namespace may be undeclared (xmlns=""), not a prefix
        declared = {prefix: uri for prefix, uri in declared.items() if uri or not prefix}
        scope = {**scope, **declared}
        prefix = draw(st.sampled_from(["", *PREFIXES]))
        if prefix and prefix not in scope:
            declared[prefix] = scope[prefix] = draw(st.sampled_from(URIS))
        attrs = "".join(f' xmlns:{p}="{uri}"' if p else f' xmlns="{uri}"'
                        for p, uri in declared.items())
        name = f"{prefix}:e{depth}" if prefix else f"e{depth}"
        count = draw(st.integers(0, 3)) if depth < 4 else 0
        children = "".join(element(scope, depth + 1) for _ in range(count))
        return f"<{name}{attrs}>{children}</{name}>"

    return element({}, 0).encode()


def expat_names(data):
    """Every element's (namespace, local) as namespace-aware expat resolves it."""
    names = []

    def start(name, attrs):
        uri, _, local = name.rpartition(" ")
        names.append((uri, local))

    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")
    parser.StartElementHandler = start
    parser.Parse(data, True)
    return names


def tree_names(data):
    """Every element's qname in parse_xml's tree, in document order."""
    resolved = []
    pending = [parse_xml(data)]
    while pending:
        element = pending.pop()
        resolved.append(element.qname)
        pending.extend(reversed(element.children))
    return resolved


@settings(max_examples=100, deadline=None)
@given(namespaced_documents())
def test_qnames_match_namespace_aware_expat(data):
    assert tree_names(data) == expat_names(data)


@st.composite
def loosely_namespaced_documents(draw):
    """Nested elements that may break Namespaces in XML: prefixes left
    unbound, undeclared or named twice in one name, reserved prefixes
    declared, and attributes whose prefixes expand to one name.  Each
    fault is one draw among several good ones, so many documents hold none."""

    def element(depth):
        declarations = draw(st.dictionaries(
            st.sampled_from(["xmlns", *["xmlns:a", "xmlns:b"] * 4,
                             "xmlns:", "xmlns:xml", "xmlns:xmlns"]),
            st.sampled_from(["urn:one", "urn:two"] * 4 + ["", XML_NAMESPACE]), max_size=2))
        attributes = dict.fromkeys(draw(st.lists(
            st.sampled_from(["k"] * 4 + ["a:k", "b:k", "c:k", "xml:k"]), max_size=2, unique=True)),
            "v")
        items = draw(st.permutations(list({**declarations, **attributes}.items())))
        prefix = draw(st.sampled_from([""] * 6 + ["a:", "b:", "c:", "a:b:"]))
        name = f"{prefix}e{depth}"
        count = draw(st.integers(0, 2)) if depth < 2 else 0
        children = "".join(element(depth + 1) for _ in range(count))
        written = "".join(f' {item}="{value}"' for item, value in items)
        return f"<{name}{written}>{children}</{name}>"

    return element(0).encode()


@settings(max_examples=300, deadline=None)
@given(loosely_namespaced_documents())
def test_a_document_parses_exactly_when_namespace_aware_expat_parses_it(data):
    try:
        expected = expat_names(data)
    except xml.parsers.expat.ExpatError as exc:
        with pytest.raises(MalformedXml, match=f"^XML parse error: {re.escape(str(exc))}$"):
            parse_xml(data)
    else:
        assert tree_names(data) == expected
