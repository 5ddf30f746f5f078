"""Namespace-aware XML parsing, and copies spliced from the input bytes.

The annotation writer has to emit WSDL documents whose QName-valued
attributes (``type="tns:categoryDetail"``) still resolve, and has to
produce byte-identical output when run twice on its own output.  A copy
is therefore never serialized from a tree: it is the input's bytes with
text spliced into some start tags (`serialize`), so its encoding,
declaration, quoting, comments and whitespace are the input's own.

A document is read exactly when namespace-aware expat reads it and has
no DOCTYPE.  `parse_xml`, the one builder, returns the root of a tree
that keeps only what ingest and the writer read: elements alone, each
with its name and attributes as expat expands them, its namespace
declarations, its prefix map and the byte offset of its start tag.  The
nodes are plain classes with ``__slots__``.  Each start tag gets its
parent's prefix map, copied only where it declares a namespace, in
which QName-valued attribute values are resolved on request.
"""

from __future__ import annotations

import re
import xml.parsers.expat

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"


class MalformedXml(ValueError):
    """Raised when a document cannot be parsed (or is not the expected kind)."""


class XmlElement:
    """An element: its expanded (URI, local) name, attributes and declarations.

    `attrs` maps each attribute to its value, keyed by its name or, when
    prefixed, by expat's "URI local prefix"; `declarations` maps each
    prefix its tag declares ('' is the default namespace) to the URI.
    `children` are its child elements, in document order.  `scope` is the
    in-scope prefix -> URI map, shared with the parent unless the element
    declares a namespace.  `offset` is the byte offset of the tag's "<".
    """

    __slots__ = ("attrs", "declarations", "children", "scope", "qname", "offset")

    def __init__(self, attrs: dict[str, str], declarations: dict[str, str], children: list,
                 scope: dict[str, str], qname: tuple[str, str], offset: int):
        self.attrs = attrs
        self.declarations = declarations
        self.children = children
        self.scope = scope
        self.qname = qname
        self.offset = offset

    def nsmap(self) -> dict[str, str]:
        """In-scope prefix -> URI map ('' is the default namespace).

        The map is computed once, when the document is parsed, and is shared
        with every descendant that declares no namespace of its own, so it
        must not be mutated.
        """
        return self.scope

    def resolve_qname(self, value: str) -> tuple[str, str]:
        """Expand a QName-valued attribute, such as type="tns:Foo", in this scope."""
        # an unprefixed value takes the default namespace, as XSD requires, and
        # an undeclared prefix the empty one
        scope = self.nsmap()
        prefix, colon, local = value.strip().partition(":")
        return (scope.get(prefix, ""), local) if colon else (scope.get("", ""), prefix)

    def find_children(self, namespace: str, local: str) -> list[XmlElement]:
        """Direct element children named (namespace, local), in document order."""
        qname = (namespace, local)
        return [child for child in self.children if child.qname == qname]

    def first_child(self, namespace: str, local: str) -> "XmlElement | None":
        children = self.find_children(namespace, local)
        return children[0] if children else None


def _reject_doctype(name, *_) -> None:
    # entities would be expanded or dropped, and the copy could not keep them
    raise MalformedXml(f"DOCTYPE declarations are not supported (<!DOCTYPE {name}>)")


def parse_xml(data: bytes) -> XmlElement:
    """The root element of the document in data; raises MalformedXml on bad input."""
    # the document is the bottom of the stack: a nameless holder of the root
    document = XmlElement({}, {}, [], {"xml": XML_NAMESPACE}, ("", ""), 0)
    stack = [document]
    push, pop = stack.append, stack.pop
    # names come as "URI local prefix"; expat refuses a URI that holds the
    # separator, so a name with one space is unprefixed in the default namespace
    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")
    parser.namespace_prefixes = True
    declarations = {}  # the next start tag's, reported before it

    def declare(prefix: str | None, uri: str | None) -> None:
        declarations[prefix or ""] = uri or ""

    def start_element(name: str, attrs: dict[str, str]) -> None:
        nonlocal declarations
        parent = stack[-1]
        # share the parent's map unless this element declares a namespace
        scope = {**parent.scope, **declarations} if declarations else parent.scope
        uri, _, local = name.partition(" ")
        qname = (uri, local.partition(" ")[0]) if local else ("", uri)
        element = XmlElement(attrs, declarations, [], scope, qname, parser.CurrentByteIndex)
        declarations = {}
        parent.children.append(element)
        push(element)

    def end_element(name: str) -> None:
        pop()

    parser.StartNamespaceDeclHandler = declare
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.StartDoctypeDeclHandler = _reject_doctype
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise MalformedXml(f"XML parse error: {exc}") from None
    finally:
        # the start handler refers to the parser: a cycle, broken here
        parser.StartElementHandler = None
    # a document that parses has exactly one root element
    return document.children[0]


def _codec(data: bytes) -> str:
    """The codec of data's code units, for the ASCII delimiters and inserted text.

    UTF-16 shows in its byte order mark or in a NUL among the first two
    bytes, which no other encoding expat reads can hold; every other
    encoding it reads is ASCII-compatible, one byte per delimiter.
    """
    if data[:2] == b"\xfe\xff" or data[:1] == b"\0":
        return "utf-16-be"
    if data[:2] == b"\xff\xfe" or data[1:2] == b"\0":
        return "utf-16-le"
    return "latin-1"


# ASCII whitespace only: a name read as Latin-1 may hold "\x85", which is not
_TAG_NAME = re.compile(r"<[^\s/>]+", re.ASCII)
_ATTRIBUTE = re.compile(r"""\s+([^\s=]+)\s*=\s*(?:"[^"]*"|'[^']*')""", re.ASCII)


def start_tag(data: bytes, element: XmlElement) -> tuple[int, list[int]]:
    """Byte positions in element's start tag, read from data.

    The first is the end of its last attribute or declaration (of its
    name, when it has none); the second lists each attribute value's
    closing quote, in the order of the element's `attrs`.  Exactly its
    declarations and attributes are read, so text after the tag stays
    text however it looks; a declaration is told by its ASCII name, xmlns
    or xmlns:...  An attribute value holds no "<", so the tag is read up
    to the next one.
    """
    offset = element.offset
    codec = _codec(data)
    less_than = "<".encode(codec)
    end = data.find(less_than, offset + 1)
    while end > 0 and (end - offset) % len(less_than):  # a "<" unit, not a straddle
        end = data.find(less_than, end + 1)
    text = data[offset:end if end > 0 else len(data)].decode(codec, "surrogatepass")

    def position(index: int) -> int:
        return offset + len(text[:index].encode(codec, "surrogatepass"))

    at = _TAG_NAME.match(text).end()
    quotes = []
    for _ in range(len(element.declarations) + len(element.attrs)):
        item = _ATTRIBUTE.match(text, at)
        at = item.end()
        if item[1].partition(":")[0] != "xmlns":
            quotes.append(position(at - 1))
    return position(at), quotes


def serialize(data: bytes, insertions) -> bytes:
    """data with each (byte offset, ASCII text) insertion spliced in.

    The text is encoded in data's code units, so a copy keeps its input's
    encoding, byte order and byte order mark.
    """
    codec = _codec(data)
    out, at = [], 0
    for offset, text in sorted(insertions):
        out += (data[at:offset], text.encode(codec))
        at = offset
    out.append(data[at:])
    return b"".join(out)
