"""Prefix-preserving XML parsing, and copies spliced from the input bytes.

The annotation writer has to emit WSDL documents whose QName-valued
attributes (``type="tns:categoryDetail"``) still resolve, and has to
produce byte-identical output when run twice on its own output.  A copy
is therefore never serialized from a tree: it is the input's bytes with
text spliced into some start tags (`serialize`), so its encoding,
declaration, quoting, comments and whitespace are the input's own.

The tree is only for analysis and keeps only what ingest and the writer
read: elements alone, each with its expanded name, its attributes as
written (``xmlns`` declarations among them), its prefix map and the byte
offset of its start tag.  The nodes are plain classes with ``__slots__``.
`parse_xml` is the one builder and returns the root.  Its expat handlers
are closures over a local stack; each start tag gets the parent's prefix
map, copied only where the tag declares a namespace, and its expanded
name, resolved once.  QName-valued attribute values are resolved by the
same rule on request.
"""

from __future__ import annotations

import re
import xml.parsers.expat

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"


class MalformedXml(ValueError):
    """Raised when a document cannot be parsed (or is not the expected kind)."""


def _expand(name: str, scope: dict[str, str]) -> tuple[str, str]:
    # the prefix ends at the first colon; an unprefixed name takes the default
    # namespace, as XSD requires, and an undeclared prefix the empty one
    prefix, colon, local = name.partition(":")
    return (scope.get(prefix, ""), local) if colon else (scope.get("", ""), name)


class XmlElement:
    """An element: its attributes as written and its expanded (URI, local) name.

    `children` are its child elements, in document order.  `scope` is the
    in-scope prefix -> URI map, shared with the parent unless the element
    declares a namespace; `qname` is the element's name expanded in it.
    `offset` is the byte offset of the start tag's "<" in the input.
    """

    __slots__ = ("attrs", "children", "scope", "qname", "offset")

    def __init__(self, attrs: dict[str, str], children: list,
                 scope: dict[str, str], qname: tuple[str, str], offset: int):
        self.attrs = attrs
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
        return _expand(value.strip(), self.nsmap())

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
    document = XmlElement({}, [], {"xml": XML_NAMESPACE}, ("", ""), 0)
    stack = [document]
    push, pop = stack.append, stack.pop
    parser = xml.parsers.expat.ParserCreate()

    def start_element(name: str, attrs: dict[str, str]) -> None:
        parent = stack[-1]
        # share the parent's map unless this element declares a namespace
        inherited = scope = parent.scope
        for attr, value in attrs.items():
            if attr == "xmlns" or attr.startswith("xmlns:"):
                if attr == "xmlns:":
                    # not namespace-well-formed; a namespace-aware parser refuses it
                    raise MalformedXml("namespace declaration 'xmlns:' names no prefix")
                if scope is inherited:
                    scope = dict(inherited)
                scope[attr[6:]] = value  # "xmlns"[6:] is "", the default namespace
        element = XmlElement(attrs, [], scope, _expand(name, scope), parser.CurrentByteIndex)
        parent.children.append(element)
        push(element)

    def end_element(name: str) -> None:
        pop()

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
_ATTRIBUTE = re.compile(r"""\s+[^\s=]+\s*=\s*(?:"[^"]*"|'[^']*')""", re.ASCII)


def start_tag(data: bytes, element: XmlElement) -> tuple[int, list[int]]:
    """Byte positions in element's start tag, read from data.

    The first is the end of its last attribute (of its name, when it has
    none); the second lists each attribute value's closing quote, in the
    order of the element's `attrs`.  Exactly the attributes expat listed
    are read, so text after the tag stays text however it looks.  An
    attribute value holds no "<", so the tag is read up to the next one.
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
    for _ in element.attrs:
        at = _ATTRIBUTE.match(text, at).end()
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
