"""Prefix-preserving XML parsing and serialization built on expat.

The annotation writer has to re-emit WSDL documents whose QName-valued
attributes (``type="tns:categoryDetail"``) still resolve after a round
trip, and has to produce byte-identical output when run twice on its own
output.  ``xml.etree`` rewrites namespace prefixes and drops the original
declarations on serialization, which breaks both requirements, so this
module keeps its own lightweight tree: element and attribute names exactly
as written, ``xmlns`` declarations as ordinary attributes, and children as
an ordered mix of text runs and nodes.  Each element's expanded name is
resolved once, when the tree is built; QName-valued attribute values are
resolved by the same rule on request.
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass, field

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"

_UTF8_BOM = b"\xef\xbb\xbf"


class MalformedXml(ValueError):
    """Raised when a document cannot be parsed (or is not the expected kind)."""


@dataclass(eq=False)
class Comment:
    text: str


@dataclass(eq=False)
class ProcessingInstruction:
    target: str
    data: str


def _expand(name: str, scope: dict[str, str]) -> tuple[str, str]:
    # the prefix ends at the first colon; an unprefixed name takes the default
    # namespace, as XSD requires, and an undeclared prefix the empty one
    prefix, colon, local = name.partition(":")
    return (scope.get(prefix, ""), local) if colon else (scope.get("", ""), name)


@dataclass(eq=False)
class XmlElement:
    """An element with names as written; `qname` is its expanded (URI, local) name."""

    name: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list = field(default_factory=list)
    scope: dict[str, str] = field(default_factory=lambda: {"xml": XML_NAMESPACE},
                                  repr=False)
    qname: tuple[str, str] = field(init=False)

    def __post_init__(self):
        self.qname = _expand(self.name, self.scope)

    def nsmap(self) -> dict[str, str]:
        """In-scope prefix -> URI map ('' is the default namespace).

        The map is computed once, when the document is parsed, and is shared
        with every descendant that declares no namespace of its own, so it
        must not be mutated.  Declarations added to attrs afterwards are not
        in it.
        """
        return self.scope

    def resolve_qname(self, value: str) -> tuple[str, str]:
        """Expand a QName-valued attribute, such as type="tns:Foo", in this scope."""
        return _expand(value.strip(), self.nsmap())

    def iter_elements(self):
        """Direct element children, in document order."""
        for child in self.children:
            if isinstance(child, XmlElement):
                yield child

    def find_children(self, namespace: str, local: str) -> list[XmlElement]:
        """Direct element children named (namespace, local), in document order."""
        return [child for child in self.iter_elements() if child.qname == (namespace, local)]

    def first_child(self, namespace: str, local: str) -> "XmlElement | None":
        children = self.find_children(namespace, local)
        return children[0] if children else None


@dataclass(eq=False)
class XmlDocument:
    root: XmlElement
    prolog: list = field(default_factory=list)
    epilog: list = field(default_factory=list)


class _TreeBuilder:
    def __init__(self, document: XmlElement):
        # the document is the bottom of the stack: a nameless holder of the
        # root element and of the comments and PIs around it
        self._stack = [document]

    def start_element(self, name: str, attrs: dict[str, str]) -> None:
        # share the parent's map unless this element declares a namespace
        inherited = scope = self._stack[-1].scope
        for attr, value in attrs.items():
            if attr == "xmlns" or attr.startswith("xmlns:"):
                if attr == "xmlns:":
                    # not namespace-well-formed; a namespace-aware parser refuses it
                    raise MalformedXml("namespace declaration 'xmlns:' names no prefix")
                if scope is inherited:
                    scope = dict(inherited)
                scope[attr[6:]] = value  # "xmlns"[6:] is "", the default namespace
        element = XmlElement(name, attrs, [], scope)
        self._stack[-1].children.append(element)
        self._stack.append(element)

    def end_element(self, name: str) -> None:
        self._stack.pop()

    def character_data(self, data: str) -> None:
        # expat reports no character data outside the root element
        children = self._stack[-1].children
        if children and isinstance(children[-1], str):
            children[-1] += data
        else:
            children.append(data)

    def comment(self, data: str) -> None:
        self._stack[-1].children.append(Comment(data))

    def processing_instruction(self, target: str, data: str) -> None:
        self._stack[-1].children.append(ProcessingInstruction(target, data))


def _reject_doctype(name, *_) -> None:
    # entities would be expanded or dropped, and the copy could not keep them
    raise MalformedXml(f"DOCTYPE declarations are not supported (<!DOCTYPE {name}>)")


def parse_xml(data: bytes) -> XmlDocument:
    """Parse bytes into an XmlDocument; raises MalformedXml on bad input."""
    if data.startswith(_UTF8_BOM):
        data = data[len(_UTF8_BOM):]
    document = XmlElement("")
    builder = _TreeBuilder(document)
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = builder.start_element
    parser.EndElementHandler = builder.end_element
    parser.CharacterDataHandler = builder.character_data
    parser.CommentHandler = builder.comment
    parser.ProcessingInstructionHandler = builder.processing_instruction
    parser.StartDoctypeDeclHandler = _reject_doctype
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise MalformedXml(f"XML parse error: {exc}") from None
    nodes = document.children
    at = next((i for i, node in enumerate(nodes) if isinstance(node, XmlElement)), None)
    if at is None:
        raise MalformedXml("document has no root element")
    return XmlDocument(root=nodes[at], prolog=nodes[:at], epilog=nodes[at + 1:])


def _escape_text(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return value.replace("\r", "&#13;")


def _escape_attr(value: str) -> str:
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    value = value.replace('"', "&quot;")
    # literal whitespace in attribute values would be normalized away on reparse
    return value.replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


def _write_node(node, out: list[str]) -> None:
    # each open element waits on an explicit stack with the iterator over its
    # remaining siblings, so nesting depth is not bounded by recursion
    open_elements: list = []
    siblings = iter((node,))
    while True:
        for node in siblings:
            if isinstance(node, XmlElement):
                out.append(f"<{node.name}")
                for name, value in node.attrs.items():
                    out.append(f' {name}="{_escape_attr(value)}"')
                if node.children:
                    out.append(">")
                    open_elements.append((node.name, siblings))
                    siblings = iter(node.children)
                    break
                out.append("/>")
            elif isinstance(node, str):
                out.append(_escape_text(node))
            elif isinstance(node, Comment):
                out.append(f"<!--{node.text}-->")
            else:
                data = f" {node.data}" if node.data else ""
                out.append(f"<?{node.target}{data}?>")
        else:
            if not open_elements:
                return
            name, siblings = open_elements.pop()
            out.append(f"</{name}>")


def serialize(document: XmlDocument) -> bytes:
    """Serialize deterministically: UTF-8, fixed declaration, stable escaping."""
    out: list[str] = ['<?xml version="1.0" encoding="utf-8"?>\n']
    for node in (*document.prolog, document.root, *document.epilog):
        _write_node(node, out)
        out.append("\n")
    return "".join(out).encode("utf-8")
