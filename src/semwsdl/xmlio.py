"""Prefix-preserving XML parsing and serialization built on expat.

The annotation writer has to re-emit WSDL documents whose QName-valued
attributes (``type="tns:categoryDetail"``) still resolve after a round
trip, and has to produce byte-identical output when run twice on its own
output.  ``xml.etree`` rewrites namespace prefixes and drops the original
declarations on serialization, which breaks both requirements, so this
module keeps its own lightweight tree: element and attribute names exactly
as written, ``xmlns`` declarations as ordinary attributes, and children as
an ordered mix of text runs and nodes.

The nodes are plain classes with ``__slots__``: a tree holds one object per
element, text run, comment and PI, and slotted objects are smaller and
quicker to build than dataclasses.  `parse_xml` is the one builder.  Its
expat handlers are closures over a local stack; each start tag gets the
parent's prefix map, copied only where the tag declares a namespace, and
its expanded name, resolved once.  QName-valued attribute values are
resolved by the same rule on request.
"""

from __future__ import annotations

import xml.parsers.expat

XML_NAMESPACE = "http://www.w3.org/XML/1998/namespace"

_UTF8_BOM = b"\xef\xbb\xbf"


class MalformedXml(ValueError):
    """Raised when a document cannot be parsed (or is not the expected kind)."""


class Comment:
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class ProcessingInstruction:
    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str):
        self.target = target
        self.data = data


def _expand(name: str, scope: dict[str, str]) -> tuple[str, str]:
    # the prefix ends at the first colon; an unprefixed name takes the default
    # namespace, as XSD requires, and an undeclared prefix the empty one
    prefix, colon, local = name.partition(":")
    return (scope.get(prefix, ""), local) if colon else (scope.get("", ""), name)


class XmlElement:
    """An element with names as written; `qname` is its expanded (URI, local) name.

    `scope` is the in-scope prefix -> URI map, shared with the parent unless
    the element declares a namespace; `qname` is `name` expanded in it.
    """

    __slots__ = ("name", "attrs", "children", "scope", "qname")

    def __init__(self, name: str, attrs: dict[str, str], children: list,
                 scope: dict[str, str], qname: tuple[str, str]):
        self.name = name
        self.attrs = attrs
        self.children = children
        self.scope = scope
        self.qname = qname

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
            if type(child) is XmlElement:
                yield child

    def find_children(self, namespace: str, local: str) -> list[XmlElement]:
        """Direct element children named (namespace, local), in document order."""
        qname = (namespace, local)
        return [child for child in self.children
                if type(child) is XmlElement and child.qname == qname]

    def first_child(self, namespace: str, local: str) -> "XmlElement | None":
        children = self.find_children(namespace, local)
        return children[0] if children else None


class XmlDocument:
    """The root element and the comments and PIs before and after it."""

    __slots__ = ("root", "prolog", "epilog")

    def __init__(self, root: XmlElement, prolog: list, epilog: list):
        self.root = root
        self.prolog = prolog
        self.epilog = epilog


def _reject_doctype(name, *_) -> None:
    # entities would be expanded or dropped, and the copy could not keep them
    raise MalformedXml(f"DOCTYPE declarations are not supported (<!DOCTYPE {name}>)")


def parse_xml(data: bytes) -> XmlDocument:
    """Parse bytes into an XmlDocument; raises MalformedXml on bad input."""
    if data.startswith(_UTF8_BOM):
        data = data[len(_UTF8_BOM):]
    # the document is the bottom of the stack: a nameless holder of the root
    # element and of the comments and PIs around it
    document = XmlElement("", {}, [], {"xml": XML_NAMESPACE}, ("", ""))
    stack = [document]
    push, pop = stack.append, stack.pop

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
        element = XmlElement(name, attrs, [], scope, _expand(name, scope))
        parent.children.append(element)
        push(element)

    def end_element(name: str) -> None:
        pop()

    def character_data(data: str) -> None:
        # expat reports no character data outside the root element
        children = stack[-1].children
        if children and type(children[-1]) is str:
            children[-1] += data
        else:
            children.append(data)

    def comment(data: str) -> None:
        stack[-1].children.append(Comment(data))

    def processing_instruction(target: str, data: str) -> None:
        stack[-1].children.append(ProcessingInstruction(target, data))

    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = character_data
    parser.CommentHandler = comment
    parser.ProcessingInstructionHandler = processing_instruction
    parser.StartDoctypeDeclHandler = _reject_doctype
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise MalformedXml(f"XML parse error: {exc}") from None
    nodes = document.children
    at = next((i for i, node in enumerate(nodes) if type(node) is XmlElement), None)
    if at is None:
        raise MalformedXml("document has no root element")
    return XmlDocument(nodes[at], nodes[:at], nodes[at + 1:])


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
            if type(node) is XmlElement:
                out.append(f"<{node.name}")
                for name, value in node.attrs.items():
                    out.append(f' {name}="{_escape_attr(value)}"')
                if node.children:
                    out.append(">")
                    open_elements.append((node.name, siblings))
                    siblings = iter(node.children)
                    break
                out.append("/>")
            elif type(node) is str:
                out.append(_escape_text(node))
            elif type(node) is Comment:
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
