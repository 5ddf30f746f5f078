"""Parsing WSDL 1.1 documents into the in-memory model.

Only the structural subset needed for annotation is modeled: portType
operations, their messages and parts, and the inline XSD schemas that
define parameter types.  Bindings, services and policy elements are
parsed past without complaint.  One parse and one walk give the
description, and the start tags the writer splices into: the root's and
each parameter's declaring element's, with the input bytes, so the writer
need not parse again.  No tree outlives the walk.  This module parses;
the search reads only the model it builds.
"""

from __future__ import annotations

import os
from collections import deque, namedtuple

from . import xmlio
from .model import (
    XSD_NAMESPACE,
    Direction,
    Operation,
    Parameter,
    QName,
    SubParameter,
    TypeDefinition,
    WsDescription,
)
from .preprocess import read_regular
from .xmlio import MalformedXml, XmlElement

WSDL_NAMESPACE = "http://schemas.xmlsoap.org/wsdl/"

_ANY_TYPE = QName(XSD_NAMESPACE, "anyType")


class SkippedFile(namedtuple("SkippedFile", "path error")):
    """An input left out of the batch, and why: (str, str)."""

    __slots__ = ()


class ParsedWsdl(namedtuple("ParsedWsdl", "description data root nodes path")):
    """One WSDL document: its description, its bytes and the start tags to annotate.

    `data` is the document's input bytes.  `root` is its root element,
    and `nodes` maps every param_id of the description, in order, to the
    element that declares it; several parameters may share one node
    (element-style parts).  These elements have no children: the writer
    reads their start tags only.  `path` is the path the document was
    read under, as given (its source id, for `parse_wsdl`); a copy is
    named after it.
    """

    __slots__ = ()


class Corpus(namedtuple("Corpus", "documents skipped schemas")):
    """A batch's parsed documents in input order, skipped files and schema file count.

    (list of ParsedWsdl, list of SkippedFile, int).  `documents` is empty
    when no WSDL of the batch parses.
    """

    __slots__ = ()

    @property
    def descriptions(self) -> list[WsDescription]:
        return [parsed.description for parsed in self.documents]


class _SchemaIndex(namedtuple("_SchemaIndex", "types elements")):
    """Named types, and each global element's (declared type, declaring node)."""

    __slots__ = ()


def _attr_qname(element: XmlElement, value: str) -> QName | None:
    """QName from an attribute value, or None when it is unusable."""
    uri, local = element.resolve_qname(value)
    if not local:
        return None
    return QName(uri, local)


def _index_schemas(schemas: list[XmlElement]) -> tuple[_SchemaIndex, list[str]]:
    """Collect named types and top-level elements from inline schemas.

    Two phases: first register every global element and queue every
    complexType, then collect the queue's members.  Members need the
    complete element table because they may use `ref`.  The first
    definition of a global type or element name wins: a queued
    complexType holds its name in `index.types` with a member-less
    placeholder until the queue drains.  An inline type is
    named after its holder, a "$" (in no NCName) before each step: global
    element E's is E$anon, member n's of type T is T$n$anon.  So no two
    clash, nor with a global name; none is ever mined for words.
    """
    index = _SchemaIndex({}, {})
    pending: deque[tuple[QName, XmlElement, bool]] = deque()
    import_locations: list[str] = []
    for schema in schemas:
        tns = schema.attrs.get("targetNamespace", "")
        for child in schema.children:
            uri, local = child.qname
            if uri != XSD_NAMESPACE:
                continue
            if local in ("import", "include"):
                location = child.attrs.get("schemaLocation", "").strip()
                if location:
                    import_locations.append(location)
                continue
            name = child.attrs.get("name", "")
            if not name:
                continue
            qn = QName(tns, name)
            if local in ("complexType", "simpleType") and qn not in index.types:
                index.types[qn] = TypeDefinition(qn)
                if local == "complexType":
                    pending.append((qn, child, False))
            elif local == "element" and qn not in index.elements:
                index.elements[qn] = (_declared_type(child, qn, "", index, pending), child)
    while pending:
        qname, node, anonymous = pending.popleft()
        members = _members(qname, node, index, pending)
        index.types[qname] = TypeDefinition(qname, members, anonymous)
    return index, import_locations


def _declared_type(node: XmlElement, holder: QName, step: str,
                   index: _SchemaIndex, pending: deque) -> QName:
    """The type an element declares, in order of precedence.

    A `type=` attribute (anyType when unusable), else an inline
    complexType (queued), else an inline simpleType, else anyType.  An
    inline type is anonymous and named in holder's namespace, holder's
    local name then step then "$anon", as `_index_schemas` says.
    """
    type_attr = node.attrs.get("type", "")
    if type_attr.strip():
        return _attr_qname(node, type_attr) or _ANY_TYPE
    inline_complex = node.first_child(XSD_NAMESPACE, "complexType")
    if inline_complex is None and node.first_child(XSD_NAMESPACE, "simpleType") is None:
        return _ANY_TYPE
    qname = QName(holder.namespace_uri, f"{holder.local_name}{step}$anon")
    if inline_complex is not None:
        pending.append((qname, inline_complex, True))
    else:
        index.types[qname] = TypeDefinition(qname, anonymous=True)
    return qname


def _members(qname: QName, node: XmlElement, index: _SchemaIndex,
             pending: deque) -> tuple[SubParameter, ...]:
    """The element members of the complexType's direct sequence; none without one."""
    sequence = node.first_child(XSD_NAMESPACE, "sequence")
    if sequence is None:
        return ()
    members: list[SubParameter] = []
    for position, member in enumerate(sequence.find_children(XSD_NAMESPACE, "element"), start=1):
        ref_attr = member.attrs.get("ref", "")
        if ref_attr.strip():
            ref = _attr_qname(member, ref_attr)
            if ref is None:
                continue
            type_ref, _ = index.elements.get(ref, (_ANY_TYPE, member))
            members.append(SubParameter(ref.local_name, type_ref))
            continue
        member_type = _declared_type(member, qname, f"${position}", index, pending)
        members.append(SubParameter(member.attrs.get("name", ""), member_type))
    return tuple(members)


def _build_param(source_id: str, op_name: str, direction: Direction,
                 part: XmlElement, index: _SchemaIndex,
                 nodes: dict[str, XmlElement]) -> Parameter:
    """The part's parameter; its declaring node goes into nodes under its id.

    An id already in nodes gets the first free ``::<n>`` suffix, n >= 2.
    """
    node = part
    if ref := _attr_qname(part, part.attrs.get("element", "")):
        # element-style part: the element gives name and type (anyType if undeclared here)
        name = ref.local_name
        type_ref, node = index.elements.get(ref, (_ANY_TYPE, part))
    else:
        name = part.attrs.get("name", "")
        type_ref = _attr_qname(part, part.attrs.get("type", "")) or _ANY_TYPE
    param_id = base = f"{source_id}::{op_name}::{direction.value}::{name}"
    count = 1
    while param_id in nodes:
        count += 1
        param_id = f"{base}::{count}"
    nodes[param_id] = node
    return Parameter(name, direction, type_ref, param_id)


def _analyze(source_id: str, data: bytes, root: XmlElement,
             path: str) -> tuple[ParsedWsdl, list[str]]:
    """One walk from root, the parse of data: the document and its import locations."""
    if root.qname != (WSDL_NAMESPACE, "definitions"):
        raise MalformedXml("root element is not wsdl:definitions")
    schemas = [
        schema
        for types in root.find_children(WSDL_NAMESPACE, "types")
        for schema in types.find_children(XSD_NAMESPACE, "schema")
    ]
    index, import_locations = _index_schemas(schemas)
    warnings: list[str] = []
    target_ns = root.attrs.get("targetNamespace", "")
    messages: dict[QName, list[XmlElement]] = {}
    for message in root.find_children(WSDL_NAMESPACE, "message"):
        name = message.attrs.get("name", "")
        if not name:
            warnings.append("unnamed message skipped")
            continue
        messages[QName(target_ns, name)] = message.find_children(WSDL_NAMESPACE, "part")
    operations: list[Operation] = []
    nodes: dict[str, XmlElement] = {}
    for port_type in root.find_children(WSDL_NAMESPACE, "portType"):
        for operation in port_type.find_children(WSDL_NAMESPACE, "operation"):
            op_name = operation.attrs.get("name", "")
            if not op_name:
                warnings.append("unnamed operation skipped")
                continue
            message_refs: list[tuple[Direction, QName]] = []
            for direction in Direction:  # input, then output
                port = operation.first_child(WSDL_NAMESPACE, direction.value)
                if port is None:
                    continue
                ref = _attr_qname(port, port.attrs.get("message", ""))
                if ref is None or ref not in messages:
                    warnings.append(
                        f"operation {op_name}: {direction.value} message "
                        f"{port.attrs.get('message', '(none)')!r} not declared; operation skipped")
                    break
                message_refs.append((direction, ref))
            else:
                operations.append(Operation(op_name, tuple(
                    _build_param(source_id, op_name, direction, part, index, nodes)
                    for direction, ref in message_refs for part in messages[ref])))
    description = WsDescription(source_id, tuple(operations), index.types, tuple(warnings))
    # the writer reads start tags only, so the rest of the tree is freed
    for node in (root, *nodes.values()):
        node.children = []
    return ParsedWsdl(description, data, root, nodes, path), import_locations


def parse_wsdl(source_id: str, data: bytes) -> ParsedWsdl:
    """Parse one WSDL document.  Raises MalformedXml on unusable input."""
    return _analyze(source_id, data, xmlio.parse_xml(data), source_id)[0]


def _source_id(path: str) -> str:
    """The id of an input path in reports and messages, one per path.

    The path's bytes read as UTF-8, with each byte that is not UTF-8
    written as ``\\xNN``; where a backslash is no separator, as on
    POSIX, a backslash is written as two, so no name spells another's
    escape.  An ASCII or UTF-8 path without a backslash is its own id.
    """
    raw = os.fsencode(path)
    if os.sep != "\\":
        raw = raw.replace(b"\\", b"\\\\")
    return raw.decode("utf-8", "backslashreplace")


def _real_path(path: str, real_dirs: dict[str, str]) -> str:
    """The one name ingest knows a file by, for an input and a schemaLocation alike.

    A name that is a symlink is resolved in full by `os.path.realpath`;
    any other name joins the real path of its directory, resolved once
    per directory string and kept in real_dirs.  So two spellings that
    name a file give one real path exactly when `os.path.realpath` does.
    """
    if os.path.islink(path):
        return os.path.realpath(path)
    head, name = os.path.split(path)
    real_dir = real_dirs.get(head)
    if real_dir is None:
        real_dir = real_dirs[head] = os.path.realpath(head)
    return os.path.join(real_dir, name)


def _targets(importer: str, locations: list[str], real_dirs: dict[str, str]) -> tuple[str, ...]:
    """The `_real_path` of each location, taken relative to its importer's real path."""
    base = os.path.dirname(importer)
    return tuple(_real_path(os.path.join(base, location), real_dirs) for location in locations)


def load_corpus(paths: list) -> Corpus:
    """Load and parse a batch of files; failures are recorded, not fatal.

    Only a regular file is read; any other kind, such as a FIFO or a
    directory, is skipped as "not a regular file".  Each file is known
    by its `_real_path`.
    Standalone XSD files are indexed as import targets: a description
    whose schema imports/includes one of them (by schemaLocation) sees
    its named types.  A location's target is the `_real_path` of the
    location joined to the directory of its importer's real path, taken
    once, when the importer is read.  Import resolution never leaves the
    supplied file set, so a location whose real path names no file of
    the set, such as one through a symlink loop or one ending in "/", is
    ignored like one outside it.  Each closure is computed once per list
    of target files, whatever the importers' directories or the
    locations' spellings; descriptions without types of their own share
    the closure's dict as their `types`, which therefore must not be
    mutated; a merge replaces the document with a copy.  A file named
    more than once, in any spelling, is loaded once, under its first.
    Reports and messages name a file by its `_source_id`; a parsed
    document keeps the path as given.  Nothing a batch holds raises: one
    in which no WSDL parses gives a corpus with no documents.
    """
    documents: list[ParsedWsdl] = []
    skipped: list[SkippedFile] = []
    schema_files: dict[str, tuple[dict[QName, TypeDefinition], tuple[str, ...]]] = {}
    import_keys: list[tuple[str, ...]] = []
    seen: set[str] = set()
    real_dirs: dict[str, str] = {}
    for path in map(os.fsdecode, paths):
        try:
            data = read_regular(path)
        except OSError as exc:
            skipped.append(SkippedFile(_source_id(path), f"io error: {exc}"))
            continue
        if data is None:
            skipped.append(SkippedFile(_source_id(path), "not a regular file"))
            continue
        resolved = _real_path(path, real_dirs)
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            root = xmlio.parse_xml(data)
            if root.qname == (XSD_NAMESPACE, "schema"):
                index, locations = _index_schemas([root])
                schema_files[resolved] = (index.types, _targets(resolved, locations, real_dirs))
                continue
            parsed, locations = _analyze(_source_id(path), data, root, path)
        except MalformedXml as exc:
            skipped.append(SkippedFile(_source_id(path), str(exc)))
            continue
        documents.append(parsed)
        import_keys.append(_targets(resolved, locations, real_dirs))
    closures: dict[tuple[str, ...], dict[QName, TypeDefinition]] = {}
    for i, (parsed, targets) in enumerate(zip(documents, import_keys)):
        imported = closures.get(targets)
        if imported is None:
            imported = closures[targets] = _imported_types(targets, schema_files)
        if imported:
            own = parsed.description.types
            documents[i] = parsed._replace(description=parsed.description._replace(
                types={**imported, **own} if own else imported))
    return Corpus(documents, skipped, len(schema_files))


def _imported_types(targets: tuple[str, ...], schema_files: dict) -> dict[QName, TypeDefinition]:
    """Transitive closure of schemaLocation imports over the supplied files.

    Walks real paths, breadth first from the description's own targets,
    each schema file naming its own; the first definition of a name wins.
    """
    merged: dict[QName, TypeDefinition] = {}
    queue = deque(targets)
    visited: set[str] = set()
    while queue:
        target = queue.popleft()
        if target in visited or target not in schema_files:
            continue
        visited.add(target)
        types, further = schema_files[target]
        for qn, definition in types.items():
            merged.setdefault(qn, definition)
        queue.extend(further)
    return merged
