"""Core vocabulary: service descriptions, types, words, concepts, annotations.

Every value here is an immutable named tuple, so hashing and equality
run in C, and a value equals any tuple with the same items.  Validation
happens at construction, in `__new__`, so the rest of the code can
assume the invariants hold; `_replace` builds through `__new__` too (see
`checked_make`), so a derived value is checked like a new one.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum

XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"

# Primitive and derived built-in simple types from XML Schema Part 2.
XSD_BUILTIN_TYPES = frozenset({
    "string", "boolean", "decimal", "float", "double", "duration",
    "dateTime", "time", "date", "gYearMonth", "gYear", "gMonthDay",
    "gDay", "gMonth", "hexBinary", "base64Binary", "anyURI", "QName",
    "NOTATION",
    "normalizedString", "token", "language", "NMTOKEN", "NMTOKENS",
    "Name", "NCName", "ID", "IDREF", "IDREFS", "ENTITY", "ENTITIES",
    "integer", "nonPositiveInteger", "negativeInteger", "long", "int",
    "short", "byte", "nonNegativeInteger", "unsignedLong", "unsignedInt",
    "unsignedShort", "unsignedByte", "positiveInteger",
})

WORD_RE = re.compile(r"[a-z]+")
ONTOLOGY = "SUMO"  # the ontology every Concept id names
# the characters XML 1.0 forbids that str.split() keeps; NON_XML_ASCII is
# their ASCII part, as the body of a regex class
NON_XML_ASCII = r"\x00-\x08\x0e-\x1b"
_NON_XML_RE = re.compile(rf"[{NON_XML_ASCII}\ud800-\udfff\ufffe\uffff]")


class Direction(Enum):
    INPUT = "input"
    OUTPUT = "output"


class AnnotationSource(Enum):
    """Which name finally produced a concept for a parameter."""

    PARAMETER_NAME = "parameter_name"
    TYPE_NAME = "type_name"
    SUBPARAMETER_NAME = "subparameter_name"
    SUBPARAMETER_TYPE_NAME = "subparameter_type_name"


def checked_make(cls, iterable):
    """`_make` for a value whose `__new__` checks: namedtuple's own `_make`,
    and so its `_replace`, calls `tuple.__new__` and would skip the checks."""
    return cls(*iterable)


class QName(namedtuple("QName", "namespace_uri local_name")):
    """A resolved (namespace URI, local name) pair; the URI may be empty."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, namespace_uri: str, local_name: str):
        if not local_name:
            raise ValueError("QName local name must be non-empty")
        return tuple.__new__(cls, (namespace_uri, local_name))

    def __str__(self) -> str:
        if self.namespace_uri:
            return f"{{{self.namespace_uri}}}{self.local_name}"
        return self.local_name


def is_xml_text(text: str) -> bool:
    """True when an XML 1.0 document may hold every character of text."""
    return _NON_XML_RE.search(text) is None


def token_fault(text: str) -> str | None:
    """Why text cannot be one modelReference token, or None when it can.

    A modelReference value is a whitespace-separated list of URIs, and a
    SAWSDL copy can hold only characters XML 1.0 allows.  The caller puts
    its subject before the reason: "Concept id must be non-empty".
    """
    if not text:
        return "must be non-empty"
    if text.split() != [text]:
        return f"must not contain whitespace: {text!r}"
    if not is_xml_text(text):
        return f"must contain only XML characters: {text!r}"
    return None


def is_builtin(name: QName) -> bool:
    """True for the XML Schema built-in simple types."""
    return name.namespace_uri == XSD_NAMESPACE and name.local_name in XSD_BUILTIN_TYPES


class Word(namedtuple("Word", "text")):
    """A fully preprocessed token: lowercase ASCII letters only."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, text: str):
        if not WORD_RE.fullmatch(text):
            raise ValueError(f"not a valid word: {text!r}")
        return tuple.__new__(cls, (text,))

    def __str__(self) -> str:
        return self.text


class Concept(namedtuple("Concept", "id")):
    """An ontology concept identifier, e.g. SUMO's HoofedMammal: one token."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, id: str):
        if fault := token_fault(id):
            raise ValueError(f"Concept id {fault}")
        return tuple.__new__(cls, (id,))

    def __str__(self) -> str:
        return self.id


class SubParameter(namedtuple("SubParameter", "name type_ref")):
    """A member element of a sequence-style complex type: (str, QName)."""

    __slots__ = ()


class TypeDefinition(namedtuple("TypeDefinition", "name subparameters anonymous",
                                defaults=((), False))):
    """A type a schema defines; members only for a complexType's direct sequence.

    (QName, tuple of SubParameter, bool).
    """

    __slots__ = ()


class Parameter(namedtuple("Parameter", "name direction type_ref param_id")):
    """(str, Direction, QName, str); the param_id is non-empty."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, name: str, direction: Direction, type_ref: QName, param_id: str):
        if not param_id:
            raise ValueError("param_id must be non-empty")
        return tuple.__new__(cls, (name, direction, type_ref, param_id))


class Operation(namedtuple("Operation", "name parameters")):
    """The parts of its input message, then those of its output message."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, name: str, parameters: tuple[Parameter, ...] = ()):
        if not name:
            raise ValueError("operation name must be non-empty")
        return tuple.__new__(cls, (name, parameters))


class WsDescription(namedtuple("WsDescription", "source_id operations types warnings")):
    """One parsed WSDL document: operations plus its type table.

    `types` holds the document's own types and those it imports.  Several
    descriptions may share one `types` dict, so it must not be mutated.
    """

    __slots__ = ()

    def __new__(cls, source_id: str, operations: tuple[Operation, ...] = (),
                types: dict[QName, TypeDefinition] | None = None,
                warnings: tuple[str, ...] = ()):
        if types is None:  # each description its own empty table, never a shared one
            types = {}
        return tuple.__new__(cls, (source_id, operations, types, warnings))

    def parameters(self):
        """All parameters in document order (inputs before outputs per op)."""
        for operation in self.operations:
            yield from operation.parameters


def resolve_type(description: WsDescription, ref: QName) -> TypeDefinition | None:
    """The definition of ref in reach of the description.

    None for an XML Schema builtin and for a name that neither the
    description's schemas nor those it imports define.
    """
    if is_builtin(ref):
        return None
    return description.types.get(ref)


class AnnotationEntry(namedtuple("AnnotationEntry", "concept word source path")):
    """One (concept, word) pair with the evidence trail that produced it.

    (Concept, Word, AnnotationSource, tuple of member names).
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, concept: Concept, word: Word, source: AnnotationSource,
                path: tuple[str, ...] = ()):
        if not path and source not in (
            AnnotationSource.PARAMETER_NAME,
            AnnotationSource.TYPE_NAME,
        ):
            raise ValueError("depth-0 entries come from the parameter or its type name")
        if path and source not in (
            AnnotationSource.SUBPARAMETER_NAME,
            AnnotationSource.SUBPARAMETER_TYPE_NAME,
        ):
            raise ValueError("deeper entries come from subparameter exploration")
        return tuple.__new__(cls, (concept, word, source, path))

    @property
    def depth(self) -> int:  # subparameter levels below the parameter
        return len(self.path)


class Annotation(namedtuple("Annotation", "param_id entries", defaults=((),))):
    """The outcome for one parameter; entries are empty on failure."""

    __slots__ = ()

    @property
    def annotated(self) -> bool:
        return bool(self.entries)


def annotation_rate(annotated: int, total: int) -> float:
    """Share of parameters annotated; 0.0 for an empty batch."""
    return annotated / total if total else 0.0
