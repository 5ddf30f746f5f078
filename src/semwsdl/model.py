"""Core vocabulary: service descriptions, types, words, concepts, annotations.

Everything here is an immutable value object.  Validation happens at
construction so the rest of the code can assume the invariants hold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class QName:
    """A resolved (namespace URI, local name) pair; the URI may be empty."""

    namespace_uri: str
    local_name: str

    def __post_init__(self):
        if not self.local_name:
            raise ValueError("QName local name must be non-empty")

    def __str__(self) -> str:
        if self.namespace_uri:
            return f"{{{self.namespace_uri}}}{self.local_name}"
        return self.local_name


def is_xml_text(text: str) -> bool:
    """True when an XML 1.0 document may hold every character of text."""
    return _NON_XML_RE.search(text) is None


def is_builtin(name: QName) -> bool:
    """True for the XML Schema built-in simple types."""
    return name.namespace_uri == XSD_NAMESPACE and name.local_name in XSD_BUILTIN_TYPES


@dataclass(frozen=True)
class Word:
    """A fully preprocessed token: lowercase ASCII letters only."""

    text: str

    def __post_init__(self):
        if not WORD_RE.fullmatch(self.text):
            raise ValueError(f"not a valid word: {self.text!r}")

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Concept:
    """An ontology concept identifier, e.g. SUMO's HoofedMammal: one token."""

    id: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("Concept id must be non-empty")
        if self.id.split() != [self.id]:  # modelReference is a whitespace-separated list
            raise ValueError(f"Concept id must not contain whitespace: {self.id!r}")
        if not is_xml_text(self.id):
            raise ValueError(f"Concept id must contain only XML characters: {self.id!r}")

    def __str__(self) -> str:
        return self.id


@dataclass(frozen=True)
class SubParameter:
    """A member element of a sequence-style complex type."""

    name: str
    type_ref: QName


@dataclass(frozen=True)
class TypeDefinition:
    """A type a schema defines; members only for a complexType's direct sequence."""

    name: QName
    subparameters: tuple[SubParameter, ...] = ()
    anonymous: bool = False


@dataclass(frozen=True)
class Parameter:
    name: str
    direction: Direction
    type_ref: QName
    param_id: str

    def __post_init__(self):
        if not self.param_id:
            raise ValueError("param_id must be non-empty")


@dataclass(frozen=True)
class Operation:
    """The parts of its input message, then those of its output message."""

    name: str
    parameters: tuple[Parameter, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("operation name must be non-empty")


@dataclass(frozen=True)
class WsDescription:
    """One parsed WSDL document: operations plus its type table.

    `types` holds the document's own types and those it imports.  Several
    descriptions may share one `types` dict, so it must not be mutated.
    """

    source_id: str
    operations: tuple[Operation, ...] = ()
    types: dict[QName, TypeDefinition] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

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


@dataclass(frozen=True)
class AnnotationEntry:
    """One (concept, word) pair with the evidence trail that produced it."""

    concept: Concept
    word: Word
    source: AnnotationSource
    path: tuple[str, ...] = ()

    @property
    def depth(self) -> int:  # subparameter levels below the parameter
        return len(self.path)

    def __post_init__(self):
        if self.depth == 0 and self.source not in (
            AnnotationSource.PARAMETER_NAME,
            AnnotationSource.TYPE_NAME,
        ):
            raise ValueError("depth-0 entries come from the parameter or its type name")
        if self.depth > 0 and self.source not in (
            AnnotationSource.SUBPARAMETER_NAME,
            AnnotationSource.SUBPARAMETER_TYPE_NAME,
        ):
            raise ValueError("deeper entries come from subparameter exploration")


@dataclass(frozen=True)
class Annotation:
    """The outcome for one parameter; entries are empty on failure."""

    param_id: str
    entries: tuple[AnnotationEntry, ...] = ()

    @property
    def annotated(self) -> bool:
        return bool(self.entries)


def annotation_rate(annotated: int, total: int) -> float:
    """Share of parameters annotated; 0.0 for an empty batch."""
    return annotated / total if total else 0.0
