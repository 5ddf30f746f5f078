"""Emitting annotated WSDL copies and the JSON batch report.

Annotations become SAWSDL ``modelReference`` attributes on the element
that declared each parameter (the message part, or the referenced
top-level schema element).  Concepts found deeper in the type structure
are still attached to that root declaration.  A copy is its input's
bytes with those attributes, and the declarations they need, spliced
in; injecting the same annotations twice yields byte-identical output.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from urllib.parse import urlparse

from . import xmlio
from .ingest import ParsedWsdl, SkippedFile
from .model import ONTOLOGY, Annotation, WsDescription, annotation_rate, checked_make, token_fault
from .xmlio import XmlElement

SAWSDL_NAMESPACE = "http://www.w3.org/ns/sawsdl"
# expat's key of a SAWSDL modelReference attribute, before its prefix
_MODEL_REFERENCE = f"{SAWSDL_NAMESPACE} modelReference "


class WriterConfig(namedtuple("WriterConfig", "uri_prefix",
                              defaults=("http://www.ontologyportal.org/SUMO.owl#",))):
    """The concept URI of a concept id is uri_prefix followed by the id."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        parsed = urlparse(self.uri_prefix)
        if not parsed.scheme:
            raise ValueError(f"uri_prefix must be an absolute URI: {self.uri_prefix!r}")
        if fault := token_fault(self.uri_prefix):  # one URI per concept in the list
            raise ValueError(f"uri_prefix {fault}")
        return self


# everything but printable ASCII, quotes, "&", "<" and ">"
_UNSAFE = re.compile("[^ !#-%(-;=?-~]")


def _escape(value: str) -> str:
    """value as ASCII attribute-value text, other characters as references."""
    return _UNSAFE.sub(lambda match: f"&#{ord(match[0])};", value)


def _prefix(scope: dict[str, str]) -> tuple[str, str]:
    """A prefix for SAWSDL in scope, and the declaration it needs.

    The first ASCII prefix but '' (inserted text is ASCII, and the default
    namespace is no attribute's) that scope binds to SAWSDL needs none;
    else the first of sawsdl, sawsdl1, ... that scope leaves unbound is declared.
    """
    for prefix, uri in scope.items():
        if prefix and uri == SAWSDL_NAMESPACE and prefix.isascii():
            return prefix, ""
    prefix, counter = "sawsdl", 0
    while prefix in scope:
        counter += 1
        prefix = f"sawsdl{counter}"
    return prefix, f' xmlns:{prefix}="{SAWSDL_NAMESPACE}"'


def _model_reference(data: bytes, node: XmlElement, uris: list[str],
                     root_prefix: str) -> tuple[int, str]:
    """The insertion that gives node's start tag the URIs it lacks.

    They are appended to the value of its SAWSDL modelReference, if it has
    one; else one is added after its last attribute, as `_prefix` says of
    node's scope behind the root's SAWSDL prefix, which wins unshadowed.
    """
    attrs_end, quotes = xmlio.start_tag(data, node)
    for quote, (name, value) in zip(quotes, node.attrs.items()):
        if name.startswith(_MODEL_REFERENCE):
            present = value.split()
            return quote, "".join(f" {_escape(uri)}" for uri in uris if uri not in present)
    prefix, declaration = _prefix({root_prefix: SAWSDL_NAMESPACE, **node.nsmap()})
    value = " ".join(map(_escape, uris))
    return attrs_end, f'{declaration} {prefix}:modelReference="{value}"'


def write_sawsdl(parsed: ParsedWsdl, annotations: list[Annotation],
                 config: WriterConfig | None = None) -> bytes:
    """The copy of parsed's input bytes with the annotations spliced in.

    Each annotated parameter's concept URIs go into the start tag of the
    element that declares it, found through parsed.nodes by param_id; the
    root gets a SAWSDL declaration unless it has one.  Nothing else of
    the input changes.  parsed is one from Corpus.documents or, to
    annotate an already written copy again, from ingest.parse_wsdl.
    """
    config = config or WriterConfig()
    by_id = {annotation.param_id: annotation for annotation in annotations}
    # the URIs per target node (hashed by identity), in order and once each;
    # one node can declare several parameters
    uris_for: dict[XmlElement, dict[str, None]] = {}
    for param_id, node in parsed.nodes.items():
        annotation = by_id.get(param_id)
        if annotation is None or not annotation.entries:
            continue
        uris_for.setdefault(node, {}).update(dict.fromkeys(
            config.uri_prefix + entry.concept.id for entry in annotation.entries))
    data, root = parsed.data, parsed.root
    root_prefix, declaration = _prefix(root.nsmap())
    insertions = [(xmlio.start_tag(data, root)[0], declaration)]
    insertions.extend(_model_reference(data, node, list(uris), root_prefix)
                      for node, uris in uris_for.items())
    return xmlio.serialize(data, insertions)


def _summary(records: list[dict]) -> dict:
    """The total, annotated count and rate of the parameter records."""
    annotated = sum(record["status"] == "annotated" for record in records)
    return {"total": len(records), "annotated": annotated,
            "rate": annotation_rate(annotated, len(records))}


def write_report(annotations: list[Annotation], descriptions: list[WsDescription],
                 skipped: list[SkippedFile] | tuple = ()) -> bytes:
    """Serialize the batch outcome as deterministic UTF-8 JSON."""
    by_id = {annotation.param_id: annotation for annotation in annotations}
    records = []
    for description in descriptions:
        for param in description.parameters():
            annotation = by_id.get(param.param_id)
            entries = annotation.entries if annotation else ()
            records.append({
                "param_id": param.param_id,
                "direction": param.direction.value,
                "status": "annotated" if entries else "failed",
                "entries": [
                    {
                        "concept": entry.concept.id,
                        "ontology": ONTOLOGY,
                        "word": entry.word.text,
                        "source": entry.source.value,
                        "path": list(entry.path),
                        "depth": entry.depth,
                    }
                    for entry in entries
                ],
            })
    payload = {
        "summary": {
            **_summary(records),
            "inputs": _summary([r for r in records if r["direction"] == "input"]),
            "outputs": _summary([r for r in records if r["direction"] == "output"]),
        },
        "parameters": records,
        "skipped": [{"path": skip.path, "error": skip.error} for skip in skipped],
        "notes": [
            "input and output parameters are both enumerated; the summary reports "
            "them separately and combined",
        ],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
