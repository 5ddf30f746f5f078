"""Emitting annotated WSDL copies and the JSON batch report.

Annotations become SAWSDL ``modelReference`` attributes on the element
that declared each parameter (the message part, or the referenced
top-level schema element).  Concepts found deeper in the type structure
are still attached to that root declaration.  Everything else in the
document is preserved, and injecting the same annotations twice yields
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from urllib.parse import urlparse

from . import xmlio
from .ingest import ParsedWsdl, SkippedFile
from .model import ONTOLOGY, Annotation, WsDescription, annotation_rate, is_xml_text
from .xmlio import XmlElement

SAWSDL_NAMESPACE = "http://www.w3.org/ns/sawsdl"


@dataclass(frozen=True)
class WriterConfig:
    uri_prefix: str = "http://www.ontologyportal.org/SUMO.owl#"

    def __post_init__(self):
        parsed = urlparse(self.uri_prefix)
        if not parsed.scheme:
            raise ValueError(f"uri_prefix must be an absolute URI: {self.uri_prefix!r}")
        if self.uri_prefix.split() != [self.uri_prefix]:  # one URI per concept in the list
            raise ValueError(f"uri_prefix must not contain whitespace: {self.uri_prefix!r}")
        if not is_xml_text(self.uri_prefix):
            raise ValueError(f"uri_prefix must contain only XML characters: {self.uri_prefix!r}")


def _free_prefix(scope: dict[str, str]) -> str:
    """The first of sawsdl, sawsdl1, sawsdl2, ... that scope leaves unbound."""
    prefix, counter = "sawsdl", 0
    while prefix in scope:
        counter += 1
        prefix = f"sawsdl{counter}"
    return prefix


def _sawsdl_prefix(node: XmlElement, scope: dict[str, str]) -> str:
    """The first prefix that scope binds to SAWSDL, else a free one declared on node."""
    for prefix, uri in scope.items():
        if uri == SAWSDL_NAMESPACE:
            return prefix
    prefix = _free_prefix(scope)
    node.attrs[f"xmlns:{prefix}"] = SAWSDL_NAMESPACE
    return prefix


def _merge_model_reference(node: XmlElement, uris: list[str], root_prefix: str) -> None:
    # the bindings as parsed, plus the root's SAWSDL declaration, first so that it
    # wins wherever nothing shadows it.  A prefix that an earlier write of this
    # tree declared on this node is left out; _sawsdl_prefix picks it again.
    scope = {root_prefix: SAWSDL_NAMESPACE, **node.nsmap()}
    attr_name = None
    for name in node.attrs:
        if ":" in name:
            prefix, local = name.split(":", 1)
            if local == "modelReference" and scope.get(prefix) == SAWSDL_NAMESPACE:
                attr_name = name
                break
    if attr_name is None:
        scope.pop("", None)  # the default namespace never applies to an attribute
        attr_name = f"{_sawsdl_prefix(node, scope)}:modelReference"
    merged = node.attrs.get(attr_name, "").split()
    for uri in uris:
        if uri not in merged:
            merged.append(uri)
    node.attrs[attr_name] = " ".join(merged)


def write_sawsdl(parsed: ParsedWsdl, annotations: list[Annotation],
                 config: WriterConfig | None = None) -> bytes:
    """Annotate parsed.document in place with modelReference attributes; serialize it.

    The document is one from Corpus.documents or, to annotate an
    already written copy again, from ingest.parse_wsdl.  Annotations
    reach the document through parsed.nodes, by param_id.
    """
    config = config or WriterConfig()
    by_id = {annotation.param_id: annotation for annotation in annotations}
    # group URI lists per target node (hashed by identity); one node can
    # declare several parameters
    uris_for: dict[XmlElement, list[str]] = {}
    for param_id, node in parsed.nodes.items():
        annotation = by_id.get(param_id)
        if annotation is None or not annotation.entries:
            continue
        uris_for.setdefault(node, []).extend(
            config.uri_prefix + entry.concept.id for entry in annotation.entries)
    root = parsed.document.root
    # the root's declarations as they stand, so one that an earlier write added
    # counts; not nsmap(), which lists a rebound xml prefix before all others
    root_prefix = _sawsdl_prefix(root, {name[6:]: value for name, value in root.attrs.items()
                                        if name.startswith("xmlns:")})
    for node, uris in uris_for.items():
        _merge_model_reference(node, uris, root_prefix)
    return xmlio.serialize(parsed.document)


def _direction_summary(annotated: int, total: int) -> dict:
    return {"total": total, "annotated": annotated, "rate": annotation_rate(annotated, total)}


def write_report(annotations: list[Annotation], descriptions: list[WsDescription],
                 skipped: list[SkippedFile] | tuple = ()) -> bytes:
    """Serialize the batch outcome as deterministic UTF-8 JSON."""
    by_id = {annotation.param_id: annotation for annotation in annotations}
    records = []
    counts = {"input": [0, 0], "output": [0, 0]}
    for description in descriptions:
        for param in description.parameters():
            annotation = by_id.get(param.param_id)
            entries = annotation.entries if annotation else ()
            direction = param.direction.value
            counts[direction][0] += 1
            counts[direction][1] += bool(entries)
            records.append({
                "param_id": param.param_id,
                "direction": direction,
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
    total = counts["input"][0] + counts["output"][0]
    annotated = counts["input"][1] + counts["output"][1]
    payload = {
        "summary": {
            "total": total,
            "annotated": annotated,
            "rate": annotation_rate(annotated, total),
            "inputs": _direction_summary(counts["input"][1], counts["input"][0]),
            "outputs": _direction_summary(counts["output"][1], counts["output"][0]),
        },
        "parameters": records,
        "skipped": [{"path": skip.path, "error": skip.error} for skip in skipped],
        "notes": [
            "input and output parameters are both enumerated; the summary reports "
            "them separately and combined",
        ],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
