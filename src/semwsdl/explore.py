"""The annotation search: parameter name first, then type information.

A parameter is tried in a fixed order of stages, stopping at the first
stage that produces at least one (word, concept) pair:

  (0a) the parameter's own name
  (0b) its type's name, when the type is custom
  (1a) names of the type's sequence members, (1b) their type names
  (2a/2b) one level deeper, and so on

Within a level all candidate names are pooled, so an annotation can carry
several concepts, but always from a single stage (level purity).  Descent
only follows sequence-style complex types, keeps a visited set so cyclic
schemas terminate, and gives up below max_depth.  Everything from (0b) on
runs only while Stage.EXPLORE is among the config's enabled stages.

Every function takes the same tail, `config, lexicon`: the lexicon's
entries already carry any overrides, so a word is one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingest import resolve_type
from .lexicon import Lexicon, associate_words
from .model import (
    Annotation,
    AnnotationEntry,
    AnnotationSource,
    Parameter,
    TypeKind,
    Word,
    WsDescription,
)
from .preprocess import SearchConfig, Stage, preprocess

# kinds whose names are worth mining at the type-name stages
_NAMED_CUSTOM_KINDS = (
    TypeKind.CUSTOM_SIMPLE,
    TypeKind.COMPLEX_SEQUENCE,
    TypeKind.COMPLEX_OTHER,
    TypeKind.EMPTY_COMPLEX,
)


@dataclass(frozen=True)
class StageVisit:
    """One consulted stage: the words it produced and the entries they gave."""

    source: AnnotationSource
    depth: int
    words: tuple[Word, ...]
    entries: tuple[AnnotationEntry, ...]


def _stage(source: AnnotationSource, depth: int,
           names: list[tuple[str, tuple[str, ...]]],
           config: SearchConfig, lexicon: Lexicon) -> StageVisit:
    words: list[Word] = []
    entries: list[AnnotationEntry] = []
    for raw_name, path in names:
        stage_words = preprocess(raw_name, config)
        words.extend(stage_words)
        for word, concept in associate_words(stage_words, lexicon):
            entries.append(AnnotationEntry(concept, word, source, path))
    return StageVisit(source, depth, tuple(words), tuple(entries))


def _visits(param: Parameter, desc: WsDescription, config: SearchConfig, lexicon: Lexicon):
    """Yield StageVisits in search order; the caller decides when to stop."""
    yield _stage(AnnotationSource.PARAMETER_NAME, 0, [(param.name, ())], config, lexicon)
    if Stage.EXPLORE not in config.enabled_stages:
        return
    root_type = resolve_type(desc, param.type_ref)
    if root_type.kind in _NAMED_CUSTOM_KINDS and not root_type.anonymous:
        yield _stage(AnnotationSource.TYPE_NAME, 0, [(root_type.name.local_name, ())],
                     config, lexicon)
    visited = {root_type.name}
    if root_type.kind is TypeKind.COMPLEX_SEQUENCE:
        frontier = [(sub, (sub.name,)) for sub in root_type.subparameters]
    else:
        frontier = []
    depth = 1
    while frontier and depth <= config.max_depth:
        names = [(sub.name, path) for sub, path in frontier if sub.name]
        yield _stage(AnnotationSource.SUBPARAMETER_NAME, depth, names, config, lexicon)
        member_types = [(sub, path, resolve_type(desc, sub.type_ref))
                        for sub, path in frontier]
        type_names = [
            (definition.name.local_name, path)
            for _, path, definition in member_types
            if definition.kind in _NAMED_CUSTOM_KINDS and not definition.anonymous
        ]
        yield _stage(AnnotationSource.SUBPARAMETER_TYPE_NAME, depth, type_names,
                     config, lexicon)
        next_frontier = []
        for sub, path, definition in member_types:
            if definition.kind is not TypeKind.COMPLEX_SEQUENCE:
                continue
            if definition.name in visited:
                continue
            visited.add(definition.name)
            next_frontier.extend(
                (member, path + (member.name,)) for member in definition.subparameters)
        frontier = next_frontier
        depth += 1


def annotate_parameter_with_trace(
        param: Parameter, desc: WsDescription, config: SearchConfig, lexicon: Lexicon,
) -> tuple[Annotation, tuple[StageVisit, ...]]:
    """Like annotate_parameter, also returning every stage actually consulted.

    The trace ends with the winning stage; on failure it covers the whole
    exhausted search.  Word-frequency reporting feeds on it.
    """
    trace: list[StageVisit] = []
    for visit in _visits(param, desc, config, lexicon):
        trace.append(visit)
        if visit.entries:
            return Annotation(param.param_id, visit.entries), tuple(trace)
    return Annotation(param.param_id, ()), tuple(trace)


def annotate_parameter(param: Parameter, desc: WsDescription, config: SearchConfig,
                       lexicon: Lexicon) -> Annotation:
    """Run the staged search for one parameter; empty entries mean failure."""
    annotation, _ = annotate_parameter_with_trace(param, desc, config, lexicon)
    return annotation


def annotate_description(desc: WsDescription, config: SearchConfig,
                         lexicon: Lexicon) -> list[Annotation]:
    """One Annotation per parameter, in document order."""
    return [annotate_parameter(param, desc, config, lexicon) for param in desc.parameters()]
