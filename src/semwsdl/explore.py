"""The annotation search: parameter name first, then type information.

The search walks a parameter's structure level by level.  Level 0 is the
parameter itself; level n+1 holds the members of level n's types.  Each
level is two stages, and the search stops at the first stage that
produces at least one (word, concept) pair:

  (a) the level's names: the parameter's own name at level 0
  (b) the level's type names, for the types a schema in reach defines

so the order is (0a), (0b), (1a), (1b), (2a), ...  Within a stage all
candidate names are pooled, so an annotation can carry several concepts,
but always from a single stage (level purity).  Every level consults both
stages, even one with no name to mine.  Descent only follows types with
members, expands each one once so cyclic schemas terminate, and stops
after level max_depth.  Everything from (0b) on runs only while
Stage.EXPLORE is among the config's enabled stages.

Every function takes the same tail, `config, lexicon`: the lexicon's
entries already carry any overrides, so a word is one lookup.  The
search reads the model alone (a description and its type table); it
never touches the parser or the XML tree.
"""

from __future__ import annotations

from collections import namedtuple

from .lexicon import Lexicon, associate_words
from .model import (
    Annotation,
    AnnotationEntry,
    AnnotationSource,
    Parameter,
    QName,
    Word,
    WsDescription,
    resolve_type,
)
from .preprocess import SearchConfig, Stage, preprocess


class StageVisit(namedtuple("StageVisit", "source depth words entries")):
    """One consulted stage: the words it produced and the entries they gave.

    (AnnotationSource, int, tuple of Word, tuple of AnnotationEntry).
    """

    __slots__ = ()


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
    """Yield StageVisits in search order, up to and including the first with entries.

    This is the search's one stop rule: the last visit yielded is the
    winning stage, or the search ran out.
    """
    frontier = [(param.name, param.type_ref, ())]
    name_source, type_source = AnnotationSource.PARAMETER_NAME, AnnotationSource.TYPE_NAME
    visited = set()
    for depth in range(config.max_depth + 1):
        if not frontier:
            return
        names = [(name, path) for name, _, path in frontier if name]
        visit = _stage(name_source, depth, names, config, lexicon)
        yield visit
        if visit.entries or Stage.EXPLORE not in config.enabled_stages:
            return
        types = [(definition, path) for _, type_ref, path in frontier
                 if (definition := resolve_type(desc, type_ref)) is not None]
        names = [(definition.name.local_name, path) for definition, path in types
                 if not definition.anonymous]
        visit = _stage(type_source, depth, names, config, lexicon)
        yield visit
        if visit.entries:
            return
        frontier = []
        for definition, path in types:
            if definition.subparameters and definition.name not in visited:
                visited.add(definition.name)
                frontier.extend((member.name, member.type_ref, path + (member.name,))
                                for member in definition.subparameters)
        name_source = AnnotationSource.SUBPARAMETER_NAME
        type_source = AnnotationSource.SUBPARAMETER_TYPE_NAME


def annotate_parameter_with_trace(
        param: Parameter, desc: WsDescription, config: SearchConfig, lexicon: Lexicon,
) -> tuple[Annotation, tuple[StageVisit, ...]]:
    """Like annotate_parameter, also returning every stage actually consulted.

    The trace is what `_visits` yields, where the stop rule lives: it ends
    with the winning stage, or on failure covers the whole exhausted
    search.  Word-frequency reporting feeds on it.
    """
    trace = tuple(_visits(param, desc, config, lexicon))
    return Annotation(param.param_id, trace[-1].entries), trace


def annotate_parameter(param: Parameter, desc: WsDescription, config: SearchConfig,
                       lexicon: Lexicon) -> Annotation:
    """Run the staged search for one parameter; empty entries mean failure."""
    annotation, _ = annotate_parameter_with_trace(param, desc, config, lexicon)
    return annotation


def annotate_description(desc: WsDescription, config: SearchConfig,
                         lexicon: Lexicon) -> list[Annotation]:
    """One Annotation per parameter, in document order.

    The search reads a parameter's name and declared type and nothing else
    of it, so parameters that agree on both (one message reused by several
    operations, or as input and output) are searched once and share one
    entries tuple; each still gets its own Annotation.
    """
    searched: dict[tuple[str, QName], tuple[AnnotationEntry, ...]] = {}
    annotations = []
    for param in desc.parameters():
        key = (param.name, param.type_ref)
        entries = searched.get(key)
        if entries is None:
            entries = searched[key] = annotate_parameter(param, desc, config, lexicon).entries
        annotations.append(Annotation(param.param_id, entries))
    return annotations
