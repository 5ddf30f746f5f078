"""Staged evaluation (ablation) and word-frequency reporting.

The ablation reruns the whole corpus five times with cumulative
configurations, from bare lowercase lookup to the full pipeline with
type exploration, so the contribution of each stage is visible.  The
word-frequency report counts every word the full pipeline emitted,
which is the raw material for judging annotation relevance.

Parameters are counted per occurrence (a name appearing in three
operations counts three times); inputs and outputs are both enumerated.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, namedtuple

from .explore import annotate_description, annotate_parameter_with_trace
from .lexicon import Lexicon, associate
from .model import Concept, Word, WsDescription, annotation_rate, checked_make
from .preprocess import ALL_STAGES, SearchConfig, Stage

STAGE_NAMES = (
    "NoPreprocessing",
    "+Decomposition",
    "+Normalization",
    "+Filtering",
    "+TypeExplorer",
)

_COUNTING_NOTE = "parameters counted per occurrence; inputs and outputs both enumerated"


class AblationRow(namedtuple("AblationRow", "stage_name annotated total")):
    """(str, int, int): the stage's annotated and total parameter counts."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, stage_name: str, annotated: int, total: int):
        if not 0 <= annotated <= total:
            raise ValueError("annotated must lie in [0, total]")
        return tuple.__new__(cls, (stage_name, annotated, total))

    @property
    def rate(self) -> float:
        return annotation_rate(self.annotated, self.total)


class WordFrequencyRow(namedtuple("WordFrequencyRow", "word occurrences concept")):
    """(Word, int, Concept or None); the word occurred at least once."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, word: Word, occurrences: int, concept: Concept | None):
        if occurrences < 1:
            raise ValueError("occurrences must be >= 1")
        return tuple.__new__(cls, (word, occurrences, concept))


def stage_configurations(config: SearchConfig) -> list[tuple[str, SearchConfig]]:
    """The five cumulative (name, config) rows; only the enabled stages differ.

    The first four rows measure parameter-name processing only; the last
    adds type exploration (the type-name stage and the structural descent).
    """
    decompose = frozenset({Stage.DECOMPOSE})
    normalize = decompose | {Stage.NORMALIZE}
    stage_sets = (frozenset(), decompose, normalize, normalize | {Stage.FILTER}, ALL_STAGES)
    return [(name, config._replace(enabled_stages=stages))
            for name, stages in zip(STAGE_NAMES, stage_sets)]


def run_ablation(descriptions: list[WsDescription], config: SearchConfig,
                 lexicon: Lexicon) -> list[AblationRow]:
    """The five AblationRows, in STAGE_NAMES order, over one total.

    The descriptions are annotated once per cumulative configuration of
    `stage_configurations`.
    """
    total = sum(1 for desc in descriptions for _ in desc.parameters())
    rows = []
    for name, stage_config in stage_configurations(config):
        annotated = 0
        for description in descriptions:
            for annotation in annotate_description(description, stage_config, lexicon):
                annotated += bool(annotation.entries)
        rows.append(AblationRow(name, annotated, total))
    return rows


def word_frequency(descriptions: list[WsDescription], config: SearchConfig,
                   lexicon: Lexicon) -> list[WordFrequencyRow]:
    """Count every word the full pipeline emitted while searching.

    Stages after a parameter's winning stage are never consulted, so
    their words do not count; a failed parameter contributes the words of
    its whole exhausted search.  Sorted by occurrences descending, ties
    by word ascending.
    """
    full = config._replace(enabled_stages=ALL_STAGES)
    counts: Counter[str] = Counter()
    for description in descriptions:
        for param in description.parameters():
            _, trace = annotate_parameter_with_trace(param, description, full, lexicon)
            for visit in trace:
                for word in visit.words:
                    counts[word.text] += 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [
        WordFrequencyRow(Word(text), occurrences, associate(Word(text), lexicon))
        for text, occurrences in ordered
    ]


def ablation_to_json(rows: list[AblationRow]) -> bytes:
    """The rows of `run_ablation` as deterministic UTF-8 JSON."""
    payload = {
        "counting": _COUNTING_NOTE,
        "rows": [
            {
                "stage": row.stage_name,
                "annotated": row.annotated,
                "total": row.total,
                "rate": row.rate,
            }
            for row in rows
        ],
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def render_ablation_table(rows: list[AblationRow]) -> str:
    """The rows of `run_ablation` as an aligned plain-text table."""
    width = max(len("Added functionality"), *(len(r.stage_name) for r in rows))
    lines = [
        f"{'Added functionality':<{width}}  {'Annotated':>9}  {'Total':>5}  {'Rate':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row.stage_name:<{width}}  {row.annotated:>9}  {row.total:>5}  "
            f"{row.rate * 100:>6.2f}%")
    lines.append(f"({_COUNTING_NOTE})")
    return "\n".join(lines) + "\n"


def word_frequency_to_csv(rows: list[WordFrequencyRow]) -> bytes:
    buffer = io.StringIO()
    out = csv.writer(buffer, lineterminator="\n")
    out.writerow(["word", "occurrences", "concept"])
    for row in rows:
        out.writerow([row.word.text, row.occurrences,
                      row.concept.id if row.concept else ""])
    return buffer.getvalue().encode("utf-8")
