"""Batch semantic annotation of WSDL service descriptions.

Parses WSDL 1.1 files, turns parameter and type names into clean words,
maps the words to ontology concepts through a ranked lexicon, explores
complex-type structure when names alone say nothing, and writes SAWSDL
modelReference attributes back into copies of the originals.
"""

from .explore import annotate_description, annotate_parameter, annotate_parameter_with_trace
from .ingest import (
    Corpus,
    ParsedWsdl,
    load_corpus,
    parse_wsdl,
)
from .lexicon import (
    Lexicon,
    associate,
    associate_words,
    default_lexicon,
    load_lexicon,
    load_overrides,
)
from .metrics import (
    AblationReport,
    AblationRow,
    WordFrequencyRow,
    run_ablation,
    word_frequency,
)
from .model import (
    Annotation,
    AnnotationEntry,
    AnnotationSource,
    Concept,
    Direction,
    Operation,
    Parameter,
    QName,
    SubParameter,
    TypeDefinition,
    Word,
    WsDescription,
    resolve_type,
)
from .preprocess import (
    SearchConfig,
    Stage,
    decompose,
    default_config,
    filter_words,
    normalize,
    preprocess,
    read_text,
)
from .writer import WriterConfig, write_report, write_sawsdl
from .xmlio import MalformedXml

__version__ = "0.1.0"

__all__ = [
    "AblationReport",
    "AblationRow",
    "Annotation",
    "AnnotationEntry",
    "AnnotationSource",
    "Concept",
    "Corpus",
    "Direction",
    "Lexicon",
    "MalformedXml",
    "Operation",
    "Parameter",
    "ParsedWsdl",
    "QName",
    "SearchConfig",
    "Stage",
    "SubParameter",
    "TypeDefinition",
    "Word",
    "WordFrequencyRow",
    "WriterConfig",
    "WsDescription",
    "annotate_description",
    "annotate_parameter",
    "annotate_parameter_with_trace",
    "associate",
    "associate_words",
    "decompose",
    "default_config",
    "default_lexicon",
    "filter_words",
    "load_corpus",
    "load_lexicon",
    "load_overrides",
    "normalize",
    "parse_wsdl",
    "preprocess",
    "read_text",
    "resolve_type",
    "run_ablation",
    "word_frequency",
    "write_report",
    "write_sawsdl",
]
