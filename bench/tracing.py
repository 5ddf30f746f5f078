"""In-process tracing of the semwsdl layers, from outside the package.

Wrappers are installed on the names each caller looks up (``cli.load_corpus``,
``explore.preprocess``, ``xmlio.parse_xml``, ...), so the package itself is
not edited.  Spans (name, start, end, parent) are kept in flat arrays and
written out once at the end; self times come from them.  A name that no
longer exists fails loudly, so a refactor cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path


class TraceError(RuntimeError):
    """A wrapped name is missing, or a layer the workload needs recorded nothing."""


def _observe_parse(counters, args, result):
    counters["xmlio.bytes_parsed"] += len(args[0])


def _observe_corpus(counters, args, result):
    counters["ingest.descriptions"] += len(result.descriptions)
    counters["ingest.types"] += sum(len(d.types) for d in result.descriptions)


def _observe_preprocess(counters, args, result):
    counters["preprocess.words_out"] += len(result)


def _observe_associate(counters, args, result):
    counters["lexicon.words_looked_up"] += len(args[0])
    counters["lexicon.pairs_returned"] += len(result)


def _observe_annotations(counters, args, result):
    counters["explore.annotations"] += len(result)
    counters["explore.annotated"] += sum(1 for a in result if a.entries)


def _observe_traced_annotation(counters, args, result):
    counters["explore.annotations"] += 1
    counters["explore.annotated"] += bool(result[0].entries)


def _observe_bytes_out(counters, args, result):
    counters["writer.bytes_out"] += len(result)


# (module, attribute looked up by the caller, span name, observer)
SPANS = [
    ("semwsdl.cli", "load_lexicon", "lexicon.load_lexicon", None),
    ("semwsdl.cli", "load_corpus", "ingest.load_corpus", _observe_corpus),
    ("semwsdl.cli", "annotate_description", "explore.annotate_description",
     _observe_annotations),
    ("semwsdl.cli", "write_sawsdl", "writer.write_sawsdl", _observe_bytes_out),
    ("semwsdl.cli", "write_report", "writer.write_report", _observe_bytes_out),
    ("semwsdl.cli", "run_ablation", "metrics.run_ablation", None),
    ("semwsdl.cli", "word_frequency", "metrics.word_frequency", None),
    ("semwsdl.metrics", "annotate_description", "explore.annotate_description",
     _observe_annotations),
    ("semwsdl.metrics", "annotate_parameter_with_trace",
     "explore.annotate_parameter_with_trace", _observe_traced_annotation),
    ("semwsdl.explore", "preprocess", "preprocess.preprocess", _observe_preprocess),
    ("semwsdl.explore", "associate_words", "lexicon.associate_words", _observe_associate),
    ("semwsdl.xmlio", "parse_xml", "xmlio.parse_xml", _observe_parse),
    ("semwsdl.xmlio", "serialize", "xmlio.serialize", None),
]

# call counts only: these run too often for a span each to stay cheap
COUNTS = [
    ("semwsdl.xmlio", "XmlElement.nsmap", "xmlio.nsmap.calls"),
    ("semwsdl.explore", "resolve_type", "ingest.resolve_type.calls"),
]

ROOT_SPAN = "cli.run"


def _resolve(module_name: str, dotted: str):
    """(owner object, attribute name, current value); TraceError if missing."""
    owner = importlib.import_module(module_name)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"{module_name}.{dotted}: {part} no longer exists")
    if not hasattr(owner, attr):
        raise TraceError(f"{module_name}.{dotted} no longer exists; "
                         "update bench/tracing.py with the refactor")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Records spans and counters while installed; restores everything on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, function, observe=None):
        """Wrap function so each call records one span and feeds observe."""
        name_id = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def counting(self, counter: str, function):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return function(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        try:
            for module_name, dotted, name, observe in SPANS:
                self._install(module_name, dotted, lambda f: self.span(name, f, observe))
            for module_name, dotted, counter in COUNTS:
                self._install(module_name, dotted, lambda f: self.counting(counter, f))
        except TraceError:
            self.__exit__()
            raise
        return self

    def _install(self, module_name: str, dotted: str, wrap) -> None:
        owner, attr, original = _resolve(module_name, dotted)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- accounting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.span_name)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += self.span_end[index] - self.span_start[index]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for index, name_id in enumerate(self.span_name):
            duration = self.span_end[index] - self.span_start[index]
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[index]
        return totals

    def write_spans(self, path: Path) -> None:
        """One TSV line per span: index, name, parent index, start, end."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with path.open("w", encoding="utf-8") as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for index, name_id in enumerate(self.span_name):
                out.write(f"{index}\t{self.names[name_id]}\t{self.span_parent[index]}\t"
                          f"{self.span_start[index] - origin:.9f}\t"
                          f"{self.span_end[index] - origin:.9f}\n")


# spans each workload must record at least once
REQUIRED = {
    "annotate": ["lexicon.load_lexicon", "ingest.load_corpus", "explore.annotate_description",
                 "writer.write_sawsdl", "writer.write_report", "xmlio.parse_xml",
                 "xmlio.serialize", "preprocess.preprocess", "lexicon.associate_words"],
    "ablate": ["lexicon.load_lexicon", "ingest.load_corpus", "metrics.run_ablation",
               "explore.annotate_description", "xmlio.parse_xml",
               "preprocess.preprocess", "lexicon.associate_words"],
    "wordfreq": ["lexicon.load_lexicon", "ingest.load_corpus", "metrics.word_frequency",
                 "explore.annotate_parameter_with_trace", "xmlio.parse_xml",
                 "preprocess.preprocess", "lexicon.associate_words"],
}


# metrics made of counts only: they must repeat exactly between runs
COUNT_SUFFIXES = (".calls", ".bytes_parsed", ".words_out", ".words_looked_up",
                  ".pairs_returned", ".bytes_out", ".types_per_description", ".hit_ratio",
                  ".annotated_ratio")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, command: str) -> dict[str, float]:
    """The per-layer metrics of one traced cli.run, by name."""
    totals = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for name in REQUIRED[command] + [ROOT_SPAN]:
        if totals.get(name, empty)["calls"] == 0:
            raise TraceError(f"traced {command} recorded no {name} span; "
                             "the call no longer goes through the wrapped name")
    for counter in ("xmlio.nsmap.calls", "ingest.resolve_type.calls"):
        if tracer.counters[counter] == 0:
            raise TraceError(f"traced {command} counted no {counter}")

    def get(name):
        return totals.get(name, empty)

    c = tracer.counters
    explore_self = (get("explore.annotate_description")["self_s"]
                    + get("explore.annotate_parameter_with_trace")["self_s"])
    return {
        "xmlio.parse_xml.calls": get("xmlio.parse_xml")["calls"],
        "xmlio.parse_xml.s": get("xmlio.parse_xml")["s"],
        "xmlio.serialize.calls": get("xmlio.serialize")["calls"],
        "xmlio.serialize.s": get("xmlio.serialize")["s"],
        "xmlio.nsmap.calls": c["xmlio.nsmap.calls"],
        "xmlio.bytes_parsed": c["xmlio.bytes_parsed"],
        "ingest.load_corpus.s": get("ingest.load_corpus")["s"],
        "ingest.load_corpus.self_s": get("ingest.load_corpus")["self_s"],
        "ingest.resolve_type.calls": c["ingest.resolve_type.calls"],
        "ingest.types_per_description": _ratio(c["ingest.types"], c["ingest.descriptions"]),
        "preprocess.preprocess.calls": get("preprocess.preprocess")["calls"],
        "preprocess.preprocess.s": get("preprocess.preprocess")["s"],
        "preprocess.words_out": c["preprocess.words_out"],
        "lexicon.load_lexicon.s": get("lexicon.load_lexicon")["s"],
        "lexicon.associate_words.calls": get("lexicon.associate_words")["calls"],
        "lexicon.associate_words.s": get("lexicon.associate_words")["s"],
        "lexicon.words_looked_up": c["lexicon.words_looked_up"],
        "lexicon.pairs_returned": c["lexicon.pairs_returned"],
        "lexicon.hit_ratio": _ratio(c["lexicon.pairs_returned"], c["lexicon.words_looked_up"]),
        "explore.annotate_description.s": get("explore.annotate_description")["s"],
        "explore.self_s": explore_self,
        "explore.annotated_ratio": _ratio(c["explore.annotated"], c["explore.annotations"]),
        "writer.write_sawsdl.calls": get("writer.write_sawsdl")["calls"],
        "writer.write_sawsdl.s": get("writer.write_sawsdl")["s"],
        "writer.write_sawsdl.self_s": get("writer.write_sawsdl")["self_s"],
        "writer.write_report.s": get("writer.write_report")["s"],
        "writer.bytes_out": c["writer.bytes_out"],
        "metrics.run_ablation.self_s": get("metrics.run_ablation")["self_s"],
        "metrics.word_frequency.self_s": get("metrics.word_frequency")["self_s"],
        "cli.run.self_s": get(ROOT_SPAN)["self_s"],
        "cli.run.s": get(ROOT_SPAN)["s"],
    }
