"""Seeded on-disk corpora and a ranked lexicon for the benchmark.

Every generator here is a pure function of its ``random.Random``: the same
seed writes the same bytes.  The identifier mix comes from
``tests/corpusgen.py`` (imported, not copied) plus two generated
vocabularies that never overlap: words that are in the generated lexicon
("hit" words) and words that can never be ("miss" words, built from
letters the lexicon words never use).

Shapes that abort or silently alter a whole batch today (5000-deep
nesting, DOCTYPE/entities, an output dir inside an input dir) are left
out on purpose; see bench/NOTES.md.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

import corpusgen  # tests/corpusgen.py, put on sys.path by run.py

WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
XSD_NS = "http://www.w3.org/2001/XMLSchema"
SAWSDL_NS = "http://www.w3.org/ns/sawsdl"
SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"

# lexicon words use only these letters; miss words always contain one of
# q, x, w, j, h, so a miss word can never be a lexicon word
_HIT_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_MISS_SYLLABLES = [c + v for c in "qxwjh" for v in "aeiou"] + ["qu", "xy", "jy"]

# demo lexicon words and packaged word lists the generated words must avoid
_RESERVED = {part.lower() for part in corpusgen.NAME_PARTS} | {
    "id", "no", "identity", "number", "name", "data", "date", "code",
    "key", "city", "user", "amount", "value", "state", "time", "day",
    "text", "title", "year", "month", "region", "order", "person",
    "music", "talk", "book", "pass", "phone", "price", "song", "street",
}

LEXICON_WORDS = 60_000
CONCEPTS = 3_000
OVERRIDES = 1_500

DEMO_SENSES = "src/semwsdl/data/lexicon.tsv"


@dataclass
class Vocabulary:
    """Words that are in the generated lexicon (hit) and words that never are (miss)."""

    hit: list[str]
    miss: list[str]


def _word(rng: random.Random, syllables: list[str], low: int, high: int) -> str:
    return "".join(rng.choice(syllables) for _ in range(rng.randint(low, high)))


def _camel(words: list[str]) -> str:
    return "".join(word[:1].upper() + word[1:] for word in words)


def write_lexicon(rng: random.Random, root: Path, out_dir: Path) -> Vocabulary:
    """Write lexicon.tsv and overrides.txt; return the vocabularies used.

    The lexicon holds the packaged demo senses plus LEXICON_WORDS
    generated words with 1-3 ranked senses each (about 120k lines), which
    is the order of size of a real WordNet-to-ontology mapping.
    """
    concepts = sorted({_camel([_word(rng, _HIT_SYLLABLES, 1, 2),
                               _word(rng, _HIT_SYLLABLES, 1, 3)])
                       for _ in range(CONCEPTS)})
    demo_lines = [line for line in (root / DEMO_SENSES).read_text("utf-8").splitlines()
                  if line.strip() and not line.startswith("#")]
    demo_words = {line.split("\t")[0] for line in demo_lines}
    words: set[str] = set()
    while len(words) < LEXICON_WORDS:
        word = _word(rng, _HIT_SYLLABLES, 2, 4)
        if word not in _RESERVED and word not in demo_words:
            words.add(word)
    hit_words = sorted(words)
    lines = ["# generated benchmark lexicon: word<TAB>rank<TAB>concept"]
    lines.extend(demo_lines)
    for word in hit_words:
        for rank, concept in enumerate(rng.sample(concepts, rng.randint(1, 3)), start=1):
            lines.append(f"{word}\t{rank}\t{concept}")
    (out_dir / "lexicon.tsv").write_text("\n".join(lines) + "\n", "utf-8")
    overrides = ["# generated benchmark overrides", "user=Human"]
    overrides.extend(f"{word}={rng.choice(concepts)}"
                     for word in rng.sample(hit_words, OVERRIDES))
    (out_dir / "overrides.txt").write_text("\n".join(overrides) + "\n", "utf-8")
    miss_words = sorted({_word(rng, _MISS_SYLLABLES, 2, 3) for _ in range(3_000)})
    return Vocabulary(hit_words, miss_words)


def mix_name(rng: random.Random, vocab: Vocabulary) -> str:
    """The corpusgen name mix, or a camel-case run of hit and miss words."""
    if rng.random() < 0.5:
        return corpusgen._identifier(rng)
    parts = [rng.choice(vocab.hit) if rng.random() < 0.35 else rng.choice(vocab.miss)
             for _ in range(rng.randint(1, 3))]
    return _camel(parts)


def miss_name(rng: random.Random, vocab: Vocabulary) -> str:
    return _camel([rng.choice(vocab.miss) for _ in range(rng.randint(1, 2))])


# ---------------------------------------------------------------------------
# A tiny XML writer: an element is (tag, attrs, children); Raw is markup.

class Raw(str):
    """Markup inserted verbatim (comments, PIs, CDATA, character references)."""


def _render(node, out: list[str], indent: str) -> None:
    if isinstance(node, Raw):
        out.append(f"{indent}{node}\n")
        return
    tag, attrs, children = node
    attr_text = "".join(f" {name}={quoteattr(value)}" for name, value in attrs.items())
    if not children:
        out.append(f"{indent}<{tag}{attr_text}/>\n")
        return
    out.append(f"{indent}<{tag}{attr_text}>\n")
    for child in children:
        _render(child, out, indent + "  ")
    out.append(f"{indent}</{tag}>\n")


def render(root, epilog: list[Raw] = ()) -> bytes:
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    _render(root, out, "")
    out.extend(f"{item}\n" for item in epilog)
    return "".join(out).encode("utf-8")


def _q(prefix: str, local: str) -> str:
    return f"{prefix}:{local}" if prefix else local


# ---------------------------------------------------------------------------
# annotate-mix: many small-to-medium WSDLs of varied namespace shapes

# (wsdl prefix, xsd prefix used outside the schema, tns prefix,
#  schema uses the XSD namespace as its default)
_PREFIX_STYLES = [
    ("wsdl", "xsd", "tns", False),
    ("w", "s", "tns", False),        # renamed prefixes, as in support_desk
    ("", "xsd", "inv", False),       # WSDL as default namespace, as in inventory
    ("wd", "xs", "svc", False),
    ("wsdl", "xsd", "tns", True),    # schema declares XSD as its default
]

_SHADOWS = ["none", "none", "tns-redeclared", "xsd-shadowed",
            "sawsdl-root-shadow", "sawsdl-local-shadow", "existing-reference"]

_BUILTINS = ["string", "int", "decimal", "boolean", "dateTime", "long"]

COMMON_XSD = "common.xsd"
COMMON_NS = "urn:bench:common"


def _common_schema(rng: random.Random, vocab: Vocabulary) -> tuple[bytes, list[str]]:
    names = [f"C{position}{mix_name(rng, vocab)}" for position in range(6)]
    children = []
    for name in names:
        members = [("xsd:element", {"name": mix_name(rng, vocab),
                                    "type": f"xsd:{rng.choice(_BUILTINS)}"}, [])
                   for _ in range(rng.randint(1, 3))]
        children.append(("xsd:complexType", {"name": name},
                         [("xsd:sequence", {}, members)]))
    root = ("xsd:schema", {"targetNamespace": COMMON_NS, "xmlns:xsd": XSD_NS}, children)
    return render(root), names


def _mix_wsdl(rng: random.Random, vocab: Vocabulary, index: int,
              common_types: list[str]) -> bytes:
    wp, xp, tp, schema_default = rng.choice(_PREFIX_STYLES)
    shadow = rng.choice(_SHADOWS)
    uses_common = rng.random() < 0.1
    tns = f"http://bench.example/mix/{index}"
    sp = "" if schema_default else xp   # prefix of XSD elements inside the schema

    def w(local):
        return _q(wp, local)

    def s(local):
        return _q(sp, local)

    def builtin(inside_schema: bool) -> str:
        return _q(sp if inside_schema else xp, rng.choice(_BUILTINS))

    type_names = [f"T{position}{mix_name(rng, vocab)}" for position in range(rng.randint(0, 3))]
    element_names = [f"E{position}{mix_name(rng, vocab)}" for position in range(rng.randint(0, 2))]

    def type_ref(inside_schema: bool) -> str:
        roll = rng.random()
        if roll < 0.4 or not type_names:
            if uses_common and roll < 0.15:
                return f"c:{rng.choice(common_types)}"
            return builtin(inside_schema)
        if roll < 0.48:
            return f"{tp}:Missing{rng.randint(0, 9)}"
        return f"{tp}:{rng.choice(type_names)}"

    def sequence_member():
        name = mix_name(rng, vocab)
        roll = rng.random()
        if roll < 0.1 and element_names:
            return (s("element"), {"ref": f"{tp}:{rng.choice(element_names)}"}, [])
        if roll < 0.2:
            inner = [(s("element"), {"name": mix_name(rng, vocab), "type": builtin(True)}, [])
                     for _ in range(rng.randint(1, 2))]
            return (s("element"), {"name": name},
                    [(s("complexType"), {}, [(s("sequence"), {}, inner)])])
        if roll < 0.27:
            return (s("element"), {"name": name},
                    [(s("simpleType"), {}, [(s("restriction"), {"base": builtin(True)}, [])])])
        return (s("element"), {"name": name, "type": type_ref(True)}, [])

    schema_children = []
    if uses_common:
        schema_children.append((s("import"), {"namespace": COMMON_NS,
                                              "schemaLocation": COMMON_XSD}, []))
    for name in type_names:
        roll = rng.random()
        if roll < 0.6:
            members = [sequence_member() for _ in range(rng.randint(1, 3))]
            schema_children.append((s("complexType"), {"name": name},
                                    [(s("sequence"), {}, members)]))
        elif roll < 0.75:
            schema_children.append((s("simpleType"), {"name": name},
                                    [(s("restriction"), {"base": builtin(True)}, [])]))
        elif roll < 0.87:
            options = [(s("element"), {"name": mix_name(rng, vocab), "type": builtin(True)}, [])
                       for _ in range(2)]
            schema_children.append((s("complexType"), {"name": name},
                                    [(s("choice"), {}, options)]))
        else:
            schema_children.append((s("complexType"), {"name": name},
                                    [(s("sequence"), {}, [])]))
    for name in element_names:
        roll = rng.random()
        if roll < 0.4:
            schema_children.append((s("element"), {"name": name, "type": type_ref(True)}, []))
        elif roll < 0.85:
            members = [sequence_member() for _ in range(rng.randint(1, 3))]
            schema_children.append((s("element"), {"name": name},
                                    [(s("complexType"), {}, [(s("sequence"), {}, members)])]))
        else:
            schema_children.append((s("element"), {"name": name}, []))

    root_attrs = {"name": f"Service{index}", "targetNamespace": tns}
    root_attrs["xmlns" if not wp else f"xmlns:{wp}"] = WSDL_NS
    root_attrs[f"xmlns:{xp}"] = XSD_NS
    root_attrs[f"xmlns:{tp}"] = tns
    if uses_common:
        root_attrs["xmlns:c"] = COMMON_NS
    sawsdl_prefix = None
    if shadow == "sawsdl-root-shadow":
        root_attrs["xmlns:sawsdl"] = "urn:bench:not-sawsdl"
    elif shadow in ("sawsdl-local-shadow", "existing-reference"):
        sawsdl_prefix = rng.choice(["sawsdl", "sa"])
        root_attrs[f"xmlns:{sawsdl_prefix}"] = SAWSDL_NS

    schema_attrs = {"targetNamespace": tns}
    if schema_default:
        schema_attrs["xmlns"] = XSD_NS
    if shadow == "tns-redeclared":
        schema_attrs[f"xmlns:{tp}"] = tns
    if rng.random() < 0.5:
        schema_attrs["elementFormDefault"] = "qualified"

    def part():
        attrs = {"name": mix_name(rng, vocab) if rng.random() > 0.05 else ""}
        if element_names and rng.random() < 0.35:
            attrs = {"name": rng.choice(["body", "parameters", "in"]),
                     "element": f"{tp}:{rng.choice(element_names)}"}
        else:
            attrs["type"] = type_ref(False)
        if shadow == "existing-reference" and rng.random() < 0.3:
            attrs[f"{sawsdl_prefix}:modelReference"] = (
                f"http://example.org/existing#{_camel([rng.choice(vocab.hit)])}")
        return (w("part"), attrs, [])

    messages = []
    for position in range(rng.randint(1, 2)):
        attrs = {"name": f"M{position}"}
        if position == 0 and shadow == "xsd-shadowed":
            attrs[f"xmlns:{xp}"] = "urn:bench:not-xsd"
        if position == 0 and shadow == "sawsdl-local-shadow":
            attrs[f"xmlns:{sawsdl_prefix}"] = "urn:bench:shadow"
        messages.append((w("message"), attrs,
                         [part() for _ in range(rng.randint(1, 2))]))

    operations = []
    for position in range(rng.randint(1, 2)):
        ports = [(w("input"), {"message": f"{tp}:M{rng.randrange(len(messages))}"}, [])]
        if rng.random() < 0.5:
            ports.append((w("output"), {"message": f"{tp}:M{rng.randrange(len(messages))}"}, []))
        operations.append((w("operation"), {"name": f"Op{position}{mix_name(rng, vocab)}"}, ports))

    children = []
    if rng.random() < 0.3:
        children.append((w("documentation"), {}, [
            Raw(f"Service {index}: fees &amp; limits &lt;apply&gt;&#13;"),
            Raw("<![CDATA[raw <markup> & text]]>"),
            Raw("<?bench-pi keep me?>"),
        ]))
    children.append(Raw(f"<!-- generated service {index} -->"))
    if schema_children:
        children.append((w("types"), {}, [(s("schema"), schema_attrs, schema_children)]))
    children.extend(messages)
    children.append((w("portType"), {"name": "Port"}, operations))
    if not wp and rng.random() < 0.5:
        root_attrs["xmlns:soap"] = SOAP_NS
        children.append(("binding", {"name": "Binding", "type": f"{tp}:Port"}, [
            ("soap:binding", {"style": "rpc",
                              "transport": "http://schemas.xmlsoap.org/soap/http"}, [])]))
        children.append(("service", {"name": "Service"}, [
            ("port", {"name": "PortSoap", "binding": f"{tp}:Binding"}, [
                ("soap:address", {"location": f"http://bench.example/{index}"}, [])])]))
    root = (w("definitions"), root_attrs, children)
    return render(root, epilog=[Raw("<!-- end -->")] if rng.random() < 0.2 else [])


# Malformed inputs the CLI must report as skipped, one kind per entry.
_BAD_KINDS = [
    lambda rng: b"",                                                   # no element
    lambda rng: b'<?xml version="1.0"?>\n<wsdl:definitions xmlns:wsdl="'
                + WSDL_NS.encode() + b'"><wsdl:message name="M">',     # truncated
    lambda rng: b"<" + bytes(rng.randrange(256) for _ in range(200)),  # binary noise
    lambda rng: b"<html><body>not a service</body></html>\n",         # wrong root
    lambda rng: b'<definitions xmlns="urn:bench:other"/>\n',           # wrong namespace
    lambda rng: b"<a><b></a></b>\n",                                   # mismatched tags
]


def _plant_bad(rng: random.Random, corpus: Path, count: int) -> list[str]:
    names = []
    for position in range(count):
        name = f"bad-{position:04d}.wsdl"
        (corpus / name).write_bytes(_BAD_KINDS[position % len(_BAD_KINDS)](rng))
        names.append(name)
    return names


def annotate_mix(rng: random.Random, vocab: Vocabulary, corpus: Path,
                 files: int = 1000, bad: int = 10) -> list[str]:
    common, common_types = _common_schema(rng, vocab)
    (corpus / COMMON_XSD).write_bytes(common)
    for index in range(files):
        (corpus / f"svc-{index:05d}.wsdl").write_bytes(
            _mix_wsdl(rng, vocab, index, common_types))
    return _plant_bad(rng, corpus, bad)


# ---------------------------------------------------------------------------
# ablate-deep: deep, wide, cyclic sequence types whose names miss the
# lexicon until a per-file depth, so the staged search runs deep

_LEVEL_SIZES = [2, 3, 4, 4, 5, 5, 5, 5, 4]


def _deep_wsdl(rng: random.Random, vocab: Vocabulary, index: int) -> bytes:
    tns = f"http://bench.example/deep/{index}"
    # fixed per index, so every corpus has the same share of each depth;
    # len(_LEVEL_SIZES) never hits and runs the search to max_depth
    hit_level = 3 + index % (len(_LEVEL_SIZES) - 2)
    levels = [[f"L{level}N{position}{miss_name(rng, vocab)}"
               for position in range(size)]
              for level, size in enumerate(_LEVEL_SIZES)]

    def member_name(level: int) -> str:
        if level >= hit_level and rng.random() < 0.4:
            return corpusgen._identifier(rng)
        return miss_name(rng, vocab)

    schema_children = []
    for level, names in enumerate(levels):
        for name in names:
            members = []
            for _ in range(rng.randint(3, 6)):
                roll = rng.random()
                if level + 1 < len(levels) and roll < 0.7:
                    ref = f"tns:{rng.choice(levels[level + 1])}"
                elif roll < 0.8:
                    ref = f"tns:{rng.choice(levels[rng.randint(0, level)])}"  # cycle
                else:
                    ref = f"xsd:{rng.choice(_BUILTINS)}"
                members.append(("xsd:element", {"name": member_name(level), "type": ref}, []))
            schema_children.append(("xsd:complexType", {"name": name},
                                    [("xsd:sequence", {}, members)]))
    messages, operations = [], []
    for position in range(3):
        parts = [("wsdl:part", {"name": miss_name(rng, vocab),
                                "type": f"tns:{rng.choice(levels[0])}"}, [])
                 for _ in range(3)]
        messages.append(("wsdl:message", {"name": f"M{position}"}, parts))
        operations.append(("wsdl:operation", {"name": f"Op{position}"},
                           [("wsdl:input", {"message": f"tns:M{position}"}, [])]))
    root = ("wsdl:definitions",
            {"name": f"Deep{index}", "targetNamespace": tns,
             "xmlns:wsdl": WSDL_NS, "xmlns:xsd": XSD_NS, "xmlns:tns": tns},
            [("wsdl:types", {}, [("xsd:schema", {"targetNamespace": tns}, schema_children)]),
             *messages,
             ("wsdl:portType", {"name": "Port"}, operations)])
    return render(root)


def ablate_deep(rng: random.Random, vocab: Vocabulary, corpus: Path,
                files: int = 60, bad: int = 2) -> list[str]:
    for index in range(files):
        (corpus / f"deep-{index:04d}.wsdl").write_bytes(_deep_wsdl(rng, vocab, index))
    return _plant_bad(rng, corpus, bad)


# ---------------------------------------------------------------------------
# wordfreq-imports: every WSDL imports one entry XSD of a shared library
# whose files include each other in a ring, so each description merges
# the whole library

LIBRARY_FILES = 10
LIBRARY_TYPES = 200


def _library_ns(position: int) -> str:
    return f"urn:bench:lib:{position}"


def _library_xsd(rng: random.Random, vocab: Vocabulary, position: int,
                 type_names: list[list[str]]) -> bytes:
    attrs = {"targetNamespace": _library_ns(position), "xmlns:xsd": XSD_NS}
    for other in range(LIBRARY_FILES):
        attrs[f"xmlns:l{other}"] = _library_ns(other)
    children = [("xsd:include",
                 {"schemaLocation": f"lib-{(position + 1) % LIBRARY_FILES:02d}.xsd"}, [])]
    for name in type_names[position]:
        roll = rng.random()
        if roll < 0.6:
            members = []
            for _ in range(rng.randint(2, 5)):
                if rng.random() < 0.3:
                    other = rng.randrange(LIBRARY_FILES)
                    ref = f"l{other}:{rng.choice(type_names[other])}"
                else:
                    ref = f"xsd:{rng.choice(_BUILTINS)}"
                members.append(("xsd:element", {"name": mix_name(rng, vocab), "type": ref}, []))
            children.append(("xsd:complexType", {"name": name}, [("xsd:sequence", {}, members)]))
        elif roll < 0.8:
            children.append(("xsd:simpleType", {"name": name},
                             [("xsd:restriction", {"base": "xsd:string"}, [])]))
        elif roll < 0.9:
            children.append(("xsd:complexType", {"name": name},
                             [("xsd:choice", {}, [("xsd:element", {"name": "alt",
                                                                    "type": "xsd:string"}, [])])]))
        else:
            children.append(("xsd:complexType", {"name": name}, [("xsd:sequence", {}, [])]))
    return render(("xsd:schema", attrs, children))


def _importing_wsdl(rng: random.Random, vocab: Vocabulary, index: int,
                    type_names: list[list[str]]) -> bytes:
    tns = f"http://bench.example/imports/{index}"
    entry = rng.randrange(LIBRARY_FILES)
    root_attrs = {"name": f"Importer{index}", "targetNamespace": tns,
                  "xmlns:wsdl": WSDL_NS, "xmlns:xsd": XSD_NS, "xmlns:tns": tns}
    for other in range(LIBRARY_FILES):
        root_attrs[f"xmlns:l{other}"] = _library_ns(other)

    def type_ref() -> str:
        if rng.random() < 0.25:
            return f"xsd:{rng.choice(_BUILTINS)}"
        other = rng.randrange(LIBRARY_FILES)
        return f"l{other}:{rng.choice(type_names[other])}"

    messages, operations = [], []
    for position in range(rng.randint(1, 2)):
        parts = [("wsdl:part", {"name": mix_name(rng, vocab), "type": type_ref()}, [])
                 for _ in range(rng.randint(2, 4))]
        messages.append(("wsdl:message", {"name": f"M{position}"}, parts))
        operations.append(("wsdl:operation", {"name": f"Op{position}{mix_name(rng, vocab)}"},
                           [("wsdl:input", {"message": f"tns:M{position}"}, [])]))
    schema = ("xsd:schema", {"targetNamespace": tns},
              [("xsd:import", {"namespace": _library_ns(entry),
                               "schemaLocation": f"lib-{entry:02d}.xsd"}, [])])
    root = ("wsdl:definitions", root_attrs,
            [("wsdl:types", {}, [schema]), *messages,
             ("wsdl:portType", {"name": "Port"}, operations)])
    return render(root)


def wordfreq_imports(rng: random.Random, vocab: Vocabulary, corpus: Path,
                     files: int = 500, bad: int = 5) -> list[str]:
    type_names = [[f"L{position}T{number}{mix_name(rng, vocab)}"
                   for number in range(LIBRARY_TYPES)]
                  for position in range(LIBRARY_FILES)]
    for position in range(LIBRARY_FILES):
        (corpus / f"lib-{position:02d}.xsd").write_bytes(
            _library_xsd(rng, vocab, position, type_names))
    for index in range(files):
        (corpus / f"imp-{index:05d}.wsdl").write_bytes(
            _importing_wsdl(rng, vocab, index, type_names))
    return _plant_bad(rng, corpus, bad)


# ---------------------------------------------------------------------------

MINIMAL_WSDL = f"""<?xml version="1.0"?>
<wsdl:definitions targetNamespace="urn:bench:minimal"
    xmlns:wsdl="{WSDL_NS}" xmlns:xsd="{XSD_NS}" xmlns:tns="urn:bench:minimal">
  <wsdl:message name="In"><wsdl:part name="city" type="xsd:string"/></wsdl:message>
  <wsdl:portType name="P">
    <wsdl:operation name="Find"><wsdl:input message="tns:In"/></wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""

def fixture_copies(root: Path, work: Path, corpus: Path, copies: int = 300) -> list[str]:
    """The ten checked-in fixtures x300 with the demo lexicon: the ROADMAP baseline corpus."""
    shutil.copyfile(root / DEMO_SENSES, work / "lexicon.tsv")
    (work / "overrides.txt").write_text("# no overrides\n", "utf-8")
    for path in sorted((root / "fixtures" / "corpus").glob("*.wsdl")):
        data = path.read_bytes()
        for copy in range(copies):
            (corpus / f"{path.stem}-{copy:03d}.wsdl").write_bytes(data)
    return []


CORPORA = {
    "annotate-mix": annotate_mix,
    "ablate-deep": ablate_deep,
    "wordfreq-imports": wordfreq_imports,
}


def generate(workload: str, seed: int, root: Path, work: Path) -> None:
    """Write lexicon, overrides, corpus/, minimal/ and planted_bad.json under work."""
    corpus = work / "corpus"
    corpus.mkdir()
    if workload == "fixture-copies":
        planted = fixture_copies(root, work, corpus)
    else:
        rng = random.Random(f"{workload}:{seed}")
        vocab = write_lexicon(rng, root, work)
        planted = CORPORA[workload](rng, vocab, corpus)
    (work / "planted_bad.json").write_text(json.dumps(sorted(planted)), "utf-8")
    (work / "minimal").mkdir()
    (work / "minimal" / "minimal.wsdl").write_text(MINIMAL_WSDL, "utf-8")
