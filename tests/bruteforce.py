"""Independent brute-force reference pipeline, used only by tests.

Deliberately written from scratch against the documented behavior rather
than by calling the package internals: a character-walk splitter instead
of the regex, its own lexicon file parser, and a recursive exhaustive
search instead of the iterative frontier.  Only structural facts
(parameters, type table) are taken from the parsed model: a type the
table defines is mined by name unless anonymous, and descended into
when it has members.  It imports nothing from the package: even the
XSD builtin types are spelled here, from the standard.
"""

import unicodedata

XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema"

# XML Schema Part 2 (https://www.w3.org/TR/xmlschema-2/): the primitive
# datatypes of section 3.2, then the derived ones of section 3.3
XSD_BUILTIN_TYPES = frozenset((
    "string boolean decimal float double duration dateTime time date"
    " gYearMonth gYear gMonthDay gDay gMonth hexBinary base64Binary anyURI"
    " QName NOTATION"
    " normalizedString token language NMTOKEN NMTOKENS Name NCName ID IDREF"
    " IDREFS ENTITY ENTITIES integer nonPositiveInteger negativeInteger long"
    " int short byte nonNegativeInteger unsignedLong unsignedInt"
    " unsignedShort unsignedByte positiveInteger").split())

STAGE_ROWS = (
    ("NoPreprocessing", frozenset(), False),
    ("+Decomposition", frozenset({"decompose"}), False),
    ("+Normalization", frozenset({"decompose", "normalize"}), False),
    ("+Filtering", frozenset({"decompose", "normalize", "filter"}), False),
    ("+TypeExplorer", frozenset({"decompose", "normalize", "filter"}), True),
)


def oracle_letters(raw):
    """Fold diacritics, keep ASCII letters, everything else a space."""
    out = []
    for ch in unicodedata.normalize("NFD", raw):
        if unicodedata.category(ch) == "Mn":
            continue
        if ch.isascii() and ch.isalpha():
            out.append(ch)
        else:
            out.append(" ")
    return "".join(out)


def oracle_split(raw):
    """Character-walk splitter: new token at separators and case boundaries."""
    text = oracle_letters(raw)
    tokens = []
    current = ""
    for position, ch in enumerate(text):
        if ch == " ":
            if current:
                tokens.append(current)
            current = ""
            continue
        if current:
            prev = current[-1]
            boundary = prev.islower() and ch.isupper()
            if not boundary and prev.isupper() and ch.isupper():
                nxt = text[position + 1] if position + 1 < len(text) else " "
                boundary = nxt.islower()
            if boundary:
                tokens.append(current)
                current = ""
        current += ch
    if current:
        tokens.append(current)
    return tokens


def oracle_preprocess(raw, stages, abbreviations, stop_words):
    if "decompose" in stages:
        tokens = oracle_split(raw)
    else:
        collapsed = oracle_letters(raw).replace(" ", "")
        tokens = [collapsed] if collapsed else []
    words = [token.lower() for token in tokens]
    if "normalize" in stages:
        words = [abbreviations.get(word, word) for word in words]
    if "filter" in stages:
        words = [word for word in words if word not in stop_words]
    return words


def oracle_parse_lexicon(text):
    """Parse word<TAB>rank<TAB>concept into word -> rank-1 concept."""
    best = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, rank, concept = line.split("\t")
        if int(rank) == 1:
            best[word.strip()] = concept.strip()
    return best


def oracle_parse_overrides(text):
    """Parse word=Concept lines into lowercased word -> concept."""
    pins = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, concept = line.split("=", 1)
        pins[word.strip().lower()] = concept.strip()
    return pins


def oracle_lookup(word, rank1, overrides):
    if word in overrides:
        return overrides[word]
    return rank1.get(word)


def _is_builtin(qname):
    return (qname.namespace_uri == XSD_NAMESPACE
            and qname.local_name in XSD_BUILTIN_TYPES)


def _find_type(desc, qname):
    """(local name or None, member list) for a type reference.

    A builtin or a name the type table lacks has neither; an anonymous
    type has no name.
    """
    if _is_builtin(qname):
        return None, []
    definition = desc.types.get(qname)
    if definition is None:
        return None, []
    name = None if definition.anonymous else definition.name.local_name
    return name, list(definition.subparameters)


def oracle_search(param, desc, stages, explore, abbreviations, stop_words,
                  rank1, overrides, max_depth=8):
    """(success, emitted words) for one parameter, exhaustively."""
    emitted = []

    def stage_hit(raw_names):
        hit = False
        for raw in raw_names:
            for word in oracle_preprocess(raw, stages, abbreviations, stop_words):
                emitted.append(word)
                if oracle_lookup(word, rank1, overrides) is not None:
                    hit = True
        return hit

    if stage_hit([param.name]):
        return True, emitted
    type_name, members = _find_type(desc, param.type_ref)
    if explore and type_name is not None and stage_hit([type_name]):
        return True, emitted
    if not explore or not members:
        return False, emitted

    def level(current, depth, visited):
        if not current or depth > max_depth:
            return False
        if stage_hit([member.name for member in current if member.name]):
            return True
        resolved = [_find_type(desc, member.type_ref) for member in current]
        named = [name for name, _ in resolved if name is not None]
        if stage_hit(named):
            return True
        deeper = []
        for member, (_, children) in zip(current, resolved):
            if not children:
                continue
            key = desc.types[member.type_ref].name
            if key in visited:
                continue
            visited.add(key)
            deeper.extend(children)
        return level(deeper, depth + 1, visited)

    root = desc.types[param.type_ref].name
    return level(members, 1, {root}), emitted


def oracle_ablation(descriptions, abbreviations, stop_words, rank1, overrides,
                    max_depth=8):
    """Five (stage, annotated, total) rows recomputed from scratch."""
    params = [(param, desc) for desc in descriptions for param in desc.parameters()]
    rows = []
    for stage_name, stages, explore in STAGE_ROWS:
        annotated = sum(
            oracle_search(param, desc, stages, explore, abbreviations,
                          stop_words, rank1, overrides, max_depth)[0]
            for param, desc in params)
        rows.append((stage_name, annotated, len(params)))
    return rows


def oracle_word_counts(descriptions, abbreviations, stop_words, rank1,
                       overrides, max_depth=8):
    """Word counts of the full-pipeline search, stage words counted whole."""
    counts = {}
    _, stages, _ = STAGE_ROWS[-1]
    for desc in descriptions:
        for param in desc.parameters():
            _, words = oracle_search(param, desc, stages, True, abbreviations,
                                     stop_words, rank1, overrides, max_depth)
            for word in words:
                counts[word] = counts.get(word, 0) + 1
    return counts
