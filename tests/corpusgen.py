"""Seeded random in-memory corpora for order and invariant testing."""

import random

from semwsdl.model import (
    XSD_NAMESPACE,
    Direction,
    Operation,
    Parameter,
    QName,
    SubParameter,
    TypeDefinition,
    WsDescription,
)

# a mix of lexicon hits, misses, stop words, abbreviation keys, separators
NAME_PARTS = [
    "User", "Name", "Session", "Id", "Play", "List", "Data", "Info",
    "City", "Password", "no", "Body", "buffalo", "school", "xyzzy",
    "Customer", "Message", "Amount", "Token", "Format", "arg", "out",
    "Songs", "price", "shade", "misc", "Get", "a", "XMLHttp", "Café",
]


def _identifier(rng):
    parts = rng.choices(NAME_PARTS, k=rng.randint(1, 3))
    separator = rng.choice(["", "", "_", "-", "3"])
    return separator.join(parts)


def random_description(rng, index):
    namespace = f"http://gen.example/{index}"
    type_names = [
        QName(namespace, f"T{position}{_identifier(rng)}")
        for position in range(rng.randint(0, 4))
    ]

    def any_ref():
        roll = rng.random()
        if roll < 0.45 or not type_names:
            return QName(XSD_NAMESPACE, rng.choice(["string", "int", "decimal"]))
        if roll < 0.55:
            return QName(namespace, f"Missing{rng.randint(0, 9)}")
        return rng.choice(type_names)

    types = {}
    for qn in type_names:
        roll = rng.random()
        if roll < 0.55:
            members = tuple(
                SubParameter("" if rng.random() < 0.1 else _identifier(rng), any_ref())
                for _ in range(rng.randint(1, 3)))
            types[qn] = TypeDefinition(qn, members)
        elif roll < 0.7:
            types[qn] = TypeDefinition(qn, anonymous=rng.random() < 0.2)
        else:
            types[qn] = TypeDefinition(qn)

    operations = []
    for op_index in range(rng.randint(1, 3)):
        op_name = f"Op{op_index}{_identifier(rng)}"

        def params(direction, count):
            return tuple(
                Parameter("" if rng.random() < 0.05 else _identifier(rng),
                          direction, any_ref(),
                          f"gen{index}::{op_name}::{direction.value}::{p}")
                for p in range(count))

        operations.append(Operation(op_name,
                                    params(Direction.INPUT, rng.randint(0, 3))
                                    + params(Direction.OUTPUT, rng.randint(0, 2))))
    return WsDescription(f"gen{index}", tuple(operations), types)


def random_corpus(seed, size=None):
    rng = random.Random(seed)
    if size is None:
        size = rng.randint(1, 3)
    return [random_description(rng, i) for i in range(size)]
