"""A seeded corpus of edge-list documents, pinned by what the parser makes of them.

Each category draws its documents from its own seeded generator.  A
document's outcome is its graph, as (vertices, edges in insertion order,
labels), or the (exception type, message) it raises; one sha256 over the
outcomes of a category pins them all.  The corpus covers comments, the
three line ends, tabs and other in-line blanks, numeric spellings,
labelled tokens, implicit and explicit ids, count mismatches and every
header error.  It holds no character that only str.splitlines() treats as
a line break (those are pinned by test_multigraph.py).
"""

import hashlib
import random

import pytest

from cyclelattice.errors import CapacityError, ParseError
from cyclelattice.multigraph import VERTEX_BOUND, parse_edge_list

DOCUMENTS_PER_CATEGORY = 400
LINE_ENDS = ("\n", "\r\n", "\r")
BLANKS = (" ", "  ", "\t", " \t ", "\xa0", "\x1f")
SPELLINGS = ("{}", "0{}", "+{}", "00{}")


def _spell(rng: random.Random, x: int) -> str:
    """x written in one of the spellings int() accepts."""
    if x == 0:
        return rng.choice(("0", "-0", "+0", "00"))
    if x == 10 and rng.random() < 0.3:
        return "1_0"
    if x < 10 and rng.random() < 0.15:
        return chr(0x0660 + x)  # an Arabic-Indic digit
    return rng.choice(SPELLINGS).format(x)


def _comment(rng: random.Random) -> str:
    return rng.choice(("# c", "#", "#1 2", "# 3 3 #", "#\tx y 7"))


def _render(rng: random.Random, lines: list[str], noise: float = 0.3) -> str:
    """Join lines with random line ends, blank and comment lines, and
    comments after the content."""
    out = []
    for line in lines:
        while rng.random() < noise * 0.3:
            out.append(rng.choice(("", "   ", "\t", _comment(rng))))
        if rng.random() < noise:
            line += rng.choice(BLANKS[:3]) + _comment(rng)
        if rng.random() < noise * 0.5:
            line = rng.choice(BLANKS) + line + rng.choice(BLANKS)
        out.append(line)
    ends = [rng.choice(LINE_ENDS) if rng.random() < noise else "\n" for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    if out and rng.random() < 0.2:
        text = text[: -len(ends[-1])]  # no final line end
    return text


def _edge_line(rng: random.Random, u: str, v: str, eid: str | None) -> str:
    sep = rng.choice(BLANKS)
    return f"{u}{sep}{v}" if eid is None else f"{u}{sep}{v}{rng.choice(BLANKS)}{eid}"


def _numeric_pairs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)]


def _comments(rng: random.Random) -> str:
    """Valid numeric documents under heavy comment and line-end noise."""
    n = rng.randint(1, 8)
    m = rng.randint(0, 10)
    lines = [f"{n}{rng.choice(BLANKS)}{m}"]
    lines += [_edge_line(rng, str(u), str(v), None) for u, v in _numeric_pairs(rng, n, m)]
    return _render(rng, lines, noise=0.8)


def _spellings(rng: random.Random) -> str:
    """Numeric tokens in every spelling, sometimes out of range."""
    n = rng.randint(1, 12)
    m = rng.randint(0, 10)
    lines = [f"{_spell(rng, n)} {_spell(rng, m)}"]
    for u, v in _numeric_pairs(rng, n, m):
        if rng.random() < 0.05:
            u = rng.choice((0, n + 1, -1, 13))
        lines.append(_edge_line(rng, _spell(rng, u) if u >= 0 else str(u), _spell(rng, v), None))
    return _render(rng, lines)


def _labelled(rng: random.Random) -> str:
    """Labelled tokens, mixed with numeric ones, against a declared n that
    may be too small or too large."""
    pool = ["a", "b", "x1", "v_2", "Ω", "1", "2", "1.5", "0x1", "é", "--", "1e3", "n#"]
    k = rng.randint(1, 7)
    names = rng.sample(pool, k)
    m = rng.randint(0, 9)
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(m)]
    distinct = len({t for pair in pairs for t in pair})
    n = max(0, distinct + rng.choice((0, 0, 0, -1, 1, 2)))
    lines = [f"{n} {m}"] + [_edge_line(rng, u, v, None) for u, v in pairs]
    return _render(rng, lines)


def _ids(rng: random.Random) -> str:
    """Implicit and explicit ids mixed, with duplicates, negatives, spellings
    and tokens that are no integer."""
    n = rng.randint(1, 6)
    m = rng.randint(1, 9)
    labelled = rng.random() < 0.4
    lines = [f"{n} {m}"]
    for u, v in _numeric_pairs(rng, n, m):
        r = rng.random()
        if r < 0.4:
            eid = None
        elif r < 0.93:
            eid = _spell(rng, rng.randint(0, 8))
        else:
            eid = rng.choice(("-1", "-5", "x", "1.0", "", "٣", "1_", "+-1"))
            eid = eid or None
        su, sv = (chr(96 + u), chr(96 + v)) if labelled else (str(u), str(v))
        lines.append(_edge_line(rng, su, sv, eid))
    return _render(rng, lines)


def _explicit(rng: random.Random) -> str:
    """An id on every line, as format_edge_list writes them, in any order
    and spelling, now and then one id repeated, negative or no integer."""
    n = rng.randint(1, 8)
    m = rng.randint(1, 12)
    ids = [str(e) if rng.random() < 0.8 else _spell(rng, e) for e in rng.sample(range(3 * m), m)]
    if rng.random() < 0.3:
        ids[rng.randrange(m)] = rng.choice((ids[rng.randrange(m)], "-1", "x", "-0", "2.0"))
    labelled = rng.random() < 0.3
    lines = [f"{n} {m}"]
    for (u, v), eid in zip(_numeric_pairs(rng, n, m), ids):
        su, sv = (chr(96 + u), chr(96 + v)) if labelled else (str(u), str(v))
        lines.append(_edge_line(rng, su, sv, eid))
    return _render(rng, lines, noise=0.1)


def _counts(rng: random.Random) -> str:
    """Edge counts and vertex counts that disagree with the lines."""
    n = rng.randint(0, 7)
    m = rng.randint(0, 8)
    declared_n = max(0, n + rng.choice((-2, -1, 0, 1, 3)))
    declared_m = max(0, m + rng.choice((-2, -1, 0, 1, 2)))
    pairs = _numeric_pairs(rng, n, m) if n else []
    if rng.random() < 0.3:
        pairs = [(f"t{u}", f"t{v}") for u, v in pairs]
    lines = [f"{declared_n} {declared_m}"]
    lines += [_edge_line(rng, str(u), str(v), None) for u, v in pairs]
    return _render(rng, lines)


def _headers(rng: random.Random) -> str:
    """Every header error, and edge lines of the wrong length."""
    heads = [
        "", "3", "3 3 3", "a 3", "3 b", "3.0 3", "-1 3", "3 -2", "-0 0", "٣ 1",
        f"{VERTEX_BOUND + 1} 1", f"{VERTEX_BOUND * 7} 0", "1_000_001 0", "3\t3",
        "#3 3", "3 3",
    ]
    lines = [rng.choice(heads)]
    for _ in range(rng.randint(0, 4)):
        lines.append(
            rng.choice(("1 2", "1 2 3", "1", "1 2 3 4", "a b c d e", "2 3", "", "#1 2 3 4"))
        )
    if rng.random() < 0.2:
        lines = [rng.choice(("", "# only a comment", "   ", "\t#"))] * rng.randint(0, 3)
    return _render(rng, lines)


def _mixed(rng: random.Random) -> str:
    """Lines drawn from every category's pieces at once."""
    tokens = ["1", "2", "3", "01", "+2", "-0", "١", "1_0", "a", "b", "4", "-1", "x"]
    n = rng.randint(0, 6)
    m = rng.randint(0, 7)
    lines = [f"{n} {m}"]
    for _ in range(m + rng.choice((0, 0, 0, 1, -1))):
        size = rng.choice((2, 2, 2, 3, 3, 1, 4))
        lines.append(rng.choice(BLANKS).join(rng.choice(tokens) for _ in range(size)))
    return _render(rng, lines, noise=0.5)


CATEGORIES = {
    "comments": _comments,
    "spellings": _spellings,
    "labelled": _labelled,
    "ids": _ids,
    "explicit": _explicit,
    "counts": _counts,
    "headers": _headers,
    "mixed": _mixed,
}
# category -> sha256 over the outcomes of its documents, in order
CORPUS_DIGESTS = {
    "comments": "ea83578fec72cfff38b61c5b3bfdc6c78bdc1f2c42a5bcb35d2afd0f81958ddb",
    "spellings": "ba538d66c7183a2c356e3c59fcf7f6317bae955ff657ca3fbeb8ed042ba733d4",
    "labelled": "3d3a354bed5c79d8301a8557ce557178218c6ddfe84aa3f77311865dc2f3d273",
    "ids": "97e257d114d029bb9654a30cecacc5987e4e1ccaa566c848751e6e4d33ec701b",
    "explicit": "10264948785755fec746a54efed4fed298865c878f10c14d076fb6a747f2f8b5",
    "counts": "c96422f6f57d6b12646bf74b5d9505362b1ba7cd23489cd349b2030dbb8946f8",
    "headers": "4134bd8e582e911e53a373ae5254bbbe2fee810bb6d3814e95abe8d6e43b2bb7",
    "mixed": "b4d0b5a8fc43c92775de70eae8ce26b24e4dbdbfbbe875b1c6a843afe06fbe3c",
}


def corpus(category: str) -> list[str]:
    rng = random.Random(f"cyclelattice-parser-corpus/{category}")
    return [CATEGORIES[category](rng) for _ in range(DOCUMENTS_PER_CATEGORY)]


def outcome(text: str) -> tuple:
    try:
        G = parse_edge_list(text)
    except (ParseError, CapacityError) as exc:
        return (type(exc).__name__, str(exc))
    labels = None if G.labels is None else list(G.labels.items())
    return (G.vertices, list(G.edges.items()), labels)


def digest(category: str) -> str:
    h = hashlib.sha256()
    for text in corpus(category):
        h.update(repr(outcome(text)).encode("utf-8") + b"\n")
    return h.hexdigest()


# a piece of every message the parser raises
MESSAGES = (
    "expected header 'n m'",
    "header counts must be integers",
    "header counts must be nonnegative",
    "vertices exceed the bound",
    "expected 'u v' or 'u v id'",
    "empty document",
    "edges but found",
    "unknown vertex token",
    "distinct tokens appear",
    "edge id must be a nonnegative integer",
    "duplicate explicit edge id",
)


def test_corpus_reaches_every_outcome():
    """The corpus parses numeric and labelled graphs and raises every
    message the parser has."""
    outcomes = [outcome(text) for category in CATEGORIES for text in corpus(category)]
    assert len(outcomes) >= 2000
    graphs = [o for o in outcomes if not isinstance(o[0], str)]
    assert any(labels is None for *_, labels in graphs)
    assert any(labels is not None for *_, labels in graphs)
    messages = [o[1] for o in outcomes if isinstance(o[0], str)]
    for piece in MESSAGES:
        assert any(piece in message for message in messages), piece


@pytest.mark.parametrize("category", sorted(CATEGORIES))
def test_parser_corpus_golden(category):
    assert digest(category) == CORPUS_DIGESTS[category]
