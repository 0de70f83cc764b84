"""Serialization: DIMACS .col, graph/list JSON, DOT, and DIMACS CNF.

All writers are deterministic (fixed vertex order, sorted keys) so repeated
exports of the same object are byte-identical.
"""

from __future__ import annotations

import json
from typing import Optional

from colorlab.build import ListAssignment, make_lists
from colorlab.graph import (
    Coord,
    Graph,
    GraphError,
    VertexId,
    make_graph,
    parse_vertex,
    plain,
)
from colorlab.solve import CnfDocument

# The largest vertex count a DIMACS problem line may declare.  The reader
# allocates one vertex id per declared vertex before it sees a single edge,
# so a 20-byte file could otherwise ask for hundreds of millions of them;
# the largest graph the tests build has 1,500 vertices.
MAX_DIMACS_VERTICES = 10**5


def _coord_out(x: Coord):
    num, den = x.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


def _coord_in(x) -> Coord:
    if isinstance(x, str):
        from fractions import Fraction  # only files with a non-integer point load it

        num, _, den = x.partition("/")
        try:
            return Fraction(int(num), int(den or "1"))
        except (ValueError, ZeroDivisionError):
            raise GraphError(f"layout coordinate {x!r} is not a fraction") from None
    if isinstance(x, int):
        return x
    raise GraphError(f"layout coordinate {x!r} is not exact")


def _expect(x, kind: type, what: str, size: Optional[int] = None, item=object):
    """x itself when it is a `kind` of `item`s (exactly `size` of them, if given).

    JSON true and false are never items: bool subclasses int, but no color,
    coordinate or vertex id is a boolean.
    """
    ok = isinstance(x, kind) and size in (None, len(x))
    if not ok or not all(isinstance(c, item) and not isinstance(c, bool) for c in x):
        raise GraphError(f"malformed {what}: {x!r}")
    return x


# ---------------------------------------------------------------- JSON


def _decode(text: str):
    # JSONDecodeError is a ValueError, and so is a number too long for int().
    try:
        return json.loads(text, object_pairs_hook=_one_value_per_key)
    except GraphError:
        raise
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"not valid JSON: {exc}") from exc


def _one_value_per_key(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of two equal keys without a word.
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise GraphError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def graph_to_json(g: Graph) -> str:
    payload = {
        "vertices": [str(v) for v in g.vertices],
        "edges": [[str(u), str(v)] for u, v in g.edges()],
    }
    if g.layout is not None:
        payload["layout"] = {
            str(v): [_coord_out(x), _coord_out(y)]
            for v, (x, y) in sorted(g.layout.items())
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def graph_from_json(text: str) -> Graph:
    payload = _decode(text)
    if not isinstance(payload, dict) or "vertices" not in payload:
        raise GraphError("graph JSON must be an object with a 'vertices' key")
    parsed: dict[str, VertexId] = {}  # each id text is parsed once per document

    def ident(text: str) -> VertexId:
        v = parsed.get(text)
        if v is None:
            v = parsed[text] = parse_vertex(text)
        return v

    ids = _expect(payload["vertices"], list, "vertices", item=str)
    vertices = [ident(s) for s in ids]
    edges = [
        tuple(ident(s) for s in _expect(e, list, "edge", 2, item=str))
        for e in _expect(payload.get("edges", []), list, "edges")
    ]
    layout = None
    if "layout" in payload:
        layout = {
            ident(s): tuple(_coord_in(x) for x in _expect(xy, list, "point", 2))
            for s, xy in _expect(payload["layout"], dict, "layout").items()
        }
    return make_graph(vertices, edges, layout)


def lists_to_json(lists: ListAssignment) -> str:
    payload = {
        "palette": list(lists.palette),
        "lists": {str(v): list(cs) for v, cs in sorted(lists.lists.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def lists_from_json(text: str) -> ListAssignment:
    payload = _decode(text)
    if not isinstance(payload, dict) or "palette" not in payload or "lists" not in payload:
        raise GraphError("list JSON must be an object with 'palette' and 'lists'")
    palette = _expect(payload["palette"], list, "palette", item=int)
    lists = {
        parse_vertex(s): _expect(cs, list, f"list of {s}", item=int)
        for s, cs in _expect(payload["lists"], dict, "lists").items()
    }
    return make_lists(palette, lists)


# ---------------------------------------------------------------- DIMACS .col


def graph_to_dimacs(g: Graph) -> str:
    """DIMACS coloring format; vertices numbered 1..n by the fixed order."""
    out = [f"c colorlab graph, {g.n} vertices {g.m} edges"]
    out += [f"c {i + 1} {v}" for i, v in enumerate(g.vertices)]
    out.append(f"p edge {g.n} {g.m}")
    out += [f"e {i + 1} {j + 1}" for i, j in g.int_edges]
    return "\n".join(out) + "\n"


def _ints(digits: list[str], lineno: int) -> list[int]:
    """Decimal strings as ints; one too long for int() is a GraphError."""
    try:
        return [int(d) for d in digits]
    except ValueError:
        raise GraphError(f"line {lineno}: number too long") from None


def graph_from_dimacs(text: str) -> Graph:
    """Read DIMACS .col; vertex identities are recovered from our own
    comment mapping when present, otherwise vertices become plain(i); two
    indices with one identity are refused by ``make_graph``."""
    names: dict[int, VertexId] = {}
    n = m = None
    raw_edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "c":
            if len(parts) == 3 and parts[1].isdecimal():
                try:
                    names[int(parts[1])] = parse_vertex(parts[2])
                except ValueError:  # int() past 4,300 digits, or an unparseable id's GraphError
                    pass
            continue
        numeric = all(p.isdecimal() for p in parts[-2:])
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge" or not numeric:
                raise GraphError(f"line {lineno}: malformed problem line")
            n, m = _ints(parts[2:], lineno)
            if n > MAX_DIMACS_VERTICES:
                raise GraphError(
                    f"line {lineno}: declares {n} vertices, more than {MAX_DIMACS_VERTICES}"
                )
        elif parts[0] == "e":
            if len(parts) != 3 or not numeric:
                raise GraphError(f"line {lineno}: malformed edge line")
            raw_edges.append(tuple(_ints(parts[1:], lineno)))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing problem line")
    if len(raw_edges) != m:
        raise GraphError(f"problem line promises {m} edges, found {len(raw_edges)}")

    def ident(i: int) -> VertexId:
        if not 1 <= i <= n:
            raise GraphError(f"vertex index {i} out of range 1..{n}")
        return names.get(i, plain(i))

    vertices = [ident(i) for i in range(1, n + 1)]
    edges = [(ident(a), ident(b)) for a, b in raw_edges]
    return make_graph(vertices, edges)


# ---------------------------------------------------------------- DOT


def graph_to_dot(g: Graph) -> str:
    out = ["graph G {"]
    for v in g.vertices:
        attrs = ""
        if g.layout:
            attrs = ' [pos="{},{}!"]'.format(*map(_coord_out, g.layout[v]))
        out.append(f'  "{v}"{attrs};')
    for u, v in g.edges():
        out.append(f'  "{u}" -- "{v}";')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------- DIMACS CNF


def cnf_to_dimacs(doc: CnfDocument) -> str:
    """DIMACS CNF with a legend mapping each variable to (vertex, color).

    At-most-one clauses are omitted by construction; see CnfDocument.
    """
    out = ["c list-coloring instance; pick the least true color per vertex"]
    for i, v, c in doc.legend:
        out.append(f"c v{i} = {v}:{c}")
    out.append(f"p cnf {doc.nvars} {len(doc.clauses)}")
    for clause in doc.clauses:
        out.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(out) + "\n"
