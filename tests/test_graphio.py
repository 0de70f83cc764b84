"""Serialization round-trips: JSON, DIMACS .col, DOT, and DIMACS CNF."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from colorlab import graphio
from colorlab.build import (
    canonical_lists,
    gadget,
    mirzakhani,
    section_gadget,
    uniform_lists,
    wheel4,
    wheel_lists,
)
from colorlab.graph import Graph, GraphError, apex, delete_vertices, make_graph, parse_vertex, plain
from colorlab.solve import to_cnf


def small():
    vs = [plain(i) for i in range(3)]
    return make_graph(
        vs,
        [(vs[0], vs[1]), (vs[1], vs[2])],
        layout={vs[0]: (0, 0), vs[1]: (1, 0), vs[2]: (Fraction(1, 2), 2)},
    )


def test_graph_json_round_trip():
    g = small()
    h = graphio.graph_from_json(graphio.graph_to_json(g))
    assert h.vertices == g.vertices
    assert h.adj == g.adj
    assert h.layout == g.layout
    assert h.layout[plain(2)][0] == Fraction(1, 2)


def test_graph_json_round_trip_keeps_an_empty_layout():
    # An empty layout is a layout, not the absence of one.
    g = Graph((), {}, {})
    assert graphio.graph_from_json(graphio.graph_to_json(g)) == g


def every_exact_kind():
    """Coordinates that are ints, Fractions and exactly representable floats."""
    vs = [plain(i) for i in range(3)]
    return make_graph(
        vs,
        [(vs[0], vs[1]), (vs[1], vs[2])],
        layout={vs[0]: (0, -3.0), vs[1]: (Fraction(1, 2), Fraction(-7, 4)), vs[2]: (0.5, 2.25)},
    )


def test_every_exact_coordinate_kind_is_written_as_an_int_or_a_ratio():
    g = every_exact_kind()
    expected = {
        "vertices": ["plain:0", "plain:1", "plain:2"],
        "edges": [["plain:0", "plain:1"], ["plain:1", "plain:2"]],
        "layout": {"plain:0": [0, -3], "plain:1": ["1/2", "-7/4"], "plain:2": ["1/2", "9/4"]},
    }
    assert graphio.graph_to_json(g) == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert graphio.graph_to_dot(g) == (
        "graph G {\n"
        '  "plain:0" [pos="0,-3!"];\n'
        '  "plain:1" [pos="1/2,-7/4!"];\n'
        '  "plain:2" [pos="1/2,9/4!"];\n'
        '  "plain:0" -- "plain:1";\n'
        '  "plain:1" -- "plain:2";\n'
        "}\n"
    )


@pytest.mark.parametrize("coord", ["1/2", float("nan"), float("inf"), None])
def test_writers_refuse_a_coordinate_that_is_not_an_exact_number(coord):
    # The graph is refused where it is made, so no writer ever sees the point.
    a = plain(0)
    message = rf"^coordinates of plain:0 are not two exact numbers: \({coord!r}, 0\)$"
    with pytest.raises(GraphError, match=message):
        make_graph([a], [], layout={a: (coord, 0)})
    with pytest.raises(GraphError, match=message):
        Graph((a,), {a: ()}, {a: (coord, 0)})


def halves(g, kind):
    """g drawn at half scale, every coordinate of type `kind`."""
    lay = {v: (kind(x) / 2, kind(y) / 2) for v, (x, y) in g.layout.items()}
    return Graph(g.vertices, g.adj, lay)


def every_drawn_graph():
    m = mirzakhani()
    return {
        "M": m,
        "M in Fraction halves": halves(m, Fraction),
        "M in float halves": halves(m, float),
        "M minus its apex": delete_vertices(m, [apex()]),
        "section 2 of M": section_gadget(m, 2)[0],
    }


@pytest.mark.parametrize("name", sorted(every_drawn_graph()))
def test_every_drawn_graph_survives_the_round_trip_and_the_dot_writer(name):
    g = every_drawn_graph()[name]
    back = graphio.graph_from_json(graphio.graph_to_json(g))
    assert back == g and back.layout == g.layout
    dot = graphio.graph_to_dot(g)
    assert sum(line.endswith('!"];') for line in dot.splitlines()) == g.n
    for v in g.vertices:
        assert f'  "{v}" [pos="' in dot


def test_graph_json_round_trip_mirzakhani():
    m = mirzakhani()
    h = graphio.graph_from_json(graphio.graph_to_json(m))
    assert h.adj == m.adj and h.layout == m.layout


def test_graph_json_deterministic():
    assert graphio.graph_to_json(mirzakhani()) == graphio.graph_to_json(mirzakhani())


def test_graph_json_rejects_garbage():
    with pytest.raises(GraphError, match="JSON"):
        graphio.graph_from_json("{not json")
    with pytest.raises(GraphError, match="vertices"):
        graphio.graph_from_json("{}")


def test_lists_json_round_trip():
    lists = canonical_lists()
    back = graphio.lists_from_json(graphio.lists_to_json(lists))
    assert back.palette == lists.palette
    assert back.lists == lists.lists


def test_dimacs_round_trip():
    m = mirzakhani()
    text = graphio.graph_to_dimacs(m)
    assert "p edge 63 183" in text
    h = graphio.graph_from_dimacs(text)
    assert h.vertices == m.vertices
    assert h.adj == m.adj
    assert h.layout is None  # DIMACS carries no coordinates


def test_dimacs_one_indexed_edges():
    g = small()
    lines = graphio.graph_to_dimacs(g).splitlines()
    edges = [ln for ln in lines if ln.startswith("e ")]
    assert edges == ["e 1 2", "e 2 3"]


def test_dimacs_rejects_bad_input():
    with pytest.raises(GraphError):
        graphio.graph_from_dimacs("p edge 2 1\ne 1 5\n")
    with pytest.raises(GraphError):
        graphio.graph_from_dimacs("no header here\n")


@pytest.mark.parametrize(
    "text, repeated",
    [
        # Two name comments give the same id.
        ("c 1 apex\nc 2 apex\np edge 3 1\ne 2 3\n", "apex"),
        # A name is the plain(j) default of another index j.
        ("c 1 plain:2\np edge 2 0\n", "plain:2"),
    ],
    ids=["repeated-name", "name-of-another-index"],
)
def test_dimacs_refuses_an_id_shared_by_two_indices(text, repeated):
    with pytest.raises(GraphError, match=f"vertex id {repeated} names more than one"):
        graphio.graph_from_dimacs(text)


LONG = "1" * 5000  # more digits than int() converts from text


@pytest.mark.parametrize(
    "reader, text",
    [
        (graphio.graph_from_json, '{"vertices": [], "edges": ' + LONG + "}"),
        (graphio.lists_from_json, '{"palette": [' + LONG + '], "lists": {}}'),
        (graphio.graph_from_dimacs, f"p edge {LONG} 0\n"),
        (graphio.graph_from_dimacs, f"p edge 2 1\ne 1 {LONG}\n"),
    ],
)
def test_readers_refuse_numbers_too_long_for_int(reader, text):
    with pytest.raises(GraphError):
        reader(text)


def test_dimacs_ignores_a_name_comment_with_a_long_index():
    g = graphio.graph_from_dimacs(f"c {LONG} hub:0,0\np edge 1 0\n")
    assert g.vertices == (plain(1),)


# ------------------------------------------------------- one id, one vertex


def test_every_id_the_writers_emit_is_read_back_in_the_same_spelling():
    g, _ = gadget()
    cases = [(mirzakhani(), canonical_lists()), (g, None), (wheel4(), wheel_lists()), (small(), None)]
    for graph, lists in cases:
        doc = json.loads(graphio.graph_to_json(graph))
        texts = doc["vertices"] + [s for e in doc["edges"] for s in e] + list(doc["layout"])
        names = [ln.split() for ln in graphio.graph_to_dimacs(graph).splitlines()]
        texts += [parts[2] for parts in names if parts[0] == "c" and len(parts) == 3]
        if lists is not None:
            texts += list(json.loads(graphio.lists_to_json(lists))["lists"])
        for s in texts:
            assert str(parse_vertex(s)) == s


def test_the_json_reader_parses_each_id_text_once(monkeypatch):
    # M's file names 492 id texts (63 vertices, 366 edge ends, 63 layout
    # keys) for its 63 vertices.
    texts = []

    def counting(text):
        texts.append(text)
        return parse_vertex(text)

    monkeypatch.setattr(graphio, "parse_vertex", counting)
    assert graphio.graph_from_json(graphio.graph_to_json(mirzakhani())) == mirzakhani()
    assert len(texts) == 63 == len(set(texts))


def test_dimacs_ignores_a_name_comment_in_a_second_spelling():
    # 'plain:00' is no id, so index 1 keeps its default name.
    g = graphio.graph_from_dimacs("c 1 plain:00\np edge 2 1\ne 1 2\n")
    assert g.vertices == (plain(1), plain(2))


# ------------------------------------------------------------ reader fuzz
#
# Documents built mostly from the readers' own keys, vertex ids and records,
# with arbitrary JSON or text in about one place in ten, so that many
# examples get past the first check.  Every reader must return a value or
# raise GraphError.

IDS = st.sampled_from(
    ["apex", "hub:0,0", "corner:1,1", "plain:0", "plain:1", "plain:2", "plain:x", "hub:1", ""]
)
NOISE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def mostly(valid):
    """`valid`, or arbitrary JSON for about one draw in ten."""
    return st.integers(0, 9).flatmap(lambda i: NOISE if i == 9 else valid)


COORD = mostly(st.integers(-5, 40) | st.sampled_from(["1/2", "-3", "1/0", "x/2", "2/", True]))
COLOR = mostly(st.integers(-2, 70))
GRAPH_DOC = mostly(
    st.fixed_dictionaries(
        {"vertices": mostly(st.lists(IDS, max_size=5))},
        optional={
            "edges": mostly(st.lists(mostly(st.lists(IDS, min_size=2, max_size=2)), max_size=4)),
            "layout": mostly(
                st.dictionaries(IDS, mostly(st.lists(COORD, min_size=2, max_size=2)), max_size=5)
            ),
        },
    )
)
LISTS_DOC = mostly(
    st.fixed_dictionaries(
        {
            "palette": mostly(st.lists(COLOR, max_size=6)),
            "lists": mostly(st.dictionaries(IDS, mostly(st.lists(COLOR, max_size=4)), max_size=4)),
        }
    )
)


@st.composite
def dimacs_text(draw):
    """A problem line, edge lines and name comments, in any order, with the
    edge count sometimes wrong and an arbitrary line sometimes added."""
    index = st.integers(-1, 7)
    edges = draw(st.lists(st.tuples(index, index), max_size=5))
    lines = [f"p edge {draw(st.integers(0, 6))} {len(edges) + draw(st.sampled_from([0, 0, 1]))}"]
    lines += [f"e {a} {b}" for a, b in edges]
    lines += [f"c {i} {name}" for i, name in draw(st.lists(st.tuples(index, IDS), max_size=3))]
    lines += draw(st.lists(st.text(max_size=12), max_size=1))
    return "\n".join(draw(st.permutations(lines)))


@settings(deadline=None, max_examples=250)
@given(GRAPH_DOC, LISTS_DOC, dimacs_text())
def test_readers_return_a_value_or_raise_graph_error(graph_doc, lists_doc, dimacs):
    for reader, text in (
        (graphio.graph_from_json, json.dumps(graph_doc)),
        (graphio.lists_from_json, json.dumps(lists_doc)),
        (graphio.graph_from_dimacs, dimacs),
    ):
        try:
            reader(text)
        except GraphError:
            pass


def test_dot_contains_positions_and_edges():
    text = graphio.graph_to_dot(small())
    assert "graph" in text
    assert '"plain:0" -- "plain:1"' in text
    assert "pos=" in text


def test_cnf_dimacs_shape():
    vs = [plain(i) for i in range(3)]
    k3 = make_graph(vs, [(vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2])])
    doc = to_cnf(k3, uniform_lists(k3, (1, 2)))
    text = graphio.cnf_to_dimacs(doc)
    assert "p cnf 6 9" in text
    body = [ln for ln in text.splitlines() if not ln.startswith(("c", "p"))]
    assert all(ln.endswith(" 0") for ln in body)
    assert len(body) == 9
    # the legend names every variable
    legend = [ln for ln in text.splitlines() if ln.startswith("c v")]
    assert len(legend) == 6
