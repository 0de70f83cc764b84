"""Graph representation and basic structural queries."""

import re

import pytest
from hypothesis import given, strategies as st

from colorlab.build import canonical_layout, mirzakhani, uniform_lists
from colorlab.engine import branch_order
from colorlab.graph import (
    Graph,
    GraphError,
    apex,
    components,
    corner,
    degree_histogram,
    delete_vertices,
    hub,
    is_bipartite,
    is_connected,
    make_graph,
    parse_vertex,
    plain,
)
from colorlab.graphio import (
    graph_from_dimacs,
    graph_from_json,
    graph_to_dimacs,
    graph_to_dot,
    graph_to_json,
)
from colorlab.solve import decide
from colorlab.verify import rotation_from_layout


def path(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def test_empty_graph():
    g = make_graph([], [])
    assert g.n == 0 and g.m == 0
    assert components(g) == []


def test_triangle_degrees():
    g = cycle(3)
    assert g.n == 3 and g.m == 3
    assert [g.degree(v) for v in g.vertices] == [2, 2, 2]


def test_duplicate_edges_collapse():
    a, b = plain(0), plain(1)
    g = make_graph([a, b], [(a, b), (b, a), (a, b)])
    assert g.m == 1


def test_plain_refuses_a_negative_index():
    with pytest.raises(GraphError, match="plain vertex index must be nonnegative, got -1"):
        plain(-1)


def test_loop_rejected():
    with pytest.raises(GraphError, match="loop"):
        make_graph([plain(0)], [(plain(0), plain(0))])


def test_unknown_endpoint_rejected():
    with pytest.raises(GraphError, match="outside the vertex set"):
        make_graph([plain(0)], [(plain(0), plain(1))])


def test_vertex_total_order():
    vs = sorted([plain(0), corner(1, -1), hub(0, 0), apex(), corner(-1, 1)])
    assert vs == [apex(), hub(0, 0), corner(-1, 1), corner(1, -1), plain(0)]


vertex_ids = st.one_of(
    st.just(apex()),
    st.builds(hub, st.integers(-20, 20), st.integers(-20, 20)),
    st.builds(
        corner,
        st.integers(-10, 10).map(lambda a: 2 * a + 1),
        st.integers(-10, 10).map(lambda b: 2 * b + 1),
    ),
    st.builds(plain, st.integers(0, 40)),
)


@given(st.lists(vertex_ids, max_size=30))
def test_vertex_order_is_the_kind_rank_then_coords_rule(vs):
    kinds = ("apex", "hub", "corner", "plain")
    assert sorted(vs) == sorted(vs, key=lambda v: (kinds.index(v.kind), v.coords))


def test_vertex_text_forms_and_kinds():
    pins = [
        (apex(), "apex", "VertexId(apex)", "apex"),
        (hub(3, -1), "hub:3,-1", "VertexId(hub:3,-1)", "hub"),
        (corner(-5, 1), "corner:-5,1", "VertexId(corner:-5,1)", "corner"),
        (plain(17), "plain:17", "VertexId(plain:17)", "plain"),
    ]
    for v, text, rep, kind in pins:
        assert (str(v), repr(v), v.kind) == (text, rep, kind)


def test_corner_requires_odd_coordinates():
    with pytest.raises(GraphError, match="odd"):
        corner(2, 1)


def test_parse_vertex_round_trip():
    for v in (apex(), hub(3, -1), corner(-5, 1), plain(17)):
        assert parse_vertex(str(v)) == v
    with pytest.raises(GraphError):
        parse_vertex("nonsense:1,2,3")


@pytest.mark.parametrize(
    "text",
    ["plain:00", "plain: 3", "plain:3 ", "plain:+3", "plain:٣", "hub:+1,0", "hub:-0,0",
     "corner:1_1,1"],
)
def test_parse_vertex_reads_one_spelling_per_id(text):
    # Each of these reads as an int under int(), but str() spells that id
    # otherwise, so a reader that keys a dict on ids would merge the two.
    with pytest.raises(GraphError, match=f"^{re.escape(f'unparseable vertex id {text!r}')}$"):
        parse_vertex(text)


def test_make_graph_refuses_a_repeated_id():
    vs = [plain(1), plain(0), hub(0, 0), plain(0)]
    with pytest.raises(GraphError, match="^vertex id plain:0 names more than one of the 4 vertices$"):
        make_graph(vs, [(plain(0), plain(1))])


def test_delete_vertices():
    g = cycle(5)
    h = delete_vertices(g, [plain(0)])
    assert h.n == 4 and h.m == 3
    assert delete_vertices(g, []).adj == g.adj
    with pytest.raises(GraphError):
        delete_vertices(g, [plain(99)])


def test_delete_drops_layout():
    a, b = plain(0), plain(1)
    g = make_graph([a, b], [(a, b)], layout={a: (0, 0), b: (1, 0)})
    h = delete_vertices(g, [a])
    assert set(h.layout) == {b}


# ------------------------------------------------------------ the layout rule


@pytest.mark.parametrize(
    "point", [5, (1,), (1, 2, 3), [0, 0], (True, 0), (0, False), ("1", 0), (0, 1j)], ids=repr
)
def test_a_point_that_is_not_two_exact_numbers_is_refused_when_the_graph_is_made(point):
    a = plain(0)
    message = r"^coordinates of plain:0 are not two exact numbers"
    with pytest.raises(GraphError, match=message):
        make_graph([a], [], layout={a: point})
    with pytest.raises(GraphError, match=message):
        Graph((a,), {a: ()}, {a: point})


def test_a_layout_gives_exactly_the_vertices_a_point():
    m = mirzakhani()
    short = {v: p for v, p in m.layout.items() if v != apex()}
    with pytest.raises(GraphError, match=r"^layout missing coordinates for apex$"):
        Graph(m.vertices, m.adj, short)
    extra = {**m.layout, hub(99, 0): (0, 0)}
    with pytest.raises(GraphError, match=r"^layout has coordinates for hub:99,0, not a vertex$"):
        Graph(m.vertices, m.adj, extra)
    with pytest.raises(GraphError, match=r"^layout has coordinates for hub:99,0, not a vertex$"):
        make_graph(m.vertices, m.edges(), extra)


def test_a_graph_keeps_its_own_copy_of_the_layout():
    a = plain(0)
    layout = {a: (0, 0)}
    g = Graph((a,), {a: ()}, layout)
    layout[a] = ("x", None)
    assert g.layout == {a: (0, 0)}


def test_a_graphs_mappings_are_read_only():
    m = mirzakhani()
    v = m.vertices[0]
    with pytest.raises(TypeError):
        m.adj[v] = ()
    with pytest.raises(TypeError):
        m.layout[v] = (0, 0)
    with pytest.raises(TypeError):
        del m.adj[v]
    assert m.adj[v] and m.layout[v] == (33, 25)


def test_a_graph_keeps_its_own_copy_of_its_adjacency():
    a, b = plain(0), plain(1)
    adj = {a: (b,), b: (a,)}
    layout = {a: (0, 0), b: (1, 0)}
    g = Graph((a, b), adj)
    h = make_graph([a, b], [(a, b)], layout)
    expected_g, expected_h = Graph((a, b), dict(adj)), make_graph([a, b], [(a, b)], dict(layout))
    adj[a] = ()
    adj[plain(2)] = ()
    layout[a] = (5, 5)
    assert g == expected_g and g.adj[a] == (b,) and g.m == 1
    assert h == expected_h and h.layout[a] == (0, 0)


def test_an_adjacency_cannot_go_stale_under_its_cached_integer_form():
    # Emptying a triangle's row once left m == 2 while decide still read
    # the cached int_adj of the triangle and answered UNSAT.
    tri = cycle(3)
    lists = uniform_lists(tri, (1, 2))
    assert decide(tri, lists).status == "UNSAT"
    with pytest.raises(TypeError):
        tri.adj[plain(0)] = ()
    assert tri.m == 3 and decide(tri, lists).status == "UNSAT"


def test_m_minus_apex_is_built_once_per_graph():
    m = mirzakhani()
    rest = delete_vertices(m, [apex()])
    assert m.apex_deleted is m.apex_deleted and m.apex_deleted == rest
    assert "apex_deleted" not in vars(rest)  # a derived graph starts without one
    assert rest.apex_deleted == rest
    assert cycle(4).apex_deleted == cycle(4)


JUNK = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.fractions()
    | st.decimals() | st.text(max_size=3) | st.complex_numbers()
)


@given(JUNK | st.lists(JUNK, max_size=3).map(tuple))
def test_a_point_is_refused_or_serves_every_reader(point):
    # Either the graph is refused with a GraphError, or the writers and the
    # planar geometry take its layout without another check.
    a, b = plain(0), plain(1)
    try:
        g = make_graph([a, b], [(a, b)], {a: point, b: (7, 7)})
    except GraphError:
        return
    graph_from_json(graph_to_json(g))
    graph_to_dot(g)
    rotation_from_layout(g)


def test_components_partition():
    g = make_graph(
        [plain(i) for i in range(5)],
        [(plain(0), plain(1)), (plain(2), plain(3))],
    )
    comps = components(g)
    assert comps == [(plain(0), plain(1)), (plain(2), plain(3)), (plain(4),)]
    assert not is_connected(g)
    assert is_connected(cycle(4))


def test_degree_histogram():
    assert degree_histogram(path(4)) == {1: 2, 2: 2}


def test_bipartite():
    assert is_bipartite(cycle(4)).bipartite
    res = is_bipartite(cycle(5))
    assert not res.bipartite
    assert len(res.odd_cycle) % 2 == 1


@given(
    st.integers(1, 9),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
)
def test_invariants_hold_for_random_graphs(n, raw_edges):
    vs = [plain(i) for i in range(n)]
    edges = [(plain(a % n), plain(b % n)) for a, b in raw_edges if a % n != b % n]
    g = make_graph(vs, edges)
    # adjacency is symmetric and sorted, no loops, m = half the degree sum
    for v in g.vertices:
        assert list(g.adj[v]) == sorted(g.adj[v])
        assert v not in g.adj[v]
        for u in g.adj[v]:
            assert v in g.adj[u]
    assert 2 * g.m == sum(g.degree(v) for v in g.vertices)
    # components partition the vertex set
    comps = components(g)
    flat = [v for comp in comps for v in comp]
    assert sorted(flat) == list(g.vertices)


def test_int_adj_is_the_position_form_of_adj():
    m = mirzakhani()
    assert m.int_adj is m.int_adj  # fill the cache before deriving from m
    rest = delete_vertices(m, [apex()])
    reread = canonical_layout(graph_from_dimacs(graph_to_dimacs(m)))
    for g in (rest, reread):
        assert "int_adj" not in vars(g)  # a derived graph starts without one
    for g in (m, rest, reread):
        pos = g.index()
        assert len(g.int_adj) == g.n
        for v, row in zip(g.vertices, g.int_adj):
            assert type(row) is tuple and list(row) == sorted(row)
            assert list(row) == [pos[u] for u in g.adj[v]]
        fresh = Graph(g.vertices, g.adj, g.layout)
        assert "int_adj" not in vars(fresh)  # equality ignores the cached forms
        assert g == fresh and fresh == g
        assert g.layout is not None and g != Graph(g.vertices, g.adj)
    assert reread == m and reread.int_adj == m.int_adj
    assert len(rest.int_adj) == 62


def test_int_order_is_the_branch_order_of_int_adj():
    m = mirzakhani()
    assert m.int_order is m.int_order  # built once per graph
    rest = delete_vertices(m, [apex()])
    assert "int_order" not in vars(rest)  # a derived graph starts without one
    for g in (m, rest):
        assert g.int_order == branch_order(g.int_adj)
        degree = [len(row) for row in g.int_adj]
        assert sorted(g.int_order) == list(range(g.n))
        for u, v in zip(g.int_order, g.int_order[1:]):
            assert (-degree[u], u) < (-degree[v], v)  # most neighbors first, ties by index
