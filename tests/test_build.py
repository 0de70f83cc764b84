"""Construction of the wheel, the gadget, M, and the canonical lists."""

import pytest

from colorlab.build import (
    PALETTE,
    ListAssignment,
    canonical_layout,
    canonical_lists,
    forbidding,
    gadget,
    make_lists,
    mirzakhani,
    section_cells,
    section_gadget,
    uniform_lists,
    wheel4,
    wheel_lists,
)
from colorlab.graph import (
    Graph,
    GraphError,
    apex,
    corner,
    degree_histogram,
    delete_vertices,
    hub,
)


def test_wheel4_shape():
    g = wheel4()
    assert g.n == 5 and g.m == 8
    assert sorted(g.degree(v) for v in g.vertices) == [3, 3, 3, 3, 4]
    assert g.degree(hub(0, 0)) == 4


def test_gadget_shape():
    g, outer = gadget()
    assert g.n == 17 and g.m == 36
    assert len(outer) == 12
    assert all(v.kind == "corner" for v in outer)
    hubs = [v for v in g.vertices if v.kind == "hub"]
    assert len(hubs) == 5


def test_mirzakhani_counts():
    m = mirzakhani()
    assert m.n == 63 and m.m == 183
    assert degree_histogram(m) == {4: 40, 6: 6, 8: 16, 42: 1}
    assert m.degree(apex()) == 42


def test_mirzakhani_apex_adjacent_to_all_corners():
    m = mirzakhani()
    corners = {v for v in m.vertices if v.kind == "corner"}
    assert len(corners) == 42
    assert set(m.adj[apex()]) == corners


def test_mirzakhani_hub_degrees():
    m = mirzakhani()
    minf = delete_vertices(m, [apex()])
    hubs = [v for v in minf.vertices if v.kind == "hub"]
    assert len(hubs) == 20
    assert all(minf.degree(h) == 4 for h in hubs)


def test_central_hubs():
    # Exactly four hubs see only degree-7 vertices in the apex-deleted graph.
    m = mirzakhani()
    minf = delete_vertices(m, [apex()])
    central = [
        h
        for h in minf.vertices
        if h.kind == "hub" and all(minf.degree(u) == 7 for u in minf.adj[h])
    ]
    assert central == [hub(1, 0), hub(4, 0), hub(7, 0), hub(10, 0)]


def test_layout_is_injective():
    m = mirzakhani()
    points = list(m.layout.values())
    assert len(set(points)) == len(points)


def test_canonical_layout_rederives_drawing():
    m = mirzakhani()
    bare = Graph(vertices=m.vertices, adj=m.adj, layout=None)
    assert canonical_layout(bare).layout == m.layout


def test_forbidding():
    assert forbidding(PALETTE, 5) == (1, 2, 3, 4)
    assert forbidding(PALETTE, 1) == (2, 3, 4, 5)
    # forbidding a color not on the palette removes nothing
    assert forbidding(PALETTE, 6) == PALETTE


def test_canonical_lists_cover_m_with_size_4():
    m = mirzakhani()
    lists = canonical_lists()
    assert set(lists.lists) == set(m.vertices)
    assert all(len(lists.list_of(v)) == 4 for v in m.vertices)
    assert lists.list_of(apex()) == (1, 2, 3, 4)


def test_canonical_lists_section_hubs():
    lists = canonical_lists()
    for j in range(1, 5):
        for x, y in section_cells(j):
            assert lists.list_of(hub(x, y)) == forbidding(PALETTE, j)


def test_section_cells_partition_m():
    seen = []
    for j in range(1, 5):
        cells = section_cells(j)
        assert len(cells) == 5
        seen.extend(cells)
    assert sorted(seen) == sorted(set(seen))
    assert len(seen) == 20


def test_section_cells_refuses_an_index_outside_1_to_4():
    with pytest.raises(GraphError, match="section index must be 1..4, got 0"):
        section_cells(0)


def test_section_gadget_isomorphic_to_gadget():
    m = mirzakhani()
    base, base_outer = gadget()
    for j in range(1, 5):
        sub, outer, gmap = section_gadget(m, j)
        assert sub.n == 17 and sub.m == 36
        assert len(outer) == 12
        # gmap is an isomorphism from the standalone gadget onto section j
        assert set(gmap) == set(base.vertices)
        assert {gmap[v] for v in base.vertices} == set(sub.vertices)
        for u, v in base.edges():
            assert sub.has_edge(gmap[u], gmap[v])


def test_section_gadget_names_a_vertex_the_graph_lacks():
    m = delete_vertices(mirzakhani(), [hub(0, 0)])
    with pytest.raises(GraphError, match="unknown vertex hub:0,0"):
        section_gadget(m, 1)


def test_wheel_lists_are_the_forcing_wheel():
    # 3-element rim lists avoiding color 1, full {2,3,4,5} at the hub
    lists = wheel_lists()
    assert lists.list_of(hub(0, 0)) == (2, 3, 4, 5)
    assert lists.list_of(corner(-1, -1)) == (2, 4, 5)  # sw
    assert lists.list_of(corner(1, -1)) == (3, 4, 5)  # se
    assert lists.list_of(corner(1, 1)) == (2, 3, 4)  # ne
    assert lists.list_of(corner(-1, 1)) == (2, 3, 5)  # nw
    assert all(1 not in lists.list_of(v) for v in lists.lists)


def test_make_lists_rejects_off_palette_colors():
    with pytest.raises(GraphError, match="palette"):
        make_lists((1, 2), {apex(): (1, 3)})


def test_uniform_lists():
    g = wheel4()
    lists = uniform_lists(g, (1, 2, 3))
    assert all(lists.list_of(v) == (1, 2, 3) for v in g.vertices)


def test_list_assignment_without_color():
    g, outer = gadget()
    lists = canonical_lists().restrict(g.vertices)
    reduced = lists.without_color(outer, 1)
    for v in outer:
        assert 1 not in reduced.list_of(v)
    hubs = [v for v in g.vertices if v.kind == "hub"]
    for h in hubs:
        assert reduced.list_of(h) == lists.list_of(h)


def test_restrict_is_projection():
    lists = canonical_lists()
    sub = lists.restrict([apex(), hub(0, 0)])
    assert set(sub.lists) == {apex(), hub(0, 0)}
    assert sub.palette == lists.palette


def test_gadget_is_section_one_of_m():
    base, base_outer = gadget()
    sub, outer, gmap = section_gadget(mirzakhani(), 1)
    assert base == sub  # vertices, adjacency and layout
    assert base_outer == outer
    assert all(gmap[v] == v for v in base.vertices)


def test_restrict_refuses_missing_vertices():
    with pytest.raises(GraphError, match=r"lists missing for 1 vertices, e\.g\. hub:5,0"):
        wheel_lists().restrict([hub(0, 0), hub(5, 0)])


def test_list_of_refuses_a_missing_vertex():
    with pytest.raises(GraphError, match=r"^lists missing for 1 vertices, e\.g\. hub:99,0$"):
        canonical_lists().list_of(hub(99, 0))


def test_without_color_refuses_a_missing_vertex():
    with pytest.raises(GraphError, match=r"^lists missing for 1 vertices, e\.g\. hub:99,0$"):
        canonical_lists().without_color([hub(99, 0)], 1)


# ------------------------------------------------- one shared construction

BUILDERS = (wheel4, gadget, mirzakhani, wheel_lists, canonical_lists)


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_a_builder_returns_one_shared_value(builder):
    first = builder()
    assert builder() is first
    assert first == builder.__wrapped__()  # the uncached build
    assert builder.__wrapped__() is not first


def test_a_list_assignment_is_read_only():
    lists = canonical_lists()
    with pytest.raises(TypeError):
        lists.lists[apex()] = (1,)
    with pytest.raises(TypeError):
        del lists.lists[apex()]
    assert lists.list_of(apex()) == (1, 2, 3, 4)


def test_a_list_assignment_keeps_its_own_copy_of_its_lists():
    given = {hub(0, 0): (1, 2)}
    lists = ListAssignment((1, 2), given)
    given[hub(0, 0)] = (1,)
    given[hub(1, 0)] = (2,)
    assert lists == ListAssignment((1, 2), {hub(0, 0): (1, 2)})
