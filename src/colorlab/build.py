"""Builders for the wheel, the 17-vertex gadget, the Mirzakhani graph M,
and its canonical list assignment.

Everything is generated from a cell grid: cell (x, y) contributes a hub at
(x, y), four corners at (2x±1, 2y±1), four hub-corner spokes, and the rim
4-cycle on its corners.  A corner shared by adjacent cells is collected once
and a shared rim edge collapses in ``make_graph``, which gives the drawn graph.

Drawing coordinates come only from ``canonical_layout``, and section j of M
is section 1 moved j-1 sections east by ``_shift``; the gadget is section 1.

The five fixed objects (``wheel4``, ``gadget``, ``mirzakhani``,
``wheel_lists``, ``canonical_lists``) are built on their first call and
the same read-only value is returned on every later one, so a process
builds each at most once; nothing is built at import.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .graph import (
    Coord,
    FrozenFields,
    Graph,
    GraphError,
    VertexId,
    apex,
    corner,
    delete_vertices,
    hub,
    make_graph,
)

PALETTE = (1, 2, 3, 4, 5)

# Cells of M: a 12-cell spine plus north/south cells at x = 1, 4, 7, 10.
M_CELLS: tuple[tuple[int, int], ...] = tuple(
    sorted([(x, 0) for x in range(12)] + [(x, s) for x in (1, 4, 7, 10) for s in (-1, 1)])
)

# Forbidden color of every section-1 corner, transcribed from the drawing.
SECTION1_FORBIDDEN: dict[tuple[int, int], int] = {
    (-1, -1): 2, (-1, 1): 4,
    (1, -1): 5, (1, 1): 3,
    (1, -3): 2, (3, -3): 3,
    (1, 3): 4, (3, 3): 5,
    (3, -1): 4, (3, 1): 2,
    (5, -1): 3, (5, 1): 5,
}

# Color permutation applied to the section-1 pattern to obtain section j.
# These are data read off the drawing, cross-checked at every shared
# boundary corner by canonical_lists().
SECTION_PERMUTATIONS: tuple[dict[int, int], ...] = (
    {1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
    {1: 2, 2: 3, 3: 1, 4: 5, 5: 4},
    {1: 3, 3: 2, 2: 1, 4: 4, 5: 5},
    {1: 4, 4: 5, 5: 3, 3: 1, 2: 2},
)


class ListAssignment(FrozenFields):
    """Per-vertex color lists over a finite palette; every list is nonempty
    and inside the palette.  Read-only and compared by its two fields:
    ``lists`` is a read-only mapping over a copy made here."""

    _fields = ("palette", "lists")
    palette: tuple[int, ...]
    lists: Mapping[VertexId, tuple[int, ...]]

    def __init__(
        self, palette: tuple[int, ...], lists: Mapping[VertexId, tuple[int, ...]]
    ) -> None:
        lists = dict(lists)
        pal = set(palette)
        for v, lst in lists.items():
            if not lst:
                raise GraphError(f"empty color list at {v}")
            if not set(lst) <= pal:
                raise GraphError(f"list at {v} leaves the palette: {lst}")
        self.__dict__.update(palette=palette, lists=MappingProxyType(lists))

    def list_of(self, v: VertexId) -> tuple[int, ...]:
        if v not in self.lists:
            self.require((v,))
        return self.lists[v]

    def require(self, vertices: Iterable[VertexId]) -> None:
        """Raise GraphError unless every one of ``vertices`` has a list."""
        missing = [v for v in vertices if v not in self.lists]
        if missing:
            raise GraphError(f"lists missing for {len(missing)} vertices, e.g. {missing[0]}")

    def restrict(self, vertices: Iterable[VertexId]) -> "ListAssignment":
        vs = tuple(vertices)
        self.require(vs)
        return ListAssignment(self.palette, {v: self.lists[v] for v in vs})

    def without_color(self, vertices: Iterable[VertexId], color: int) -> "ListAssignment":
        """Copy with ``color`` removed from the lists of ``vertices``."""
        vs = tuple(vertices)
        self.require(vs)
        new = dict(self.lists)
        for v in vs:
            new[v] = tuple(c for c in new[v] if c != color)
        return ListAssignment(self.palette, new)


def make_lists(
    palette: Sequence[int], lists: Mapping[VertexId, Iterable[int]]
) -> ListAssignment:
    return ListAssignment(
        tuple(sorted(set(palette))),
        {v: tuple(sorted(set(cs))) for v, cs in lists.items()},
    )


def uniform_lists(g: Graph, colors: Sequence[int]) -> ListAssignment:
    """Every vertex receives the same list (plain k-coloring as list-coloring)."""
    cs = tuple(sorted(set(colors)))
    return ListAssignment(cs, {v: cs for v in g.vertices})


def forbidding(palette: Sequence[int], j: int) -> tuple[int, ...]:
    """The list that forbids exactly color j."""
    return tuple(c for c in sorted(set(palette)) if c != j)


def _cell_vertices(x: int, y: int) -> tuple[VertexId, ...]:
    """Cell (x, y): its hub, then its corners sw, se, ne, nw (rim order)."""
    rim = ((-1, -1), (1, -1), (1, 1), (-1, 1))
    return (hub(x, y), *(corner(2 * x + dx, 2 * y + dy) for dx, dy in rim))


def _cells(
    cells: Iterable[tuple[int, int]],
) -> tuple[dict[VertexId, None], list[tuple[VertexId, VertexId]]]:
    """Hubs and corners, then spokes and rim 4-cycles, of the cells."""
    vertices: dict[VertexId, None] = {}  # keys: each corner once, though cells share it
    edges: list[tuple[VertexId, VertexId]] = []
    for x, y in cells:
        h, *rim = _cell_vertices(x, y)
        vertices |= dict.fromkeys((h, *rim))
        edges += [(h, c) for c in rim]
        edges += zip(rim, rim[1:] + rim[:1])
    return vertices, edges


def _cells_graph(cells: Iterable[tuple[int, int]]) -> Graph:
    return canonical_layout(make_graph(*_cells(cells)))


@cache
def wheel4() -> Graph:
    """The 4-wheel: one hub plus its rim 4-cycle (a single cell at the origin)."""
    return _cells_graph([(0, 0)])


@cache
def gadget() -> tuple[Graph, tuple[VertexId, ...]]:
    """The 17-vertex five-wheel gadget and its 12 outer-face corners."""
    g = _cells_graph(section_cells(1))
    outer = tuple(v for v in g.vertices if v.kind == "corner")
    return g, outer


@cache
def mirzakhani() -> Graph:
    """The 63-vertex Mirzakhani graph M: 20 cells plus an apex joined to
    every corner."""
    vertices, edges = _cells(M_CELLS)
    spokes = [(apex(), v) for v in vertices if v.kind == "corner"]
    return canonical_layout(make_graph([*vertices, apex()], [*edges, *spokes]))


@cache
def wheel_lists() -> ListAssignment:
    """Forcing lists for the standalone 4-wheel: color 1 absent everywhere,
    the four 3-subsets of {2,3,4,5} on the rim, the full set at the hub."""
    return make_lists(
        PALETTE,
        {
            hub(0, 0): (2, 3, 4, 5),
            corner(-1, 1): (2, 3, 5),   # nw
            corner(1, 1): (2, 3, 4),    # ne
            corner(-1, -1): (2, 4, 5),  # sw
            corner(1, -1): (3, 4, 5),   # se
        },
    )


def section_cells(j: int) -> tuple[tuple[int, int], ...]:
    if not 1 <= j <= 4:
        raise GraphError(f"section index must be 1..4, got {j}")
    xs = (3 * j - 3, 3 * j - 2, 3 * j - 1)
    return tuple(sorted((x, y) for x, y in M_CELLS if x in xs))


@cache
def canonical_lists() -> ListAssignment:
    """The list assignment drawn on M: hubs of section j get the list
    forbidding j, the apex forbids 5, and corners follow the section-1
    pattern pushed through the section permutations.

    Corners shared by two sections are computed from both sides and must
    agree; a mismatch would mean the transcribed data is wrong.
    """
    forb: dict[VertexId, int] = {}
    for j in range(1, 5):
        pi = SECTION_PERMUTATIONS[j - 1]
        for (x, y) in section_cells(j):
            forb[hub(x, y)] = j
        for (a, b), f in SECTION1_FORBIDDEN.items():
            v = _shift(corner(a, b), j - 1)
            val = pi[f]
            if v in forb and forb[v] != val:
                raise GraphError(
                    f"inconsistent transcription at {v}: {forb[v]} vs {val}"
                )
            forb[v] = val
    forb[apex()] = 5
    return make_lists(PALETTE, {v: forbidding(PALETTE, f) for v, f in forb.items()})


def _shift(v: VertexId, s: int) -> VertexId:
    """Vertex v moved s sections east: hubs by 3 cells, corners by 6 units."""
    x, y = v.coords
    return hub(x + 3 * s, y) if v.kind == "hub" else corner(x + 6 * s, y)


def section_gadget(
    m: Graph, j: int
) -> tuple[Graph, tuple[VertexId, ...], dict[VertexId, VertexId]]:
    """Section j of M as an induced subgraph.

    Returns the subgraph, its 12 outer corners, and the translation map
    from gadget() vertices onto it (``_shift`` by j-1 sections).
    """
    section_cells(j)  # refuses j outside 1..4
    section1 = {v for cell in section_cells(1) for v in _cell_vertices(*cell)}
    gmap = {v: _shift(v, j - 1) for v in sorted(section1)}
    keep = set(gmap.values())
    unknown = keep - set(m.vertices)
    if unknown:
        raise GraphError(f"unknown vertex {min(unknown)}")
    sub = delete_vertices(m, set(m.vertices) - keep)
    outer = tuple(v for v in sub.vertices if v.kind == "corner")
    return sub, outer, gmap


def canonical_layout(g: Graph) -> Graph:
    """Re-derive the standard drawing coordinates from structured vertex ids.

    Useful after reading a format that does not carry coordinates.  Plain
    vertices have no canonical position, so graphs containing them are
    returned unchanged.
    """
    if any(v.kind == "plain" for v in g.vertices):
        return g
    layout: dict[VertexId, tuple[Coord, Coord]] = {}
    for v in g.vertices:
        if v.kind == "apex":
            layout[v] = (33, 25)
        elif v.kind == "hub":
            layout[v] = (6 * v.coords[0], 6 * v.coords[1])
        else:
            layout[v] = (3 * v.coords[0], 3 * v.coords[1])
    return Graph(vertices=g.vertices, adj=g.adj, layout=layout)
