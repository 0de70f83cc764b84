"""Simple undirected graphs with structured vertex identities.

Vertices carry their role in the cell construction (apex / hub / corner) or
a plain integer id for generic graphs.  A vertex id is the tuple
(rank, coords), rank 0 apex, 1 hub, 2 corner, 3 plain, so tuple comparison
is the fixed total order (apex < hub < corner < plain, coordinates
lexicographic) that makes every derived sequence deterministic.  Ids hold
only integers, so their order and hash do not depend on the hash seed.
A layout is checked once, when its ``Graph`` is made, and ``make_graph``
refuses an id listed twice; readers and builders rely on both checks.
A ``Graph`` is read-only all the way down: its ``adj`` and ``layout`` are
read-only views of copies made when it is made, so a graph can be shared
and the integer forms and M - apex it keeps (built on first use) can
never go stale.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Union,
)

if TYPE_CHECKING:
    from fractions import Fraction

Coord = Union[int, "Fraction", float]  # exact: never a bool, nan or inf

_KINDS = ("apex", "hub", "corner", "plain")


class GraphError(ValueError):
    """Raised for malformed graph construction input."""


class VertexId(NamedTuple):
    """Structural vertex identity: a plain tuple, so equality, hashing and
    the vertex order are tuple operations."""

    rank: int  # index into _KINDS
    coords: tuple[int, ...] = ()

    @property
    def kind(self) -> str:
        return _KINDS[self.rank]

    def __str__(self) -> str:
        if self.kind == "apex":
            return "apex"
        return f"{self.kind}:{','.join(str(c) for c in self.coords)}"

    def __repr__(self) -> str:
        return f"VertexId({self})"


def apex() -> VertexId:
    return VertexId(0)


def hub(x: int, y: int) -> VertexId:
    return VertexId(1, (int(x), int(y)))


def corner(a: int, b: int) -> VertexId:
    if a % 2 == 0 or b % 2 == 0:
        raise GraphError(f"corner coordinates must both be odd, got ({a}, {b})")
    return VertexId(2, (int(a), int(b)))


def plain(n: int) -> VertexId:
    if n < 0:
        raise GraphError(f"plain vertex index must be nonnegative, got {n}")
    return VertexId(3, (int(n),))


def parse_vertex(text: str) -> VertexId:
    """Inverse of ``str(vertex)``: 'apex', 'hub:x,y', 'corner:a,b', 'plain:n'.
    Only that spelling is read: 'plain:00' or 'hub:+1,0' is unparseable."""
    if text == "apex":
        return apex()
    kind, _, rest = text.partition(":")
    try:
        coords = tuple(int(c) for c in rest.split(","))
    except ValueError:
        raise GraphError(f"unparseable vertex id {text!r}") from None
    if ",".join(map(str, coords)) != rest:
        raise GraphError(f"unparseable vertex id {text!r}")
    if kind == "hub" and len(coords) == 2:
        return hub(*coords)
    if kind == "corner" and len(coords) == 2:
        return corner(*coords)
    if kind == "plain" and len(coords) == 1:
        return plain(*coords)
    raise GraphError(f"unparseable vertex id {text!r}")


class FrozenFields:
    """Named fields set once, compared by value, never hashed.

    The base of ``Graph`` and ``ListAssignment``.  A subclass names its
    fields in ``_fields`` and stores them in its ``__init__`` through
    ``__dict__``; any later assignment or deletion raises AttributeError.
    Unlike a named tuple it is not a sequence: ``len`` and ``iter`` raise
    TypeError instead of running over the fields.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]  # the fields hold mappings

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(FrozenFields):
    """Immutable simple graph.

    ``vertices`` is sorted by the vertex total order and every adjacency
    tuple is sorted the same way.  ``adj`` and ``layout`` are copied here
    and kept as read-only mappings: assigning into one raises TypeError, and
    a caller who later changes the dict it passed in changes nothing here.
    ``layout`` gives each vertex one pair of ``Coord``s, checked here.
    Equality compares the three fields, never the cached forms below.
    """

    _fields = ("vertices", "adj", "layout")
    vertices: tuple[VertexId, ...]
    adj: Mapping[VertexId, tuple[VertexId, ...]]
    layout: Optional[Mapping[VertexId, tuple[Coord, Coord]]]

    def __init__(
        self,
        vertices: tuple[VertexId, ...],
        adj: Mapping[VertexId, tuple[VertexId, ...]],
        layout: Optional[Mapping[VertexId, tuple[Coord, Coord]]] = None,
    ) -> None:
        if layout is not None:
            for v in vertices:
                p = layout.get(v)
                if p is None:
                    raise GraphError(f"layout missing coordinates for {v}")
                if type(p) is not tuple or len(p) != 2 or not (_exact(p[0]) and _exact(p[1])):
                    raise GraphError(f"coordinates of {v} are not two exact numbers: {p!r}")
            stray = sorted(map(str, layout.keys() - set(vertices)))
            if stray:
                raise GraphError(f"layout has coordinates for {stray[0]}, not a vertex")
            layout = MappingProxyType(dict(layout))
        self.__dict__.update(vertices=vertices, adj=MappingProxyType(dict(adj)), layout=layout)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def degree(self, v: VertexId) -> int:
        return len(self.adj[v])

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[VertexId, VertexId]]:
        """All edges as ordered pairs (u < v), in lexicographic order."""
        for u in self.vertices:
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def index(self) -> dict[VertexId, int]:
        """Vertex -> position in the fixed total order (0-based)."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def int_adj(self) -> tuple[tuple[int, ...], ...]:
        """The integer form the kernels take: row i holds the positions of
        the neighbors of vertex i, ascending (positions follow the vertex
        order, in which every adjacency tuple is sorted).  Built on first
        use and kept on this graph; derived graphs build their own."""
        pos = self.index()
        return tuple(tuple(pos[u] for u in self.adj[v]) for v in self.vertices)

    @cached_property
    def int_order(self) -> tuple[int, ...]:
        """``engine.branch_order`` of ``int_adj``: the coloring kernel's
        scan order, which it takes as an argument; kept on this graph."""
        from colorlab.engine import branch_order

        return branch_order(self.int_adj)

    @cached_property
    def int_edges(self) -> tuple[tuple[int, int], ...]:
        """``edges()`` as position pairs (i < j), in the same order.  Built
        from the vertex ids, not from ``int_adj``, so witness checks that
        read it share nothing with the kernels' input; kept on this graph."""
        pos = self.index()
        return tuple((pos[u], pos[v]) for u, v in self.edges())

    @cached_property
    def apex_deleted(self) -> Graph:
        """This graph without its apex (``find_apex``), or a copy of it when
        it has none: the graph the apex-deleted claims and the apex
        embedding read; kept on this graph."""
        apex_vertex = find_apex(self)
        return delete_vertices(self, [] if apex_vertex is None else [apex_vertex])


def find_apex(g: Graph) -> Optional[VertexId]:
    """``apex()`` if g has it, else None: no other vertex id is an apex."""
    return apex() if apex() in g.adj else None


def _exact(c: object) -> bool:
    if type(c) is int:
        return True
    try:
        c.as_integer_ratio()  # type: ignore[attr-defined]
    except (AttributeError, ValueError, OverflowError):  # a str or None, nan, inf
        return False
    return type(c) is not bool


def make_graph(
    vertices: Iterable[VertexId],
    edges: Iterable[tuple[VertexId, VertexId]],
    layout: Optional[Mapping[VertexId, tuple[Coord, Coord]]] = None,
) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops and repeated ids are refused."""
    vs = sorted(vertices)
    vset = set(vs)
    if len(vset) < len(vs):
        v = next(u for u, w in zip(vs, vs[1:]) if u == w)
        raise GraphError(f"vertex id {v} names more than one of the {len(vs)} vertices")
    nbrs: dict[VertexId, set[VertexId]] = {v: set() for v in vs}
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop edge at {u}")
        if u not in vset or v not in vset:
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside the vertex set")
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = {v: tuple(sorted(nbrs[v])) for v in vs}
    return Graph(vertices=tuple(vs), adj=adj, layout=layout)


def delete_vertices(g: Graph, remove: Iterable[VertexId]) -> Graph:
    """Induced subgraph on V minus ``remove``; layout entries are dropped too."""
    s = set(remove)
    unknown = s - set(g.vertices)
    if unknown:
        raise GraphError(f"cannot delete unknown vertex {sorted(unknown)[0]}")
    keep = [v for v in g.vertices if v not in s]
    adj = {v: tuple(u for u in g.adj[v] if u not in s) for v in keep}
    lay = None if g.layout is None else {v: g.layout[v] for v in keep}
    return Graph(vertices=tuple(keep), adj=adj, layout=lay)


def components(g: Graph) -> list[tuple[VertexId, ...]]:
    """Connected components, each sorted, listed by least member."""
    seen: set[VertexId] = set()
    out: list[tuple[VertexId, ...]] = []
    for root in g.vertices:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(components(g)) == 1


def degree_histogram(g: Graph) -> dict[int, int]:
    """Map degree -> number of vertices of that degree."""
    hist: dict[int, int] = {}
    for v in g.vertices:
        d = len(g.adj[v])
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
