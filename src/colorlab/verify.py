"""Structural certificates.

Planarity is certified constructively: build a rotation system (a plain
mapping, vertex -> neighbors in counterclockwise order) from the
straight-line layout (exact integer arithmetic: a rational drawing is
scaled once by its common denominator, so there is no floating point and
no ``Fraction`` arithmetic in the loops), extended over the apex
(``find_apex``) along the rim's outer walk; check that it permutes each
vertex's neighbors, trace its faces, and check Euler's formula
V - E + F = 2 on a connected graph.
Hamiltonicity comes from a pruned search whose output is replayed by an
independent checker; non-Hamiltonicity of the apex-deleted graph comes from
a cut certificate (delete S, count components, compare against |S|); a
perfect matching is found by a blossom-contraction search and replayed.
The gadget lemma (section j must use color j on its outer corners) is two
solves of the section's lists, with and without color j there.
``CLAIMS`` defines each certified claim once, eleven in all, for ``audit``
(the seven in AUDIT_EXPECTS, one deterministic JSON report), ``colorlab
verify`` and the theorem replay (the four gadget lemmas, not-4-choosable,
planarity and chromatic-number-3).
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Iterable, Mapping, NamedTuple, Optional

from colorlab import __version__
from colorlab.build import ListAssignment, canonical_lists, mirzakhani, section_gadget
from colorlab.engine import EXHAUSTED, SAT, hamilton_cycle
from colorlab.graph import (
    Graph,
    GraphError,
    VertexId,
    components,
    degree_histogram,
    delete_vertices,
    find_apex,
    is_connected,
)
from colorlab.solve import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    chromatic_number,
    decide,
    verify_not_choosable,
)

DirectedEdge = tuple[VertexId, VertexId]
# Cyclic counterclockwise neighbor order at every vertex.
RotationSystem = Mapping[VertexId, tuple[VertexId, ...]]


class FaceCensus(NamedTuple):
    """Face walks of a rotation system plus the Euler count."""

    faces: tuple[tuple[DirectedEdge, ...], ...]
    v: int
    e: int
    f: int
    euler: int

    def face_lengths(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for face in self.faces:
            out[len(face)] = out.get(len(face), 0) + 1
        return out

    @property
    def all_triangles(self) -> bool:
        return all(len(face) == 3 for face in self.faces)


class CutCertificate(NamedTuple):
    """Deleting S left more components than |S|: no Hamiltonian cycle."""

    cut: tuple[VertexId, ...]
    components_after: int

    @property
    def non_hamiltonian(self) -> bool:
        return self.components_after > len(self.cut)


def validate_rotation(g: Graph, rot: RotationSystem) -> None:
    """Raise unless the rotation covers g and permutes each adjacency."""
    if set(rot) != set(g.vertices):
        raise GraphError("rotation system does not cover the vertex set")
    for v in g.vertices:
        if tuple(sorted(rot[v])) != g.adj[v]:
            raise GraphError(f"rotation at {v} is not a permutation of its neighbors")


def _exact_layout(g: Graph) -> dict[VertexId, tuple[int, int]]:
    """The layout as integer pairs: each coordinate's exact ratio (``Graph``
    has checked that it has one) times the lcm of all denominators.  A
    uniform positive scaling keeps every angle, every collinear tie and
    every area sign, so the geometry below runs on integers alone."""
    exact = [(v, *(c.as_integer_ratio() for c in xy)) for v, xy in g.layout.items()]
    scale = math.lcm(*(den for _, x, y in exact for _, den in (x, y)))
    return {v: (xn * (scale // xd), yn * (scale // yd)) for v, (xn, xd), (yn, yd) in exact}


def rotation_from_layout(g: Graph) -> RotationSystem:
    """Order every vertex's neighbors counterclockwise by layout angle.

    The sort key is exact and integer: the half plane ([0, pi) before
    [pi, 2*pi)), then whether the direction is that half's first ray
    (dy == 0), then -dx * (den // dy), where den > 0 is the least common
    multiple of the nonzero dy at the vertex.  That is den * (-dx/dy),
    which increases with the angle inside either half.  Collinear ties are
    detected, not rounded: two neighbors in exactly the same direction
    raise an error naming the vertex.
    """
    if g.layout is None:
        raise GraphError("graph has no layout to orient by")
    at = _exact_layout(g)
    rotation: dict[VertexId, tuple[VertexId, ...]] = {}
    for v in g.vertices:
        vx, vy = at[v]
        rays = [(u, at[u][0] - vx, at[u][1] - vy) for u in g.adj[v]]
        den = math.lcm(*(dy for _, _, dy in rays if dy))
        keyed = []
        for u, dx, dy in rays:
            half = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
            keyed.append(((half, dy != 0, -dx * (den // dy) if dy else 0), u))
        keyed.sort()
        for (a, u), (b, w) in zip(keyed, keyed[1:]):
            if a == b:
                raise GraphError(f"neighbors {u} and {w} of {v} lie at equal angle")
        rotation[v] = tuple(u for _, u in keyed)
    return rotation


def face_census(rot: RotationSystem) -> FaceCensus:
    """Trace every face of the rotation system.

    From a directed edge (u, v) the next edge of the same face is
    (v, w) where w follows u in the rotation at v.  Every directed edge
    lands in exactly one face; V - E + F = 2 on a connected graph means
    the rotation system is a plane (genus-0) embedding.
    """
    succ_at: dict[VertexId, dict[VertexId, VertexId]] = {}
    for v, rotv in rot.items():
        succ_at[v] = {u: rotv[(i + 1) % len(rotv)] for i, u in enumerate(rotv)}
    darts = [(v, u) for v in sorted(rot) for u in rot[v]]
    seen: set[DirectedEdge] = set()
    faces: list[tuple[DirectedEdge, ...]] = []
    for start in darts:
        if start in seen:
            continue
        walk = []
        cur = start
        while True:
            if cur in seen:
                raise GraphError(f"face tracing revisited directed edge {cur}")
            seen.add(cur)
            walk.append(cur)
            u, v = cur
            cur = (v, succ_at[v][u])
            if cur == start:
                break
        least = walk.index(min(walk))
        faces.append(tuple(walk[least:] + walk[:least]))
    faces.sort()
    nv = len(rot)
    ne = len(darts) // 2
    nf = len(faces)
    return FaceCensus(faces=tuple(faces), v=nv, e=ne, f=nf, euler=nv - ne + nf)


def outer_walk(g: Graph, rot: Optional[RotationSystem] = None) -> tuple[VertexId, ...]:
    """The outer face of the layout embedding, as a simple closed walk.

    With counterclockwise rotations and the successor tracing rule the
    bounded faces come out clockwise (negative signed area) and the outer
    face is the unique positive one.  A repeated vertex on that walk is an
    error (the polygon would not be simple).  The walk starts at its least
    vertex, orientation as traced.
    """
    if rot is None:
        rot = rotation_from_layout(g)
    if g.layout is None:
        raise GraphError("outer_walk needs a layout")
    at = _exact_layout(g)
    positives = []
    for face in face_census(rot).faces:
        # Twice the face's signed area, by the shoelace formula.
        area2 = sum(at[u][0] * at[w][1] - at[w][0] * at[u][1] for u, w in face)
        if area2 > 0:
            positives.append([u for u, _ in face])
    if len(positives) != 1:
        raise GraphError(
            f"expected exactly one positive-area face, found {len(positives)}"
        )
    walk = positives[0]
    seen: set[VertexId] = set()
    for u in walk:
        if u in seen:
            raise GraphError(f"outer walk is not simple: {u} repeats")
        seen.add(u)
    least = walk.index(min(walk))
    return tuple(walk[least:] + walk[:least])


def apex_embed(g: Graph) -> RotationSystem:
    """Extend the rim embedding of an apexed graph to all of it.

    The apex must be adjacent to exactly the vertices of the rim's outer
    walk.  Its rotation is the outer walk reversed; each walk vertex gains
    the apex edge in its outer-face gap (right after its walk predecessor).
    The result is a plane embedding whenever the rim embedding was one.
    """
    apex_vertex = find_apex(g)
    if apex_vertex is None:
        raise GraphError("expected exactly one apex vertex, found 0")
    rim = g.apex_deleted
    rim_rot = rotation_from_layout(rim)
    walk = outer_walk(rim, rim_rot)
    if set(g.adj[apex_vertex]) != set(walk):
        extra = sorted(set(g.adj[apex_vertex]) - set(walk))
        missing = sorted(set(walk) - set(g.adj[apex_vertex]))
        detail = extra[0] if extra else missing[0]
        raise GraphError(f"apex adjacency does not match the outer walk at {detail}")
    rotation = dict(rim_rot)
    for i, v in enumerate(walk):
        pred = walk[i - 1]
        rotv = list(rotation[v])
        at = rotv.index(pred)
        rotation[v] = tuple(rotv[: at + 1] + [apex_vertex] + rotv[at + 1 :])
    rotation[apex_vertex] = tuple(reversed(walk))
    return rotation


class HamiltonResult(NamedTuple):
    status: str  # FOUND | NONE | EXHAUSTED
    cycle: Optional[tuple[VertexId, ...]]
    nodes: int
    budget: int


def hamilton(g: Graph, budget: int = DEFAULT_BUDGET) -> HamiltonResult:
    """Search for a Hamiltonian cycle.

    Pruned depth-first search (connectivity cut-off, vertex 0 keeping an
    unvisited neighbor, forced-degree-2 chaining) that extends the path to
    the neighbor with the fewest unvisited neighbors first, ties in vertex
    order.  NONE means the pruned space was exhausted: the graph has no
    Hamiltonian cycle.  Every returned cycle should be fed to
    check_hamiltonian_cycle, which shares no code with the search.
    """
    if g.n < 3:
        raise GraphError("Hamiltonian cycles need at least three vertices")
    status, cycle, nodes = hamilton_cycle(g.int_adj, budget)
    if status == SAT:
        return HamiltonResult(
            "FOUND", tuple(g.vertices[i] for i in cycle), nodes, budget
        )
    if status == EXHAUSTED:
        return HamiltonResult("EXHAUSTED", None, nodes, budget)
    return HamiltonResult("NONE", None, nodes, budget)


def check_hamiltonian_cycle(g: Graph, cycle: Iterable[VertexId]) -> list[str]:
    """Independent replay of a claimed Hamiltonian cycle; [] iff valid."""
    seq = list(cycle)
    problems = []
    if len(seq) != g.n:
        problems.append(f"cycle has {len(seq)} vertices, graph has {g.n}")
    if len(set(seq)) != len(seq):
        problems.append("cycle repeats a vertex")
    for v in seq:
        if v not in g.adj:
            problems.append(f"{v} is not a vertex of the graph")
            return problems
    for i, v in enumerate(seq):
        w = seq[(i + 1) % len(seq)]
        if not g.has_edge(v, w):
            problems.append(f"{v} -- {w} is not an edge")
    return problems


def cut_certificate(g: Graph, cut: Iterable[VertexId]) -> CutCertificate:
    """Count components of g - S.  More components than |S| bars a
    Hamiltonian cycle (a cycle through all vertices loses at most |S|
    pieces when S is removed).  An empty S proves nothing, so it is refused."""
    s = sorted(set(cut))
    if not s:
        raise GraphError("a cut certificate needs a nonempty cut")
    rest = delete_vertices(g, s)  # raises on unknown vertices
    return CutCertificate(cut=tuple(s), components_after=len(components(rest)))


def _max_matching(adj: list[list[int]]) -> list[int]:
    """Maximum matching by augmenting paths with blossom contraction.

    Classic O(V^3) formulation: repeated alternating-tree searches from
    free vertices; odd cycles are contracted by rebasing every vertex of
    the blossom onto the cycle's least common ancestor.  Deterministic for
    a fixed adjacency order.
    """
    n = len(adj)
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    in_blossom = [False] * n

    def lca(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_augmenting(root: int) -> bool:
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lca(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur, to)
                    mark_path(to, cur, v)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        while to != -1:
                            prev = parent[to]
                            nxt = match[prev]
                            match[to] = prev
                            match[prev] = to
                            to = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return match


class MatchingResult(NamedTuple):
    matching: Optional[tuple[tuple[VertexId, VertexId], ...]]
    reason: str = ""

    @property
    def size(self) -> int:
        return len(self.matching) if self.matching is not None else 0


def perfect_matching(g: Graph) -> MatchingResult:
    """Find a perfect matching or report why none exists.

    Odd order is immediate.  Otherwise a maximum matching is computed; if
    it leaves vertices exposed, no perfect matching exists (no augmenting
    path from an exposed vertex means the matching is maximum), and the
    exposed count is the evidence.
    """
    if g.n % 2 == 1:
        return MatchingResult(None, reason=f"odd vertex count {g.n}")
    order = g.vertices
    match = _max_matching(g.int_adj)
    exposed = [order[i] for i in range(g.n) if match[i] == -1]
    if exposed:
        size = (g.n - len(exposed)) // 2
        return MatchingResult(
            None,
            reason=(
                f"maximum matching has {size} edges, leaving "
                f"{len(exposed)} vertices exposed (first: {exposed[0]})"
            ),
        )
    edges = sorted(
        (min(order[i], order[j]), max(order[i], order[j]))
        for i, j in enumerate(match)
        if i < j
    )
    return MatchingResult(tuple(edges))


def check_matching(g: Graph, matching: Iterable[tuple[VertexId, VertexId]]) -> list[str]:
    """Independent replay of a claimed perfect matching; [] iff valid."""
    pairs = list(matching)
    problems = []
    covered: set[VertexId] = set()
    for u, v in pairs:
        if u not in g.adj or v not in g.adj or not g.has_edge(u, v):
            problems.append(f"{u} -- {v} is not an edge")
            continue
        if u in covered or v in covered:
            problems.append(f"{u} -- {v} reuses a covered vertex")
        covered.add(u)
        covered.add(v)
    missing = [v for v in g.vertices if v not in covered]
    if missing:
        problems.append(f"{len(missing)} vertices uncovered (first: {missing[0]})")
    return problems


class AuditReport(NamedTuple):
    claims: tuple[dict, ...]
    versions: dict
    budget: int

    @property
    def all_pass(self) -> bool:
        return all(c["status"] == "pass" for c in self.claims)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=True)


class GadgetLemma(NamedTuple):
    """Section j must use color j on its twelve outer corners.

    Certified by two solves: the section's lists with color j removed
    from the outer corners are UNSAT, and unreduced they are SAT (so the
    lemma is about the color, not about an impossible gadget).
    """

    section: int
    passed: bool
    reduced_status: str
    unreduced_status: str
    reduced_nodes: int
    unreduced_nodes: int
    counterexample: Optional[dict[VertexId, int]] = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "section": self.section,
            "passed": self.passed,
            "reduced": {"status": self.reduced_status, "nodes": self.reduced_nodes},
            "unreduced": {"status": self.unreduced_status, "nodes": self.unreduced_nodes},
            "reason": self.reason,
        }


def gadget_lemma(
    j: int,
    m: Optional[Graph] = None,
    lists: Optional[ListAssignment] = None,
    budget: int = DEFAULT_BUDGET,
) -> GadgetLemma:
    """Check the outer-corner color lemma for section j of M; raises
    BudgetExhausted when either solve runs out of budget."""
    g = m if m is not None else mirzakhani()
    ls = lists if lists is not None else canonical_lists()
    sub, outer, _ = section_gadget(g, j)
    section_lists = ls.restrict(sub.vertices)
    reduced = section_lists.without_color(outer, j)
    r_red = decide(sub, reduced, budget)
    r_full = decide(sub, section_lists, budget)
    if r_red.status == "EXHAUSTED" or r_full.status == "EXHAUSTED":
        raise BudgetExhausted(f"budget {budget} exhausted before the lemma was certified")
    passed = r_red.status == "UNSAT" and r_full.status == "SAT"
    reason = ""
    if r_red.status == "SAT":
        reason = f"section {j} colorable without color {j} on its outer corners"
    elif r_full.status == "UNSAT":
        reason = f"section {j} admits no list coloring at all; the lemma is vacuous"
    return GadgetLemma(
        j,
        passed,
        r_red.status,
        r_full.status,
        r_red.nodes,
        r_full.nodes,
        counterexample=r_red.witness if r_red.status == "SAT" else None,
        reason=reason,
    )


# ------------------------------------------------------------ claim registry
# Each claim is defined once, as f(graph, lists, budget) -> (ok, certificate),
# where ``ok`` is its rule for a general graph and ``budget`` bounds the
# nodes of each search it runs; a search that runs out raises
# BudgetExhausted.  Helpers are called as module globals, so a tracer that
# replaces them (perfbench/spans.py) sees every call.


def _counts(g, lists, budget):
    hist = {str(d): count for d, count in degree_histogram(g).items()}
    return True, {"vertices": g.n, "edges": g.m, "degree_histogram": hist}


def _planarity(g, lists, budget):
    rot = rotation_from_layout(g) if find_apex(g) is None else apex_embed(g)
    validate_rotation(g, rot)
    census = face_census(rot)
    lengths = {str(k): c for k, c in sorted(census.face_lengths().items())}
    cert = {"euler": census.euler, "faces": census.f, "face_lengths": lengths}
    return census.euler == 2 and is_connected(g), cert


def _chromatic(g, lists, budget):
    res = chromatic_number(g, budget)
    coloring = {str(v): c for v, c in sorted(res.witness.items())}
    return res.k == 3, {"k": res.k, "coloring": coloring}


def not_choosable_claim(
    g: Graph, lists: ListAssignment, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool, dict]:
    """The lists certify that g is not k-choosable; raises BudgetExhausted."""
    verdict = verify_not_choosable(g, lists, k, budget=budget)
    cert = {"verdict": verdict.kind, "nodes": verdict.nodes,
            "propagations": verdict.propagations}
    if verdict.reason:
        cert["reason"] = verdict.reason
    return verdict.kind == "WitnessConfirmed", cert


def _gadget_lemma(j, g, lists, budget):
    lemma = gadget_lemma(j, g, lists, budget)
    return lemma.passed, lemma.to_dict()


def _hamiltonian(g, lists, budget):
    res = hamilton(g, budget)
    if res.status == "EXHAUSTED":
        raise BudgetExhausted(f"Hamilton search undecided within {budget} nodes")
    cert = {"status": res.status, "nodes": res.nodes}
    if res.status != "FOUND":
        return False, cert
    problems = check_hamiltonian_cycle(g, res.cycle)
    cert.update(cycle=[str(v) for v in res.cycle], replay=problems or "valid")
    return not problems, cert


def _cut_vertex(g: Graph) -> Optional[VertexId]:
    """The first vertex, in vertex order, whose deletion leaves two or more
    components; None if there is none.

    One lowpoint DFS over ``g.int_adj`` gives comps(g - v) = c - 1 +
    pieces(v) for every v at once: c counts the components of g, and
    pieces(v) those that v's own component falls into without v (a root's
    DFS children; 1 plus the children no back edge lifts above v otherwise).
    """
    adj = g.int_adj
    disc = [-1] * g.n
    low = [0] * g.n
    pieces = [1] * g.n
    c = t = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        c += 1
        pieces[root] = 0
        disc[root] = low[root] = t
        t += 1
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            w = next(nbrs, -1)
            if w < 0:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    pieces[u] += low[v] >= disc[u]
            elif disc[w] < 0:
                disc[w] = low[w] = t
                t += 1
                stack.append((w, iter(adj[w])))
            else:
                low[v] = min(low[v], disc[w])
    return next((g.vertices[v] for v in range(g.n) if c - 1 + pieces[v] >= 2), None)


def _cut(g, lists, budget):
    # The construction's cut (the degree-7 vertices of the apex-deleted
    # graph) if it certifies; else the first single vertex that splits the
    # graph, which always certifies; else the construction's cut as it
    # stands (an empty one raises).
    rest = g.apex_deleted
    cut = [v for v in rest.vertices if rest.degree(v) == 7]
    cert = cut_certificate(rest, cut) if cut else None
    if cert is None or not cert.non_hamiltonian:
        single = _cut_vertex(rest)
        cert = cut_certificate(rest, cut if single is None else [single])
    return cert.non_hamiltonian, {
        "cut_size": len(cert.cut),
        "cut": [str(v) for v in cert.cut],
        "components_after": cert.components_after,
        "non_hamiltonian": cert.non_hamiltonian,
    }


def _matching(g, lists, budget):
    rest = g.apex_deleted
    res = perfect_matching(rest)
    if res.matching is None:
        return False, {"reason": res.reason}
    problems = check_matching(rest, res.matching)
    pairs = [f"{u} -- {v}" for u, v in res.matching]
    replay = problems or "valid"
    return not problems, {"size": res.size, "matching": pairs, "replay": replay}


CLAIMS = {
    "construction-counts": _counts,
    "planarity": _planarity,
    "chromatic-number-3": _chromatic,
    "not-4-choosable": lambda g, ls, b: not_choosable_claim(g, ls, 4, b),
    "hamiltonian": _hamiltonian,
    "apex-deleted-not-hamiltonian": _cut,
    "apex-deleted-perfect-matching": _matching,
    **{f"gadget-lemma-{j}": partial(_gadget_lemma, j) for j in range(1, 5)},
}

# The construction's own numbers, in report order: an audited claim passes
# when its rule holds and its certificate carries these values.
AUDIT_EXPECTS = (
    ("construction-counts", {"vertices": 63, "edges": 183,
                             "degree_histogram": {"4": 40, "6": 6, "8": 16, "42": 1}}),
    ("planarity", {"faces": 122, "face_lengths": {"3": 122}}),
    ("chromatic-number-3", {"k": 3}),
    ("not-4-choosable", {}),
    ("hamiltonian", {}),
    ("apex-deleted-not-hamiltonian", {"cut_size": 16, "components_after": 17}),
    ("apex-deleted-perfect-matching", {"size": 31}),
)


def run_claim(
    name: str,
    g: Graph,
    lists: Optional[ListAssignment] = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, dict]:
    """Run one registered claim.  A raised exception is recorded as a
    failure; a spent budget is, in addition, the certificate
    {"error", "status": "EXHAUSTED"}, the only form a spent budget takes."""
    claim = CLAIMS[name]
    try:
        return claim(g, lists, budget)
    except BudgetExhausted as exc:
        return False, {"error": str(exc), "status": "EXHAUSTED"}
    except Exception as exc:  # noqa: BLE001 - a report must always complete
        return False, {"error": str(exc)}


def audit(
    graph: Optional[Graph] = None,
    lists: Optional[ListAssignment] = None,
    budget: int = DEFAULT_BUDGET,
) -> AuditReport:
    """Run the AUDIT_EXPECTS claims on the given graph/lists (defaults: the
    canonical construction).  Equal inputs give byte-identical JSON."""
    g = graph if graph is not None else mirzakhani()
    ls = lists if lists is not None else canonical_lists()
    claims = []
    for name, expect in AUDIT_EXPECTS:
        ok, cert = run_claim(name, g, ls, budget)
        ok = ok and all(cert.get(key) == value for key, value in expect.items())
        status = "pass" if ok else "fail"
        claims.append({"name": name, "status": status, "certificate": cert})
    return AuditReport(tuple(claims), {"package": __version__}, budget)
