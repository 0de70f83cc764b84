"""Certificates: embeddings, Hamiltonicity, cuts, matchings, the audit."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from colorlab import engine, graph, verify
from colorlab.build import canonical_lists, gadget, mirzakhani, wheel4
from colorlab.choose import SplitMix64
from colorlab.graph import (
    Graph,
    GraphError,
    apex,
    corner,
    delete_vertices,
    hub,
    make_graph,
    plain,
)
from colorlab.cli import _exit_code
from colorlab.graphio import graph_from_json, graph_to_json
from colorlab.verify import (
    CLAIMS,
    apex_embed,
    audit,
    check_hamiltonian_cycle,
    check_matching,
    cut_certificate,
    face_census,
    find_apex,
    hamilton,
    outer_walk,
    perfect_matching,
    rotation_from_layout,
    run_claim,
    validate_rotation,
    _max_matching,
)

SW, SE, NE, NW = corner(-1, -1), corner(1, -1), corner(1, 1), corner(-1, 1)


def path(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(
        vs, [(vs[i], vs[i + 1]) for i in range(n - 1)], layout={v: (i, 0) for i, v in enumerate(vs)}
    )


def cycle(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def square():
    vs = [SW, SE, NE, NW]
    return make_graph(
        vs,
        [(vs[i], vs[(i + 1) % 4]) for i in range(4)],
        layout={v: v.coords for v in vs},
    )


def petersen():
    vs = [plain(i) for i in range(10)]
    outer = [(vs[i], vs[(i + 1) % 5]) for i in range(5)]
    spokes = [(vs[i], vs[i + 5]) for i in range(5)]
    star = [(vs[5 + i], vs[5 + (i + 2) % 5]) for i in range(5)]
    return make_graph(vs, outer + spokes + star)


# -------------------------------------------------------------- rotations


def test_rotation_from_layout_is_counterclockwise():
    rot = rotation_from_layout(wheel4())
    r = rot[hub(0, 0)]
    assert r == (NE, NW, SW, SE)  # 45, 135, 225, 315 degrees
    validate_rotation(wheel4(), rot)


def test_rotation_succ_wraps():
    rot = rotation_from_layout(wheel4())
    r = rot[hub(0, 0)]
    assert r[(r.index(SE) + 1) % len(r)] == NE
    assert sum(map(len, rot.values())) == 16


def test_equal_angle_neighbors_rejected():
    # two neighbors due east of the hub cannot be ordered by angle
    vs = [plain(0), plain(1), plain(2)]
    g = make_graph(
        vs,
        [(vs[0], vs[1]), (vs[0], vs[2])],
        layout={vs[0]: (0, 0), vs[1]: (1, 0), vs[2]: (2, 0)},
    )
    with pytest.raises(GraphError, match="equal angle"):
        rotation_from_layout(g)


class EqualAngle(Exception):
    pass


def cross_order(directions):
    """Reference counterclockwise order from angle 0 by exact cross
    products: the half plane [0, pi) first, then the sign of the cross
    product; two directions at one angle raise EqualAngle."""

    def half(dx, dy):
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def cmp(a, b):
        (_, ax, ay), (_, bx, by) = a, b
        if half(ax, ay) != half(bx, by):
            return half(ax, ay) - half(bx, by)
        cross = ax * by - ay * bx
        if cross == 0:
            raise EqualAngle
        return -1 if cross > 0 else 1

    return [u for u, _, _ in sorted(directions, key=cmp_to_key(cmp))]


COORD = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    # Large integers and denominators make the common-denominator scale
    # and each vertex's lcm of dy large.
    st.integers(-(10**30), 10**30),
    st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**9),
)


@settings(deadline=None, max_examples=150)
@given(st.tuples(COORD, COORD), st.lists(st.tuples(COORD, COORD), min_size=1, max_size=9))
def test_rotation_key_matches_cross_products(centre, points):
    # A star: the centre's rotation is its neighbours in angle order, and
    # a collinear pair is refused exactly where the cross products tie.
    points = [p for p in points if p != centre]
    vs = [plain(i) for i in range(len(points) + 1)]
    g = make_graph(vs, [(vs[0], v) for v in vs[1:]], layout=dict(zip(vs, [centre, *points])))
    cx, cy = centre
    directions = [(v, Fraction(x) - cx, Fraction(y) - cy) for v, (x, y) in zip(vs[1:], points)]
    try:
        expected = cross_order(directions)
    except EqualAngle:
        with pytest.raises(GraphError, match="equal angle"):
            rotation_from_layout(g)
    else:
        assert rotation_from_layout(g)[vs[0]] == tuple(expected)


def test_validate_rotation_rejects_bad_cover():
    g = square()
    rot = rotation_from_layout(g)
    broken = dict(rot)
    del broken[SW]
    with pytest.raises(GraphError, match="cover"):
        validate_rotation(g, broken)
    broken = dict(rot)
    broken[SW] = (SE, SE)
    with pytest.raises(GraphError, match="permutation"):
        validate_rotation(g, broken)


# ----------------------------------------------------------- face census


def test_square_census():
    census = face_census(rotation_from_layout(square()))
    assert (census.v, census.e, census.f, census.euler) == (4, 4, 2, 2)
    assert census.face_lengths() == {4: 2}


def test_face_walks_conserve_directed_edges():
    for g in (square(), wheel4(), mirzakhani()):
        rot = apex_embed(g) if g.n == 63 else rotation_from_layout(g)
        census = face_census(rot)
        assert sum(len(f) for f in census.faces) == 2 * census.e


def test_twisted_rotation_raises_genus():
    # reversing one vertex's cyclic order destroys planarity of the W4 embedding
    rot = rotation_from_layout(wheel4())
    twisted = dict(rot)
    twisted[hub(0, 0)] = tuple(reversed(twisted[hub(0, 0)]))
    census = face_census(twisted)
    assert census.euler != 2


def test_euler_detects_nonplanar_input():
    # K5 has no plane embedding: every rotation system stays below euler 2
    vs = [plain(i) for i in range(5)]
    g = make_graph(vs, list(itertools.combinations(vs, 2)))
    rot = {v: g.adj[v] for v in vs}
    assert face_census(rot).euler < 2


def test_mirzakhani_is_a_plane_triangulation():
    census = face_census(apex_embed(mirzakhani()))
    assert (census.v, census.e, census.f, census.euler) == (63, 183, 122, 2)
    assert census.all_triangles


# M's faces, one line each: the tails of its darts, from its least dart.
M_FACES_SHA256 = "b6b4e8eaaaf521fcb09994ebd06920d9d808f471862cc7a9d2dcfd32acd7fe99"


def test_mirzakhani_faces_ascend_and_each_starts_at_its_least_dart():
    faces = face_census(apex_embed(mirzakhani())).faces
    assert list(faces) == sorted(faces)
    assert all(face[0] == min(face) for face in faces)
    text = "\n".join(" ".join(str(u) for u, _ in face) for face in faces)
    assert hashlib.sha256(text.encode()).hexdigest() == M_FACES_SHA256


def test_apex_deleted_census():
    inner = delete_vertices(mirzakhani(), [apex()])
    rot = rotation_from_layout(inner)
    assert sum(map(len, rot.values())) == 282
    census = face_census(rot)
    assert (census.v, census.e, census.f, census.euler) == (62, 141, 81, 2)
    assert census.face_lengths() == {3: 80, 42: 1}


def test_face_tracing_refuses_a_rotation_that_repeats_a_neighbor():
    v0, v1, v2 = (plain(i) for i in range(3))
    with pytest.raises(GraphError, match=r"face tracing revisited directed edge"):
        face_census({v0: (v1, v2, v1), v1: (v0,), v2: (v0,)})


def test_face_tracing_refuses_a_neighbor_listed_twice_in_a_row():
    # Both copies of v1 at v0 give the dart into v0 the same next dart, so
    # the darts still close one face and tracing would meet none twice; the
    # repeat is refused as the map is built.
    v0, v1 = plain(0), plain(1)
    message = r"face tracing revisited directed edge \(plain:0, plain:1\)"
    with pytest.raises(GraphError, match=message):
        face_census({v0: (v1, v1), v1: (v0,)})


@pytest.mark.parametrize(
    "rot, message",
    [
        (
            {plain(0): (plain(1), plain(2)), plain(1): (plain(0),), plain(2): ()},
            "dart (plain:0, plain:2) has no successor: plain:2 does not list plain:0",
        ),
        (
            {plain(0): (plain(1),)},
            "dart (plain:0, plain:1) has no successor: plain:1 does not list plain:0",
        ),
    ],
    ids=["head-does-not-list-tail", "head-has-no-rotation"],
)
def test_face_tracing_refuses_a_dart_with_no_successor(rot, message):
    with pytest.raises(GraphError) as info:
        face_census(rot)
    assert str(info.value) == message


def reference_face_census(rot):
    """A second face tracing to compare against: a successor dict per
    vertex, a sorted dart list and a set of seen darts."""
    succ_at = {}
    for v, rotv in rot.items():
        succ_at[v] = {u: rotv[(i + 1) % len(rotv)] for i, u in enumerate(rotv)}
    darts = [(v, u) for v in sorted(rot) for u in rot[v]]
    seen = set()
    faces = []
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
    return verify.FaceCensus(faces=tuple(faces), v=nv, e=ne, f=nf, euler=nv - ne + nf)


def shuffled_rotations(count):
    """Seeded random graphs on 3 to 24 vertices, every neighbor order shuffled."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(3, 24)
        density = rng.uniform(0.1, 0.6)
        vs = [plain(i) for i in range(n)]
        g = make_graph(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < density])
        rot = {}
        for v in vs:
            order = list(g.adj[v])
            rng.shuffle(order)
            rot[v] = tuple(order)
        yield rot


def test_face_census_matches_the_reference_tracing():
    w4 = rotation_from_layout(wheel4())
    twisted = dict(w4) | {hub(0, 0): tuple(reversed(w4[hub(0, 0)]))}
    vs = [plain(i) for i in range(5)]
    k5 = make_graph(vs, list(itertools.combinations(vs, 2)))
    fixed = [
        rotation_from_layout(square()),
        w4,
        rotation_from_layout(gadget()[0]),
        rotation_from_layout(delete_vertices(mirzakhani(), [apex()])),
        apex_embed(mirzakhani()),
        twisted,
        dict(k5.adj),
    ]
    for rot in fixed:
        assert face_census(rot) == reference_face_census(rot)
    genus_zero = set()
    for seed, rot in enumerate(shuffled_rotations(200)):
        census = face_census(rot)
        assert census == reference_face_census(rot), seed
        genus_zero.add(census.euler == 2)
    assert genus_zero == {False, True}


# ------------------------------------------------------------ outer walk


def test_outer_walk_of_square():
    assert outer_walk(square()) == (SW, SE, NE, NW)


def test_outer_walk_of_wheel():
    assert outer_walk(wheel4()) == (SW, SE, NE, NW)


def test_outer_walk_of_apex_deleted_graph():
    walk = outer_walk(delete_vertices(mirzakhani(), [apex()]))
    assert len(walk) == 42
    assert all(v.kind == "corner" for v in walk)
    assert len(set(walk)) == 42


def test_outer_walk_needs_a_layout():
    g = cycle(4)
    with pytest.raises(GraphError, match="outer_walk needs a layout"):
        outer_walk(g, {v: g.adj[v] for v in g.vertices})


def test_outer_walk_of_a_bowtie_is_not_simple():
    # Triangles 0-1-2 and 2-3-4 meet at vertex 2, which the outer face
    # passes twice.
    vs = [plain(i) for i in range(5)]
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    at = [(0, 0), (0, 2), (2, 1), (4, 0), (4, 2)]
    g = make_graph(vs, [(vs[a], vs[b]) for a, b in pairs], dict(zip(vs, at)))
    with pytest.raises(GraphError, match="outer walk is not simple: plain:2 repeats"):
        outer_walk(g)


# ------------------------------------------------------------ apex embed


def test_apex_embed_wheel_plus_apex():
    w = wheel4()
    vs = list(w.vertices) + [apex()]
    edges = [(u, v) for u in w.vertices for v in w.adj[u] if u < v]
    edges += [(apex(), c) for c in (SW, SE, NE, NW)]
    g = make_graph(vs, edges, layout=dict(w.layout) | {apex(): (33, 25)})
    census = face_census(apex_embed(g))
    assert (census.v, census.e, census.f, census.euler) == (6, 12, 8, 2)
    assert census.all_triangles


def test_apex_embed_requires_single_apex():
    with pytest.raises(GraphError, match="apex"):
        apex_embed(wheel4())


def test_apex_embed_rejects_wrong_attachment():
    # apex adjacent to the hub, which is not on the rim's outer walk
    w = wheel4()
    vs = list(w.vertices) + [apex()]
    edges = [(u, v) for u in w.vertices for v in w.adj[u] if u < v]
    edges += [(apex(), c) for c in (SW, SE, NE, NW, hub(0, 0))]
    g = make_graph(vs, edges, layout=dict(w.layout) | {apex(): (33, 25)})
    with pytest.raises(GraphError, match="outer walk"):
        apex_embed(g)


def test_apex_rotation_is_reversed_walk():
    rot = apex_embed(mirzakhani())
    inner = delete_vertices(mirzakhani(), [apex()])
    walk = outer_walk(inner)
    assert rot[apex()] == tuple(reversed(walk))


def test_find_apex_is_a_lookup():
    assert find_apex(mirzakhani()) == apex()
    assert find_apex(wheel4()) is None
    assert find_apex(delete_vertices(mirzakhani(), [apex()])) is None


def relaid(g, f):
    """g with every layout point p moved to f(p)."""
    return Graph(vertices=g.vertices, adj=g.adj, layout={v: f(*p) for v, p in g.layout.items()})


def rim(g):
    return delete_vertices(g, [apex()])


def similar(x, y):
    # A rational similarity: positive scale 2/7 and a rational shift.
    return (Fraction(2, 7) * x + Fraction(1, 3), Fraction(2, 7) * y - Fraction(5, 11))


def test_a_rational_similarity_keeps_the_embedding():
    m = mirzakhani()
    moved = relaid(m, similar)
    assert any(Fraction(x).denominator > 1 for x, _ in moved.layout.values())
    assert apex_embed(moved) == apex_embed(m)
    assert outer_walk(rim(moved)) == outer_walk(rim(m))
    assert run_claim("planarity", moved) == run_claim("planarity", m)


def cyclic_equal(a, b):
    return len(a) == len(b) and any(a == b[i:] + b[:i] for i in range(len(b)))


def test_a_mirrored_drawing_reverses_every_rotation():
    m = mirzakhani()
    mirrored = relaid(m, lambda x, y: (-x, y))
    rot, mirror_rot = rotation_from_layout(rim(m)), rotation_from_layout(rim(mirrored))
    assert rot.keys() == mirror_rot.keys()
    for v, order in rot.items():
        assert cyclic_equal(mirror_rot[v], tuple(reversed(order)))
    ok, cert = run_claim("planarity", mirrored)
    assert ok
    assert cert == {"euler": 2, "faces": 122, "face_lengths": {"3": 122}}


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__lt__", "__gt__",
)


def test_planarity_geometry_does_no_fraction_arithmetic(monkeypatch):
    # The layout is read as Fractions once and scaled to integers; a
    # Fraction operation in the geometry loops would raise here.
    m = mirzakhani()
    moved = relaid(m, similar)
    expected = run_claim("planarity", m)
    assert expected[0]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the planarity geometry")

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    assert run_claim("planarity", m) == expected
    assert run_claim("planarity", moved) == expected


def test_planarity_reads_int_fraction_and_float_coordinates_alike():
    # Every coordinate is read by as_integer_ratio, which int, Fraction and
    # float all have; halving M's drawing in each type keeps the certificate.
    m = mirzakhani()
    expected = run_claim("planarity", m)
    assert expected[0]
    halves = {
        int: lambda x, y: (2 * x, 2 * y),
        Fraction: lambda x, y: (Fraction(x, 2), Fraction(y, 2)),
        float: lambda x, y: (x / 2, y / 2),
    }
    for kind, f in halves.items():
        moved = relaid(m, f)
        assert {type(c) for p in moved.layout.values() for c in p} == {kind}
        assert run_claim("planarity", moved) == expected
    # The halves include non-integers such as 1.5, which the scaling must keep.
    assert 1.5 in {c for p in relaid(m, halves[float]).layout.values() for c in p}


@pytest.mark.parametrize("bad", ["1", float("nan"), float("inf")])
def test_a_coordinate_that_is_not_an_exact_number_fails_naming_the_vertex(bad):
    m = mirzakhani()
    layout = dict(m.layout)
    layout[corner(1, 1)] = (bad, layout[corner(1, 1)][1])
    # Refused where the graph is made: the planar geometry never sees it.
    message = r"^coordinates of corner:1,1 are not two exact numbers"
    with pytest.raises(GraphError, match=message):
        Graph(vertices=m.vertices, adj=m.adj, layout=layout)
    with pytest.raises(GraphError, match=message):
        make_graph(m.vertices, m.edges(), layout)


def test_planarity_claim_checks_the_rotation_against_the_graph(monkeypatch):
    # An embedder that drops the apex -- corner(1, 1) edge from both ends
    # still gives a genus-0 census (one quadrilateral face); the claim must
    # refuse the rotation because it is not a rotation of M.
    real = verify.apex_embed

    def drops_an_apex_edge(g):
        rot = dict(real(g))
        rot[apex()] = tuple(u for u in rot[apex()] if u != corner(1, 1))
        rot[corner(1, 1)] = tuple(u for u in rot[corner(1, 1)] if u != apex())
        return rot

    census = face_census(drops_an_apex_edge(mirzakhani()))
    assert (census.euler, census.f) == (2, 121)
    monkeypatch.setattr(verify, "apex_embed", drops_an_apex_edge)
    ok, cert = run_claim("planarity", mirzakhani())
    assert not ok
    assert cert == {"error": "rotation at apex is not a permutation of its neighbors"}


# ----------------------------------------------------------- hamiltonian


def test_hamilton_cycle_found_and_replayed():
    g = cycle(5)
    res = hamilton(g)
    assert res.status == "FOUND"
    assert check_hamiltonian_cycle(g, res.cycle) == []


def test_hamilton_none_on_petersen():
    res = hamilton(petersen(), budget=10**6)
    assert res.status == "NONE"
    assert res.nodes == 81  # deterministic pruned search


def test_hamilton_exhausted_on_tiny_budget():
    res = hamilton(mirzakhani(), budget=50)
    assert res.status == "EXHAUSTED"
    assert res.cycle is None
    assert res.nodes == 50


def test_hamilton_rejects_tiny_graphs():
    with pytest.raises(GraphError):
        hamilton(path(2))


def test_mirzakhani_is_hamiltonian():
    g = mirzakhani()
    res = hamilton(g)
    assert res.status == "FOUND"
    assert check_hamiltonian_cycle(g, res.cycle) == []


def brute_hamiltonian(n, edges):
    """Whether some ordering of 1..n-1 after vertex 0 closes into a cycle."""
    return any(
        all(frozenset(e) in edges for e in zip((0, *rest), (*rest, 0)))
        for rest in itertools.permutations(range(1, n))
    )


def test_hamilton_verdicts_match_brute_force():
    found = 0
    for seed in range(600):
        rng = SplitMix64(seed)
        n = 3 + rng.below(6)
        density = 20 + rng.below(61)
        edges = {
            frozenset((i, j))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.below(100) < density
        }
        vs = [plain(i) for i in range(n)]
        g = make_graph(vs, [(vs[i], vs[j]) for i, j in map(sorted, edges)])
        res = hamilton(g)
        assert res.status in ("FOUND", "NONE"), seed
        assert (res.status == "FOUND") == brute_hamiltonian(n, edges), seed
        if res.cycle is not None:
            assert check_hamiltonian_cycle(g, res.cycle) == [], seed
            found += 1
    assert 0 < found < 600


def test_hamilton_never_backtracks_on_m_or_its_apex_edge_mutants():
    # Fewest-unvisited-neighbors-first extends the path straight to a cycle
    # on M and on each graph criterion 11 audits: n - 1 = 62 nodes apiece.
    g = mirzakhani()
    graphs = [g]
    for dropped in g.adj[apex()]:
        edges = [(u, v) for u, v in g.edges() if (u, v) != (apex(), dropped)]
        graphs.append(make_graph(g.vertices, edges, layout=g.layout))
    assert len(graphs) == 43
    for h in graphs:
        res = hamilton(h)
        assert (res.status, res.nodes) == ("FOUND", 62)
        assert check_hamiltonian_cycle(h, res.cycle) == []


def test_cycle_replay_catches_problems():
    g = cycle(4)
    vs = list(g.vertices)
    assert check_hamiltonian_cycle(g, vs[:3]) != []  # too short
    assert check_hamiltonian_cycle(g, [vs[0], vs[1], vs[1], vs[2]]) != []  # repeat
    assert check_hamiltonian_cycle(g, [vs[0], vs[2], vs[1], vs[3]]) != []  # chords
    assert check_hamiltonian_cycle(g, [vs[0], vs[1], vs[2], plain(99)]) != []


def a_triangle(g):
    """The first edge of g and the least common neighbour of its ends."""
    u, v = next(iter(g.edges()))
    return u, v, min(set(g.adj[u]) & set(g.adj[v]))


# Each input below breaks one rule of its checker, so each check must report
# it alone: dropping or weakening that one check lets the input pass.
def test_cycle_replay_refuses_a_triangle_of_m_for_its_length_alone():
    g = mirzakhani()
    assert check_hamiltonian_cycle(g, a_triangle(g)) == ["cycle has 3 vertices, graph has 63"]


def test_cycle_replay_refuses_a_closed_walk_of_n_steps_for_its_repeats_alone():
    g = mirzakhani()
    walk = list(a_triangle(g)) * 21  # 63 steps round one face, 21 times
    assert len(walk) == g.n
    assert check_hamiltonian_cycle(g, walk) == ["cycle repeats a vertex"]


# --------------------------------------------------------------- cutting


def test_cut_certificate_on_path():
    g = path(3)
    cert = cut_certificate(g, [plain(1)])
    assert cert.components_after == 2
    assert cert.non_hamiltonian


def test_cut_certificate_refuses_an_empty_cut():
    # An empty cut leaves one component on any connected graph, and 1 > 0
    # would wrongly certify the Hamiltonian 4-cycle as non-Hamiltonian.
    with pytest.raises(GraphError, match="nonempty"):
        cut_certificate(cycle(4), [])


def test_cut_certificate_inconclusive_on_cycle():
    cert = cut_certificate(cycle(4), [plain(0)])
    assert cert.components_after == 1
    assert not cert.non_hamiltonian


def test_apex_deleted_graph_fails_hamiltonicity():
    inner = delete_vertices(mirzakhani(), [apex()])
    s = [v for v in inner.vertices if inner.degree(v) == 7]
    assert len(s) == 16
    cert = cut_certificate(inner, s)
    assert cert.components_after == 17
    assert cert.non_hamiltonian


def old_cut(g):
    """Reference cut claim: every single vertex tried in turn with its own
    deletion and component count, O(n * (n + m))."""
    rest = delete_vertices(g, [v for v in g.vertices if v.kind == "apex"])
    cuts = [[v for v in rest.vertices if rest.degree(v) == 7]]
    cuts += [[v] for v in rest.vertices]
    certs = (cut_certificate(rest, cut) for cut in cuts if cut)
    cert = next((c for c in certs if c.non_hamiltonian), None)
    if cert is None:
        cert = cut_certificate(rest, cuts[0])
    return cert.non_hamiltonian, {
        "cut_size": len(cert.cut),
        "cut": [str(v) for v in cert.cut],
        "components_after": cert.components_after,
        "non_hamiltonian": cert.non_hamiltonian,
    }


def random_graph(seed):
    rng = SplitMix64(seed)
    n = 1 + rng.below(12)
    density = rng.below(100)
    vs = [plain(i) for i in range(n)]
    if rng.below(4) == 0:
        vs[0] = apex()
    edges = [(u, v) for u, v in itertools.combinations(vs, 2) if rng.below(100) < density]
    return make_graph(vs, edges)


def test_cut_claim_matches_the_per_vertex_loop():
    for seed in range(500):
        g = random_graph(seed)
        try:
            expected = old_cut(g)
        except GraphError as exc:
            expected = (False, {"error": str(exc)})
        assert run_claim("apex-deleted-not-hamiltonian", g) == expected, seed


def test_cut_claim_recounts_at_most_one_single_vertex(monkeypatch):
    # A per-vertex loop makes one cut_certificate call per vertex (1,501
    # here); the lowpoint DFS sends at most one vertex on to the recount.
    calls = []

    def counting(g, cut):
        calls.append(cut)
        return cut_certificate(g, cut)

    monkeypatch.setattr("colorlab.verify.cut_certificate", counting)
    ok, cert = run_claim("apex-deleted-not-hamiltonian", cycle(1500))
    assert not ok and cert == {"error": "a cut certificate needs a nonempty cut"}
    assert len(calls) <= 2
    calls.clear()
    ok, cert = run_claim("apex-deleted-not-hamiltonian", path(1500))
    assert ok and cert["cut"] == ["plain:1"] and cert["components_after"] == 2
    assert len(calls) <= 2


def test_the_cut_claim_on_m_runs_no_single_vertex_search(monkeypatch):
    # The construction's cut certifies M, so nothing else is searched.
    def refuse(g):
        raise AssertionError("searched for a single cut vertex")

    monkeypatch.setattr(verify, "_cut_vertex", refuse)
    assert hashlib.sha256(audit().to_json().encode()).hexdigest() == AUDIT_SHA256


# -------------------------------------------------------------- matching


def test_perfect_matching_square():
    res = perfect_matching(square())
    assert res.size == 2
    assert check_matching(square(), res.matching) == []


def test_perfect_matching_of_the_empty_graph_is_empty():
    empty = make_graph([], [])
    res = perfect_matching(empty)
    assert res == verify.MatchingResult(()) and res.size == 0
    assert check_matching(empty, res.matching) == []


def test_perfect_matching_odd_order():
    res = perfect_matching(cycle(3))
    assert res.matching is None
    assert "odd" in res.reason


def test_perfect_matching_exposed_vertices():
    # star K(1,3): maximum matching is one edge, two leaves stay exposed
    vs = [plain(i) for i in range(4)]
    g = make_graph(vs, [(vs[0], vs[i]) for i in (1, 2, 3)])
    res = perfect_matching(g)
    assert res.matching is None
    assert "exposed" in res.reason


def test_apex_deleted_graph_has_perfect_matching():
    inner = delete_vertices(mirzakhani(), [apex()])
    res = perfect_matching(inner)
    assert res.size == 31
    assert check_matching(inner, res.matching) == []


def test_blossom_handles_odd_cycles():
    # triangle pair joined by a bridge forces blossom contraction
    vs = [plain(i) for i in range(6)]
    edges = [
        (vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0]),
        (vs[3], vs[4]), (vs[4], vs[5]), (vs[5], vs[3]),
        (vs[2], vs[3]),
    ]
    g = make_graph(vs, edges)
    res = perfect_matching(g)
    assert res.size == 3
    assert check_matching(g, res.matching) == []


def brute_max_matching(n, edges):
    best = 0

    def grow(i, covered, size):
        nonlocal best
        best = max(best, size)
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in covered and v not in covered:
                grow(j + 1, covered | {u, v}, size + 1)

    grow(0, frozenset(), 0)
    return best


def test_blossom_matches_brute_force_on_random_graphs():
    for seed in range(60):
        rng = SplitMix64(seed)
        n = 2 + rng.below(7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.below(100) < 45
        ]
        adj = [[] for _ in range(n)]
        for i, j in edges:
            adj[i].append(j)
            adj[j].append(i)
        match = _max_matching(adj)
        size = sum(1 for i, j in enumerate(match) if j != -1) // 2
        assert size == brute_max_matching(n, edges), f"seed {seed}"


def test_check_matching_catches_problems():
    g = square()
    assert check_matching(g, [(SW, NE)]) != []  # not an edge
    assert check_matching(g, [(SW, SE), (SE, NE)]) != []  # reuse
    assert check_matching(g, [(SW, SE)]) != []  # leaves vertices uncovered
    assert any("uncovered" in p for p in check_matching(g, [(SW, SE)]))


def test_check_matching_refuses_one_extra_edge_for_its_reuse_alone():
    inner = mirzakhani().apex_deleted
    pairs = perfect_matching(inner).matching
    extra = next(e for e in inner.edges() if e not in pairs)
    # Listed first, the extra edge makes each of the two pairs it meets reuse
    # one covered vertex, so the reuse test must ask for either end, not both.
    reused = [(u, v) for u, v in pairs if {u, v} & set(extra)]
    assert len(reused) == 2
    assert check_matching(inner, [extra, *pairs]) == [
        f"{u} -- {v} reuses a covered vertex" for u, v in reused
    ]


def test_check_matching_refuses_a_non_edge_among_covering_pairs_for_that_alone():
    inner = mirzakhani().apex_deleted
    pairs = perfect_matching(inner).matching
    u = pairs[0][0]
    v = next(w for w in inner.vertices if w != u and not inner.has_edge(u, w))
    assert check_matching(inner, [*pairs, (u, v)]) == [f"{u} -- {v} is not an edge"]


# ------------------------------------------------------------------ audit


def test_audit_all_claims_pass():
    report = audit()
    assert report.all_pass
    names = [c["name"] for c in report.claims]
    assert names == [
        "construction-counts",
        "planarity",
        "chromatic-number-3",
        "not-4-choosable",
        "hamiltonian",
        "apex-deleted-not-hamiltonian",
        "apex-deleted-perfect-matching",
    ]
    payload = json.loads(report.to_json())
    assert set(payload) == {"claims", "versions", "budget"}
    assert payload["budget"] == 10**7


AUDIT_SHA256 = "e535b951afcb25571ad8904667b5aee8a9366b852a95835246e6ed932142dc6c"


def test_audit_is_deterministic():
    first = audit().to_json()
    assert first == audit().to_json()
    assert hashlib.sha256(first.encode()).hexdigest() == AUDIT_SHA256


def test_the_audit_of_a_copy_of_m_is_byte_identical():
    # A distinct graph object, so nothing derived from M is cached on it.
    copy = graph_from_json(graph_to_json(mirzakhani()))
    assert copy is not mirzakhani() and "apex_deleted" not in vars(copy)
    assert audit(copy).to_json() == audit().to_json()


def test_every_audit_runs_every_search(monkeypatch):
    # The construction is shared between audits; no search result is.
    calls = []

    def recording(name, fn, work):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, work(result)))
            return result

        return wrapped

    color = recording("color", engine.solve_colors, lambda r: r[2:5])
    ham = recording("hamilton", verify.hamilton_cycle, lambda r: r[2])
    monkeypatch.setattr(engine, "solve_colors", color)
    monkeypatch.setattr(verify, "hamilton_cycle", ham)
    first = audit().to_json()
    once = list(calls)
    assert audit().to_json() == first
    assert calls == once + once
    assert {name for name, _ in once} == {"color", "hamilton"}


def test_the_apex_claims_build_m_minus_apex_once(monkeypatch):
    g = graph_from_json(graph_to_json(mirzakhani()))  # nothing cached on it yet
    deleted = []

    def recording(h, remove):
        remove = list(remove)
        deleted.append(remove)
        return delete_vertices(h, remove)

    for module in (graph, verify):
        monkeypatch.setattr(module, "delete_vertices", recording)
    apex_embed(g)
    assert run_claim("apex-deleted-not-hamiltonian", g)[0]
    assert run_claim("apex-deleted-perfect-matching", g)[0]
    assert deleted.count([apex()]) == 1


def test_run_claim_records_a_raised_error_as_a_failure():
    ok, cert = run_claim("hamiltonian", path(2))
    assert not ok
    assert cert == {"error": "Hamiltonian cycles need at least three vertices"}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_every_claim_spends_its_budget_one_way(name):
    # At budget 1 a claim either needs no search or runs out; a spent budget
    # is always the same two-key certificate, which the CLI maps to exit 3.
    ok, cert = run_claim(name, mirzakhani(), canonical_lists(), 1)
    if not ok:
        assert set(cert) == {"error", "status"}
        assert cert["status"] == "EXHAUSTED"
        assert _exit_code(False, [cert]) == 3


def test_audit_flags_a_mutated_graph():
    g = mirzakhani()
    dropped = (apex(), corner(1, 1))  # apex sorts before corners, so u < v holds
    edges = [(u, v) for u in g.vertices for v in g.adj[u] if u < v and (u, v) != dropped]
    mutated = make_graph(g.vertices, edges, layout=g.layout)
    assert mutated.m == 182
    report = audit(graph=mutated, lists=canonical_lists())
    failed = {c["name"] for c in report.claims if c["status"] == "fail"}
    assert "construction-counts" in failed
    assert not report.all_pass
