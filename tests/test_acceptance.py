"""Acceptance gate: every headline claim, one test per criterion.

Each test re-derives its expectation from scratch (no shared state with
the unit tests), asserts the exact values, and enforces the stated wall
clock budget.  Run with -v to get the one-line pass/fail report per
criterion.
"""

import itertools
import time

from colorlab.build import (
    canonical_lists,
    make_lists,
    mirzakhani,
    uniform_lists,
)
from colorlab.choose import (
    SplitMix64,
    choosability_exhaustive,
    random_probe,
    verify_not_choosable,
)
from colorlab.graph import (
    apex,
    corner,
    degree_histogram,
    delete_vertices,
    hub,
    make_graph,
    plain,
)
from colorlab.proof import FAMILIES, forcing_families, wheel_forcing
from colorlab.solve import chromatic_number, count, decide, to_cnf, verify_coloring
from colorlab.verify import (
    apex_embed,
    audit,
    check_hamiltonian_cycle,
    check_matching,
    cut_certificate,
    face_census,
    hamilton,
    perfect_matching,
)


class stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(n, label, watch, limit):
    print(f"criterion {n:2d} ({label}): PASS in {watch.elapsed:.2f}s (limit {limit}s)")
    assert watch.elapsed < limit, f"criterion {n} exceeded {limit}s: {watch.elapsed:.2f}s"


def test_criterion_01_construction_audit():
    with stopwatch() as w:
        g = mirzakhani()
        assert g.n == 63
        assert g.m == 183
        assert g.degree(apex()) == 42
        hubs = [v for v in g.vertices if v.kind == "hub"]
        assert len(hubs) == 20
        assert all(g.degree(h) == 4 for h in hubs)
        assert degree_histogram(g) == {4: 40, 6: 6, 8: 16, 42: 1}
        inner = delete_vertices(g, [apex()])
        central = [
            h for h in hubs if all(inner.degree(u) == 7 for u in inner.adj[h])
        ]
        assert sorted(central) == [hub(1, 0), hub(4, 0), hub(7, 0), hub(10, 0)]
    report(1, "construction audit", w, 1)


def test_criterion_02_not_4_choosable():
    with stopwatch() as w:
        g = mirzakhani()
        lists = canonical_lists()
        res = decide(g, lists)
        assert res.status == "UNSAT"
        assert res.nodes <= 10**7
        verdict = verify_not_choosable(g, lists, 4)
        assert verdict.kind == "WitnessConfirmed"
    report(2, "non-4-choosability UNSAT", w, 60)


def test_criterion_03_chromatic_number_three():
    with stopwatch() as w:
        g = mirzakhani()
        res = chromatic_number(g)
        assert res.k == 3
        assert verify_coloring(g, uniform_lists(g, range(1, 4)), res.witness) == []
        assert res.unsat_below.status == "UNSAT"
        assert decide(g, uniform_lists(g, (1, 2))).status == "UNSAT"
    report(3, "chromatic number 3", w, 10)


def test_criterion_04_planarity_certificate():
    with stopwatch() as w:
        census = face_census(apex_embed(mirzakhani()))
        assert census.euler == 2
        assert census.f == 122
        assert census.all_triangles
    report(4, "planarity certificate", w, 1)


def test_criterion_05_gadget_lemma_all_sections():
    from colorlab.proof import gadget_lemma

    with stopwatch() as w:
        for j in (1, 2, 3, 4):
            lemma = gadget_lemma(j)
            assert lemma.passed, f"section {j}: {lemma.reason}"
            assert lemma.reduced_status == "UNSAT"
            assert lemma.unreduced_status == "SAT"
    report(5, "gadget lemma x4", w, 10)


def test_criterion_06_forcing_facts():
    sw, se, ne, nw = corner(-1, -1), corner(1, -1), corner(1, 1), corner(-1, 1)
    with stopwatch() as w:
        assert wheel_forcing(sw, 5).forced == {nw: 3, se: 3}
        assert wheel_forcing(se, 4).forced == {sw: 2, ne: 2}
        fam = forcing_families()
        assert fam.passed
        assert set(fam.patterns) == set(FAMILIES) == {
            (5, 3, 2, 4),
            (2, 4, 5, 3),
            (4, 5, 3, 2),
        }
    report(6, "forcing facts", w, 60)


def test_criterion_07_exercises():
    with stopwatch() as w:
        g = mirzakhani()
        ham = hamilton(g, budget=10**8)
        assert ham.status == "FOUND"
        assert ham.nodes <= 10**8
        assert len(ham.cycle) == 63
        assert check_hamiltonian_cycle(g, ham.cycle) == []

        inner = delete_vertices(g, [apex()])
        s = [v for v in inner.vertices if inner.degree(v) == 7]
        assert len(s) == 16
        assert all(v.kind == "corner" for v in s)
        cert = cut_certificate(inner, s)
        assert cert.components_after == 17
        assert cert.non_hamiltonian

        pm = perfect_matching(inner)
        assert pm.size == 31
        assert check_matching(inner, pm.matching) == []
    report(7, "exercises", w, 600)


def test_criterion_08_random_5_list_probe():
    # Planar graphs are 5-choosable (Thomassen), so every random 5-list
    # trial must come back colorable; each success is solver-verified.
    with stopwatch() as w:
        rep = random_probe(
            mirzakhani(), 5, 1000, seed=2026, pool=tuple(range(1, 11))
        )
        assert rep.trials == 1000
        assert rep.successes == 1000
    report(8, "random 5-list probe", w, 300)


def _random_instance(seed, max_n, max_colors):
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_n)
    vs = [plain(i) for i in range(n)]
    edges = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.below(100) < 35
    ]
    palette = tuple(range(1, max_colors + 2))
    lists = {v: rng.sample(palette, 1 + rng.below(max_colors)) for v in vs}
    return make_graph(vs, edges), make_lists(palette, lists)


def _brute_count(g, lists):
    order = sorted(g.vertices)
    total = 0
    for combo in itertools.product(*(lists.list_of(v) for v in order)):
        coloring = dict(zip(order, combo))
        if all(coloring[u] != coloring[v] for u, v in g.edges()):
            total += 1
    return total


def _cnf_satisfiable_brute(doc):
    for bits in range(1 << doc.nvars):
        if all(
            any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause)
            for clause in doc.clauses
        ):
            return True
    return False


def test_criterion_09_oracle_suite():
    with stopwatch() as w:
        for seed in range(220):
            g, lists = _random_instance(seed, max_n=12, max_colors=4)
            expected = _brute_count(g, lists)
            assert count(g, lists).count == expected, f"seed {seed}"
            assert decide(g, lists).sat == (expected > 0), f"seed {seed}"

        checked = 0
        for seed in range(400):
            g, lists = _random_instance(seed, max_n=8, max_colors=3)
            doc = to_cnf(g, lists)
            if doc.nvars > 16:
                continue
            assert _cnf_satisfiable_brute(doc) == decide(g, lists).sat, f"seed {seed}"
            checked += 1
        assert checked >= 100
    report(9, "oracle suite (220 graphs + CNF)", w, 600)


def test_criterion_10_small_choosability_truths():
    with stopwatch() as w:
        vs = [plain(i) for i in range(3)]
        k3 = make_graph(vs, list(itertools.combinations(vs, 2)))
        assert choosability_exhaustive(k3, 2, range(1, 7)).kind == "NotChoosable"

        vs = [plain(i) for i in range(4)]
        c4 = make_graph(vs, [(vs[i], vs[(i + 1) % 4]) for i in range(4)])
        assert choosability_exhaustive(c4, 2, range(1, 9)).kind == "Choosable"

        vs = [plain(0), plain(1)]
        e = make_graph(vs, [(vs[0], vs[1])])
        assert choosability_exhaustive(e, 1, {1, 2}).kind == "NotChoosable"
    report(10, "small choosability truths", w, 60)


def test_criterion_11_determinism_and_mutation():
    with stopwatch() as w:
        first = audit()
        assert first.all_pass
        assert first.to_json() == audit().to_json()

        g = mirzakhani()
        for dropped in sorted(g.adj[apex()]):
            edges = [
                (u, v)
                for u in g.vertices
                for v in g.adj[u]
                if u < v and (u, v) != (apex(), dropped)
            ]
            mutated = make_graph(g.vertices, edges, layout=g.layout)
            assert mutated.m == 182
            rep = audit(graph=mutated)
            assert not rep.all_pass, f"audit missed the removal of apex--{dropped}"
    report(11, "determinism and 42-edge mutation sweep", w, 600)
