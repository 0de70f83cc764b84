"""Solver contracts: decide/count, oracles, CNF export."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from colorlab.build import ListAssignment, make_lists, mirzakhani, canonical_lists, uniform_lists, wheel4, wheel_lists
from colorlab.choose import SplitMix64
from colorlab.graph import Graph, GraphError, hub, make_graph, plain
from colorlab.proof import _pattern_counts
from colorlab.solve import (
    BudgetExhausted,
    chromatic_number,
    count,
    decide,
    to_cnf,
    verify_coloring,
)


# ------------------------------------------------------------------ helpers


def k3():
    vs = [plain(i) for i in range(3)]
    return make_graph(vs, list(itertools.combinations(vs, 2)))


def cycle(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def proper_colorings(g, lists):
    """Exhaustive oracle: try every assignment from the lists."""
    order = sorted(g.vertices)
    for combo in itertools.product(*(lists.list_of(v) for v in order)):
        coloring = dict(zip(order, combo))
        if all(coloring[u] != coloring[v] for u, v in g.edges()):
            yield coloring


def brute_force_count(g, lists):
    return sum(1 for _ in proper_colorings(g, lists))


def random_instance(seed, max_n=12, max_colors=4):
    """Deterministic random graph + lists, sized for the brute oracle."""
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_n)
    vs = [plain(i) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < 35:
                edges.append((vs[i], vs[j]))
    palette = tuple(range(1, max_colors + 2))
    lists = {}
    for v in vs:
        size = 1 + rng.below(max_colors)
        lists[v] = rng.sample(palette, size)
    g = make_graph(vs, edges)
    return g, make_lists(palette, lists)


# ------------------------------------------------------------- basic cases


def test_k3_two_colors_unsat():
    res = decide(k3(), uniform_lists(k3(), (1, 2)))
    assert res.status == "UNSAT" and res.witness is None


def test_k3_three_colors_sat_with_verified_witness():
    g = k3()
    res = decide(g, uniform_lists(g, (1, 2, 3)))
    assert res.sat
    assert verify_coloring(g, uniform_lists(g, range(1, 4)), res.witness) == []


def test_count_k3():
    assert count(k3(), uniform_lists(k3(), (1, 2, 3))).count == 6


def test_wheel_count_matches_brute_force():
    g, lists = wheel4(), wheel_lists()
    res = count(g, lists)
    assert res.status == "SAT"
    assert res.count == brute_force_count(g, lists)


def test_theorem_instance_unsat():
    res = decide(mirzakhani(), canonical_lists())
    assert res.status == "UNSAT"
    assert res.nodes <= 10**7


def test_missing_list_rejected():
    g = k3()
    partial = make_lists((1, 2, 3), {plain(0): (1, 2)})
    with pytest.raises(GraphError, match="missing"):
        decide(g, partial)


def test_empty_list_rejected_at_construction():
    with pytest.raises(GraphError, match="empty"):
        make_lists((1, 2), {plain(0): ()})


def test_budget_exhaustion_is_reported():
    res = decide(mirzakhani(), canonical_lists(), budget=10)
    assert res.status == "EXHAUSTED"
    assert res.witness is None
    assert res.nodes == 10


# ------------------------------------------------------------ determinism


def test_decide_is_deterministic():
    a = decide(mirzakhani(), canonical_lists())
    b = decide(mirzakhani(), canonical_lists())
    assert a.to_json() == b.to_json()


def test_result_json_shape():
    res = decide(k3(), uniform_lists(k3(), (1, 2, 3)))
    text = res.to_json()
    assert '"status":"SAT"' in text.replace(" ", "") or '"status": "SAT"' in text
    assert "budget" in text and "nodes" in text and "propagations" in text


# ------------------------------------------------------- oracle/property


def test_decide_and_count_match_brute_force_on_random_instances():
    mismatches = []
    for seed in range(60):
        g, lists = random_instance(seed)
        truth = brute_force_count(g, lists)
        d = decide(g, lists)
        c = count(g, lists)
        if d.sat != (truth > 0) or c.count != truth:
            mismatches.append((seed, truth, d.status, c.count))
        if d.sat:
            assert verify_coloring(g, lists, d.witness) == []
    assert mismatches == []


def test_pattern_counts_match_a_brute_force_tally():
    for seed in range(60):
        g, lists = random_instance(seed, max_n=8)
        rng = SplitMix64(seed ^ 0xFACE)
        watch = tuple(g.vertices[i] for i in rng.sample(range(g.n), min(g.n, 1 + rng.below(3))))
        tally = Counter(tuple(c[v] for v in watch) for c in proper_colorings(g, lists))
        assert _pattern_counts(g, lists, watch, 10**6) == tally, seed


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9), st.permutations([1, 2, 3, 4, 5]))
def test_color_permutation_equivariance(seed, perm):
    """Renaming colors never changes satisfiability or the solution count."""
    g, lists = random_instance(seed, max_n=8)
    mapping = dict(zip((1, 2, 3, 4, 5), perm))
    permuted = make_lists(
        sorted(mapping[c] for c in lists.palette),
        {v: tuple(sorted(mapping[c] for c in lists.list_of(v))) for v in lists.lists},
    )
    assert decide(g, lists).sat == decide(g, permuted).sat
    assert count(g, lists).count == count(g, permuted).count


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**9))
def test_vertex_relabeling_invariance(seed):
    """Renaming vertices never changes satisfiability or the count."""
    g, lists = random_instance(seed, max_n=8)
    rng = SplitMix64(seed ^ 0xC0FFEE)
    names = list(range(g.n))
    for i in range(g.n):  # Fisher-Yates with the package PRNG
        j = i + rng.below(g.n - i)
        names[i], names[j] = names[j], names[i]
    relabel = {v: plain(100 + names[i]) for i, v in enumerate(g.vertices)}
    h = make_graph(
        [relabel[v] for v in g.vertices],
        [(relabel[u], relabel[v]) for u, v in g.edges()],
    )
    hlists = make_lists(
        lists.palette, {relabel[v]: lists.list_of(v) for v in lists.lists}
    )
    assert decide(g, lists).sat == decide(h, hlists).sat
    assert count(g, lists).count == count(h, hlists).count


# --------------------------------------------------------- verify_coloring


def test_verify_coloring_reports_all_violations():
    g = k3()
    bad = {plain(0): 1, plain(1): 1, plain(2): 9}
    problems = verify_coloring(g, uniform_lists(g, (1, 2, 3)), bad)
    assert any("not in list" in p for p in problems)
    assert any("both colored" in p for p in problems)


def test_verify_coloring_rejects_partial():
    g = k3()
    with pytest.raises(GraphError, match="partial"):
        verify_coloring(g, uniform_lists(g, range(1, 4)), {plain(0): 1})


def test_verify_coloring_refuses_missing_lists():
    g = make_graph([hub(99, 0)], [])
    with pytest.raises(GraphError, match=r"^lists missing for 1 vertices, e\.g\. hub:99,0$"):
        verify_coloring(g, canonical_lists(), {hub(99, 0): 1})


# --------------------------------------------------------- chromatic number


def test_chromatic_small_graphs():
    assert chromatic_number(k3()).k == 3
    assert chromatic_number(cycle(5)).k == 3
    assert chromatic_number(cycle(6)).k == 2
    single = make_graph([plain(0)], [])
    assert chromatic_number(single).k == 1


def test_chromatic_certificates():
    res = chromatic_number(k3())
    assert verify_coloring(k3(), uniform_lists(k3(), range(1, res.k + 1)), res.witness) == []
    assert res.unsat_below.status == "UNSAT"


def test_chromatic_budget_raises():
    # refuting 2-colorability needs at least two root decisions
    with pytest.raises(BudgetExhausted):
        chromatic_number(mirzakhani(), budget=1)


# ------------------------------------------------------------------ CNF


def cnf_satisfiable_brute(doc):
    """Try all 2^nvars assignments (only for tiny documents)."""
    for bits in range(1 << doc.nvars):
        if all(
            any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause)
            for clause in doc.clauses
        ):
            return True, bits
    return False, None


def test_cnf_shape_k3():
    doc = to_cnf(k3(), uniform_lists(k3(), (1, 2)))
    assert doc.nvars == 6
    assert len(doc.clauses) == 9  # 3 at-least-one + 3 edges x 2 shared colors


def test_cnf_truth_table_matches_decide_tiny():
    g = k3()
    for colors in ((1, 2), (1, 2, 3)):
        lists = uniform_lists(g, colors)
        doc = to_cnf(g, lists)
        sat, bits = cnf_satisfiable_brute(doc)
        assert sat == decide(g, lists).sat
        if sat:
            # least-true-color projection is a proper list coloring
            coloring = {}
            for var, v, c in doc.legend:
                if bits >> (var - 1) & 1 and v not in coloring:
                    coloring[v] = c
            assert verify_coloring(g, lists, coloring) == []


def test_cnf_matches_decide_on_random_instances():
    checked = 0
    for seed in range(200):
        g, lists = random_instance(seed, max_n=6, max_colors=3)
        doc = to_cnf(g, lists)
        if doc.nvars > 16:
            continue
        sat, _ = cnf_satisfiable_brute(doc)
        assert sat == decide(g, lists).sat, f"seed {seed}"
        checked += 1
    assert checked >= 100


def test_cnf_export_is_not_bound_by_the_kernel_palette():
    # The CNF channel cross-checks the kernel, so it does not go through the
    # kernel's translation or its 64-color limit.
    a, b = plain(0), plain(1)
    g = make_graph([a, b], [(a, b)])
    lists = make_lists(range(1, 66), {a: (1, 65), b: (2, 65)})
    with pytest.raises(GraphError, match="palette size 65 exceeds 64"):
        decide(g, lists)
    doc = to_cnf(g, lists)
    assert doc.nvars == 4
    assert doc.clauses == ((1, 2), (3, 4), (-2, -4))


def test_cnf_export_refuses_missing_lists():
    a, b = plain(0), plain(1)
    g = make_graph([a, b], [(a, b)])
    with pytest.raises(GraphError, match=r"lists missing for 1 vertices, e\.g\. plain:1"):
        to_cnf(g, make_lists((1, 2), {a: (1, 2)}))
