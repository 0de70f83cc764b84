"""Choosability: witness checks, exhaustive search, random probes."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from colorlab import choose
from colorlab.build import canonical_lists, make_lists, mirzakhani, uniform_lists
from colorlab.choose import (
    SplitMix64,
    choosability_exhaustive,
    default_pool,
    random_probe,
    verify_not_choosable,
)
from colorlab.graph import GraphError, make_graph, plain
from colorlab.solve import BudgetExhausted, decide

# Digests of the assignment sequences below, as enumerated by the original
# recursive generator.
ORDER_SYM = "68b3ddb1b809ec88"
ORDER_ALL = "511f8d63404c2681"


def k3():
    vs = [plain(i) for i in range(3)]
    return make_graph(vs, list(itertools.combinations(vs, 2)))


def c4():
    vs = [plain(i) for i in range(4)]
    return make_graph(vs, [(vs[i], vs[(i + 1) % 4]) for i in range(4)])


def edge():
    return make_graph([plain(0), plain(1)], [(plain(0), plain(1))])


# ------------------------------------------------------------ witness mode


def test_witness_confirmed_on_canonical_lists():
    verdict = verify_not_choosable(mirzakhani(), canonical_lists(), 4)
    assert verdict.kind == "WitnessConfirmed"
    assert verdict.nodes > 0


def test_witness_refuted_wrong_list_size():
    verdict = verify_not_choosable(mirzakhani(), uniform_lists(mirzakhani(), (1, 2, 3)), 4)
    assert verdict.kind == "WitnessRefuted"
    assert "3 colors, expected 4" in verdict.reason


def test_witness_refuted_by_coloring():
    g = mirzakhani()
    verdict = verify_not_choosable(g, uniform_lists(g, (1, 2, 3, 4)), 4)
    assert verdict.kind == "WitnessRefuted"
    assert verdict.coloring is not None
    assert "coloring" in verdict.reason


def test_witness_verdict_counts_propagations():
    verdict = verify_not_choosable(mirzakhani(), canonical_lists(), 4)
    assert (verdict.nodes, verdict.propagations) == (711, 2724)


def test_witness_budget_exhaustion_raises():
    with pytest.raises(BudgetExhausted):
        verify_not_choosable(mirzakhani(), canonical_lists(), 4, budget=3)


# --------------------------------------------------------- exhaustive mode


def test_k3_not_2_choosable_least_witness():
    verdict = choosability_exhaustive(k3(), 2, range(1, 7))
    assert verdict.kind == "NotChoosable"
    # the least bad assignment: {1,2} everywhere
    assert all(verdict.assignment.list_of(v) == (1, 2) for v in k3().vertices)
    assert verdict.examined == 1


def test_c4_is_2_choosable():
    verdict = choosability_exhaustive(c4(), 2, range(1, 9))
    assert verdict.kind == "Choosable"
    assert verdict.examined > 1


def assignment_order(monkeypatch, g, k, pool, symmetry):
    """Every list assignment choosability_exhaustive decides, in order."""
    seen = []
    colors = sorted(pool)
    decide_masks = choose._decide_masks

    def recording_decide(graph, masks, budget):
        seen.append(tuple(tuple(c for i, c in enumerate(colors) if m >> i & 1) for m in masks))
        return decide_masks(graph, masks, budget)

    monkeypatch.setattr(choose, "_decide_masks", recording_decide)
    verdict = choosability_exhaustive(g, k, pool, symmetry=symmetry)
    assert verdict.examined == len(seen)
    return hashlib.sha256(repr(seen).encode()).hexdigest()[:16], len(seen)


def test_exhaustive_assignment_order_is_pinned(monkeypatch):
    # c4 is 2-choosable, so the whole enumeration runs.
    assert assignment_order(monkeypatch, c4(), 2, range(1, 6), True) == (ORDER_SYM, 250)
    assert assignment_order(monkeypatch, c4(), 2, range(1, 4), False) == (ORDER_ALL, 81)


def test_exhaustive_deeper_than_recursion_limit(default_recursion_limit):
    # 1,500 free vertices with lists from the pool {1}: one assignment, colorable.
    g = make_graph([plain(i) for i in range(1500)], [])
    verdict = choosability_exhaustive(g, 1, {1})
    assert (verdict.kind, verdict.examined) == ("Choosable", 1)


def test_single_edge_not_1_choosable():
    verdict = choosability_exhaustive(edge(), 1, {1, 2})
    assert verdict.kind == "NotChoosable"
    lists = verdict.assignment
    assert lists.list_of(plain(0)) == (1,) and lists.list_of(plain(1)) == (1,)


def test_exhaustive_pool_too_small():
    with pytest.raises(GraphError, match="pool"):
        choosability_exhaustive(edge(), 3, {1, 2})


def test_exhaustive_budget_exhaustion_verdict():
    with pytest.raises(BudgetExhausted, match="node budget 1 ran out after 1 assignments"):
        choosability_exhaustive(k3(), 2, range(1, 7), budget=1)


def test_exhaustive_budget_counts_assignments_decided_without_a_node():
    # Each of the Bell(7) = 877 assignments of an edgeless graph is decided
    # in 0 nodes and charged one unit: a budget of 877 covers them and still
    # reports 0 nodes, one less runs out.  (The CLI test runs Bell(16).)
    seven = make_graph([plain(i) for i in range(7)], [])
    verdict = choosability_exhaustive(seven, 1, range(1, 8), budget=877)
    assert (verdict.kind, verdict.examined, verdict.nodes) == ("Choosable", 877, 0)
    with pytest.raises(BudgetExhausted, match="after 877 assignments"):
        choosability_exhaustive(seven, 1, range(1, 8), budget=876)


def test_exhaustive_arbitrary_pool_labels():
    # the pool need not be 1..n; canonical forms map onto its sorted colors
    verdict = choosability_exhaustive(edge(), 1, {10, 20})
    assert verdict.kind == "NotChoosable"
    assert verdict.assignment.list_of(plain(0)) == (10,)


def test_monotonicity_in_k():
    # C4 is 2-choosable, so it is 3-choosable as well (same pool)
    pool = range(1, 7)
    assert choosability_exhaustive(c4(), 2, pool).kind == "Choosable"
    assert choosability_exhaustive(c4(), 3, pool).kind == "Choosable"


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**9), st.integers(1, 2), st.integers(2, 4))
def test_symmetry_pruning_never_changes_the_verdict(seed, k, pool_size):
    """Canonicalization is sound: same verdict with and without it."""
    rng = SplitMix64(seed)
    n = 1 + rng.below(4)
    vs = [plain(i) for i in range(n)]
    edges = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.below(100) < 50
    ]
    g = make_graph(vs, edges)
    pool = range(1, pool_size + 1)
    if pool_size < k:
        return
    a = choosability_exhaustive(g, k, pool, symmetry=True)
    b = choosability_exhaustive(g, k, pool, symmetry=False)
    assert a.kind == b.kind
    if a.kind == "NotChoosable":
        # both return the lexicographically least bad assignment
        assert a.assignment.lists == b.assignment.lists


def reference_exhaustive(g, k, pool, symmetry):
    """choosability_exhaustive as a per-assignment make_lists + decide loop:
    (kind, examined, nodes, assignment)."""
    colors = sorted(set(pool))
    subsets = list(itertools.combinations(range(1, len(colors) + 1), k))

    def canonical(row, used):
        fresh = [c for c in row if c > used]
        return fresh == list(range(used + 1, used + 1 + len(fresh)))

    def assignments(i, used):
        if i == g.n:
            yield ()
            return
        for row in subsets:
            if not symmetry or canonical(row, used):
                for rest in assignments(i + 1, max(used, row[-1])):
                    yield (row, *rest)

    examined = nodes = 0
    for rows in assignments(0, 0):
        lists = make_lists(
            colors, {v: [colors[c - 1] for c in row] for v, row in zip(g.vertices, rows)}
        )
        res = decide(g, lists)
        examined, nodes = examined + 1, nodes + res.nodes
        assert res.status != "EXHAUSTED"
        if not res.sat:
            return ("NotChoosable", examined, nodes, lists)
    return ("Choosable", examined, nodes, None)


def cycle(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def differential_cases():
    yield c4(), 2, range(1, 9), (True,)
    yield c4(), 2, range(1, 6), (True, False)
    yield k3(), 2, range(1, 7), (True, False)
    yield k3(), 3, range(1, 6), (True, False)
    yield cycle(5), 2, range(1, 5), (True, False)
    yield cycle(5), 3, range(1, 5), (True, False)
    for seed in range(100):
        rng = SplitMix64(seed)
        n = 1 + rng.below(5)
        vs = [plain(i) for i in range(n)]
        edges = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.below(2)]
        k = 1 + rng.below(2)
        yield make_graph(vs, edges), k, range(1, k + 1 + rng.below(5 - k)), (True, False)


def test_exhaustive_matches_the_list_route():
    kinds = set()
    for g, k, pool, modes in differential_cases():
        for symmetry in modes:
            got = choosability_exhaustive(g, k, pool, symmetry=symmetry)
            expected = reference_exhaustive(g, k, pool, symmetry)
            assert (got.kind, got.examined, got.nodes, got.assignment) == expected
            kinds.add(got.kind)
    assert kinds == {"Choosable", "NotChoosable"}


# --------------------------------------------------------------- probing


def test_probe_deterministic_and_json_shape():
    g = mirzakhani()
    a = random_probe(g, 4, 25, seed=7)
    b = random_probe(g, 4, 25, seed=7)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert set(payload) == {"graph", "k", "trials", "successes", "seed", "pool"}
    assert payload["trials"] == 25
    assert payload["pool"] == list(default_pool(4))


def test_probe_forced_failure():
    # pool {1,2} with k=2 always deals {1,2} to every vertex: K3 blocks it
    report = random_probe(k3(), 2, 10, seed=0, pool=(1, 2))
    assert report.successes == 0


def test_probe_forced_success():
    report = random_probe(c4(), 2, 10, seed=0, pool=(1, 2))
    assert report.successes == 10


def test_probe_seed_changes_draws():
    g = mirzakhani()
    a = random_probe(g, 4, 10, seed=1)
    b = random_probe(g, 4, 10, seed=2)
    assert a.seed != b.seed  # reports always differ in the seed field


def test_probe_abort_on_exhaustion():
    with pytest.raises(BudgetExhausted, match="trial"):
        random_probe(mirzakhani(), 4, 5, seed=0, budget=2)


# ----------------------------------------------------------------- PRNG


def test_splitmix64_reference_vector():
    # first outputs for seed 0 from the published reference implementation
    rng = SplitMix64(0)
    assert rng.next() == 0xE220A8397B1DCDAF
    assert rng.next() == 0x6E789E6AA1B965F4


def test_splitmix64_below_bounds():
    rng = SplitMix64(123)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    assert set(draws) == set(range(7))  # all residues appear


def test_splitmix64_sample_covers_all_subsets():
    rng = SplitMix64(5)
    seen = {rng.sample((1, 2, 3, 4), 2) for _ in range(500)}
    assert seen == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
