"""Pinned kernel corpus: every output of the two search loops, fixed by digest.

Each group below runs the kernel on a fixed corpus and pins the sha256 of the
repr of every output tuple (statuses, witnesses, node and propagation counts,
solution counts, Hamiltonian cycles).  A change to the
search order, the pruning or the accounting shows up here as a new digest; a
change that is meant to alter them must update the digest and say why in
CHANGES.md.  The answers digest pins only what a search decides (statuses
and solution counts), which no change of search order may move.
The brute-force and CNF oracle tests in test_solve.py check the verdicts
themselves.
"""

import hashlib

import pytest

from colorlab.build import (
    canonical_lists,
    gadget,
    mirzakhani,
    uniform_lists,
    wheel4,
    wheel_lists,
)
from colorlab.choose import SplitMix64
from colorlab.engine import (
    EXHAUSTED,
    MODE_COUNT,
    MODE_DECIDE,
    SAT,
    UNSAT,
    branch_order,
    hamilton_cycle,
    solve_colors,
)
from colorlab.graph import make_graph, plain
from colorlab.solve import _indexed, check_mask_witness, decide
from colorlab.verify import check_hamiltonian_cycle, hamilton


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def random_indexed(seed, max_n=10):
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_n)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < 40:
                adj[i].append(j)
                adj[j].append(i)
    domains = [rng.below(31) + 1 for _ in range(n)]  # nonempty subsets of 5 colors
    return n, adj, domains


def random_hamilton(seed):
    rng = SplitMix64(seed)
    n = 3 + rng.below(9)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < 45:
                adj[i].append(j)
                adj[j].append(i)
    return n, adj


def larger_hamilton(seed):
    """12 to 18 vertices at 15% to 75% edge density: deep enough searches
    for the connectivity and forced-edge prunes to fire far from the root."""
    rng = SplitMix64(seed)
    n = 12 + rng.below(7)
    density = 15 + rng.below(61)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < density:
                adj[i].append(j)
                adj[j].append(i)
    return n, adj


def larger_decide(seed):
    """16 to 40 vertices, each with a random k-subset of k + 1 colors
    (k = 3 or 4), at an average degree (about 6 for k = 3, 11 for k = 4)
    where both answers are common: searches deep enough for the same
    vertex's domain to be wiped out again and again."""
    rng = SplitMix64(seed)
    n = 16 + rng.below(25)
    k = 3 + rng.below(2)
    per_mille = (6000 if k == 3 else 11000) // (n - 1)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(1000) < per_mille:
                adj[i].append(j)
                adj[j].append(i)
    domains = [sum(1 << c for c in rng.sample(range(k + 1), k)) for _ in range(n)]
    return n, adj, domains


def run(n, adj, domains, budget, mode):
    return solve_colors(adj, branch_order(adj), domains, budget, mode)


def m_indexed():
    m = mirzakhani()
    order = list(m.vertices)
    pos = {v: i for i, v in enumerate(order)}
    return m.n, [[pos[u] for u in m.adj[v]] for v in order]


def test_random_instances_all_modes_and_budgets():
    outputs = []
    for seed in range(150):
        n, adj, domains = random_indexed(seed)
        for mode in (MODE_DECIDE, MODE_COUNT):
            for budget in (10**5, 3, 17):
                outputs.append(run(n, adj, domains, budget, mode))
    assert {out[0] for out in outputs} == {UNSAT, SAT, EXHAUSTED}
    assert digest(outputs) == RANDOM_DIGEST


def answers(n, adj, domains, mode):
    """What one full-budget call decides, apart from the order it searched
    in: the status, the solution count, and for a decide-mode SAT only that
    its witness replays."""
    status, witness, _, _, count = run(n, adj, domains, 10**5, mode)
    if witness is None:
        return status, count, None
    edges = [(i, j) for i in range(n) for j in adj[i] if i < j]
    check_mask_witness(edges, domains, witness)
    return status, count, "replays"


def test_random_instances_answers():
    # Pins the answers separately from RANDOM_DIGEST, which also pins the
    # work and the witnesses: a change to the search order may move those,
    # never these.
    outputs = []
    for seed in range(150):
        n, adj, domains = random_indexed(seed)
        for mode in (MODE_DECIDE, MODE_COUNT):
            outputs.append(answers(n, adj, domains, mode))
    assert {out[0] for out in outputs} == {UNSAT, SAT}
    assert digest(outputs) == RANDOM_ANSWERS_DIGEST


# A triangle 0-1-2 with a pendant on 0 and on 1; the pendants' one-color
# lists meet no list of their neighbours, so nothing is forced by them.
# Vertex 1 (degree 3) comes before vertex 2 (degree 2) in branch_order.
WIPE_ADJ = [[1, 2, 4], [0, 2, 3], [0, 1], [1], [0]]
WIPE_DOMAINS = [0b101, 0b011, 0b011, 0b100, 0b010]


@pytest.mark.parametrize(
    "adj, domains, first, bit",
    [
        # K1,4 with its centre last: the centre (degree 4) branches first.
        ([[4], [4], [4], [4], [0, 1, 2, 3]], [0b11] * 5, 4, 0b01),
        # Equal degrees: the lower index branches first.
        ([[1], [0]], [0b11] * 2, 0, 0b01),
        # A 2-color leaf goes before the 3-color centre of K1,3.
        ([[1, 2, 3], [0], [0], [0]], [0b111, 0b011, 0b111, 0b111], 1, 0b001),
        # A wiped-out vertex goes before a better-connected one (decide
        # mode): vertex 0 branches first, and its lowest color forces 1 to
        # 0b10, which wipes out 2.  After 0's second color, 1 and 2 both
        # hold 2 colors; 2 branches first, so 1 is forced to 0b10, where the
        # degree order would branch on 1 and force 2 to 0b10.
        (WIPE_ADJ, WIPE_DOMAINS, 2, 0b01),
    ],
)
def test_branching_order(adj, domains, first, bit):
    # The decision under test takes the lowest color of its domain, and
    # nothing forces its vertex before it, so the witness shows which
    # vertex branched.
    status, witness, _, _, _ = solve_colors(
        adj, branch_order(adj), domains, 10**5, MODE_DECIDE
    )
    assert status == SAT
    assert witness[first] == bit


def test_counting_keeps_the_degree_order():
    # Counting visits every solution in branch_order, and a wipe-out does
    # not reorder it.
    assert run(5, WIPE_ADJ, WIPE_DOMAINS, 10**5, MODE_COUNT) == (SAT, None, 4, 5, 2)


def test_larger_decide_answers():
    # Each decide verdict agrees with count mode, whose count is exact or,
    # when its budget runs out, a lower bound that already proves SAT; and
    # every SAT witness replays.
    statuses = []
    for seed in range(80):
        n, adj, domains = larger_decide(seed)
        status, witness, _, _, _ = run(n, adj, domains, 10**5, MODE_DECIDE)
        cstatus, _, _, _, count = run(n, adj, domains, 3000, MODE_COUNT)
        assert cstatus != EXHAUSTED or count > 0
        assert (status == SAT) == (count > 0)
        if status == SAT:
            edges = [(i, j) for i in range(n) for j in adj[i] if i < j]
            check_mask_witness(edges, domains, witness)
        statuses.append(status)
    assert set(statuses) == {UNSAT, SAT}


def test_larger_decide_work():
    outputs = [run(*larger_decide(seed), 10**5, MODE_DECIDE) for seed in range(80)]
    assert digest(outputs) == LARGER_DECIDE_DIGEST


def test_theorem_instance_at_small_budgets():
    order, adj, domains = _indexed(mirzakhani(), canonical_lists())
    outputs = [
        solve_colors(adj, branch_order(adj), domains, budget, MODE_DECIDE)
        for budget in (1, 2, 7, 50, 509)
    ]
    assert [out[0] for out in outputs] == [EXHAUSTED] * 5
    assert digest(outputs) == THEOREM_DIGEST


def test_theorem_instance_work_counts():
    order, adj, domains = _indexed(mirzakhani(), canonical_lists())
    out = solve_colors(adj, branch_order(adj), domains, 10**7, MODE_DECIDE)
    assert out == (UNSAT, None, 711, 2724, 0)


def test_wheel_all_modes():
    order, adj, domains = _indexed(wheel4(), wheel_lists())
    outputs = [run(len(order), adj, domains, 10**6, mode)
               for mode in (MODE_DECIDE, MODE_COUNT)]
    assert digest(outputs) == WHEEL_DIGEST


def test_gadget_count():
    g, _ = gadget()
    order, adj, domains = _indexed(g, canonical_lists().restrict(g.vertices))
    status, _, nodes, props, found = solve_colors(
        adj, branch_order(adj), domains, 10**7, MODE_COUNT
    )
    assert (status, found) == (SAT, 2512436)
    assert nodes == 4144635


def test_random_hamilton_graphs():
    outputs = []
    for seed in range(80):
        n, adj = random_hamilton(seed)
        for budget in (10**6, 5):
            outputs.append(hamilton_cycle(adj, budget))
    assert {out[0] for out in outputs} == {0, 1, 2}
    assert digest(outputs) == HAMILTON_DIGEST


def test_larger_hamilton_graphs():
    outputs = []
    for seed in range(200):
        n, adj = larger_hamilton(seed)
        for budget in (10**6, 40):
            outputs.append(hamilton_cycle(adj, budget))
    assert {out[0] for out in outputs} == {0, 1, 2}
    assert digest(outputs) == LARGER_HAMILTON_DIGEST


def test_hamilton_on_m():
    n, adj = m_indexed()
    status, cycle, nodes = hamilton_cycle(adj, 10**8)
    assert (status, nodes) == (1, 62)
    assert sorted(cycle) == list(range(n)) and cycle[0] == 0
    assert digest(cycle) == M_CYCLE_DIGEST


def test_hamilton_connectivity_prune():
    # Two triangles hang off the edge 0-1.  After the path 0, 1 the
    # unvisited vertices split into {2, 3, 4} and {5, 6, 7}, which only the
    # connectivity prune sees; the search then goes round through 4.
    vs = [plain(i) for i in range(8)]
    pairs = [(0, 1), (1, 2), (1, 5), (0, 4), (0, 7)]
    pairs += [(2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (5, 7)]
    g = make_graph(vs, [(vs[a], vs[b]) for a, b in pairs])
    status, cycle, nodes = hamilton_cycle(g.int_adj, 10**6)
    assert (status, cycle, nodes) == (SAT, [0, 4, 3, 2, 1, 5, 6, 7], 8)
    assert check_hamiltonian_cycle(g, [vs[i] for i in cycle]) == []


def old_hamilton_cycle(n, adj, budget):
    """Reference Hamilton search: the kernel as it was with an explicit n,
    the partner-count prune (an unvisited vertex with fewer than two
    partners) and a closing-edge test on every full path."""
    if n < 3:
        return (UNSAT, None, 0)
    adjset = [set(nbrs) for nbrs in adj]
    if any(len(nbrs) < 2 for nbrs in adj):
        return (UNSAT, None, 0)
    visited = [False] * n
    visited[0] = True
    path = [0]
    # free[w]: the unvisited neighbors of w, as counted by the latest sweep.
    free = [0] * n

    def candidates(u: int) -> list[int]:
        """The extensions of a path ending at u, in order; [] if pruned."""
        if not any(not visited[w] for w in adj[0]):
            return []
        near_u = adjset[u]
        near_0 = adjset[0] if u != 0 else ()
        forced = -1
        nforced = 0
        # One BFS over the unvisited vertices from the first of them: it
        # counts each one's unvisited neighbors and usable partners while
        # it spreads, and whether it reached them all is the connectivity
        # prune.
        first = visited.index(False)
        seen = visited[:]
        seen[first] = True
        queue = [first]
        for w in queue:
            k = 0
            for x in adj[w]:
                if not visited[x]:
                    k += 1
                    if not seen[x]:
                        seen[x] = True
                        queue.append(x)
            free[w] = k
            # Two unvisited neighbors are already two partners, and a forced
            # edge needs exactly two partners, one of them u: neither rule
            # can fire unless k < 2.
            if k < 2:
                avail = k + (w in near_u) + (w in near_0)
                if avail < 2:
                    return []
                if avail == 2 and u != 0 and w in near_u:
                    nforced += 1
                    if nforced >= 2:
                        return []
                    forced = w
        if len(queue) + len(path) != n:
            return []
        if nforced == 1:
            return [forced]
        # Most constrained first; the sort is stable, so ties keep the
        # ascending order of adj[u].
        return sorted((w for w in adj[u] if not visited[w]), key=free.__getitem__)

    nodes = 0
    # One iterator per path vertex over the extensions still to try from it.
    stack = [iter(candidates(0))]
    while stack:
        w = next(stack[-1], -1)
        if w < 0:
            stack.pop()
            if stack:
                visited[path.pop()] = False
            continue
        if nodes >= budget:
            return (EXHAUSTED, None, nodes)
        nodes += 1
        visited[w] = True
        path.append(w)
        if len(path) == n:
            if 0 in adjset[w]:
                return (SAT, list(path), nodes)
            stack.append(iter(()))
        else:
            stack.append(iter(candidates(w)))
    return (UNSAT, None, nodes)


def differential_hamilton(seed):
    """3 to 24 vertices at 8% to 89% edge density."""
    rng = SplitMix64(seed)
    n = 3 + rng.below(22)
    density = 8 + rng.below(82)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(100) < density:
                adj[i].append(j)
                adj[j].append(i)
    return n, adj


def test_hamilton_matches_the_kernel_with_its_dead_branches():
    # Neither branch the kernel dropped can change an output: every
    # unvisited vertex keeps two partners, and the last vertex of a full
    # path is adjacent to 0 (engine's module docstring has the proofs).
    statuses = set()
    for seed in range(3000):
        n, adj = differential_hamilton(seed)
        for budget in (20000, 7):
            out = hamilton_cycle(adj, budget)
            assert out == old_hamilton_cycle(n, adj, budget), (seed, budget)
            statuses.add(out[0])
    assert statuses == {UNSAT, SAT, EXHAUSTED}


# ------------------------------------------- searches deeper than the C stack

DEEP = 1500


def test_decide_edgeless_graph_deeper_than_recursion_limit(default_recursion_limit):
    g = make_graph([plain(i) for i in range(DEEP)], [])
    res = decide(g, uniform_lists(g, (1, 2)))
    assert res.status == "SAT"
    assert res.nodes == DEEP


def test_hamilton_long_cycle_deeper_than_recursion_limit(default_recursion_limit):
    vs = [plain(i) for i in range(DEEP)]
    g = make_graph(vs, [(vs[i], vs[(i + 1) % DEEP]) for i in range(DEEP)])
    res = hamilton(g)
    assert res.status == "FOUND"
    # Every step round the cycle is the one forced edge at the path's end.
    assert res.nodes == DEEP - 1
    assert check_hamiltonian_cycle(g, res.cycle) == []


RANDOM_DIGEST = "109f93319d3b4c6e1a7257e18a692200833b497b53672e228139c265838f3bdb"
RANDOM_ANSWERS_DIGEST = "f6b82188f054c52191458e22f36cc7ec549e49e94a8659045d33bbb420374fb2"
THEOREM_DIGEST = "d1dfa54f992557fe2816ac94343bd754d91130399a6fb1c5fb36b244910ae8b4"
LARGER_DECIDE_DIGEST = "46648749f56cf16c57912f6686c18fe576aac43a582867d2082fac8fea0d6d38"
WHEEL_DIGEST = "40858df4985e88dfc30760ea60a6028aaaa85b223c7773af0c5cae7e093c2c27"
HAMILTON_DIGEST = "ac8dc609f857f7c0e5375069eba5f0f52f5e25408dedf4e78a6f11acd6db3130"
LARGER_HAMILTON_DIGEST = "7554949d36e6550bb5355f984b0b1b24b92ff5be1b119efeea0a1372a6a9a1a2"
M_CYCLE_DIGEST = "8ec2fbd495053ad51753d4742422d9f7afe11d5d931a77401d13fef7345392f6"
