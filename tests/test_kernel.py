"""Pinned kernel corpus: every output of the two search loops, fixed by digest.

Each group below runs the kernel on a fixed corpus and pins the sha256 of the
repr of every output tuple (statuses, witnesses, node and propagation counts,
solution counts, enumerated solutions, Hamiltonian cycles).  A change to the
search order, the pruning or the accounting shows up here as a new digest; a
change that is meant to alter them must update the digest and say why in
CHANGES.md.  The answers digest pins only what a search decides (statuses,
solution counts, sorted solutions), which no change of search order may move.
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
    MODE_ENUM,
    SAT,
    UNSAT,
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


def run(n, adj, domains, budget, mode):
    """One kernel call; in enum mode the solutions are part of the output."""
    if mode != MODE_ENUM:
        return solve_colors(n, adj, domains, budget, mode)
    sols = []
    return solve_colors(n, adj, domains, budget, mode, sols.append), sols


def m_indexed():
    m = mirzakhani()
    order = list(m.vertices)
    pos = {v: i for i, v in enumerate(order)}
    return m.n, [[pos[u] for u in m.adj[v]] for v in order]


def test_random_instances_all_modes_and_budgets():
    outputs = []
    for seed in range(150):
        n, adj, domains = random_indexed(seed)
        for mode in (MODE_DECIDE, MODE_COUNT, MODE_ENUM):
            for budget in (10**5, 3, 17):
                outputs.append(run(n, adj, domains, budget, mode))
    statuses = {out[0] if len(out) == 5 else out[0][0] for out in outputs}
    assert statuses == {UNSAT, SAT, EXHAUSTED}
    assert digest(outputs) == RANDOM_DIGEST


def answers(n, adj, domains, mode):
    """What one full-budget call decides, apart from the order it searched
    in: the status, the solution count, the enumerated solutions sorted, and
    for a decide-mode SAT only that its witness replays."""
    out = run(n, adj, domains, 10**5, mode)
    if mode == MODE_ENUM:
        (status, _, _, _, count), sols = out
        return status, count, sorted(sols)
    status, witness, _, _, count = out
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
        for mode in (MODE_DECIDE, MODE_COUNT, MODE_ENUM):
            outputs.append(answers(n, adj, domains, mode))
    assert {out[0] for out in outputs} == {UNSAT, SAT}
    assert digest(outputs) == RANDOM_ANSWERS_DIGEST


@pytest.mark.parametrize(
    "adj, domains, first, bit",
    [
        # K1,4 with its centre last: the centre (degree 4) branches first.
        ([[4], [4], [4], [4], [0, 1, 2, 3]], [0b11] * 5, 4, 0b01),
        # Equal degrees: the lower index branches first.
        ([[1], [0]], [0b11] * 2, 0, 0b01),
        # A 2-color leaf goes before the 3-color centre of K1,3.
        ([[1, 2, 3], [0], [0], [0]], [0b111, 0b011, 0b111, 0b111], 1, 0b001),
    ],
)
def test_branching_order(adj, domains, first, bit):
    # The first decision takes the lowest color of its domain, and nothing
    # is forced before it, so the witness shows which vertex it was.
    status, witness, _, _, _ = solve_colors(
        len(adj), adj, domains, 10**5, MODE_DECIDE
    )
    assert status == SAT
    assert witness[first] == bit


def test_theorem_instance_at_small_budgets():
    order, adj, domains = _indexed(mirzakhani(), canonical_lists())
    outputs = [
        solve_colors(len(order), adj, domains, budget, MODE_DECIDE)
        for budget in (1, 2, 7, 50, 509)
    ]
    assert [out[0] for out in outputs] == [EXHAUSTED] * 5
    assert digest(outputs) == THEOREM_DIGEST


def test_theorem_instance_work_counts():
    order, adj, domains = _indexed(mirzakhani(), canonical_lists())
    out = solve_colors(len(order), adj, domains, 10**7, MODE_DECIDE)
    assert out == (UNSAT, None, 2116, 8050, 0)


def test_wheel_all_modes():
    order, adj, domains = _indexed(wheel4(), wheel_lists())
    outputs = [run(len(order), adj, domains, 10**6, mode)
               for mode in (MODE_DECIDE, MODE_COUNT, MODE_ENUM)]
    assert digest(outputs) == WHEEL_DIGEST


def test_gadget_count():
    g, _ = gadget()
    order, adj, domains = _indexed(g, canonical_lists().restrict(g.vertices))
    status, _, nodes, props, found = solve_colors(
        len(order), adj, domains, 10**7, MODE_COUNT
    )
    assert (status, found) == (SAT, 2512436)
    assert nodes == 4144635


def test_random_hamilton_graphs():
    outputs = []
    for seed in range(80):
        n, adj = random_hamilton(seed)
        for budget in (10**6, 5):
            outputs.append(hamilton_cycle(n, adj, budget))
    assert {out[0] for out in outputs} == {0, 1, 2}
    assert digest(outputs) == HAMILTON_DIGEST


def test_larger_hamilton_graphs():
    outputs = []
    for seed in range(200):
        n, adj = larger_hamilton(seed)
        for budget in (10**6, 40):
            outputs.append(hamilton_cycle(n, adj, budget))
    assert {out[0] for out in outputs} == {0, 1, 2}
    assert digest(outputs) == LARGER_HAMILTON_DIGEST


def test_hamilton_on_m():
    n, adj = m_indexed()
    status, cycle, nodes = hamilton_cycle(n, adj, 10**8)
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
    status, cycle, nodes = hamilton_cycle(g.n, g.int_adj, 10**6)
    assert (status, cycle, nodes) == (SAT, [0, 4, 3, 2, 1, 5, 6, 7], 8)
    assert check_hamiltonian_cycle(g, [vs[i] for i in cycle]) == []


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
    assert check_hamiltonian_cycle(g, res.cycle) == []


RANDOM_DIGEST = "ad587480798c1df7221c30c3f1d539aba61b34dec12aa8edec5cd6aae06d408d"
RANDOM_ANSWERS_DIGEST = "2b8ee04df481fa9b2aa534b81b81467af02cc74ae153f22682433a8ba21f2d3a"
THEOREM_DIGEST = "dddb83b04295fcdc9cb6aab72e4847e7f023e617afd587aaa3515d108a62d99c"
WHEEL_DIGEST = "760d553c7f87dfaf1714a181807e9c05fef4610c1bbb320ef7fc7b4f56e30cb1"
HAMILTON_DIGEST = "ac8dc609f857f7c0e5375069eba5f0f52f5e25408dedf4e78a6f11acd6db3130"
LARGER_HAMILTON_DIGEST = "7554949d36e6550bb5355f984b0b1b24b92ff5be1b119efeea0a1372a6a9a1a2"
M_CYCLE_DIGEST = "8ec2fbd495053ad51753d4742422d9f7afe11d5d931a77401d13fef7345392f6"
