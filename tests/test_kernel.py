"""Pinned kernel corpus: every output of the two search loops, fixed by digest.

Each group below runs the kernel on a fixed corpus and pins the sha256 of the
repr of every output tuple (statuses, witnesses, node and propagation counts,
solution counts, enumerated solutions, Hamiltonian cycles).  A change to the
search order, the pruning or the accounting shows up here as a new digest; a
change that is meant to alter them must update the digest and say why in
CHANGES.md.  The brute-force and CNF oracle tests in test_solve.py check the
verdicts themselves.
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
from colorlab.solve import _indexed, decide
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
    assert out == (UNSAT, None, 4647, 16699, 0)


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
    assert nodes == 4208846


def test_random_hamilton_graphs():
    outputs = []
    for seed in range(80):
        n, adj = random_hamilton(seed)
        for budget in (10**6, 5):
            outputs.append(hamilton_cycle(n, adj, budget))
    assert {out[0] for out in outputs} == {0, 1, 2}
    assert digest(outputs) == HAMILTON_DIGEST


def test_hamilton_on_m():
    n, adj = m_indexed()
    status, cycle, nodes = hamilton_cycle(n, adj, 10**8)
    assert (status, nodes) == (1, 192171)
    assert sorted(cycle) == list(range(n)) and cycle[0] == 0
    assert digest(cycle) == M_CYCLE_DIGEST


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


RANDOM_DIGEST = "7407f87e2e435ff00abddf057c540e02a2b2e324890e1eca8cf6e5a8ce1c6267"
THEOREM_DIGEST = "9ff15c3448edb4bfce96996f8d67753b601f82842b662c7470701ec40f310d54"
WHEEL_DIGEST = "760d553c7f87dfaf1714a181807e9c05fef4610c1bbb320ef7fc7b4f56e30cb1"
HAMILTON_DIGEST = "f2ff19b0d964827236afaec8795585e8bc74817cfc8f77a6e34222f278783932"
M_CYCLE_DIGEST = "624112e2e81b39636a56af9e5d9f478b1c970543b051d627be6799af2520aeab"
