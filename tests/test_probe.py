"""The probe's integer path: mask draws, the kernel call and the witness check.

random_probe draws palette positions, turns them into bit masks, runs the
kernel directly and re-checks every SAT witness with check_mask_witness over
Graph.int_edges.  The oracle below is the list-based loop it replaces: one
make_lists and one decide per trial.  Reports must agree byte for byte.
"""

import hashlib
import itertools

import pytest

from colorlab import choose, engine
from colorlab.build import canonical_lists, make_lists, mirzakhani, uniform_lists
from colorlab.choose import (
    ProbeReport,
    SplitMix64,
    choosability_exhaustive,
    default_pool,
    random_probe,
)
from colorlab.graph import GraphError, make_graph, plain
from colorlab.solve import DEFAULT_BUDGET, check_mask_witness, decide, verify_coloring


def oracle_probe(g, k, trials, seed, pool=None):
    """random_probe as a per-trial make_lists + decide loop."""
    colors = sorted(set(pool)) if pool is not None else list(default_pool(k))
    successes = 0
    for t in range(trials):
        rng = SplitMix64(seed ^ t)
        lists = make_lists(colors, {v: rng.sample(colors, k) for v in g.vertices})
        res = decide(g, lists, DEFAULT_BUDGET)
        assert res.status != "EXHAUSTED"
        successes += res.sat
    return ProbeReport(
        graph=f"{g.n} vertices, {g.m} edges",
        k=k,
        trials=trials,
        successes=successes,
        seed=seed,
        pool=tuple(colors),
    )


def random_graph(seed, max_n=9):
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_n)
    vs = [plain(i) for i in range(n)]
    density = 20 + rng.below(61)
    edges = [
        (vs[i], vs[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.below(100) < density
    ]
    return make_graph(vs, edges), rng


# ----------------------------------------------------------- probe oracle


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("pool", [(1, 2, 3, 4), tuple(range(1, 7)), None])
def test_probe_matches_list_oracle_on_m(k, pool):
    g = mirzakhani()
    for seed in (0, 5, 2**40 + 3):
        got = random_probe(g, k, 30, seed, pool=pool)
        assert got.to_json() == oracle_probe(g, k, 30, seed, pool).to_json()


def test_probe_matches_list_oracle_on_small_graphs():
    sat = unsat = 0
    for seed in range(200):
        g, rng = random_graph(seed)
        k = 1 + rng.below(3)
        pool = tuple(range(1, k + 1 + rng.below(3)))
        got = random_probe(g, k, 6, seed, pool=pool)
        assert got.to_json() == oracle_probe(g, k, 6, seed, pool).to_json()
        sat += got.successes
        unsat += got.trials - got.successes
    assert sat and unsat  # both outcomes are exercised


def test_probe_pinned_successes_on_m():
    report = random_probe(mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4))
    assert report.successes == 649


def test_probe_on_the_empty_graph():
    report = random_probe(make_graph([], []), 2, 3, 0, pool=(1, 2))
    assert report.successes == 3


def test_probe_kernel_work_on_m_is_pinned():
    # Seed 0's 1,000 trials drawn with SplitMix64.sample, the reference
    # path: the kernel's visit order on the probe's own instance family.
    g = mirzakhani()
    nodes = props = sat = 0
    for t in range(1000):
        rng = SplitMix64(t)
        masks = [sum(1 << i for i in rng.sample(range(4), 3)) for _ in range(g.n)]
        status, _, dn, dp, _ = engine.solve_colors(
            g.n, g.int_adj, masks, DEFAULT_BUDGET, engine.MODE_DECIDE
        )
        nodes, props, sat = nodes + dn, props + dp, sat + (status == engine.SAT)
    assert (nodes, props, sat) == (23155, 271155, 649)


def test_probe_trial_statuses_on_m_are_pinned():
    # Which of seed 0's 1,000 trials are SAT, apart from the work above: a
    # change to the search order may move the work, never these.
    g = mirzakhani()
    draws = choose._mask_draws(g.n, 3, 4)
    statuses = bytes(
        choose._decide_masks(g, draws(t), DEFAULT_BUDGET)[0] for t in range(1000)
    )
    assert statuses.count(engine.SAT) == 649
    assert hashlib.sha256(statuses).hexdigest() == (
        "01f64e4820832d9f8dd232cd7fc78599033d0722bc00193d3888588ea52c1eb1"
    )


# ----------------------------------------------------------- batched draws
#
# random_probe computes each trial's stream in packed lanes.  The reference
# below spells SplitMix64 out from its constants, independently of choose.py:
# output j of the stream from s is mix(s + j * gamma), j = 1, 2, ...; a draw
# at or above the largest multiple of m not above 2**64 is rejected; the
# subset is a partial Fisher-Yates shuffle.

M64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15
MULS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def mix64(z):
    z = ((z ^ (z >> 30)) * MULS[0]) & M64
    z = ((z ^ (z >> 27)) * MULS[1]) & M64
    return z ^ (z >> 31)


def unshift(y, s):
    """The x with x ^ (x >> s) == y: each pass fixes s more top bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def unmix64(z):
    z = unshift(z, 31)
    z = unshift(z * pow(MULS[1], -1, 2**64) & M64, 27)
    return unshift(z * pow(MULS[0], -1, 2**64) & M64, 30)


def spelled_out_masks(seed, n, k, ncolors):
    outputs = (mix64((seed + j * GAMMA) & M64) for j in itertools.count(1))
    masks = []
    for _ in range(n):
        arr = list(range(ncolors))
        for i in range(k):
            m = ncolors - i
            r = next(outputs)
            while r >= 2**64 - 2**64 % m:
                r = next(outputs)
            j = i + r % m
            arr[i], arr[j] = arr[j], arr[i]
        masks.append(sum(1 << c for c in arr[:k]))
    return masks


def sampled_masks(seed, n, k, ncolors):
    rng = SplitMix64(seed)
    return [sum(1 << c for c in rng.sample(range(ncolors), k)) for _ in range(n)]


def test_batched_draws_take_the_next_output_after_a_rejection(monkeypatch):
    # Trial 0's second draw (m = 3) is 2**64 - 1, at the rejection limit
    # 2**64 - 1, so the trial takes n*k + 1 = 190 outputs: one past the
    # 189-lane block, from the next block.
    seed = (unmix64(M64) - 2 * GAMMA) & M64
    assert seed == 10604588701194827158
    assert mix64((seed + 2 * GAMMA) & M64) == M64
    expected = spelled_out_masks(seed, 63, 3, 4)
    assert sampled_masks(seed, 63, 3, 4) == expected
    for lanes in (1, 2, 7, 189, choose.DRAW_LANES):
        monkeypatch.setattr(choose, "DRAW_LANES", lanes)
        assert choose._mask_draws(63, 3, 4)(seed) == expected
    monkeypatch.undo()
    g = mirzakhani()
    got = random_probe(g, 3, 4, seed, pool=(1, 2, 3, 4))
    assert got.to_json() == oracle_probe(g, 3, 4, seed, (1, 2, 3, 4)).to_json()


@pytest.mark.parametrize("n, k, ncolors", [(63, 3, 64), (0, 3, 4), (3, 64, 64), (90, 1, 1)])
def test_batched_draws_match_sample(n, k, ncolors):
    for seed in (0, 1, M64, 2**64 + 7, -1):
        expected = sampled_masks(seed, n, k, ncolors)
        assert choose._mask_draws(n, k, ncolors)(seed) == expected
        assert spelled_out_masks(seed, n, k, ncolors) == expected


# ----------------------------------------------------------- probe errors


def test_probe_refuses_a_pool_wider_than_the_palette_limit():
    with pytest.raises(GraphError, match="exceeds 64"):
        random_probe(mirzakhani(), 3, 1, 0, pool=range(1, 66))


def test_probe_accepts_a_64_color_pool():
    report = random_probe(mirzakhani(), 3, 2, 0, pool=range(1, 65))
    assert report.to_json() == oracle_probe(mirzakhani(), 3, 2, 0, range(1, 65)).to_json()


def test_probe_refuses_a_pool_narrower_than_k():
    with pytest.raises(GraphError, match="cannot fill"):
        random_probe(mirzakhani(), 3, 1, 0, pool=(1, 2))


@pytest.mark.parametrize("k", [-1, 0])
def test_probe_refuses_list_size_below_one(k):
    with pytest.raises(GraphError, match="at least 1"):
        random_probe(mirzakhani(), k, 5, 0, pool=(1, 2, 3, 4))
    with pytest.raises(GraphError, match="at least 1"):
        random_probe(mirzakhani(), k, 5, 0)


def test_probe_refuses_a_negative_trial_count():
    with pytest.raises(GraphError, match="trial count must be nonnegative, got -5"):
        random_probe(mirzakhani(), 3, -5, 0, pool=(1, 2, 3, 4))
    assert random_probe(mirzakhani(), 3, 0, 0, pool=(1, 2, 3, 4)).trials == 0


@pytest.mark.parametrize("k", [-1, 0])
def test_exhaustive_refuses_list_size_below_one(k):
    g = make_graph([plain(0), plain(1)], [(plain(0), plain(1))])
    with pytest.raises(GraphError, match="at least 1"):
        choosability_exhaustive(g, k, range(1, 4))


def test_sample_refuses_sizes_outside_the_items():
    rng = SplitMix64(9)
    for k in (-1, 5):
        with pytest.raises(ValueError, match="0 <= k <= 4"):
            rng.sample((1, 2, 3, 4), k)
    assert rng.sample((1, 2, 3, 4), 0) == ()
    assert rng.sample((4, 3, 2, 1), 4) == (1, 2, 3, 4)


def test_below_refuses_nonpositive_bounds():
    rng = SplitMix64(9)
    for m in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            rng.below(m)


def test_below_matches_the_rejection_rule():
    # The limit is the largest multiple of m not above 2**64; draws at or
    # above it are rejected, so a bound just over half of 2**64 rejects
    # about half of the raw outputs.
    m = 2**63 + 1
    a, b = SplitMix64(17), SplitMix64(17)
    for _ in range(50):
        expected = next(r for r in iter(b.next, None) if r < 2**64 - 2**64 % m) % m
        assert a.below(m) == expected


# ---------------------------------------------------------- witness check


def test_int_edges_are_the_positions_of_edges():
    graphs = [mirzakhani()] + [random_graph(seed)[0] for seed in range(40)]
    for g in graphs:
        pos = g.index()
        assert g.int_edges == tuple((pos[u], pos[v]) for u, v in g.edges())
        assert g.int_edges is g.int_edges  # built once per graph


def _path3():
    return make_graph([plain(0), plain(1), plain(2)], [(plain(0), plain(1)), (plain(1), plain(2))])


def test_mask_witness_accepts_a_proper_coloring():
    g = _path3()
    check_mask_witness(g.int_edges, (0b011, 0b110, 0b001), (0b001, 0b010, 0b001))


@pytest.mark.parametrize(
    "bits, match",
    [
        ((0b100, 0b010, 0b001), "vertex 0"),  # color outside its mask
        ((0b001, 0b110, 0b001), "vertex 1"),  # two colors at once
        ((0b001, 0b000, 0b001), "vertex 1"),  # no color
        ((0b001, -1, 0b001), "vertex 1"),  # unassigned marker
        ((0b010, 0b010, 0b001), "edge 0 -- 1"),  # monochromatic edge
        ((0b001, 0b100, 0b100), "edge 1 -- 2"),
        ((0b001, 0b010), "2 colors for 3 vertices"),
    ],
)
def test_mask_witness_rejects(bits, match):
    g = _path3()
    with pytest.raises(RuntimeError, match=match):
        check_mask_witness(g.int_edges, (0b011, 0b110, 0b101), bits)


# Each route replays the kernel's SAT witness before trusting it.  The path
# is 2-choosable, so every exhaustive assignment is SAT; the doctored
# witness colors both ends of an edge alike.
BAD_WITNESS_ROUTES = {
    "probe": lambda: random_probe(mirzakhani(), 4, 1, 0),
    "exhaustive": lambda: choosability_exhaustive(_path3(), 2, range(1, 4)),
    "decide": lambda: decide(_path3(), uniform_lists(_path3(), (1, 2))),
}


@pytest.mark.parametrize("route", sorted(BAD_WITNESS_ROUTES))
def test_raises_on_a_bad_kernel_witness(route, monkeypatch):
    real = choose.engine.solve_colors

    def colors_everything_alike(n, adj, domains, budget, mode):
        status, bits, *rest = real(n, adj, domains, budget, mode)
        if bits is not None:
            bits = (bits[0],) * n
        return (status, bits, *rest)

    monkeypatch.setattr(choose.engine, "solve_colors", colors_everything_alike)
    with pytest.raises(RuntimeError, match="invalid witness"):
        BAD_WITNESS_ROUTES[route]()


def test_verify_coloring_lists_edge_violations_in_edge_order():
    g = mirzakhani()
    coloring = {v: 1 for v in g.vertices}
    lists = canonical_lists()
    expected = [
        f"{v}: color 1 not in list {lists.list_of(v)}"
        for v in g.vertices
        if 1 not in lists.list_of(v)
    ] + [f"edge {u} -- {v}: both colored 1" for u, v in g.edges()]
    assert verify_coloring(g, lists, coloring) == expected
