"""The probe's integer path: mask draws, the kernel call and the witness check.

random_probe draws palette positions, turns them into bit masks, runs the
kernel directly and re-checks every SAT witness with check_mask_witness over
Graph.int_edges.  The oracle below is the list-based loop it replaces: one
make_lists and one decide per trial.  Reports must agree byte for byte.
"""

import errno
import hashlib
import itertools
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import colorlab
from colorlab import choose, engine, graphio
from colorlab.build import canonical_lists, gadget, make_lists, mirzakhani, uniform_lists
from colorlab.choose import (
    ProbeReport,
    SplitMix64,
    choosability_exhaustive,
    default_pool,
    random_probe,
)
from colorlab.cli import main
from colorlab.graph import GraphError, make_graph, plain
from colorlab.solve import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    check_mask_witness,
    decide,
    verify_coloring,
)


def oracle_probe(g, k, trials, seed, pool=None):
    """random_probe as a per-trial make_lists + decide loop."""
    colors = sorted(set(pool)) if pool is not None else list(default_pool(k))
    successes = 0
    for t in range(trials):
        rng = SplitMix64(mix64(seed) ^ t)
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


def test_probe_seeds_do_not_share_trials(monkeypatch):
    # Trial t of seed s is seeded with mix64(s) ^ t, not s ^ t: with the
    # latter, seeds 0-7 at 256 trials would all run the same 256 trials.
    g = mirzakhani()
    real_draws = choose._mask_draws
    seen = []

    def recording_draws(n, k, ncolors):
        draws = real_draws(n, k, ncolors)

        def trial_masks(trial_seed):
            masks = draws(trial_seed)
            seen.append((trial_seed, masks))
            return masks

        return trial_masks

    monkeypatch.setattr(choose, "_mask_draws", recording_draws)
    monkeypatch.setattr(choose, "_decide_masks", lambda g, masks, budget: (engine.SAT, None))
    # A forked child's draws never reach `seen`, so every trial is drawn here.
    monkeypatch.setattr(choose, "_workers", lambda trials: 1)
    trial_seeds, first_masks = [], []
    for seed in range(8):
        seen.clear()
        assert random_probe(g, 3, 256, seed, pool=(1, 2, 3, 4)).successes == 256
        assert len(seen) == 256
        trial_seeds.append({s for s, _ in seen})
        first_masks.append(seen[0][1])
    assert len(set().union(*trial_seeds)) == 8 * 256
    assert len({tuple(m) for m in first_masks}) == 8


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
            g.int_adj, g.int_order, masks, DEFAULT_BUDGET, engine.MODE_DECIDE
        )
        nodes, props, sat = nodes + dn, props + dp, sat + (status == engine.SAT)
    assert (nodes, props, sat) == (22360, 257844, 649)


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
    # The probe seeds trial 0 with mix64(probe seed), so this probe seed's
    # trial 0 is the stream above.
    g = mirzakhani()
    got = random_probe(g, 3, 4, unmix64(seed), pool=(1, 2, 3, 4))
    assert got.to_json() == oracle_probe(g, 3, 4, unmix64(seed), (1, 2, 3, 4)).to_json()


def test_a_draw_at_the_floor_that_is_not_rejected_takes_the_per_draw_path(monkeypatch):
    # Trial 0's first draw (m = 4) is 2**64 - 1: at or above the least
    # rejection limit, 2**64 - 1 for m = 3, but below its own, 2**64, so it
    # is kept.  The packed path cannot tell the two apart and leaves the
    # trial to the per-draw path, which must still draw the same masks.
    seed = (unmix64(M64) - GAMMA) & M64
    assert mix64((seed + GAMMA) & M64) == M64
    expected = spelled_out_masks(seed, 63, 3, 4)
    assert sampled_masks(seed, 63, 3, 4) == expected
    real, counts = choose._subsets, []

    def counting_subsets(draw, items, k, count):
        counts.append(count)
        return real(draw, items, k, count)

    monkeypatch.setattr(choose, "_subsets", counting_subsets)
    for lanes in (1, 7, 189, 256):
        monkeypatch.setattr(choose, "DRAW_LANES", lanes)
        counts.clear()
        assert choose._mask_draws(63, 3, 4)(seed) == expected
        assert 63 in counts  # all 63 subsets from one per-draw stream


@pytest.mark.parametrize("k, ncolors, packed", [(3, 4, True), (5, 10, False)])
def test_draws_skip_the_memo_past_memo_keys(monkeypatch, k, ncolors, packed):
    # (3, 4): lcm 12, 12**3 = 1,728 keys, packed.  (5, 10): lcm 2,520,
    # 2520**5 keys, so the memo would keep one entry per subset drawn.
    real, counts = choose._subsets, []

    def counting_subsets(draw, items, k, count):
        counts.append(count)
        return real(draw, items, k, count)

    monkeypatch.setattr(choose, "_subsets", counting_subsets)
    draws = choose._mask_draws(63, k, ncolors)
    for seed in range(3):
        assert draws(seed) == sampled_masks(seed, 63, k, ncolors)
    # The per-draw path draws a trial's 63 subsets in one call; the packed
    # path shuffles one subset per call, and only on a memo miss.
    assert (63 not in counts) == packed


@pytest.mark.parametrize("n, k, ncolors", [(63, 3, 64), (0, 3, 4), (3, 64, 64), (90, 1, 1)])
def test_batched_draws_match_sample(n, k, ncolors):
    for seed in (0, 1, M64, 2**64 + 7, -1):
        expected = sampled_masks(seed, n, k, ncolors)
        assert choose._mask_draws(n, k, ncolors)(seed) == expected
        assert spelled_out_masks(seed, n, k, ncolors) == expected


# (n, k, ncolors) with 0 <= k <= ncolors <= 64 and n <= 300.
DRAW_SHAPES = st.integers(0, 64).flatmap(
    lambda ncolors: st.tuples(st.integers(0, 300), st.integers(0, ncolors), st.just(ncolors))
)


@settings(deadline=None, max_examples=150)
@given(DRAW_SHAPES, st.integers(0, M64))
# Several packed blocks per trial (n*k > DRAW_LANES); an lcm of the bounds
# at or above 2**30, which takes the per-draw path; odd lcms (63, and 1
# with no bounds at all).
@example((300, 3, 4), 1)
@example((5, 20, 40), 2)
@example((200, 1, 63), 3)
@example((7, 0, 5), 4)
def test_packed_draws_match_the_spelled_out_stream(shape, seed):
    n, k, ncolors = shape
    assert choose._mask_draws(n, k, ncolors)(seed) == spelled_out_masks(seed, n, k, ncolors)


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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_probe_refuses_a_seed_outside_64_bits(seed):
    # A wider seed is refused, not truncated to 64 bits.
    with pytest.raises(GraphError, match=r"seed must be in \[0, 2\*\*64\), got "):
        random_probe(mirzakhani(), 3, 2, seed, pool=(1, 2, 3, 4))


def test_probe_accepts_the_largest_seed():
    g = mirzakhani()
    got = random_probe(g, 3, 2, M64, pool=(1, 2, 3, 4))
    assert got.to_json() == oracle_probe(g, 3, 2, M64, (1, 2, 3, 4)).to_json()


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
def _probe_in_four_processes():
    with mock.patch.object(choose, "_workers", lambda trials: 4):
        return random_probe(mirzakhani(), 4, 200, 0)


BAD_WITNESS_ROUTES = {
    "probe": lambda: random_probe(mirzakhani(), 4, 1, 0),
    "forked-probe": _probe_in_four_processes,
    "exhaustive": lambda: choosability_exhaustive(_path3(), 2, range(1, 4)),
    "decide": lambda: decide(_path3(), uniform_lists(_path3(), (1, 2))),
}


@pytest.mark.parametrize("route", sorted(BAD_WITNESS_ROUTES))
def test_raises_on_a_bad_kernel_witness(route, monkeypatch):
    real = choose.engine.solve_colors

    def colors_everything_alike(adj, order, domains, budget, mode):
        status, bits, *rest = real(adj, order, domains, budget, mode)
        if bits is not None:
            bits = (bits[0],) * len(adj)
        return (status, bits, *rest)

    monkeypatch.setattr(choose.engine, "solve_colors", colors_everything_alike)
    with pytest.raises(RuntimeError, match="invalid witness"):
        BAD_WITNESS_ROUTES[route]()


# ----------------------------------------------------------- forked workers
#
# random_probe cuts its trials into chunks, and this process and its forked
# children claim them from one pipe and draw and decide what they claim;
# choose._workers says how many processes.  Reports and errors must not
# depend on that number, and no child may outlive the call.

WORKER_COUNTS = (1, 2, 3, 4)


def _cycle(n):
    vs = [plain(i) for i in range(n)]
    return make_graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def free_fds():
    """The two lowest free file descriptors: the same after a call that
    closed every pipe end it opened."""
    fds = os.pipe()
    for fd in fds:
        os.close(fd)
    return fds


def count_forks(monkeypatch):
    """The pids of the children os.fork makes from here on."""
    real_fork, forks = os.fork, []

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def probe_in(monkeypatch, workers, *args, **kwargs):
    monkeypatch.setattr(choose, "_workers", lambda trials: workers)
    return random_probe(*args, **kwargs)


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


# (graph, k, trials, seed, pool), with trial counts that 2, 3 and 4 do not divide.
FORKED_PROBES = {
    "m": (mirzakhani, 3, 131, 0, (1, 2, 3, 4)),
    "m-default-pool": (mirzakhani, 4, 67, 2**40 + 3, None),
    "gadget": (lambda: gadget()[0], 2, 97, 5, (1, 2, 3)),
    "k3": (lambda: _cycle(3), 2, 101, 11, (1, 2, 3)),
    "c4": (lambda: _cycle(4), 1, 73, 1, (1, 2)),
}


@pytest.mark.parametrize("name", sorted(FORKED_PROBES))
def test_probe_report_is_the_same_for_any_worker_count(name, monkeypatch):
    make, k, trials, seed, pool = FORKED_PROBES[name]
    g = make()
    expected = oracle_probe(g, k, trials, seed, pool).to_json()
    for workers in WORKER_COUNTS:
        got = probe_in(monkeypatch, workers, g, k, trials, seed, pool=pool)
        assert got.to_json() == expected, workers
    assert_no_children()


def test_probe_on_small_graphs_is_the_same_for_any_worker_count(monkeypatch):
    for seed in range(12):
        g, rng = random_graph(seed)
        k = 1 + rng.below(3)
        pool = tuple(range(1, k + 1 + rng.below(3)))
        trials = 1 + rng.below(80)  # some below the worker count
        expected = oracle_probe(g, k, trials, seed, pool).to_json()
        for workers in WORKER_COUNTS:
            got = probe_in(monkeypatch, workers, g, k, trials, seed, pool=pool)
            assert got.to_json() == expected, (seed, workers)
    assert_no_children()


def test_a_probe_of_4133_trials_forks_once_per_extra_worker(monkeypatch):
    # All trials run in one pass, however many: no process holds another's lists.
    g = _cycle(3)
    trials = 4096 + 37
    expected = oracle_probe(g, 2, trials, 9, (1, 2, 3))
    assert 0 < expected.successes < trials
    forks, fds = count_forks(monkeypatch), free_fds()
    for workers in WORKER_COUNTS:
        forks.clear()
        got = probe_in(monkeypatch, workers, g, 2, trials, 9, pool=(1, 2, 3))
        assert got.to_json() == expected.to_json(), workers
        assert len(forks) == workers - 1, workers
    assert_no_children()
    assert free_fds() == fds


def test_a_probe_of_no_trials_reports_0_and_forks_nothing(monkeypatch):
    forks = count_forks(monkeypatch)
    for workers in WORKER_COUNTS:
        got = probe_in(monkeypatch, workers, mirzakhani(), 3, 0, 0, pool=(1, 2, 3, 4))
        assert (got.trials, got.successes) == (0, 0), workers
    assert forks == []


def record_draws(monkeypatch, path):
    """Make every process append "<pid> <trial seed>" to path for each trial
    it draws; return a function that reads the records back."""
    real_draws = choose._mask_draws

    def recording_draws(n, k, ncolors):
        draws = real_draws(n, k, ncolors)

        def trial_masks(trial_seed):
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{os.getpid()} {trial_seed}\n".encode())
            finally:
                os.close(fd)
            return draws(trial_seed)

        return trial_masks

    monkeypatch.setattr(choose, "_mask_draws", recording_draws)

    def records():
        if not path.exists():
            return []
        return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]

    return records


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_every_trial_is_drawn_once_and_this_process_claims_whole_chunks(
    workers, tmp_path, monkeypatch
):
    records = record_draws(monkeypatch, tmp_path / "draws")
    got = probe_in(monkeypatch, workers, mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4))
    assert got.successes == 649
    assert_no_children()
    drawn = records()
    assert sorted(seed for _, seed in drawn) == sorted(mix64(0) ^ t for t in range(1000))
    mine = [seed for pid, seed in drawn if pid == os.getpid()]  # mix64(0) = 0: seed t is trial t
    starts = sorted({t - t % choose.CHUNK for t in mine})
    assert mine == [t for s in starts for t in range(s, min(s + choose.CHUNK, 1000))]
    assert len({pid for pid, _ in drawn}) <= workers


def test_a_probe_of_more_chunks_than_tokens_grows_its_chunks(monkeypatch):
    # 2 * MAX_CHUNKS * CHUNK trials: 2,048 chunks of CHUNK, but the tokens
    # go in one write of at most 4,096 bytes, so 1,024 chunks of 2 * CHUNK.
    g, trials = _cycle(3), 2 * choose.MAX_CHUNKS * choose.CHUNK
    expected = oracle_probe(g, 2, trials, 9, (1, 2, 3))
    assert 0 < expected.successes < trials
    parent, real_write, written = os.getpid(), os.write, []

    def recording_write(fd, data):
        if os.getpid() == parent:
            written.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", recording_write)
    fds = free_fds()
    for workers in WORKER_COUNTS:
        written.clear()
        got = probe_in(monkeypatch, workers, g, 2, trials, 9, pool=(1, 2, 3))
        assert got.to_json() == expected.to_json(), workers
        assert written == [4096], workers
    assert_no_children()
    assert free_fds() == fds


def test_a_child_that_claims_no_chunk_still_gives_the_report(tmp_path, monkeypatch):
    # The child waits in os.fork until this process has drawn every trial.
    g, trials = _cycle(3), 200
    records = record_draws(monkeypatch, tmp_path / "draws")
    real_fork = os.fork

    def late_fork():
        pid = real_fork()
        deadline = time.monotonic() + 30
        while not pid and len(records()) < trials and time.monotonic() < deadline:
            time.sleep(0.005)
        return pid

    monkeypatch.setattr(os, "fork", late_fork)
    fds = free_fds()
    got = probe_in(monkeypatch, 2, g, 2, trials, 0, pool=(1, 2, 3))
    assert got.to_json() == oracle_probe(g, 2, trials, 0, (1, 2, 3)).to_json()
    assert {pid for pid, _ in records()} == {os.getpid()}
    assert_no_children()
    assert free_fds() == fds


def test_this_process_holds_no_lists_of_a_forked_slice(monkeypatch):
    import tracemalloc

    g = mirzakhani()
    g.int_adj, g.int_order, g.int_edges  # built before tracing
    monkeypatch.setattr(choose, "_workers", lambda trials: 2)
    tracemalloc.start()
    try:
        random_probe(g, 5, 1024, 0, pool=range(1, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250_000, peak  # bytes; holding a child's lists here takes 1.2 MB
    assert_no_children()


def test_probe_pinned_successes_on_m_for_any_worker_count(monkeypatch):
    for workers in WORKER_COUNTS:
        got = probe_in(monkeypatch, workers, mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4))
        assert got.successes == 649, workers
    assert_no_children()


def test_workers_one_per_cpu_each_with_enough_trials():
    least = choose.MIN_TRIALS_PER_WORKER
    assert choose._workers(0) == choose._workers(least - 1) == 1
    assert choose._workers(2 * least) == min(2, _cpus())
    assert choose._workers(10**9) == _cpus()


def test_workers_stay_one_while_another_thread_runs():
    import threading

    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert choose._workers(10**9) == 1
    finally:
        done.set()
        thread.join()


def test_the_probe_forks_once_per_extra_worker(monkeypatch):
    forks, fds = count_forks(monkeypatch), free_fds()
    assert random_probe(mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4)).successes == 649
    assert len(forks) == choose._workers(1000) - 1
    assert free_fds() == fds
    forks.clear()
    monkeypatch.setattr(choose, "_workers", lambda trials: 1)
    random_probe(mirzakhani(), 3, 30, 0, pool=(1, 2, 3, 4))
    assert forks == []
    assert_no_children()


def test_a_budget_spent_in_a_child_raises_the_serial_error(monkeypatch):
    # Within 49 nodes trials 0-891 decide and trial 892 (54 nodes) does not,
    # whichever process claims it.
    messages = set()
    for workers in WORKER_COUNTS:
        with pytest.raises(BudgetExhausted) as err:
            probe_in(monkeypatch, workers, mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4), budget=49)
        messages.add(str(err.value))
        assert_no_children()
    assert messages == {"trial 892 undecided within 49 nodes; probe aborted"}


def test_a_bad_witness_in_a_child_raises_the_serial_error(monkeypatch):
    # Only trial 750's witness is doctored, in whichever process decides it:
    # a SAT trial that any process may claim.
    g = mirzakhani()
    bad = choose._mask_draws(g.n, 3, 4)(750)
    assert choose._decide_masks(g, bad, DEFAULT_BUDGET)[0] == engine.SAT
    real = choose.engine.solve_colors

    def doctors_trial_750(adj, order, domains, budget, mode):
        status, bits, *rest = real(adj, order, domains, budget, mode)
        if bits is not None and list(domains) == bad:
            bits = (bits[0],) * len(adj)
        return (status, bits, *rest)

    monkeypatch.setattr(choose.engine, "solve_colors", doctors_trial_750)
    messages = set()
    for workers in WORKER_COUNTS:
        with pytest.raises(RuntimeError, match="invalid witness") as err:
            probe_in(monkeypatch, workers, g, 3, 1000, 0, pool=(1, 2, 3, 4))
        messages.add(str(err.value))
        assert_no_children()
    assert len(messages) == 1


def fork_after_each_claim(monkeypatch, tmp_path):
    """Make os.fork return in this process only once the child has called
    the returned function, as it does on deciding its first trial, or has
    exited; an exited child is left for the probe to reap."""
    real_fork = os.fork

    def claimed_or_exited(pid):
        exited = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return exited is not None or (tmp_path / str(pid)).exists()

    def fork():
        pid = real_fork()
        deadline = time.monotonic() + 30
        while pid and not claimed_or_exited(pid) and time.monotonic() < deadline:
            time.sleep(0.005)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return lambda: (tmp_path / str(os.getpid())).touch()


@pytest.mark.parametrize(
    "in_child, match",
    [
        (lambda: 1 // 0, "failed at trial 0, which does not fail here"),
        (lambda: os._exit(1), "exited without a result"),
    ],
)
def test_a_child_failure_that_does_not_recur_here_names_its_trials(
    in_child, match, tmp_path, monkeypatch
):
    # Each child claims its first chunk before its fork returns here, child
    # 1 chunk 0 and child 2 chunk 1, and fails only once both have claimed,
    # so both fail: the least trial that failed is named.
    parent, real = os.getpid(), choose._decide_masks
    claimed = fork_after_each_claim(monkeypatch, tmp_path)

    def fails_in_children(g, masks, budget):
        if os.getpid() != parent:
            claimed()
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            in_child()
        return real(g, masks, budget)

    monkeypatch.setattr(choose, "_decide_masks", fails_in_children)
    with pytest.raises(RuntimeError, match=f"^a probe worker {match}$"):
        probe_in(monkeypatch, 3, mirzakhani(), 3, 200, 0, pool=(1, 2, 3, 4))
    assert_no_children()


def test_a_child_failure_ends_the_claims_of_every_process(tmp_path, monkeypatch):
    # The child fails at its first trial, in chunk 0, and takes every chunk
    # left before it exits; fork returns here only then, so this process
    # claims no chunk and decides only trial 0, to check it again.
    parent, real = os.getpid(), choose._decide_masks
    fork_after_each_claim(monkeypatch, tmp_path)
    decided_here = []

    def fails_in_children(g, masks, budget):
        if os.getpid() != parent:
            1 // 0
        decided_here.append(masks)
        return real(g, masks, budget)

    monkeypatch.setattr(choose, "_decide_masks", fails_in_children)
    match = "^a probe worker failed at trial 0, which does not fail here$"
    with pytest.raises(RuntimeError, match=match):
        probe_in(monkeypatch, 2, mirzakhani(), 3, 200, 0, pool=(1, 2, 3, 4))
    assert len(decided_here) == 1
    assert_no_children()


def test_children_still_running_are_killed_when_this_process_raises(monkeypatch):
    parent, real = os.getpid(), choose._decide_masks

    def stalls_in_children(g, masks, budget):
        if os.getpid() != parent:
            time.sleep(60)
        return real(g, masks, budget)

    monkeypatch.setattr(choose, "_decide_masks", stalls_in_children)
    fds, start = free_fds(), time.monotonic()
    with pytest.raises(BudgetExhausted, match="^trial 0 undecided within 1 nodes"):
        probe_in(monkeypatch, 4, mirzakhani(), 3, 400, 0, pool=(1, 2, 3, 4), budget=1)
    assert time.monotonic() - start < 30
    assert_no_children()
    assert free_fds() == fds


@pytest.mark.parametrize("workers", [2, 4])
def test_a_failure_here_decides_the_chunks_that_killed_children_claimed(
    workers, tmp_path, monkeypatch
):
    # Each child claims chunk i - 1 before fork i and stalls, so this process
    # claims chunk workers - 1 and fails there, while trial 0 fails first.
    parent, real = os.getpid(), choose._decide_masks
    claimed = fork_after_each_claim(monkeypatch, tmp_path)

    def stalls_in_children(g, masks, budget):
        if os.getpid() != parent:
            claimed()
            time.sleep(60)
        return real(g, masks, budget)

    monkeypatch.setattr(choose, "_decide_masks", stalls_in_children)
    fds, start = free_fds(), time.monotonic()
    with pytest.raises(BudgetExhausted, match="^trial 0 undecided within 1 nodes"):
        probe_in(monkeypatch, workers, mirzakhani(), 3, 400, 0, pool=(1, 2, 3, 4), budget=1)
    assert time.monotonic() - start < 30
    assert_no_children()
    assert free_fds() == fds


def test_a_failure_here_decides_again_only_the_chunk_a_killed_child_left(
    tmp_path, monkeypatch
):
    # This process fails every trial from 500 on that it draws, and the child
    # fails none: the child reported each chunk it finished, so only the one
    # it was deciding when killed is drawn again here.
    parent, real = os.getpid(), choose._decide_trial
    records = record_draws(monkeypatch, tmp_path / "draws")

    def fails_here_from_500(g, masks, t, budget):
        if os.getpid() == parent and t >= 500:
            raise RuntimeError(f"trial {t} fails here")
        return real(g, masks, t, budget)

    monkeypatch.setattr(choose, "_decide_trial", fails_here_from_500)
    with pytest.raises(RuntimeError, match="^trial [0-9]+ fails here$"):
        probe_in(monkeypatch, 2, mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4))
    assert_no_children()
    drawn = records()
    here = {seed for pid, seed in drawn if pid == parent}
    there = {seed for pid, seed in drawn if pid != parent}
    assert len(here & there) <= choose.CHUNK, sorted(here & there)


def test_a_failing_fork_raises_and_leaves_no_child_or_descriptor(monkeypatch):
    # The first child is running when the second fork fails.
    real_fork, real_pipe, calls, opened = os.fork, os.pipe, [], []

    def second_fork_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return real_fork()

    def recording_pipe():
        fds = real_pipe()
        opened.extend(fds)
        return fds

    fds = free_fds()
    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(os, "pipe", recording_pipe)
    with pytest.raises(BlockingIOError, match="fork refused"):
        probe_in(monkeypatch, 3, mirzakhani(), 3, 1000, 0, pool=(1, 2, 3, 4))
    assert len(calls) == 2
    assert_no_children()
    # free_fds sees only the two lowest descriptors; each pipe end is checked.
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert free_fds() == fds


def test_probe_budget_spent_in_this_process_exits_3_and_leaves_no_child(
    tmp_path, capsys, monkeypatch
):
    graph = tmp_path / "m.json"
    graph.write_text(graphio.graph_to_json(mirzakhani()))
    monkeypatch.setattr(choose, "_workers", lambda trials: 4)
    code = main(
        ["choosability", "--graph", str(graph), "--probe", "--k", "3",
         "--trials", "1000", "--budget", "1"]
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exhausted: trial 0 undecided within 1 nodes; probe aborted\n"
    assert_no_children()


def test_children_flush_no_inherited_output_and_run_no_exit_handler():
    # stdout is a pipe, so block-buffered (PYTHONUNBUFFERED is dropped): a
    # child that flushed its copy of the buffer, or ran the exit handler,
    # would print it again.
    code = (
        "import atexit, sys\n"
        "from colorlab import choose\n"
        "from colorlab.build import mirzakhani\n"
        "choose._workers = lambda trials: 4\n"
        "atexit.register(print, 'exit handler')\n"
        "sys.stdout.write('buffered ')\n"
        "print(choose.random_probe(mirzakhani(), 3, 200, 0, pool=(1, 2, 3, 4)).successes)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(colorlab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered 129\nexit handler\n"


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
