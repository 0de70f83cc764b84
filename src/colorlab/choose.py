"""Choosability analyses.

Three levels of ambition: verify a concrete non-k-choosability witness
(a single UNSAT solve), decide k-choosability of a small graph exhaustively
(every list assignment up to color renaming), and probe statements that are
out of exact reach with seeded random trials.  A k-choosability verdict is
always relative to the color pool the lists were drawn from; there is no
cheap universal pool-size bound, so the pool is an explicit parameter and
travels with every report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from colorlab import engine
from colorlab.build import ListAssignment, make_lists
from colorlab.graph import Graph, GraphError, VertexId
from colorlab.solve import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    check_mask_witness,
    check_palette,
    decide,
)

_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class ChoosabilityVerdict:
    """Outcome of a choosability question.

    kind: WitnessConfirmed | WitnessRefuted | Choosable | NotChoosable |
    Exhausted.  NotChoosable carries the offending assignment (all lists of
    size k, decide = UNSAT); WitnessRefuted carries the reason and, when the
    reason is a found coloring, that coloring.
    """

    kind: str
    reason: str = ""
    assignment: Optional[ListAssignment] = None
    coloring: Optional[dict[VertexId, int]] = None
    examined: int = 0  # list assignments decided (exhaustive mode)
    nodes: int = 0  # total search nodes spent
    propagations: int = 0  # colors propagation struck from domains (witness mode)


def verify_not_choosable(
    g: Graph, lists: ListAssignment, k: int, budget: int = DEFAULT_BUDGET
) -> ChoosabilityVerdict:
    """Check a claimed non-k-choosability witness.

    Confirmed iff every list has exactly k colors and no proper coloring
    from the lists exists.  Budget exhaustion raises; it is never a verdict.
    """
    wrong = [v for v in g.vertices if v in lists.lists and len(lists.list_of(v)) != k]
    if wrong:
        v = wrong[0]
        return ChoosabilityVerdict(
            "WitnessRefuted",
            reason=f"list of {v} has {len(lists.list_of(v))} colors, expected {k}",
        )
    res = decide(g, lists, budget)
    if res.status == "EXHAUSTED":
        raise BudgetExhausted(f"witness check undecided within {budget} nodes")
    if res.sat:
        return ChoosabilityVerdict(
            "WitnessRefuted",
            reason="a proper coloring from the lists exists",
            coloring=res.witness,
            nodes=res.nodes,
            propagations=res.propagations,
        )
    return ChoosabilityVerdict(
        "WitnessConfirmed", nodes=res.nodes, propagations=res.propagations
    )


def _canonical_rows(k: int, used: int, cap: int) -> list[tuple[int, ...]]:
    """Sorted k-subsets of 1..cap in first-occurrence canonical form.

    Colors above `used` must form the consecutive run used+1, used+2, ...;
    anything else would not be the least representative of its renaming
    orbit.  Ascending tuple order.
    """
    top = min(used + k, cap)
    rows = []
    for comb in itertools.combinations(range(1, top + 1), k):
        fresh = [c for c in comb if c > used]
        if fresh == list(range(used + 1, used + 1 + len(fresh))):
            rows.append(comb)
    return rows


def _check_list_size(k: int, colors: Sequence[int]) -> None:
    if k < 1:
        raise GraphError(f"list size must be at least 1, got {k}")
    if len(colors) < k:
        raise GraphError(f"pool of {len(colors)} colors cannot fill lists of size {k}")


def choosability_exhaustive(
    g: Graph,
    k: int,
    pool: Iterable[int],
    budget: int = DEFAULT_BUDGET,
    symmetry: bool = True,
) -> ChoosabilityVerdict:
    """Decide k-choosability of a small graph relative to a color pool.

    Iterates every assignment of k-subsets of the pool to the vertices,
    canonicalized up to color renaming (first-occurrence form), and solves
    each.  The first UNSAT assignment found is the lexicographically least
    bad one.  `budget` bounds the *total* search nodes across assignments.
    `symmetry=False` disables the renaming canonicalization; it exists so
    tests can confirm the pruning changes nothing.
    """
    colors = sorted(set(pool))
    _check_list_size(k, colors)
    order = g.vertices
    n = len(order)
    spent = 0
    examined = 0
    rows_cache: dict[int, list[tuple[int, ...]]] = {}

    def rows_for(used: int) -> list[tuple[int, ...]]:
        if not symmetry:
            return list(itertools.combinations(range(1, len(colors) + 1), k))
        if used not in rows_cache:
            rows_cache[used] = _canonical_rows(k, used, len(colors))
        return rows_cache[used]

    def assignments():
        # Lexicographic depth-first order on an explicit stack: one frame
        # (row iterator, highest color used before it) per assigned vertex.
        chosen: list[tuple[int, ...]] = []
        stack = [(iter(rows_for(0)), 0)]
        while stack:
            rows, used = stack[-1]
            del chosen[len(stack) - 1 :]
            row = next(rows, None)
            if row is None:
                stack.pop()
            elif len(chosen) + 1 == n:
                yield (*chosen, row)
            else:
                chosen.append(row)
                used = max(used, row[-1]) if symmetry else 0
                stack.append((iter(rows_for(used)), used))

    for rows in assignments() if n else [()]:
        lists = make_lists(
            colors, {v: tuple(colors[c - 1] for c in row) for v, row in zip(order, rows)}
        )
        res = decide(g, lists, budget - spent)
        spent += res.nodes
        examined += 1
        if res.status == "EXHAUSTED":
            return ChoosabilityVerdict(
                "Exhausted",
                reason=f"node budget {budget} ran out after {examined} assignments",
                examined=examined,
                nodes=spent,
            )
        if not res.sat:
            return ChoosabilityVerdict(
                "NotChoosable", assignment=lists, examined=examined, nodes=spent
            )
    return ChoosabilityVerdict("Choosable", examined=examined, nodes=spent)


class SplitMix64:
    """Fixed, portable PRNG (splitmix64) so probes reproduce anywhere."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, m: int) -> int:
        """Uniform integer in [0, m) by rejection (no modulo bias)."""
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        lim = (1 << 64) - (1 << 64) % m  # the largest multiple of m <= 2**64
        while True:
            r = self.next()
            if r < lim:
                return r % m

    def sample(self, items: Sequence[int], k: int) -> tuple[int, ...]:
        """Sorted uniform k-subset via partial Fisher-Yates."""
        arr = list(items)
        if not 0 <= k <= len(arr):
            raise ValueError(f"sample() needs 0 <= k <= {len(arr)}, got {k}")
        for i in range(k):
            j = i + self.below(len(arr) - i)
            arr[i], arr[j] = arr[j], arr[i]
        return tuple(sorted(arr[:k]))


@dataclass(frozen=True)
class ProbeReport:
    graph: str
    k: int
    trials: int
    successes: int
    seed: int
    pool: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def default_pool(k: int) -> tuple[int, ...]:
    """The default probe pool {1..2k}."""
    return tuple(range(1, 2 * k + 1))


def random_probe(
    g: Graph,
    k: int,
    trials: int,
    seed: int,
    pool: Optional[Iterable[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> ProbeReport:
    """Solve `trials` random k-list assignments drawn from the pool.

    Trial t draws its lists from a SplitMix64 stream seeded with
    seed XOR t, one sorted k-subset per vertex in VertexId order, so trials
    are independent and the report depends only on the arguments.  A solve
    that exhausts its budget aborts the probe (raises), because a truncated
    success count would be silently wrong.

    The subsets are drawn as palette positions and go to the kernel as bit
    masks; every SAT witness is re-checked against those masks over
    ``Graph.int_edges`` by check_mask_witness.
    """
    colors = sorted(set(pool)) if pool is not None else list(default_pool(k))
    _check_list_size(k, colors)
    if trials < 0:
        raise GraphError(f"trial count must be nonnegative, got {trials}")
    check_palette(len(colors))
    n = g.n
    adj = g.int_adj
    edges = g.int_edges
    positions = range(len(colors))
    mask_of: dict[tuple[int, ...], int] = {}
    successes = 0
    for t in range(trials):
        rng = SplitMix64(seed ^ t)
        masks = []
        for _ in range(n):
            drawn = rng.sample(positions, k)
            mask = mask_of.get(drawn)
            if mask is None:
                mask = mask_of[drawn] = sum(1 << i for i in drawn)
            masks.append(mask)
        status, bits, _, _, _ = engine.solve_colors(
            n, adj, masks, budget, engine.MODE_DECIDE
        )
        if status == engine.EXHAUSTED:
            raise BudgetExhausted(
                f"trial {t} undecided within {budget} nodes; probe aborted"
            )
        if status == engine.SAT:
            check_mask_witness(edges, masks, bits)
            successes += 1
    return ProbeReport(
        graph=f"{g.n} vertices, {g.m} edges",
        k=k,
        trials=trials,
        successes=successes,
        seed=seed,
        pool=tuple(colors),
    )
