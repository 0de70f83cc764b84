"""Exact list-coloring solves: decide, count, verify, CNF export.

The search itself lives in the kernel module ``colorlab.engine``;
this module translates between structured graphs and the kernels' indexed
form, packages results with the budget used (for reproducibility), and
provides the independent witness checkers (on colorings and on the kernels'
bit masks) plus a CNF export channel for third-party cross-validation.
"""

from __future__ import annotations

import json
from typing import Mapping, NamedTuple, Optional, Sequence

from colorlab import engine
from colorlab.build import ListAssignment, uniform_lists
from colorlab.engine import MAX_PALETTE
from colorlab.graph import Graph, GraphError, VertexId

DEFAULT_BUDGET = 10**7

_STATUS = {engine.UNSAT: "UNSAT", engine.SAT: "SAT", engine.EXHAUSTED: "EXHAUSTED"}

Coloring = Mapping[VertexId, int]


class BudgetExhausted(RuntimeError):
    """A search ran out of node budget where a verdict was required."""


class SolveResult(NamedTuple):
    """Outcome of one decision solve.

    status "SAT" carries a verified witness; "UNSAT" means the search space
    was provably exhausted within the budget; "EXHAUSTED" carries no claim.
    """

    status: str
    witness: Optional[dict[VertexId, int]]
    nodes: int
    propagations: int
    budget: int

    @property
    def sat(self) -> bool:
        return self.status == "SAT"

    def to_json(self) -> str:
        payload = self._asdict()
        if self.witness is not None:
            payload["witness"] = {str(v): c for v, c in self.witness.items()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class CountResult(NamedTuple):
    """Outcome of a counting solve."""

    status: str
    count: int
    nodes: int
    propagations: int
    budget: int

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))


def check_palette(size: int) -> None:
    """Raise GraphError if the kernel cannot branch on ``size`` colors."""
    if size > MAX_PALETTE:
        raise GraphError(f"palette size {size} exceeds {MAX_PALETTE}")


def _indexed(g: Graph, lists: ListAssignment):
    """Translate to the kernels' form: vertex order, integer adjacency, masks."""
    order = g.vertices
    lists.require(order)
    check_palette(len(lists.palette))
    pos = {c: i for i, c in enumerate(lists.palette)}
    domains = [sum(1 << pos[c] for c in lists.list_of(v)) for v in order]
    return order, g.int_adj, domains


def _decode(order, palette, bits) -> dict[VertexId, int]:
    return {v: palette[bits[i].bit_length() - 1] for i, v in enumerate(order)}


def decide(g: Graph, lists: ListAssignment, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Does G admit a proper coloring from these lists?

    Deterministic: variable order is minimum remaining list, ties first by
    the number of times the vertex's list was wiped out in this search (most
    first, the latest first among equal counts), then by degree, most
    neighbors first, then by VertexId order; colors ascending.
    Every SAT witness is re-checked by verify_coloring before being
    returned.
    """
    order, adj, domains = _indexed(g, lists)
    status, bits, nodes, props, _ = engine.solve_colors(
        adj, g.int_order, domains, budget, engine.MODE_DECIDE
    )
    witness = None
    if status == engine.SAT:
        witness = _decode(order, lists.palette, bits)
        bad = verify_coloring(g, lists, witness)
        if bad:
            raise RuntimeError(f"engine produced an invalid witness: {bad[:3]}")
    return SolveResult(_STATUS[status], witness, nodes, props, budget)


def count(g: Graph, lists: ListAssignment, budget: int = DEFAULT_BUDGET) -> CountResult:
    """Exact number of proper list colorings (status EXHAUSTED = lower bound)."""
    _, adj, domains = _indexed(g, lists)
    status, _, nodes, props, found = engine.solve_colors(
        adj, g.int_order, domains, budget, engine.MODE_COUNT
    )
    return CountResult(_STATUS[status], found, nodes, props, budget)


def verify_coloring(g: Graph, lists: ListAssignment, coloring: Coloring) -> list[str]:
    """Independently check a coloring from lists; returns all violations
    (empty = ok).  Plain k-coloring is the lists uniform_lists(g, 1..k).
    Shares no code with the search.
    """
    missing = [v for v in g.vertices if v not in coloring]
    if missing:
        raise GraphError(f"coloring is partial: {len(missing)} vertices unassigned")
    lists.require(g.vertices)
    violations = [
        f"{v}: color {coloring[v]} not in list {lists.list_of(v)}"
        for v in g.vertices
        if coloring[v] not in lists.list_of(v)
    ]
    order = g.vertices
    colors = [coloring[v] for v in order]
    for i, j in g.int_edges:
        if colors[i] == colors[j]:
            violations.append(f"edge {order[i]} -- {order[j]}: both colored {colors[i]}")
    return violations


def check_mask_witness(
    edges: Sequence[tuple[int, int]], domains: Sequence[int], bits: Sequence[int]
) -> None:
    """Independently check a kernel witness on the integer form; raises
    RuntimeError on the first violation.

    domains are the masks the search started from and edges the position
    pairs of ``Graph.int_edges``.  Each vertex must carry exactly one bit,
    inside its mask, and no edge may join two equal bits.  Shares no code
    with the search.
    """
    if len(bits) != len(domains):
        raise RuntimeError(
            f"engine produced an invalid witness: {len(bits)} colors for "
            f"{len(domains)} vertices"
        )
    for i, b in enumerate(bits):
        if b <= 0 or b & (b - 1) or not b & domains[i]:
            raise RuntimeError(
                f"engine produced an invalid witness: vertex {i} has bits {b:#x}, "
                f"mask {domains[i]:#x}"
            )
    for i, j in edges:
        if bits[i] == bits[j]:
            raise RuntimeError(
                f"engine produced an invalid witness: edge {i} -- {j} both {bits[i]:#x}"
            )


class ChromaticResult(NamedTuple):
    k: int
    witness: dict[VertexId, int]
    unsat_below: SolveResult  # the UNSAT (or vacuous k=0) result at k-1


def chromatic_number(g: Graph, budget: int = DEFAULT_BUDGET) -> ChromaticResult:
    """Least k such that G is k-colorable, with certificates for k and k-1."""
    if g.n == 0:
        raise GraphError("chromatic number of the empty graph is undefined here")
    # A non-empty graph has no coloring from zero colors; serves as the
    # below-certificate when k = 1.  The loop returns by k = n at the latest.
    below = SolveResult("UNSAT", None, 0, 0, budget)
    for k in range(1, g.n + 1):
        res = decide(g, uniform_lists(g, range(1, k + 1)), budget)
        if res.status == "EXHAUSTED":
            raise BudgetExhausted(f"budget {budget} exhausted deciding {k}-colorability")
        if res.sat:
            assert res.witness is not None
            return ChromaticResult(k, res.witness, below)
        below = res


class CnfDocument(NamedTuple):
    """Propositional encoding of a list-coloring instance.

    One variable per (vertex, color-in-list) pair; clauses are at-least-one
    per vertex plus one conflict clause per edge per shared color.
    At-most-one clauses are intentionally omitted: any satisfying assignment
    projects to a proper coloring by taking the least true color of each
    vertex, so satisfiability is unchanged.
    """

    nvars: int
    clauses: tuple[tuple[int, ...], ...]
    legend: tuple[tuple[int, VertexId, int], ...]  # (variable, vertex, color)


def to_cnf(g: Graph, lists: ListAssignment) -> CnfDocument:
    """The CNF of (g, lists).  Built from the vertex ids, not through the
    kernels' translation, so it cross-checks the kernels and is not bound
    by their palette limit."""
    order = g.vertices
    lists.require(order)
    var: dict[tuple[VertexId, int], int] = {}
    legend = []
    for v in order:
        for c in lists.list_of(v):
            var[(v, c)] = len(legend) + 1
            legend.append((len(legend) + 1, v, c))
    clauses: list[tuple[int, ...]] = []
    for v in order:
        clauses.append(tuple(var[(v, c)] for c in lists.list_of(v)))
    for u, v in g.edges():
        shared = sorted(set(lists.list_of(u)) & set(lists.list_of(v)))
        for c in shared:
            clauses.append((-var[(u, c)], -var[(v, c)]))
    return CnfDocument(len(legend), tuple(clauses), tuple(legend))
