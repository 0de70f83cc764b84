"""Mechanical replay of the non-4-choosability argument.

The argument is a chain of forcing claims about the canonical lists: a
pinned wheel color forces colors elsewhere on the wheel; each section's
gadget must use its section color somewhere on its twelve outer corners;
without that color the central wheel's corners fall into exactly three
color families, each of which exhausts the central hub's list.  Chained
over the four sections, the apex (adjacent to every corner, list
{1,2,3,4}) is left without a color.  Every "forces" here is replayed as
an exact enumeration or UNSAT check — no symbolic reasoning — and the
structured conclusion is cross-validated against the direct monolithic
UNSAT solve of the whole graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from colorlab.build import (
    ListAssignment,
    canonical_lists,
    gadget,
    mirzakhani,
    section_gadget,
    uniform_lists,
    wheel4,
    wheel_lists,
)
from colorlab.graph import Graph, GraphError, VertexId, corner, delete_vertices, hub
from colorlab.solve import DEFAULT_BUDGET, decide, enumerate_colorings, verify_coloring
from colorlab.verify import run_claim

# The central wheel of the gadget and its corners in (u, v, w, x) =
# (nw, ne, se, sw) order; their lists forbid 3, 2, 4, 5 respectively.
CENTRAL_HUB = hub(1, 0)
CENTRAL_CORNERS: tuple[VertexId, ...] = (
    corner(1, 1),
    corner(3, 1),
    corner(3, -1),
    corner(1, -1),
)

# The only (u, v, w, x) color patterns once color 1 is banned from the
# gadget's outer corners; each uses all of {2,3,4,5}.
FAMILIES: tuple[tuple[int, int, int, int], ...] = (
    (2, 4, 5, 3),
    (4, 5, 3, 2),
    (5, 3, 2, 4),
)


@dataclass(frozen=True)
class ForcingReport:
    """What a pinned color forces, by exhaustive enumeration.

    Every proper list coloring extending ``pinned`` assigns each vertex in
    ``forced`` its stated color.  ``examined`` counts those colorings; an
    empty ``forced`` with examined == 0 means the pin admits no coloring
    at all (vacuous, so nothing is reported as forced).
    """

    pinned: dict[VertexId, int]
    forced: dict[VertexId, int]
    examined: int


def wheel_forcing(
    pin_vertex: VertexId, pin_color: int, budget: int = DEFAULT_BUDGET
) -> ForcingReport:
    """Enumerate wheel colorings extending a single pin; report the forced set."""
    g = wheel4()
    lists = wheel_lists()
    if pin_vertex not in lists.lists:
        raise GraphError(f"{pin_vertex} is not a wheel vertex")
    if pin_color not in lists.list_of(pin_vertex):
        raise GraphError(
            f"pinned color {pin_color} is outside the list of {pin_vertex}"
        )
    pinned_lists = ListAssignment(
        lists.palette,
        {v: ((pin_color,) if v == pin_vertex else lists.list_of(v)) for v in g.vertices},
    )
    candidates: dict[VertexId, set[int]] = {v: set() for v in g.vertices}
    count = [0]

    def visit(coloring: dict[VertexId, int]) -> None:
        count[0] += 1
        for v, c in coloring.items():
            candidates[v].add(c)

    enumerate_colorings(g, pinned_lists, visit, budget)
    forced = {
        v: next(iter(cs))
        for v, cs in candidates.items()
        if len(cs) == 1 and v != pin_vertex
    }
    return ForcingReport(
        pinned={pin_vertex: pin_color},
        forced=dict(sorted(forced.items())),
        examined=count[0],
    )


@dataclass(frozen=True)
class GadgetLemma:
    """Section j must use color j on its twelve outer corners.

    Certified by two solves: the section's lists with color j removed
    from the outer corners are UNSAT, and unreduced they are SAT (so the
    lemma is about the color, not about an impossible gadget).
    """

    section: int
    passed: bool
    reduced_status: str
    unreduced_status: str
    reduced_nodes: int
    unreduced_nodes: int
    counterexample: Optional[dict[VertexId, int]] = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "section": self.section,
            "passed": self.passed,
            "reduced": {"status": self.reduced_status, "nodes": self.reduced_nodes},
            "unreduced": {"status": self.unreduced_status, "nodes": self.unreduced_nodes},
            "reason": self.reason,
        }


def gadget_lemma(
    j: int,
    m: Optional[Graph] = None,
    lists: Optional[ListAssignment] = None,
    budget: int = DEFAULT_BUDGET,
) -> GadgetLemma:
    """Check the outer-corner color lemma for section j of M."""
    g = m if m is not None else mirzakhani()
    ls = lists if lists is not None else canonical_lists()
    sub, outer, _ = section_gadget(g, j)
    section_lists = ls.restrict(sub.vertices)
    reduced = section_lists.without_color(outer, j)
    r_red = decide(sub, reduced, budget)
    r_full = decide(sub, section_lists, budget)
    if r_red.status == "EXHAUSTED" or r_full.status == "EXHAUSTED":
        return GadgetLemma(
            j, False, r_red.status, r_full.status, r_red.nodes, r_full.nodes,
            reason=f"budget {budget} exhausted before the lemma was certified",
        )
    passed = r_red.status == "UNSAT" and r_full.status == "SAT"
    reason = ""
    if r_red.status == "SAT":
        reason = f"section {j} colorable without color {j} on its outer corners"
    elif r_full.status == "UNSAT":
        reason = f"section {j} admits no list coloring at all; the lemma is vacuous"
    return GadgetLemma(
        j,
        passed,
        r_red.status,
        r_full.status,
        r_red.nodes,
        r_full.nodes,
        counterexample=r_red.witness if r_red.status == "SAT" else None,
        reason=reason,
    )


@dataclass(frozen=True)
class FamiliesResult:
    """The three-family collapse of the hubless gadget.

    With color 1 banned from the outer corners, every proper coloring of
    the gadget minus its central hub paints (u, v, w, x) with one of the
    three FAMILIES patterns; each pattern covers {2,3,4,5}, so the central
    hub (list {2,3,4,5}) cannot be colored — the section lemma again, by
    the forcing route.  ``outside_example`` shows a pattern beyond the
    families once color 1 is allowed back, so the ban is what collapses
    the space.
    """

    passed: bool
    examined: int
    patterns: tuple[tuple[int, int, int, int], ...]
    hub_list: tuple[int, ...]
    hub_blocked: bool
    outside_example: Optional[tuple[int, int, int, int]]
    reason: str = ""


def forcing_families(budget: int = DEFAULT_BUDGET) -> FamiliesResult:
    """Enumerate the hubless gadget's colorings and classify the patterns."""
    g, outer = gadget()
    lists = canonical_lists().restrict(g.vertices)
    hub_list = lists.list_of(CENTRAL_HUB)
    hubless = delete_vertices(g, [CENTRAL_HUB])
    for c in CENTRAL_CORNERS:
        if not g.has_edge(CENTRAL_HUB, c):
            raise GraphError(f"central hub is not adjacent to {c}")

    reduced = lists.restrict(hubless.vertices).without_color(outer, 1)
    patterns: set[tuple[int, int, int, int]] = set()
    count = [0]

    def visit(coloring: dict[VertexId, int]) -> None:
        count[0] += 1
        patterns.add(tuple(coloring[c] for c in CENTRAL_CORNERS))

    res = enumerate_colorings(hubless, reduced, visit, budget)
    if res.status == "EXHAUSTED":
        return FamiliesResult(
            False, count[0], tuple(sorted(patterns)), hub_list, False, None,
            reason=f"enumeration exhausted the budget {budget}",
        )

    # With color 1 allowed back, exhibit one coloring outside the families:
    # no family colors a central corner 1, so pinning 1 there suffices.
    unreduced = lists.restrict(hubless.vertices)
    outside: Optional[tuple[int, int, int, int]] = None
    for c in CENTRAL_CORNERS:
        if 1 not in unreduced.list_of(c):
            continue
        pinned = ListAssignment(
            unreduced.palette,
            {v: ((1,) if v == c else unreduced.list_of(v)) for v in hubless.vertices},
        )
        r = decide(hubless, pinned, budget)
        if r.status == "SAT":
            outside = tuple(r.witness[cc] for cc in CENTRAL_CORNERS)
            break

    in_families = patterns == set(FAMILIES)
    hub_blocked = all(set(f) >= set(hub_list) for f in FAMILIES)
    passed = in_families and hub_blocked and count[0] > 0 and outside is not None
    reason = "" if passed else "pattern classification failed"
    return FamiliesResult(
        passed,
        count[0],
        tuple(sorted(patterns)),
        hub_list,
        hub_blocked,
        outside,
        reason=reason,
    )


@dataclass(frozen=True)
class TheoremCertificate:
    """Assembled evidence that M is planar, 3-colorable, and not 4-choosable."""

    sections: tuple[GadgetLemma, ...]
    apex_covers_corners: bool
    apex_list: tuple[int, ...]
    planar: bool
    direct_status: str
    direct_nodes: int
    direct_propagations: int
    coloring3: Optional[dict[VertexId, int]]
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict.startswith("certified")

    def to_json(self) -> str:
        payload = {
            "sections": [s.to_dict() for s in self.sections],
            "apex_covers_corners": self.apex_covers_corners,
            "apex_list": list(self.apex_list),
            "planar": self.planar,
            "direct_solve": {
                "status": self.direct_status,
                "nodes": self.direct_nodes,
                "propagations": self.direct_propagations,
            },
            "coloring3": (
                {str(v): c for v, c in sorted(self.coloring3.items())}
                if self.coloring3 is not None
                else None
            ),
            "verdict": self.verdict,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def transcript(self) -> str:
        """Human-readable proof transcript."""
        lines = ["Theorem replay: a planar 3-colorable graph that is not 4-choosable", ""]
        for s in self.sections:
            mark = "ok" if s.passed else "FAILED"
            lines.append(
                f"  [{mark}] section {s.section}: color {s.section} is forced onto "
                f"the outer corners (without it: {s.reduced_status} in "
                f"{s.reduced_nodes} nodes; with it: {s.unreduced_status})"
            )
        lines.append(
            f"  [{'ok' if self.apex_covers_corners else 'FAILED'}] the apex is "
            "adjacent to exactly the 42 corners"
        )
        lines.append(
            f"  [{'ok' if self.apex_list == (1, 2, 3, 4) else 'FAILED'}] the apex "
            f"list is {set(self.apex_list)}"
        )
        lines.append(
            "  => any proper list coloring would place colors 1..4 on the apex's"
        )
        lines.append(
            "     neighborhood, leaving the apex without a color."
        )
        lines.append(
            f"  [{'ok' if self.direct_status == 'UNSAT' else 'FAILED'}] direct "
            f"solve agrees: {self.direct_status} in {self.direct_nodes} nodes, "
            f"{self.direct_propagations} propagations"
        )
        lines.append(
            f"  [{'ok' if self.planar else 'FAILED'}] planarity: face census has "
            "Euler characteristic 2"
        )
        lines.append(
            f"  [{'ok' if self.coloring3 else 'FAILED'}] a verified 3-coloring exists"
        )
        lines.append("")
        lines.append(f"Verdict: {self.verdict}")
        return "\n".join(lines)


def theorem_replay(
    m: Optional[Graph] = None,
    lists: Optional[ListAssignment] = None,
    budget: int = DEFAULT_BUDGET,
) -> TheoremCertificate:
    """Replay the whole argument and cross-validate it against direct UNSAT."""
    g = m if m is not None else mirzakhani()
    ls = lists if lists is not None else canonical_lists()
    failures = []

    sections = tuple(gadget_lemma(j, g, ls, budget) for j in range(1, 5))
    for s in sections:
        if not s.passed:
            failures.append(f"section {s.section} lemma")

    corners = {v for v in g.vertices if v.kind == "corner"}
    apexes = [v for v in g.vertices if v.kind == "apex"]
    coverage = len(apexes) == 1 and set(g.adj[apexes[0]]) == corners and len(corners) == 42
    if not coverage:
        failures.append("apex coverage")
    apex_list: tuple[int, ...] = ()
    if len(apexes) == 1 and apexes[0] in ls.lists:
        apex_list = ls.list_of(apexes[0])
    if apex_list != (1, 2, 3, 4):
        failures.append("apex list")

    direct = decide(g, ls, budget)
    if direct.status != "UNSAT":
        failures.append(f"direct solve returned {direct.status}")

    planar, planarity = run_claim("planarity", g)
    if not planar:
        error = planarity.get("error")
        failures.append(f"planarity ({error})" if error else "planarity")

    three = decide(g, uniform_lists(g, (1, 2, 3)), budget)
    coloring3 = None
    if three.status == "SAT" and not verify_coloring(g, 3, three.witness):
        coloring3 = three.witness
    else:
        failures.append("3-coloring")

    if failures:
        verdict = "not certified: " + "; ".join(failures)
    else:
        verdict = "certified: planar, 3-colorable, and not 4-choosable"
    return TheoremCertificate(
        sections=sections,
        apex_covers_corners=coverage,
        apex_list=apex_list,
        planar=planar,
        direct_status=direct.status,
        direct_nodes=direct.nodes,
        direct_propagations=direct.propagations,
        coloring3=coloring3,
        verdict=verdict,
    )
