"""Mechanical replay of the non-4-choosability argument.

The argument is a chain of forcing claims about the canonical lists: a
pinned wheel color forces colors elsewhere on the wheel; each section's
gadget must use its section color somewhere on its twelve outer corners;
without that color the central wheel's corners fall into exactly three
color families, each of which exhausts the central hub's list.  Chained
over the four sections, the apex (adjacent to every corner, list
{1,2,3,4}) is left without a color.  Every "forces" here is replayed as
an exact enumeration or UNSAT check — no symbolic reasoning.  An
enumeration that runs out of budget raises BudgetExhausted: no partial
report is made.

``theorem_replay`` decides no claim itself: it runs the registered claims
in THEOREM_CLAIMS (the four section lemmas, the direct monolithic UNSAT
solve, planarity and the 3-coloring) through ``verify.run_claim`` and
checks only the two apex facts here.  ``GadgetLemma`` and ``gadget_lemma``
live next to the registry in ``colorlab.verify`` and are re-exported.
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
    wheel4,
    wheel_lists,
)
from colorlab.graph import Graph, GraphError, VertexId, corner, delete_vertices, hub
from colorlab.solve import DEFAULT_BUDGET, BudgetExhausted, decide, enumerate_colorings
from colorlab.verify import GadgetLemma, gadget_lemma  # noqa: F401 - re-exported
from colorlab.verify import run_claim

LEMMAS = tuple(f"gadget-lemma-{j}" for j in range(1, 5))
# The registered claims the theorem rests on, in the order they are run.
THEOREM_CLAIMS = (*LEMMAS, "not-4-choosable", "planarity", "chromatic-number-3")

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


def _colorings(
    g: Graph, lists: ListAssignment, watch: tuple[VertexId, ...], budget: int
) -> list[tuple[int, ...]]:
    """The colors of ``watch`` in each proper list coloring, in enumeration order."""
    seen: list[tuple[int, ...]] = []
    res = enumerate_colorings(
        g, lists, lambda col: seen.append(tuple(col[v] for v in watch)), budget
    )
    if res.status == "EXHAUSTED":
        raise BudgetExhausted(
            f"enumeration incomplete within {budget} nodes after {len(seen)} colorings"
        )
    return seen


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
    colorings = _colorings(g, pinned_lists, g.vertices, budget)
    # zip(*colorings) gives each vertex the colors it takes, in vertex order.
    forced = {
        v: seen[0]
        for v, seen in zip(g.vertices, zip(*colorings))
        if len(set(seen)) == 1 and v != pin_vertex
    }
    return ForcingReport({pin_vertex: pin_color}, forced, len(colorings))


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
    colorings = _colorings(hubless, reduced, CENTRAL_CORNERS, budget)
    patterns = set(colorings)

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

    hub_blocked = all(set(f) >= set(hub_list) for f in FAMILIES)
    passed = patterns == set(FAMILIES) and hub_blocked and outside is not None
    reason = "" if passed else "pattern classification failed"
    return FamiliesResult(
        passed,
        len(colorings),
        tuple(sorted(patterns)),
        hub_list,
        hub_blocked,
        outside,
        reason=reason,
    )


@dataclass(frozen=True)
class TheoremCertificate:
    """Assembled evidence that M is planar, 3-colorable, and not 4-choosable:
    run_claim's (ok, certificate) for each of THEOREM_CLAIMS, by name, and
    the two apex facts."""

    claims: dict[str, tuple[bool, dict]]
    apex_covers_corners: bool
    apex_list: tuple[int, ...]
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict.startswith("certified")

    def to_json(self) -> str:
        direct_ok, direct = self.claims["not-4-choosable"]
        three_ok, chromatic = self.claims["chromatic-number-3"]
        payload = {
            "sections": [self.claims[name][1] for name in LEMMAS],
            "apex_covers_corners": self.apex_covers_corners,
            "apex_list": list(self.apex_list),
            "planar": self.claims["planarity"][0],
            "direct_solve": (
                {"status": "UNSAT", "nodes": direct["nodes"],
                 "propagations": direct["propagations"]}
                if direct_ok
                else direct
            ),
            "coloring3": chromatic["coloring"] if three_ok else None,
            "verdict": self.verdict,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def transcript(self) -> str:
        """Human-readable proof transcript."""
        lines = ["Theorem replay: a planar 3-colorable graph that is not 4-choosable", ""]
        for j, name in enumerate(LEMMAS, 1):
            ok, s = self.claims[name]
            detail = s.get("error") or (
                f"without it: {s['reduced']['status']} in {s['reduced']['nodes']} "
                f"nodes; with it: {s['unreduced']['status']}"
            )
            lines.append(
                f"  [{_mark(ok)}] section {j}: color {j} is forced onto "
                f"the outer corners ({detail})"
            )
        direct_ok, direct = self.claims["not-4-choosable"]
        lines += [
            f"  [{_mark(self.apex_covers_corners)}] the apex is adjacent to exactly "
            "the 42 corners",
            f"  [{_mark(self.apex_list == (1, 2, 3, 4))}] the apex list is "
            f"{set(self.apex_list)}",
            "  => any proper list coloring would place colors 1..4 on the apex's",
            "     neighborhood, leaving the apex without a color.",
            f"  [ok] direct solve agrees: UNSAT in {direct['nodes']} nodes, "
            f"{direct['propagations']} propagations"
            if direct_ok
            else f"  [FAILED] direct solve: {_why(direct)}",
            f"  [{_mark(self.claims['planarity'][0])}] planarity: face census has "
            "Euler characteristic 2",
            f"  [{_mark(self.claims['chromatic-number-3'][0])}] a verified 3-coloring "
            "exists",
            "",
            f"Verdict: {self.verdict}",
        ]
        return "\n".join(lines)


def _mark(ok: bool) -> str:
    return "ok" if ok else "FAILED"


def _why(cert: dict) -> str:
    """A failed certificate's own explanation, if it gives one."""
    return cert.get("reason") or cert.get("error") or ""


def theorem_replay(
    lists: Optional[ListAssignment] = None, budget: int = DEFAULT_BUDGET
) -> TheoremCertificate:
    """Replay the whole argument on M and cross-validate it against direct UNSAT."""
    g = mirzakhani()
    ls = lists if lists is not None else canonical_lists()
    claims = {name: run_claim(name, g, ls, budget) for name in THEOREM_CLAIMS}
    failures = [
        f"{name} ({_why(cert)})" if _why(cert) else name
        for name, (ok, cert) in claims.items()
        if not ok
    ]

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

    if failures:
        verdict = "not certified: " + "; ".join(failures)
    else:
        verdict = "certified: planar, 3-colorable, and not 4-choosable"
    return TheoremCertificate(claims, coverage, apex_list, verdict)
