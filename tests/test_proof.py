"""Replay of the forcing argument: wheel pins, section lemmas, families."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from colorlab.build import ListAssignment, canonical_lists, mirzakhani, section_gadget
from colorlab.graph import GraphError, apex, corner, hub
from colorlab.proof import (
    CENTRAL_CORNERS,
    CENTRAL_HUB,
    FAMILIES,
    THEOREM_CLAIMS,
    forcing_families,
    gadget_lemma,
    theorem_replay,
    wheel_forcing,
)
from colorlab.solve import BudgetExhausted, decide
from colorlab.verify import run_claim

SW, SE, NE, NW = corner(-1, -1), corner(1, -1), corner(1, 1), corner(-1, 1)


# ---------------------------------------------------------- wheel forcing


def test_pinning_sw_5_forces_two_corners():
    report = wheel_forcing(SW, 5)
    assert report.pinned == {SW: 5}
    assert report.forced == {SE: 3, NW: 3}
    assert report.examined == 2


def test_pinning_se_4_forces_two_corners():
    report = wheel_forcing(SE, 4)
    assert report.forced == {SW: 2, NE: 2}
    assert report.examined == 2


def test_every_wheel_coloring_extends_some_pin():
    # sanity: unpinned hub colors partition the full solution count
    total = sum(wheel_forcing(hub(0, 0), c).examined for c in (2, 3, 4, 5))
    free = wheel_forcing(SW, 2).examined + wheel_forcing(SW, 4).examined
    free += wheel_forcing(SW, 5).examined
    assert total == free  # both sums enumerate all proper colorings once


# Every (vertex, color) pin of the wheel lists: what it forces, and how
# many wheel colorings extend it.
WHEEL_PINS = {
    (hub(0, 0), 2): ({}, 6),
    (hub(0, 0), 3): ({}, 6),
    (hub(0, 0), 4): ({}, 6),
    (hub(0, 0), 5): ({}, 6),
    (SW, 2): ({}, 11),
    (SW, 4): ({}, 11),
    (SW, 5): ({NW: 3, SE: 3}, 2),
    (NW, 2): ({SW: 4, NE: 4}, 2),
    (NW, 3): ({}, 11),
    (NW, 5): ({}, 11),
    (SE, 3): ({}, 11),
    (SE, 4): ({SW: 2, NE: 2}, 2),
    (SE, 5): ({}, 11),
    (NE, 2): ({}, 11),
    (NE, 3): ({NW: 5, SE: 5}, 2),
    (NE, 4): ({}, 11),
}


@pytest.mark.parametrize("pin", sorted(WHEEL_PINS), ids=lambda p: f"{p[0]}={p[1]}")
def test_wheel_forcing_pins(pin):
    forced, examined = WHEEL_PINS[pin]
    report = wheel_forcing(*pin)
    assert report.pinned == dict([pin])
    assert list(report.forced.items()) == sorted(forced.items())
    assert report.examined == examined


def test_wheel_forcing_budget_raises():
    # Two nodes see one coloring, which would "force" every vertex.
    with pytest.raises(BudgetExhausted, match="within 2 nodes after 1 colorings"):
        wheel_forcing(NW, 2, budget=2)


def test_pin_must_be_a_wheel_vertex():
    with pytest.raises(GraphError, match="not a wheel vertex"):
        wheel_forcing(corner(9, 9), 2)


def test_pin_must_be_in_the_list():
    with pytest.raises(GraphError, match="outside the list"):
        wheel_forcing(SW, 1)


# --------------------------------------------------------- section lemmas


@pytest.mark.parametrize(
    "section,reduced_nodes,unreduced_nodes",
    [(1, 54, 17), (2, 54, 17), (3, 54, 15), (4, 54, 15)],
)
def test_gadget_lemma_passes(section, reduced_nodes, unreduced_nodes):
    lemma = gadget_lemma(section)
    assert lemma.passed
    assert lemma.reduced_status == "UNSAT"
    assert lemma.unreduced_status == "SAT"
    assert lemma.reduced_nodes == reduced_nodes
    assert lemma.unreduced_nodes == unreduced_nodes
    assert lemma.counterexample is None


def test_gadget_lemma_budget_exhaustion_reported():
    with pytest.raises(BudgetExhausted, match="budget 5 exhausted before the lemma"):
        gadget_lemma(1, budget=5)


def test_gadget_lemma_detects_a_weakened_list():
    # widening one outer corner to the full palette breaks the section-1
    # lemma (and only that one): color 1 is no longer forced there
    m = mirzakhani()
    ls = canonical_lists()
    _, outer, _ = section_gadget(m, 1)
    victim = outer[0]
    mutated = ListAssignment(
        ls.palette,
        {v: ((1, 2, 3, 4, 5) if v == victim else ls.list_of(v)) for v in ls.lists},
    )
    broken = gadget_lemma(1, m, mutated)
    assert not broken.passed
    assert broken.reduced_status == "SAT"
    assert broken.counterexample is not None
    assert "without color 1" in broken.reason
    assert gadget_lemma(2, m, mutated).passed


def test_gadget_lemma_detects_a_vacuous_section():
    # equal singleton lists on adjacent vertices kill all colorings, which
    # must be reported as vacuous rather than as a passing UNSAT
    m = mirzakhani()
    ls = canonical_lists()
    sub, _, _ = section_gadget(m, 1)
    u = next(iter(sub.vertices))
    v = sub.adj[u][0]
    mutated = ListAssignment(
        ls.palette,
        {w: ((2,) if w in (u, v) else ls.list_of(w)) for w in ls.lists},
    )
    lemma = gadget_lemma(1, m, mutated)
    assert not lemma.passed
    assert lemma.unreduced_status == "UNSAT"
    assert "vacuous" in lemma.reason


# -------------------------------------------------------------- families


def test_forcing_families_classification():
    result = forcing_families()
    assert result.passed
    assert result.examined == 1328
    assert result.patterns == tuple(sorted(FAMILIES))
    assert result.hub_list == (2, 3, 4, 5)
    assert result.hub_blocked
    # every family exhausts the hub list, so the hub is blocked
    assert all(set(f) == {2, 3, 4, 5} for f in FAMILIES)


def test_forcing_families_outside_example():
    result = forcing_families()
    assert result.outside_example is not None
    assert result.outside_example not in FAMILIES
    assert 1 in result.outside_example  # only possible once color 1 returns


def test_forcing_families_budget_raises():
    with pytest.raises(BudgetExhausted, match="within 1400 nodes"):
        forcing_families(budget=1400)


def test_central_wheel_constants():
    assert CENTRAL_HUB == hub(1, 0)
    assert CENTRAL_CORNERS == (corner(1, 1), corner(3, 1), corner(3, -1), corner(1, -1))


# ----------------------------------------------------------- equivariance


@settings(deadline=None, max_examples=6)
@given(st.permutations([1, 2, 3, 4, 5]))
def test_unsatisfiability_is_color_equivariant(perm):
    """Relabeling colors by any palette permutation preserves UNSAT."""
    pi = dict(zip((1, 2, 3, 4, 5), perm))
    ls = canonical_lists()
    permuted = ListAssignment(
        ls.palette,
        {v: tuple(sorted(pi[c] for c in ls.list_of(v))) for v in ls.lists},
    )
    assert decide(mirzakhani(), permuted).status == "UNSAT"


# -------------------------------------------------------- theorem replay


def test_theorem_replay_certifies():
    cert = theorem_replay()
    assert cert.certified
    assert cert.verdict == "certified: planar, 3-colorable, and not 4-choosable"
    assert all(cert.claims[f"gadget-lemma-{j}"][0] for j in range(1, 5))
    assert cert.apex_covers_corners
    assert cert.apex_list == (1, 2, 3, 4)
    assert cert.claims["planarity"][0]
    payload = json.loads(cert.to_json())
    assert payload["direct_solve"] == {"status": "UNSAT", "nodes": 2116, "propagations": 8050}
    assert payload["coloring3"] is not None


def test_theorem_replay_serializes():
    cert = theorem_replay()
    payload = json.loads(cert.to_json())
    assert payload["verdict"].startswith("certified")
    assert len(payload["sections"]) == 4
    text = cert.transcript()
    assert "certified" in text
    assert text.count("[ok]") == 9
    assert "[FAILED]" not in text


def test_theorem_replay_rejects_a_widened_apex_list():
    ls = canonical_lists()
    bad = ListAssignment(
        ls.palette,
        {v: ((1, 2, 3, 5) if v == apex() else ls.list_of(v)) for v in ls.lists},
    )
    cert = theorem_replay(lists=bad)
    assert not cert.certified
    assert "apex list" in cert.verdict
    assert "[FAILED]" in cert.transcript()


def test_theorem_replay_runs_the_registered_claims():
    assert THEOREM_CLAIMS == (
        "gadget-lemma-1", "gadget-lemma-2", "gadget-lemma-3", "gadget-lemma-4",
        "not-4-choosable", "planarity", "chromatic-number-3",
    )
    assert set(theorem_replay().claims) == set(THEOREM_CLAIMS)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_gadget_lemma_is_a_registered_claim(j):
    assert run_claim(f"gadget-lemma-{j}", mirzakhani(), canonical_lists()) == (
        True,
        gadget_lemma(j).to_dict(),
    )


def test_theorem_replay_checks_list_sizes():
    # A 3-color list on one corner is not a 4-choosability witness, even
    # though the lists still admit no coloring.
    ls = canonical_lists()
    bad = ListAssignment(
        ls.palette,
        {v: ((1, 2, 4) if v == corner(23, 1) else ls.list_of(v)) for v in ls.lists},
    )
    cert = theorem_replay(lists=bad)
    assert not cert.certified
    assert cert.verdict == (
        "not certified: not-4-choosable "
        "(list of corner:23,1 has 3 colors, expected 4)"
    )
    assert "[FAILED] direct solve: list of corner:23,1 has 3 colors" in cert.transcript()


def test_theorem_replay_names_a_spent_budget_without_a_node_count():
    cert = theorem_replay(budget=5)
    assert not cert.certified
    assert "not-4-choosable (witness check undecided within 5 nodes)" in cert.verdict
    assert all(
        f"gadget-lemma-{j} (budget 5 exhausted" in cert.verdict for j in range(1, 5)
    )
    text = cert.transcript()
    assert "[FAILED] direct solve: witness check undecided within 5 nodes" in text
    assert "0 nodes" not in text


def test_theorem_replay_names_missing_lists():
    # A list assignment without corner:1,1 fails the section-1 lemma with the
    # same message the solver gives, not a bare KeyError.
    ls = canonical_lists()
    bad = ListAssignment(ls.palette, {v: c for v, c in ls.lists.items() if v != corner(1, 1)})
    cert = theorem_replay(lists=bad)
    assert not cert.certified
    assert "gadget-lemma-1 (lists missing for 1 vertices, e.g. corner:1,1)" in cert.verdict
