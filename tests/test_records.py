"""The contract of colorlab's result records.

``Graph`` and ``ListAssignment`` are plain classes with read-only fields;
every other record is a ``typing.NamedTuple``.  None of them may be changed
after it is built, and importing the CLI must not load ``dataclasses``.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import colorlab
from colorlab.build import ListAssignment, wheel4, wheel_lists
from colorlab.choose import random_probe, verify_not_choosable
from colorlab.graph import GraphError, hub
from colorlab.proof import forcing_families, theorem_replay, wheel_forcing
from colorlab.solve import chromatic_number, count, decide, to_cnf
from colorlab.verify import (
    apex_embed,
    audit,
    cut_certificate,
    face_census,
    gadget_lemma,
    hamilton,
    perfect_matching,
)


def test_importing_the_cli_leaves_dataclasses_out():
    src = os.path.dirname(os.path.dirname(colorlab.__file__))
    code = "import sys, colorlab.cli; print(sorted(m for m in sys.modules if 'dataclass' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _records():
    """One instance of every public record, each built by the call that
    returns it."""
    g, lists = wheel4(), wheel_lists()
    m = colorlab.mirzakhani()
    return [
        g,
        lists,
        decide(g, lists),
        count(g, lists),
        chromatic_number(g),
        to_cnf(g, lists),
        verify_not_choosable(g, lists, 3),
        random_probe(g, 2, 3, 0),
        face_census(apex_embed(m)),
        cut_certificate(g, [hub(0, 0)]),
        hamilton(g),
        perfect_matching(g),
        audit(),
        gadget_lemma(1),
        wheel_forcing(hub(0, 0), 2),
        forcing_families(),
        theorem_replay(),
    ]


def test_every_record_rejects_field_assignment():
    records = _records()
    assert len({type(r).__name__ for r in records}) == 17
    for record in records:
        fields = record._fields
        assert fields, type(record)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_graph_and_lists_are_not_sequences():
    g, lists = wheel4(), wheel_lists()
    for obj in (g, lists):
        with pytest.raises(TypeError):
            len(obj)
        with pytest.raises(TypeError):
            iter(obj)
        with pytest.raises(TypeError):
            hash(obj)
    with pytest.raises(TypeError):
        hub(0, 0) in lists
    with pytest.raises(AttributeError):
        g.extra = 1  # no field may be added either
    assert repr(lists) == f"ListAssignment(palette={lists.palette!r}, lists={lists.lists!r})"


def test_list_assignment_validates_its_lists():
    with pytest.raises(GraphError, match=r"^empty color list at hub:0,0$"):
        ListAssignment((1, 2), {hub(0, 0): ()})
    with pytest.raises(GraphError, match=r"^list at hub:0,0 leaves the palette: \(1, 3\)$"):
        ListAssignment((1, 2), {hub(0, 0): (1, 3)})
    lists = wheel_lists()
    assert lists == ListAssignment(lists.palette, dict(lists.lists))
    assert lists != ListAssignment((*lists.palette, 6), lists.lists)
    assert lists != (lists.palette, lists.lists)


# The `dataclasses.asdict` output of four records while they were frozen
# dataclasses; `_asdict()` must give the same dicts.  The audit's is pinned
# by the sha256 of its repr.
ASDICT = {
    "probe": {
        "graph": "63 vertices, 183 edges", "k": 4, "trials": 5, "successes": 5,
        "seed": 3, "pool": (1, 2, 3, 4, 5, 6, 7, 8),
    },
    "count": {"status": "SAT", "count": 24, "nodes": 49, "propagations": 47,
              "budget": 10000000},
    "families": {
        "passed": True, "examined": 1328,
        "patterns": ((2, 4, 5, 3), (4, 5, 3, 2), (5, 3, 2, 4)),
        "hub_list": (2, 3, 4, 5), "hub_blocked": True,
        "outside_example": (1, 3, 1, 2), "reason": "",
    },
}
AUDIT_ASDICT_REPR_SHA256 = "316778cad700f86133795d6b97086723520a5f77601d3d3b2de9b38151ccf891"


def test_asdict_matches_the_dataclass_form():
    records = {
        "probe": random_probe(colorlab.mirzakhani(), 4, 5, 3),
        "count": count(wheel4(), wheel_lists()),
        "families": forcing_families(),
    }
    for name, record in records.items():
        # The reprs agree too: tuples stay tuples and the key order holds.
        assert record._asdict() == ASDICT[name]
        assert repr(record._asdict()) == repr(ASDICT[name])
    digest = hashlib.sha256(repr(audit()._asdict()).encode()).hexdigest()
    assert digest == AUDIT_ASDICT_REPR_SHA256
