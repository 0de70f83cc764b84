"""End-to-end command-line behavior, exit codes first."""

import itertools
import json

import pytest

from colorlab import graphio
from colorlab.build import canonical_lists, mirzakhani, uniform_lists
from colorlab.cli import main
from colorlab.graph import apex, corner, make_graph, plain


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Graph/list files shared by the tests; built once."""
    root = tmp_path_factory.mktemp("cli")
    g = mirzakhani()
    paths = {
        "m": root / "m.json",
        "lists": root / "lists.json",
        "uniform4": root / "uniform4.json",
        "k3": root / "k3.json",
        "c4": root / "c4.json",
        "mutated": root / "mutated.json",
    }
    paths["m"].write_text(graphio.graph_to_json(g))
    paths["lists"].write_text(graphio.lists_to_json(canonical_lists()))
    paths["uniform4"].write_text(graphio.lists_to_json(uniform_lists(g, (1, 2, 3, 4))))

    vs = [plain(i) for i in range(3)]
    k3 = make_graph(vs, list(itertools.combinations(vs, 2)))
    paths["k3"].write_text(graphio.graph_to_json(k3))

    vs = [plain(i) for i in range(4)]
    c4 = make_graph(vs, [(vs[i], vs[(i + 1) % 4]) for i in range(4)])
    paths["c4"].write_text(graphio.graph_to_json(c4))

    dropped = (apex(), corner(1, 1))
    edges = [(u, v) for u in g.vertices for v in g.adj[u] if u < v and (u, v) != dropped]
    mutated = make_graph(g.vertices, edges, layout=g.layout)
    paths["mutated"].write_text(graphio.graph_to_json(mutated))
    return paths


# ------------------------------------------------------------------ build


def test_build_writes_graph_and_lists(tmp_path):
    out = tmp_path / "g.json"
    lists = tmp_path / "l.json"
    assert main(["build", "mirzakhani", "--out", str(out), "--lists", str(lists)]) == 0
    g = graphio.graph_from_json(out.read_text())
    assert (g.n, g.m) == (63, 183)
    ls = graphio.lists_from_json(lists.read_text())
    assert all(len(ls.list_of(v)) == 4 for v in g.vertices)


def test_build_summary_lines(capsys):
    assert main(["build", "mirzakhani"]) == 0
    assert "63 vertices, 183 edges" in capsys.readouterr().out
    assert main(["build", "wheel4"]) == 0
    assert "5 vertices, 8 edges" in capsys.readouterr().out
    assert main(["build", "gadget"]) == 0
    assert "17 vertices, 36 edges" in capsys.readouterr().out


# ------------------------------------------------------------------ solve


def test_solve_unsat_exits_1(files, capsys):
    code = main(["solve", "--graph", str(files["m"]), "--lists", str(files["lists"])])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "UNSAT"


def test_solve_sat_exits_0(files, capsys):
    code = main(["solve", "--graph", str(files["m"]), "--k", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "SAT"
    assert payload["witness"]


def test_solve_budget_exhaustion_exits_3(files, capsys):
    code = main(
        ["solve", "--graph", str(files["m"]), "--lists", str(files["lists"]),
         "--budget", "10"]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().out)["status"] == "EXHAUSTED"


def test_solve_count_mode(files, capsys):
    code = main(["solve", "--graph", str(files["k3"]), "--k", "3", "--count"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6
    assert payload["status"] == "SAT"


def test_solve_requires_lists_or_k(files, capsys):
    assert main(["solve", "--graph", str(files["m"])]) == 2
    assert "provide --lists or --k" in capsys.readouterr().err


# ----------------------------------------------------------- choosability


def test_choosability_witness_confirmed(files, capsys):
    code = main(
        ["choosability", "--graph", str(files["m"]), "--k", "4",
         "--witness", str(files["lists"])]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "WitnessConfirmed"


def test_choosability_witness_refuted(files, capsys):
    code = main(
        ["choosability", "--graph", str(files["m"]), "--k", "4",
         "--witness", str(files["uniform4"])]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "WitnessRefuted"


def test_choosability_exhaustive_not_choosable(files, capsys):
    code = main(["choosability", "--graph", str(files["k3"]), "--k", "2"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "NotChoosable"
    assert all(l == [1, 2] for l in payload["bad_assignment"].values())


def test_choosability_exhaustive_choosable(files, capsys):
    code = main(["choosability", "--graph", str(files["c4"]), "--k", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "Choosable"


def test_choosability_probe_deterministic(files, capsys):
    argv = ["choosability", "--graph", str(files["m"]), "--k", "4", "--probe",
            "--trials", "5", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["successes"] == 5
    assert payload["pool"] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_choosability_pool_parsing(files, capsys):
    code = main(
        ["choosability", "--graph", str(files["k3"]), "--k", "2", "--probe",
         "--trials", "4", "--pool", "1..2"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["successes"] == 0
    with pytest.raises(SystemExit) as err:
        main(["choosability", "--graph", str(files["k3"]), "--k", "2", "--pool", "2..1"])
    assert err.value.code == 2


# ----------------------------------------------------------------- verify


def test_verify_all_checks_pass(files, capsys):
    assert main(["verify", "--graph", str(files["m"])]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"planarity", "hamilton", "cut", "matching"}
    assert all(entry["pass"] for entry in payload.values())
    assert payload["cut"]["components_after"] == 17
    assert len(payload["cut"]["cut"]) == 16
    assert payload["planarity"]["face_lengths"] == {"3": 122}
    assert payload["matching"]["size"] == 31


def test_verify_reports_claims_a_graph_is_too_small_for(tmp_path, capsys):
    # Two vertices: no Hamiltonian cycle can exist, no layout, no cut.
    k2 = make_graph([plain(0), plain(1)], [(plain(0), plain(1))])
    path = tmp_path / "k2.json"
    path.write_text(graphio.graph_to_json(k2))
    assert main(["verify", "--graph", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["hamilton"] == {
        "error": "Hamiltonian cycles need at least three vertices",
        "pass": False,
    }
    assert not payload["cut"]["pass"] and "error" in payload["cut"]
    assert payload["matching"]["pass"]


def test_verify_subset_of_checks(files, capsys):
    assert main(["verify", "--graph", str(files["m"]), "--cut", "--matching"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"cut", "matching"}


def test_verify_hamilton_budget_exits_3(files, capsys):
    code = main(
        ["verify", "--graph", str(files["m"]), "--hamilton", "--hamilton-budget", "10"]
    )
    assert code == 3
    assert json.loads(capsys.readouterr().out)["hamilton"]["status"] == "EXHAUSTED"


# ------------------------------------------------------------------ prove


def test_prove_transcript(capsys):
    assert main(["prove"]) == 0
    text = capsys.readouterr().out
    assert "certified" in text
    assert "[FAILED]" not in text


def test_prove_json(capsys):
    assert main(["prove", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"].startswith("certified")
    assert payload["direct_solve"]["status"] == "UNSAT"


def test_prove_single_section(capsys):
    assert main(["prove", "--section", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["reduced"]["status"] == "UNSAT"
    assert payload["reason"] == ""


def test_prove_section_budget_exits_3(capsys):
    assert main(["prove", "--section", "1", "--budget", "5"]) == 3


def test_prove_families(capsys):
    assert main(["prove", "--families"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["examined"] == 1328
    assert sorted(map(tuple, payload["patterns"])) == [(2, 4, 5, 3), (4, 5, 3, 2), (5, 3, 2, 4)]


# ------------------------------------------------------------------ audit


def test_audit_passes(capsys):
    assert main(["audit"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(c["status"] == "pass" for c in payload["claims"])


def test_audit_fails_on_mutated_graph(files, capsys):
    assert main(["audit", "--graph", str(files["mutated"])]) == 1
    payload = json.loads(capsys.readouterr().out)
    failed = {c["name"] for c in payload["claims"] if c["status"] == "fail"}
    assert "construction-counts" in failed


def test_audit_survives_dimacs_round_trip(files, tmp_path, capsys):
    col = tmp_path / "m.col"
    assert main(["export", "--graph", str(files["m"]), "--format", "dimacs",
                 "--out", str(col)]) == 0
    assert main(["audit"]) == 0
    direct = capsys.readouterr().out
    assert main(["audit", "--graph", str(col)]) == 0
    assert capsys.readouterr().out == direct


# ----------------------------------------------------------------- export


def test_export_formats(files, tmp_path, capsys):
    assert main(["export", "--graph", str(files["m"]), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["vertices"]

    assert main(["export", "--graph", str(files["m"]), "--format", "dimacs"]) == 0
    assert "p edge 63 183" in capsys.readouterr().out

    assert main(["export", "--graph", str(files["m"]), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph")

    out = tmp_path / "m.cnf"
    assert main(["export", "--graph", str(files["k3"]), "--format", "cnf",
                 "--lists", str(files["lists"]), "--out", str(out)]) == 2  # wrong lists
    assert main(["export", "--graph", str(files["m"]), "--format", "cnf",
                 "--lists", str(files["lists"]), "--out", str(out)]) == 0
    assert out.read_text().startswith("c ")


def test_export_cnf_requires_lists(files, capsys):
    assert main(["export", "--graph", str(files["m"]), "--format", "cnf"]) == 2
    assert "--lists" in capsys.readouterr().err


# ------------------------------------------------------------ error paths


def test_missing_file_exits_2(capsys):
    assert main(["solve", "--graph", "/nonexistent.json", "--k", "3"]) == 2
    assert "error:" in capsys.readouterr().err


GARBAGE = {
    "not-json": ("graph.json", "{]"),
    "nested-too-deep": ("graph.json", "[" * 100_000),
    "vertices-not-a-list": ("graph.json", '{"vertices": 5}'),
    "three-endpoint-edge": (
        "graph.json",
        '{"vertices": ["plain:0", "plain:1", "plain:2"],'
        ' "edges": [["plain:0", "plain:1", "plain:2"]]}',
    ),
    "non-string-vertex-id": ("graph.json", '{"vertices": [0]}'),
    "zero-denominator": (
        "graph.json",
        '{"vertices": ["plain:0"], "layout": {"plain:0": ["1/0", 0]}}',
    ),
    "one-element-coordinate": (
        "graph.json",
        '{"vertices": ["plain:0"], "layout": {"plain:0": [1]}}',
    ),
    "dimacs-problem-line": ("graph.col", "p edge x 1\n"),
    "dimacs-edge-line": ("graph.col", "p edge 2 1\ne 1 x\n"),
    "list-value-not-a-list": (
        "lists.json",
        '{"palette": [1, 2, 3], "lists": {"plain:0": 5}}',
    ),
}


@pytest.mark.parametrize("case", sorted(GARBAGE))
def test_garbage_graph_exits_2(case, files, tmp_path, capsys):
    name, text = GARBAGE[case]
    bad = tmp_path / name
    bad.write_text(text)
    if name == "lists.json":
        argv = ["solve", "--graph", str(files["k3"]), "--lists", str(bad)]
    else:
        argv = ["solve", "--graph", str(bad), "--k", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_out_files_end_with_newline(files, tmp_path):
    out = tmp_path / "result.json"
    main(["solve", "--graph", str(files["k3"]), "--k", "3", "--out", str(out)])
    assert out.read_text().endswith("\n")
