"""End-to-end command-line behavior, exit codes first."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import colorlab
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


def test_k_above_the_palette_exits_2(files, capsys):
    # Refused before any list is built: 10**8 colors would exhaust memory.
    for argv in (
        ["solve", "--graph", str(files["m"]), "--k", "100000000"],
        ["choosability", "--graph", str(files["m"]), "--probe", "--k", "100000000"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "exceeds the 64-color palette" in stderr
        assert "Traceback" not in stderr


# ----------------------------------------------------------- choosability


def test_choosability_witness_confirmed(files, capsys):
    code = main(
        ["choosability", "--graph", str(files["m"]), "--k", "4",
         "--witness", str(files["lists"])]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "WitnessConfirmed"


def test_choosability_witness_reports_propagations(files, capsys):
    main(["choosability", "--graph", str(files["m"]), "--k", "4",
          "--witness", str(files["lists"])])
    assert json.loads(capsys.readouterr().out) == {
        "nodes": 711, "propagations": 2724, "verdict": "WitnessConfirmed"
    }


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
    # argparse takes a separate value that starts with '-' for an option, so
    # a negative lower bound needs the '=' form.
    base = ["choosability", "--graph", str(files["k3"]), "--k", "2", "--probe"]
    assert main([*base, "--trials", "4", "--pool=-1..3"]) == 0
    assert json.loads(capsys.readouterr().out)["pool"] == [-1, 0, 1, 2, 3]
    for extra, message in (
        (["--pool", "-1..3"], "argument --pool: expected one argument"),
        (["--pool", "1-3"], "pool must look like 'a..b', got '1-3'"),
        (["--pool", "a..3"], "pool bounds must be integers: 'a..3'"),
        (["--budget", "0"], "expected a positive integer, got '0'"),
        (["--seed", "-1"], "expected a nonnegative integer, got '-1'"),
        (["--seed", str(2**64)], f"expected an integer below 2**64, got '{2**64}'"),
        (["--seed", "18446744073709551619"],
         "expected an integer below 2**64, got '18446744073709551619'"),
    ):
        with pytest.raises(SystemExit) as err:
            main([*base, *extra])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert message in stderr
        assert "Traceback" not in stderr


def test_choosability_pool_wider_than_the_palette_exits_2(files, capsys):
    # Refused before the range is built: 10**8 colors would exhaust memory.
    with pytest.raises(SystemExit) as err:
        main(["choosability", "--graph", str(files["k3"]), "--probe", "--k", "3",
              "--pool", "1..100000000"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "at most 64 are supported" in stderr
    assert "Traceback" not in stderr


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


def test_verify_cut_falls_back_to_a_single_vertex(tmp_path, capsys):
    # The 3-vertex path has no degree-7 vertices; deleting its middle vertex
    # leaves 2 components, which certifies it non-Hamiltonian.
    vs = [plain(i) for i in range(3)]
    p3 = make_graph(vs, [(vs[0], vs[1]), (vs[1], vs[2])])
    path = tmp_path / "p3.json"
    path.write_text(graphio.graph_to_json(p3))
    assert main(["verify", "--graph", str(path), "--cut"]) == 0
    payload = json.loads(capsys.readouterr().out)["cut"]
    assert payload["cut"] == ["plain:1"]
    assert payload["components_after"] == 2 and payload["pass"]


def test_verify_subset_of_checks(files, capsys):
    assert main(["verify", "--graph", str(files["m"]), "--cut", "--matching"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"cut", "matching"}


def test_verify_hamilton_budget_exits_3(files, capsys):
    code = main(["verify", "--graph", str(files["m"]), "--hamilton", "--budget", "10"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["hamilton"] == {
        "error": "Hamilton search undecided within 10 nodes",
        "status": "EXHAUSTED",
        "pass": False,
    }


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


# sha256 of each `prove` output, stdout bytes as printed.
PROVE_SHA256 = {
    "prove": "4771f8b521454bcc93e69b236a9ab99905b83c8fd5d150daa523c3031226bc62",
    "prove --json": "d0fe75fc904f25e2b67589ed05860a582b72d9147902089a16a813b474e285c5",
    "prove --section 1": "fb757ccb505394b8839ebed538d6df686084ee3ba909a0d2e04c9da041466836",
    "prove --section 2": "9b88a0b8e420fc061e3b4021329901095ef5e51aca5c4300e167e200211de378",
    "prove --section 3": "e93d5cb84024f7b30a988f9f1dce61e64125dc74174e1e00a540983048a264d5",
    "prove --section 4": "3bb791658e72305da5bd59b1e681859cb24ebb69b1d2ad30d7b954c1eaa682f8",
    "prove --families": "a9f66c3c7da0f1fb47259118b2a38ac5e00a3d780949778607e3a3deefc17db7",
}


@pytest.mark.parametrize("command", sorted(PROVE_SHA256))
def test_prove_output_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PROVE_SHA256[command]


def test_prove_budget_exits_3(capsys):
    # Every lemma and the direct solve run out of budget: exit 3, as for
    # `prove --section`, and the transcript names the error, not a node count.
    assert main(["prove", "--budget", "5"]) == 3
    text = capsys.readouterr().out
    assert "[FAILED] direct solve: witness check undecided within 5 nodes" in text
    assert "Verdict: not certified: gadget-lemma-1 (budget 5 exhausted" in text
    assert main(["prove", "--json", "--budget", "5"]) == 3
    direct = json.loads(capsys.readouterr().out)["direct_solve"]
    assert direct == {"error": "witness check undecided within 5 nodes", "status": "EXHAUSTED"}


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


def test_audit_hamilton_budget_exits_3(capsys):
    assert main(["audit", "--budget", "10"]) == 3
    payload = json.loads(capsys.readouterr().out)
    hamilton = next(c for c in payload["claims"] if c["name"] == "hamiltonian")
    assert hamilton["certificate"] == {
        "error": "Hamilton search undecided within 10 nodes",
        "status": "EXHAUSTED",
    }


def test_python_m_colorlab_runs_the_command():
    src = os.path.dirname(os.path.dirname(colorlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "colorlab", "audit"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == colorlab.audit().to_json() + "\n"


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


# The `build` and `export` commands whose --out files are pinned below; the
# exports read the files that `build mirzakhani` writes.
BUILD_EXPORT_COMMANDS = (
    "build mirzakhani --out m.json --lists m.lists.json",
    "build gadget --out gadget.json --lists gadget.lists.json",
    "build wheel4 --out wheel4.json",
    "export --graph m.json --format dimacs --out m.dimacs",
    "export --graph m.json --format dot --out m.dot",
    "export --graph m.json --format cnf --lists m.lists.json --out m.cnf",
)

# sha256 of each file those commands write, bytes as written.
BUILD_EXPORT_SHA256 = {
    "m.json": "43c58a390d2c0bb225c800a555eb5e5844b07ff807adc443d0413635ec877bcf",
    "m.lists.json": "8de5915f39d862e67e738c3ac71bf99a52905b043f853e64ba2a7557c9dc98ef",
    "gadget.json": "305249071c566e136349256e461a5fab4276162a29905897d967441b4a143eb6",
    "gadget.lists.json": "1e8d09c91d58247c1b680b9416a9878abb199ba88e25833a185707126e25b299",
    "wheel4.json": "8ff86f5734a78a1bf3f73e70e950d572b4e3315845dc5ffa9b3145ef4a46fcc2",
    "m.dimacs": "5e1efc66058d178f7ecc48a139bf6ddeb46d5795b6102edc61b4fff2e371f276",
    "m.dot": "086318bd76d44d6c45e8b1bd830c34eeb60854d3403a65e5b15b8cc74254876d",
    "m.cnf": "0b84224d38ecf0e2a4ea808c14c6111236c8e355e9e17a43f3468ab31f55276f",
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding the files BUILD_EXPORT_COMMANDS write."""
    root = tmp_path_factory.mktemp("pinned")
    for command in BUILD_EXPORT_COMMANDS:
        argv = [str(root / a) if "." in a else a for a in command.split()]
        assert main(argv) == 0, command
    return root


@pytest.mark.parametrize("name", sorted(BUILD_EXPORT_SHA256))
def test_build_and_export_outputs_are_pinned(name, built):
    digest = hashlib.sha256((built / name).read_bytes()).hexdigest()
    assert digest == BUILD_EXPORT_SHA256[name]


# sha256 of the stdout of each command, bytes as printed, with its exit
# code.  The commands read the files in `built` and the wheel's lists.
CLI_STDOUT_SHA256 = {
    "solve --graph m.json --lists m.lists.json":
        (1, "ddfa1232f224bdc617d6d15874beea06ad0d20e379543e86e4c75860efa3c3fe"),
    "solve --graph m.json --k 3":
        (0, "444d42fcec14e8fd9cc53d32a84b55d37b323f49f5b739e52049f51604439947"),
    "solve --graph wheel4.json --lists wheel4.lists.json --count":
        (0, "06e545ffca0a11f6c13e9bf0867aae9646773083a43a1854b8545313376fb636"),
    "choosability --graph m.json --k 4 --witness m.lists.json":
        (0, "924018824fddbf809a8ac1cef623758fb63494e849636eadaf9cb25dd75d66b3"),
    "choosability --graph wheel4.json --k 2":
        (1, "bee806063428b61f566a435da8e1667181dbbccb8a23f4dde9c4cb6a6fbb5ece"),
    "choosability --graph wheel4.json --k 3 --pool 1..5":
        (0, "00a0132dbfa05a6215d493e1cf8d9fc1414dd2da3f7f980d5686001579e000dc"),
    "choosability --graph m.json --k 4 --probe --trials 5 --seed 3":
        (0, "13392dee5f8093280320b203250c97aa88278206e2e20e66e7fae81289b3ee13"),
    "verify --graph m.json":
        (0, "4226111ac8ef6b12a961f5d679dcd82317e797ece8deeb3d3d63f531568eb548"),
}


@pytest.fixture(scope="module")
def cli_inputs(built):
    """`built` plus the lists of the wheel, which `solve --count` reads."""
    assert main(["build", "wheel4", "--lists", str(built / "wheel4.lists.json")]) == 0
    return built


@pytest.mark.parametrize("command", sorted(CLI_STDOUT_SHA256))
def test_cli_outputs_are_pinned(command, cli_inputs, capsys):
    argv = [str(cli_inputs / a) if a.endswith(".json") else a for a in command.split()]
    code, digest = CLI_STDOUT_SHA256[command]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ------------------------------------------------------------ error paths


def test_missing_file_exits_2(capsys):
    assert main(["solve", "--graph", "/nonexistent.json", "--k", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_huge_dimacs_vertex_count_exits_2(tmp_path):
    # A 20-byte file that declares 3·10^8 vertices is refused before anything
    # is allocated, so it exits 2 even in a 512 MB address space.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    col = tmp_path / "big.col"
    col.write_text("p edge 300000000 0\n")
    src = os.path.dirname(os.path.dirname(colorlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "colorlab", "solve", "--graph", str(col), "--k", "3"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True,
        preexec_fn=limit_memory, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


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
    # JSON booleans are Python ints, but never colors or coordinates.
    "boolean-color-in-lists": (
        "lists.json",
        '{"palette": [1, 2, 3], "lists": {"plain:0": [true, 2, 3],'
        ' "plain:1": [true, 2, 3], "plain:2": [true, 2, 3]}}',
    ),
    "boolean-color-in-palette": (
        "lists.json",
        '{"palette": [true, 2, 3, 4], "lists": {"plain:0": [2, 3],'
        ' "plain:1": [3, 4], "plain:2": [2, 4]}}',
    ),
    "boolean-coordinate": (
        "graph.json",
        '{"vertices": ["plain:0"], "layout": {"plain:0": [true, 0]}}',
    ),
    "dimacs-missing-problem-line": ("graph.col", "e 1 2\n"),
    # Two indices that read as one vertex id, which would shrink the graph.
    "dimacs-repeated-name": ("graph.col", "c 1 apex\nc 2 apex\np edge 3 1\ne 2 3\n"),
    "dimacs-name-of-another-index": ("graph.col", "c 1 plain:2\np edge 2 0\n"),
    "inexact-coordinate": (
        "graph.json",
        '{"vertices": ["plain:0"], "layout": {"plain:0": [0.5, 0]}}',
    ),
    # An id listed twice, or in a second spelling, would shrink the graph or
    # merge two lists or two points.
    "json-repeated-vertex-id": ("graph.json", '{"vertices": ["plain:0", "plain:0", "plain:1"]}'),
    "json-respelled-vertex-id": ("graph.json", '{"vertices": ["plain:0", "plain:00"]}'),
    "json-respelled-layout-key": (
        "graph.json",
        '{"vertices": ["plain:0"], "layout": {"plain:0": [0, 0], "plain:00": [5, 5]}}',
    ),
    "json-respelled-list-key": (
        "lists.json",
        '{"palette": [1, 2, 3], "lists": {"plain:0": [1], "plain:00": [2],'
        ' "plain:1": [1], "plain:2": [3]}}',
    ),
    # json.loads would keep the second list of plain:0, which makes K3 SAT;
    # with the first it is UNSAT.
    "json-repeated-list-key": (
        "lists.json",
        '{"palette": [1, 2, 3], "lists": {"plain:0": [1], "plain:0": [2],'
        ' "plain:1": [1], "plain:2": [3]}}',
    ),
    "json-repeated-graph-key": (
        "graph.json",
        '{"vertices": ["plain:0"], "vertices": ["plain:0", "plain:1"]}',
    ),
    "json-repeated-layout-key": (
        "graph.json",
        '{"vertices": ["plain:0"], "layout": {"plain:0": [0, 0], "plain:0": [5, 5]}}',
    ),
}
# The refusal each of these cases must name.
GARBAGE_MESSAGES = {
    "dimacs-missing-problem-line": "error: missing problem line",
    "dimacs-repeated-name": "error: vertex id apex names more than one of the 3",
    "dimacs-name-of-another-index": "error: vertex id plain:2 names more than one of the 2",
    "inexact-coordinate": "error: layout coordinate 0.5 is not exact",
    "json-repeated-vertex-id": "error: vertex id plain:0 names more than one of the 3 vertices",
    "json-respelled-vertex-id": "error: unparseable vertex id 'plain:00'",
    "json-respelled-layout-key": "error: unparseable vertex id 'plain:00'",
    "json-respelled-list-key": "error: unparseable vertex id 'plain:00'",
    "json-repeated-list-key": "error: JSON object repeats the key 'plain:0'",
    "json-repeated-graph-key": "error: JSON object repeats the key 'vertices'",
    "json-repeated-layout-key": "error: JSON object repeats the key 'plain:0'",
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
    assert err.startswith(GARBAGE_MESSAGES.get(case, "error:"))
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["graph.json", "graph.col", "lists.json"])
def test_undecodable_file_exits_2(name, files, tmp_path, capsys):
    bad = tmp_path / name
    bad.write_bytes(b"\xff{}")
    if name == "lists.json":
        argv = ["solve", "--graph", str(files["k3"]), "--lists", str(bad)]
    else:
        argv = ["solve", "--graph", str(bad), "--k", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_out_files_end_with_newline(files, tmp_path):
    out = tmp_path / "result.json"
    main(["solve", "--graph", str(files["k3"]), "--k", "3", "--out", str(out)])
    assert out.read_text().endswith("\n")


def test_outputs_do_not_depend_on_the_hash_seed(files):
    # Vertex ids hash as tuples of integers, so no iteration order, and no
    # byte of output, may change with PYTHONHASHSEED.
    src = os.path.dirname(os.path.dirname(colorlab.__file__))
    runs = (
        ["verify", "--graph", str(files["m"]), "--planarity", "--cut", "--matching"],
        ["choosability", "--graph", str(files["m"]), "--k", "3", "--probe", "--trials", "50"],
    )
    for argv in runs:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "colorlab.cli", *argv],
                capture_output=True, env=env, check=True,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]


def test_audit_solve_budget_exits_3(capsys):
    # A spent budget is a budget outcome (exit 3), not a failed claim (exit
    # 1), and the one budget bounds the coloring and the Hamilton searches.
    assert main(["audit", "--budget", "1"]) == 3
    claims = {c["name"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
    for name in ("chromatic-number-3", "not-4-choosable", "hamiltonian"):
        assert claims[name]["status"] == "fail"
        assert claims[name]["certificate"]["status"] == "EXHAUSTED"
        assert "error" in claims[name]["certificate"]


# ------------------------------------------------------------ budget exits


def test_probe_budget_exits_3(files, capsys):
    code = main(
        ["choosability", "--graph", str(files["m"]), "--probe", "--k", "3",
         "--trials", "5", "--budget", "1"]
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exhausted: trial 0 undecided within 1 nodes; probe aborted\n"


def test_witness_budget_exits_3(files, capsys):
    code = main(
        ["choosability", "--graph", str(files["m"]), "--witness", str(files["lists"]),
         "--k", "4", "--budget", "3"]
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exhausted: witness check undecided within 3 nodes\n"


def test_exhaustive_budget_exits_3(files, capsys):
    code = main(["choosability", "--graph", str(files["m"]), "--k", "2", "--budget", "1"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "budget exhausted: node budget 1 ran out after 1 assignments\n"


def test_exhaustive_budget_bounds_propagation_decided_assignments(tmp_path):
    # Every assignment of an edgeless graph is decided by propagation alone,
    # in 0 nodes; there are Bell(16), about 10**10, of them for k = 1 and 16
    # colors.  The timeout turns an unbounded run into a failure.
    path = tmp_path / "edgeless.json"
    path.write_text(graphio.graph_to_json(make_graph([plain(i) for i in range(16)], [])))
    src = os.path.dirname(os.path.dirname(colorlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "colorlab", "choosability", "--graph", str(path),
         "--k", "1", "--pool", "1..16", "--budget", "1000"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "budget exhausted: node budget 1000 ran out after 1001 assignments\n"


def test_prove_families_budget_exits_3(capsys):
    # A spent enumeration budget prints no partial classification.
    assert main(["prove", "--families", "--budget", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("budget exhausted: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# ------------------------------------------------------------------- fuzz
#
# Random small graphs (structured and plain vertex ids, sometimes a layout,
# sometimes a self-loop or a repeated edge), their DIMACS form (sometimes
# with an edge out of range) and list files (sometimes leaving the palette
# or missing a vertex), through every command that reads them, with small
# budgets.  Each command must answer with an exit code, never a traceback.

FUZZ_IDS = ["apex", "hub:0,0", "hub:1,0", "corner:1,1", "corner:-1,1", "plain:0", "plain:1", "plain:2"]


@st.composite
def fuzz_files(draw):
    ids = draw(st.lists(st.sampled_from(FUZZ_IDS), unique=True, max_size=6))
    n = len(ids)
    index = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(index, index), max_size=9)) if n else []
    doc = {"vertices": ids, "edges": [[ids[a], ids[b]] for a, b in edges]}
    if draw(st.booleans()):
        coord = st.integers(-3, 6) | st.sampled_from(["1/2", "-5/3"])
        doc["layout"] = {v: [draw(coord), draw(coord)] for v in ids}
    dimacs = [f"p edge {n} {len(edges)}"]
    dimacs += [f"e {a + 1} {b + 1 + draw(st.sampled_from([0, 0, 0, 1]))}" for a, b in edges]
    palette = draw(st.lists(st.integers(-1, 8), unique=True, min_size=1, max_size=6))
    color = st.sampled_from(palette) | st.integers(-1, 9)
    lists = {
        "palette": palette,
        "lists": {
            v: draw(st.lists(color, min_size=1, max_size=4))
            for v in ids
            if draw(st.integers(0, 9))
        },
    }
    return json.dumps(doc), "\n".join(dimacs) + "\n", json.dumps(lists)


@settings(deadline=None, max_examples=100)
@given(fuzz_files(), st.data())
def test_cli_exits_with_a_code_on_fuzzed_files(files, data):
    with tempfile.TemporaryDirectory() as root:
        graph, col, lists, out = (os.path.join(root, f) for f in ("g.json", "g.col", "l.json", "out"))
        for path, text in zip((graph, col, lists), files):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        k = str(data.draw(st.integers(1, 3)))
        lo = data.draw(st.integers(-1, 3))
        pool = f"{lo}..{lo + data.draw(st.integers(0, 4))}"
        budget = ["--budget", str(data.draw(st.integers(1, 300)))]
        commands = [
            ["solve", "--k", k, *budget],
            ["solve", "--lists", lists, *budget],
            ["solve", "--k", k, "--count", *budget],
            ["choosability", "--k", k, f"--pool={pool}", *budget],
            ["choosability", "--k", k, f"--pool={pool}", "--probe", "--trials", "3", *budget],
            ["choosability", "--k", k, "--witness", lists, *budget],
            ["verify", *budget],
            ["audit", "--lists", lists, *budget],
            *(["export", "--format", f, "--lists", lists] for f in ("json", "dimacs", "dot", "cnf")),
        ]
        for argv in commands:
            source = data.draw(st.sampled_from([graph, col]))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--graph", source, "--out", out])
            assert code in (0, 1, 2, 3), argv
