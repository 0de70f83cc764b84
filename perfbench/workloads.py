"""The benchmark's workloads: inputs, one operation, its CLI twin, its answer gate.

Each workload is one user-visible operation, run two ways: as an API call in
process, and as the matching ``colorlab`` command line.  Both must print the
same JSON report.  colorlab is imported inside the functions, so that a fresh
process can time ``import colorlab`` itself (see ``setup_child``).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

PROBE_K = 3
PROBE_POOL = (1, 2, 3, 4)
PROBE_TRIALS = 1000
# Satisfiable trials at the default seed; other seeds are checked only for
# agreement between the API, the CLI and repetitions.
PROBE_SUCCESSES_SEED0 = 649
GADGET_COLORINGS = 2_512_436
AUDIT_CLAIMS = (
    "construction-counts",
    "planarity",
    "chromatic-number-3",
    "not-4-choosable",
    "hamiltonian",
    "apex-deleted-not-hamiltonian",
    "apex-deleted-perfect-matching",
)

# Fingerprints of the inputs each workload builds: vertex and edge counts,
# and hashes of the sorted edge list and of the list assignment.
FINGERPRINTS = {
    "audit": {"n": 63, "m": 183, "edges": "b2a83920e05840a8", "lists": "27d996302b3ea07d"},
    "probe": {"n": 63, "m": 183, "edges": "b2a83920e05840a8"},
    "count": {"n": 17, "m": 36, "edges": "93066043091fe7f7", "lists": "aff3bf27f21b4d10"},
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def fingerprint(inputs: dict) -> dict:
    g = inputs["graph"]
    fp = {
        "n": g.n,
        "m": g.m,
        "edges": _digest(sorted(sorted((str(u), str(v))) for u, v in g.edges())),
    }
    lists = inputs.get("lists")
    if lists is not None:
        fp["lists"] = _digest(sorted((str(v), list(c)) for v, c in lists.lists.items()))
    return fp


def build(name: str) -> dict:
    """The workload's inputs, built through colorlab.build's module attributes
    (looked up at call time, so the traced run sees them)."""
    from colorlab import build as b

    if name == "audit":
        return {"graph": b.mirzakhani(), "lists": b.canonical_lists()}
    if name == "probe":
        return {"graph": b.mirzakhani()}
    if name == "count":
        g, _ = b.gadget()
        return {"graph": g, "lists": b.canonical_lists().restrict(g.vertices)}
    raise ValueError(f"unknown workload {name!r}")


def write_files(name: str, inputs: dict, workdir: str) -> dict:
    """Export the inputs the CLI reads; returns their paths by role."""
    from colorlab import graphio

    files = {}
    if name in ("probe", "count"):
        files["graph"] = os.path.join(workdir, f"{name}-graph.json")
        with open(files["graph"], "w", encoding="utf-8") as fh:
            fh.write(graphio.graph_to_json(inputs["graph"]))
    if name == "count":
        files["lists"] = os.path.join(workdir, "count-lists.json")
        with open(files["lists"], "w", encoding="utf-8") as fh:
            fh.write(graphio.lists_to_json(inputs["lists"]))
    return files


def run_api(name: str, inputs: dict, seed: int) -> str:
    """The workload's operation as an API call; returns the report JSON."""
    import colorlab

    if name == "audit":
        return colorlab.audit().to_json()
    if name == "probe":
        report = colorlab.random_probe(
            inputs["graph"], PROBE_K, PROBE_TRIALS, seed, pool=PROBE_POOL
        )
        return report.to_json()
    return colorlab.count(inputs["graph"], inputs["lists"]).to_json()


def cli_argv(name: str, files: dict, seed: int) -> list[str]:
    """The `colorlab` command line that performs the same operation."""
    if name == "audit":
        return ["audit"]
    if name == "probe":
        pool = f"{PROBE_POOL[0]}..{PROBE_POOL[-1]}"
        return [
            "choosability", "--graph", files["graph"], "--probe", "--k", str(PROBE_K),
            "--pool", pool, "--trials", str(PROBE_TRIALS), "--seed", str(seed),
        ]
    return ["solve", "--graph", files["graph"], "--lists", files["lists"], "--count"]


def check_answer(name: str, report_json: str, seed: int) -> list[str]:
    """Problems with one report (empty = correct)."""
    report = json.loads(report_json)
    if name == "audit":
        statuses = [(c["name"], c["status"]) for c in report["claims"]]
        expected = [(claim, "pass") for claim in AUDIT_CLAIMS]
        return [] if statuses == expected else [f"audit claims {statuses}"]
    if name == "probe":
        problems = []
        got = (report["k"], tuple(report["pool"]), report["trials"], report["seed"])
        if got != (PROBE_K, PROBE_POOL, PROBE_TRIALS, seed):
            problems.append(f"probe parameters {got}")
        if seed == 0 and report["successes"] != PROBE_SUCCESSES_SEED0:
            problems.append(
                f"probe successes {report['successes']}, expected {PROBE_SUCCESSES_SEED0}"
            )
        return problems
    if report["status"] == "EXHAUSTED" or report["count"] != GADGET_COLORINGS:
        return [f"count {report['status']} {report['count']}, expected {GADGET_COLORINGS}"]
    return []


def work_counters(name: str, report_json: str) -> dict:
    """Deterministic work reported by the program; recorded, never gated."""
    report = json.loads(report_json)
    if name == "audit":
        certs = {c["name"]: c["certificate"] for c in report["claims"]}
        return {
            "hamilton_nodes": certs["hamiltonian"].get("nodes"),
            "theorem_nodes": certs["not-4-choosable"].get("nodes"),
        }
    if name == "probe":
        return {"successes": report["successes"]}
    return {"nodes": report["nodes"], "propagations": report["propagations"]}


def setup_child(name: str, what: str) -> None:
    """Body of a fresh process: print the seconds taken by `what`.

    setup: ``import colorlab`` plus building the workload's inputs.
    cli-import: ``import colorlab.cli``.
    """
    t0 = time.perf_counter()
    if what == "setup":
        import colorlab  # noqa: F401

        build(name)
    else:
        import colorlab.cli  # noqa: F401
    print(time.perf_counter() - t0)
