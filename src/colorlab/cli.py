"""Command-line front end.

Exit codes: 0 = success / claims pass; 1 = claims fail, or UNSAT where a
coloring was asked for; 2 = usage or input errors; 3 = a node budget ran
out before an answer was reached.  All outputs are deterministic for fixed
arguments, and every report carries the budget and seed it was run with.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Iterable, Optional

from colorlab.graph import Graph, GraphError
from colorlab.solve import DEFAULT_BUDGET, MAX_PALETTE, BudgetExhausted

if TYPE_CHECKING:
    from colorlab.build import ListAssignment

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# `verify` flag -> the registered claim it runs.
VERIFY_CLAIMS = {
    "planarity": "planarity",
    "hamilton": "hamiltonian",
    "cut": "apex-deleted-not-hamiltonian",
    "matching": "apex-deleted-perfect-matching",
}


def _parse_pool(text: str) -> tuple[int, ...]:
    """Parse a color pool given as 'a..b' (inclusive)."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"pool must look like 'a..b', got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"pool bounds must be integers: {text!r}")
    if b < a:
        raise argparse.ArgumentTypeError(f"empty pool {text!r}")
    if b - a + 1 > MAX_PALETTE:
        # Checked before the tuple is built: a pool of 10**8 colors would
        # exhaust memory long before the solver refused its palette.
        raise argparse.ArgumentTypeError(
            f"pool {text!r} has {b - a + 1} colors; at most {MAX_PALETTE} are supported"
        )
    return tuple(range(a, b + 1))


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _list_size(text: str) -> int:
    # Checked before any list is built: k colors per list can never exceed
    # the palette, and k = 10**8 would exhaust memory first.
    k = _positive(text)
    if k > MAX_PALETTE:
        raise argparse.ArgumentTypeError(f"k = {k} exceeds the {MAX_PALETTE}-color palette")
    return k


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    # A probe seed is SplitMix64's 64-bit state; random_probe refuses a larger one.
    if value >> 64:
        raise argparse.ArgumentTypeError(f"expected an integer below 2**64, got {text!r}")
    return value


def _load_graph(path: str) -> Graph:
    from colorlab import graphio
    from colorlab.build import canonical_layout

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".col") or text.lstrip().startswith(("c", "p ")):
        g = graphio.graph_from_dimacs(text)
        # DIMACS carries no coordinates; recover the standard drawing when
        # the vertex ids are structured.
        return canonical_layout(g)
    return graphio.graph_from_json(text)


def _load_lists(path: str) -> ListAssignment:
    from colorlab import graphio

    with open(path, "r", encoding="utf-8") as fh:
        return graphio.lists_from_json(fh.read())


def _exit_code(ok: bool, certs: Iterable[dict]) -> int:
    """EXIT_BUDGET when any certificate ran out of budget, else pass or fail."""
    if any(c.get("status") == "EXHAUSTED" for c in certs):
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_FAIL


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _cmd_build(args: argparse.Namespace) -> int:
    from colorlab import graphio
    from colorlab.build import canonical_lists, gadget, mirzakhani, wheel4, wheel_lists

    if args.target == "mirzakhani":
        g = mirzakhani()
        lists = canonical_lists()
    elif args.target == "wheel4":
        g = wheel4()
        lists = wheel_lists()
    else:
        g, _ = gadget()
        lists = canonical_lists().restrict(g.vertices)
    if args.out:
        _emit(graphio.graph_to_json(g), args.out)
    if args.lists:
        _emit(graphio.lists_to_json(lists), args.lists)
    if not args.out and not args.lists:
        print(f"{args.target}: {g.n} vertices, {g.m} edges")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    from colorlab.build import uniform_lists
    from colorlab.solve import count, decide

    g = _load_graph(args.graph)
    if args.lists:
        lists = _load_lists(args.lists)
    elif args.k is not None:
        lists = uniform_lists(g, tuple(range(1, args.k + 1)))
    else:
        print("solve: provide --lists or --k", file=sys.stderr)
        return EXIT_USAGE
    if args.count:
        res = count(g, lists, budget=args.budget)
        _emit(res.to_json(), args.out)
        return EXIT_BUDGET if res.status == "EXHAUSTED" else EXIT_OK
    res = decide(g, lists, budget=args.budget)
    _emit(res.to_json(), args.out)
    if res.status == "EXHAUSTED":
        return EXIT_BUDGET
    return EXIT_OK if res.sat else EXIT_FAIL


def _cmd_choosability(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.witness:
        from colorlab.verify import not_choosable_claim

        lists = _load_lists(args.witness)
        ok, payload = not_choosable_claim(g, lists, args.k, args.budget)
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return EXIT_OK if ok else EXIT_FAIL
    from colorlab.choose import choosability_exhaustive, default_pool, random_probe

    pool = args.pool if args.pool else default_pool(args.k)
    if args.probe:
        report = random_probe(
            g, args.k, args.trials, args.seed, pool=pool, budget=args.budget
        )
        _emit(report.to_json(), args.out)
        return EXIT_OK
    verdict = choosability_exhaustive(g, args.k, pool, budget=args.budget)
    payload = {
        "verdict": verdict.kind,
        "examined": verdict.examined,
        "nodes": verdict.nodes,
        "pool": list(pool),
        "k": args.k,
    }
    if verdict.assignment is not None:
        payload["bad_assignment"] = {
            str(v): list(l) for v, l in sorted(verdict.assignment.lists.items())
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK if verdict.kind == "Choosable" else EXIT_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    from colorlab.verify import run_claim

    g = _load_graph(args.graph)
    picked = [f for f in VERIFY_CLAIMS if getattr(args, f)] or list(VERIFY_CLAIMS)
    results = {}
    for flag in picked:
        ok, cert = run_claim(VERIFY_CLAIMS[flag], g, budget=args.budget)
        results[flag] = {**cert, "pass": ok}
    _emit(json.dumps(results, indent=2, sort_keys=True), args.out)
    return _exit_code(all(r["pass"] for r in results.values()), results.values())


def _cmd_prove(args: argparse.Namespace) -> int:
    from colorlab.build import canonical_lists, mirzakhani
    from colorlab.proof import forcing_families, theorem_replay
    from colorlab.verify import run_claim

    if args.section is not None:
        ok, cert = run_claim(
            f"gadget-lemma-{args.section}", mirzakhani(), canonical_lists(), args.budget
        )
        _emit(json.dumps(cert, indent=2, sort_keys=True), args.out)
        return _exit_code(ok, [cert])
    if args.families:
        fam = forcing_families(budget=args.budget)
        payload = fam._asdict()
        if not fam.reason:
            del payload["reason"]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return EXIT_OK if fam.passed else EXIT_FAIL
    cert = theorem_replay(budget=args.budget)
    _emit(cert.to_json() if args.json else cert.transcript(), args.out)
    return _exit_code(cert.certified, (c for _, c in cert.claims.values()))


def _cmd_audit(args: argparse.Namespace) -> int:
    from colorlab.verify import audit

    g = _load_graph(args.graph) if args.graph else None
    lists = _load_lists(args.lists) if args.lists else None
    report = audit(graph=g, lists=lists, budget=args.budget)
    _emit(report.to_json(), args.out)
    return _exit_code(report.all_pass, (c["certificate"] for c in report.claims))


def _cmd_export(args: argparse.Namespace) -> int:
    from colorlab import graphio
    from colorlab.solve import to_cnf

    g = _load_graph(args.graph)
    if args.format == "json":
        _emit(graphio.graph_to_json(g), args.out)
    elif args.format == "dimacs":
        _emit(graphio.graph_to_dimacs(g), args.out)
    elif args.format == "dot":
        _emit(graphio.graph_to_dot(g), args.out)
    else:  # cnf
        if not args.lists:
            print("export --format cnf needs --lists", file=sys.stderr)
            return EXIT_USAGE
        doc = to_cnf(g, _load_lists(args.lists))
        _emit(graphio.cnf_to_dimacs(doc), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorlab",
        description=(
            "Exact list-coloring laboratory: build the Mirzakhani graph, "
            "solve list-coloring instances, and verify its certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and its list assignment")
    p.add_argument("target", choices=["mirzakhani", "wheel4", "gadget"])
    p.add_argument("--out", help="write the graph as JSON")
    p.add_argument("--lists", help="write the canonical lists as JSON")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="decide or count proper list colorings")
    p.add_argument("--graph", required=True, help="graph file (.json or .col)")
    p.add_argument("--lists", help="list assignment (JSON)")
    p.add_argument("--k", type=_list_size, help="use uniform lists 1..k instead")
    p.add_argument("--count", action="store_true", help="count all colorings")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("choosability", help="witness check, exhaustive, or probe")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_list_size, required=True, help="list size k")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--witness", help="lists JSON claimed to block every coloring")
    mode.add_argument(
        "--probe", action="store_true", help="random trials instead of exhaustion"
    )
    p.add_argument(
        "--pool",
        type=_parse_pool,
        help="color pool a..b (default 1..2k); write a negative a as --pool=-1..3",
    )
    p.add_argument("--trials", type=_positive, default=100)
    p.add_argument(
        "--seed",
        type=_seed,
        default=0,
        help="probe seed in [0, 2**64); trial t draws from SplitMix64 seeded with "
        "mix(seed) XOR t, so different seeds run different trials",
    )
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_choosability)

    p = sub.add_parser("verify", help="structural certificates")
    p.add_argument("--graph", required=True)
    for flag in VERIFY_CLAIMS:
        p.add_argument(f"--{flag}", action="store_true")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("prove", help="replay the non-4-choosability argument")
    p.add_argument("--section", type=int, choices=[1, 2, 3, 4], help="one gadget lemma")
    p.add_argument(
        "--families", action="store_true", help="the three-family forcing analysis"
    )
    p.add_argument("--json", action="store_true", help="JSON instead of a transcript")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("audit", help="re-check every headline claim")
    p.add_argument("--graph", help="audit this graph instead of the built-in build")
    p.add_argument("--lists", help="audit these lists instead of the canonical ones")
    p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("export", help="convert a graph to another format")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--format", required=True, choices=["json", "dimacs", "dot", "cnf"]
    )
    p.add_argument("--lists", help="lists JSON (needed for cnf)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
