"""Command-line front-end.

Every subcommand prints one JSON report to stdout (schema version 2,
sorted keys, so identical inputs give byte-identical output) and a short
human summary to stderr. With `--timing` the report also gives the wall
time of reading the graph plus the command. Exit codes: 0 = decided or
completed, 2 = inapplicable, 1 = usage, format, or resource error, or
stdout closed before the report was written.

A process builds its argument parser once, on the first `main` call, so
in-process callers such as the benchmark pay for argparse's set-up only
once. A report's text is exactly `json.dumps(report, sort_keys=True,
indent=2)`, written without Python's pure-Python encoder (see
`_report_text`).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time

from . import __version__
from .graphs import (
    Graph,
    GraphFormatError,
    format_edge_text,
    girth,
    load_edge_file,
    path_graph,
    pattern_from_name,
    star_graph,
)
from .oracle import DEFAULT_BOUND, has_matching_cut_bruteforce
from .redblue import Colouring, bichromatic_edges, colouring_from_cut, is_matching_cut
from .strategies import (
    BRANCH_BUDGET,
    STAGES,
    GraphFacts,
    find_dominating_structure_p6free,
    run_strategy,
    solve,
)
from .transforms import (
    girth_blowup,
    k22_replace,
    random_gnp,
    random_pattern_free,
    random_radius2,
)


class CliError(Exception):
    """Usage-level failure; message goes to stderr, exit code 1."""


def _load(path: str) -> tuple[Graph, tuple[int, ...]]:
    try:
        return load_edge_file(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def _certificate(g: Graph, colouring: Colouring, labels) -> dict:
    return {
        "red": sorted(labels[v] for v in colouring.red),
        "blue": sorted(labels[v] for v in colouring.blue),
        "cut_edges": sorted(
            sorted((labels[u], labels[v])) for u, v in bichromatic_edges(g, colouring)
        ),
    }


_encode = json.JSONEncoder().encode


def _report_text(x, pad: str = "") -> str:
    """The text of `json.dumps(x, sort_keys=True, indent=2)` for a report
    value: a dict with string keys, a list, a tuple or a JSON scalar.
    `pad` is the indent of the line that `x` starts on.

    With `indent` set, `json.dumps` runs Python's pure-Python encoder,
    which handles every integer of an edge list on its own. Here the C
    encoder writes scalars and keys, and a list of ints or of non-empty
    lists of ints (`edges`, `cut_edges`) is written from its `repr`, whose
    ints read as in JSON. That text holds only digits, `-`, `, `, `[` and
    `]`, so `str.replace` can insert the line breaks and indents. The
    element types are checked exactly, so bools and int subclasses take
    the general path.
    """
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = ",\n".join(f"{inner}{_encode(k)}: {_report_text(x[k], inner)}" for k in sorted(x))
        return f"{{\n{items}\n{pad}}}"
    if not isinstance(x, (list, tuple)):
        return _encode(x)
    if not x:
        return "[]"
    inner = pad + "  "
    kinds = set(map(type, x)) if type(x) is list else None
    if kinds == {int}:
        return f"[\n{inner}" + repr(x)[1:-1].replace(", ", ",\n" + inner) + f"\n{pad}]"
    if kinds == {list} and all(x) and set(map(type, itertools.chain.from_iterable(x))) == {int}:
        deeper = inner + "  "
        body = (
            repr(x)[1:-1]
            .replace("], [", "]\0[")
            .replace(", ", ",\n" + deeper)
            .replace("[", "[\n" + deeper)
            .replace("]", f"\n{inner}]")
            .replace("\0", ",\n" + inner)
        )
        return f"[\n{inner}{body}\n{pad}]"
    items = ",\n".join(inner + _report_text(v, inner) for v in x)
    return f"[\n{items}\n{pad}]"


def _emit(report: dict, args) -> None:
    """Print the report to stdout, as the bytes of `json.dumps(report,
    sort_keys=True, indent=2)` (see `_report_text`), and unless --quiet a
    one-line summary to stderr."""
    print(_report_text(report), flush=True)
    if not args.quiet:
        bits = [report["command"], str(report.get("outcome", "ok"))]
        if report.get("strategy"):
            bits.append(f"[{report['strategy']}]")
        cert = report.get("certificate")
        if cert:
            bits.append(f"cut size {len(cert['cut_edges'])}")
        print(" ".join(bits), file=sys.stderr)


# Each _cmd_* returns (its own report fields, exit code); main() adds the
# envelope: schema, command, input (commands that read PATH) and timing_ms.


def _cmd_solve(args, facts: GraphFacts, labels) -> tuple[dict, int]:
    if args.strategy == "auto":
        outcome = solve(facts, args.branch_budget)
    else:
        outcome = run_strategy(facts, args.strategy, args.branch_budget)
    fields = {
        "outcome": outcome.answer,
        "strategy": outcome.strategy,
        "trace": outcome.trace,
        "certificate": None,
    }
    if outcome.answer == "yes":
        fields["certificate"] = _certificate(facts.graph, outcome.colouring, labels)
    elif outcome.reason:
        fields["reason"] = outcome.reason
    return fields, 2 if outcome.answer == "inapplicable" else 0


def _cmd_oracle(args, facts: GraphFacts, labels) -> tuple[dict, int]:
    """The exhaustive bipartition search alone, which `solve` never runs."""
    g = facts.connected_graph()
    cut = has_matching_cut_bruteforce(g, args.bound)
    fields = {"outcome": "no", "strategy": "oracle", "trace": {}, "certificate": None}
    if cut is None:
        fields["reason"] = "exhaustive bipartition search"
    else:
        fields.update(outcome="yes", certificate=_certificate(g, colouring_from_cut(g, cut), labels))
    return fields, 0


def _cmd_analyze(args, facts: GraphFacts, labels) -> tuple[dict, int]:
    g = facts.graph
    analysis: dict = {
        "connected": facts.connected,
        "girth": girth(g),
        "min_degree": min(g.degree(v) for v in range(g.n)),
        "max_degree": max(g.degree(v) for v in range(g.n)),
        "p6_free": facts.witness(path_graph(6)) is None,
        "claw_free": facts.witness(star_graph(3)) is None,
        "radius": None,
        "diameter": None,
        "center": None,
        "dominating_structure": None,
    }
    if facts.connected:
        profile = facts.profile
        analysis["radius"] = profile.radius
        analysis["diameter"] = profile.diameter
        analysis["center"] = sorted(labels[v] for v in profile.center)
        if analysis["p6_free"]:
            structure = find_dominating_structure_p6free(facts)
            if structure.kind == "cycle6":
                analysis["dominating_structure"] = {
                    "kind": "cycle6",
                    "cycle": [labels[v] for v in structure.cycle],
                }
            else:
                analysis["dominating_structure"] = {
                    "kind": "biclique",
                    "part_a": sorted(labels[v] for v in structure.part_a),
                    "part_b": sorted(labels[v] for v in structure.part_b),
                }
    return {"analysis": analysis}, 0


def _parse_pairs(text: str, what: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split("-")
        if len(parts) != 2:
            raise CliError(f"bad {what} {chunk!r}; expected u-v")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise CliError(f"bad {what} {chunk!r}; expected integers") from exc
    if not pairs:
        raise CliError(f"empty {what}")
    return pairs


def _to_internal(pairs, labels, what: str) -> list[tuple[int, int]]:
    back = {label: v for v, label in enumerate(labels)}
    try:
        return [(back[u], back[v]) for u, v in pairs]
    except KeyError as exc:
        raise CliError(f"{what} names vertex {exc.args[0]}, which is not in the graph") from exc


def _cmd_verify(args, facts: GraphFacts, labels) -> tuple[dict, int]:
    # every matching of a disconnected graph disconnects it
    g = facts.connected_graph()
    pairs = _parse_pairs(args.cut, "cut edge")
    edges = _to_internal(pairs, labels, "--cut")
    valid = is_matching_cut(g, edges)
    fields = {
        "cut": sorted(sorted(pair) for pair in pairs),
        "outcome": "valid" if valid else "invalid",
        "certificate": None,
    }
    if valid:
        fields["certificate"] = _certificate(g, colouring_from_cut(g, edges), labels)
    return fields, 0 if valid else 1


def _graph_payload(g: Graph, path) -> dict:
    return {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges], "path": path}


def _write_out(g: Graph, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_edge_text(g))
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc.strerror}") from exc


def _cmd_transform(args, facts: GraphFacts, labels) -> tuple[dict, int]:
    g = facts.graph
    fields: dict = {"op": args.op}
    if list(labels) != list(range(g.n)):
        # new vertices take fresh internal ids, so report the relabelling
        fields["input_labels"] = list(labels)
    if args.op == "k22":
        if not args.edge:
            raise CliError("transform k22 requires --edge u-v")
        pairs = _parse_pairs(args.edge, "edge")
        if len(pairs) != 1:
            raise CliError("--edge takes exactly one u-v pair")
        (edge,) = _to_internal(pairs, labels, "--edge")
        if not g.has_edge(*edge):
            raise CliError(f"{pairs[0][0]}-{pairs[0][1]} is not an edge of the graph")
        out, provenance = k22_replace(g, edge)
        fields["provenance"] = {
            "replaced": list(provenance["replaced"]),
            "midpoints": list(provenance["midpoints"]),
        }
    else:
        if not args.pattern:
            raise CliError("transform blowup requires --pattern (for example C5)")
        out, rounds = girth_blowup(g, pattern_from_name(args.pattern))
        fields["pattern"] = args.pattern
        fields["rounds"] = rounds
    fields["output"] = _graph_payload(out, args.out)
    _write_out(out, args)
    return fields, 0


def _cmd_generate(args) -> tuple[dict, int]:
    name = args.family
    if name == "gnp":
        g = random_gnp(args.n, args.p, args.seed)
    elif name == "radius2":
        g = random_radius2(args.n, args.p, args.seed)
    elif name == "pattern-free":
        if not args.avoid:
            raise CliError("generate pattern-free requires --avoid (for example P6)")
        g = random_pattern_free(args.n, args.p, pattern_from_name(args.avoid), args.seed)
    else:
        g = pattern_from_name(name)
    _write_out(g, args)
    return {"family": name, "seed": args.seed, "output": _graph_payload(g, args.out)}, 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like every other error: one line, exit code 1.
    The subcommand parsers inherit this."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and returned by
    every later one. Parsing leaves it unchanged; callers must not add
    to it, since every `main` call in the process shares it."""
    parser = _Parser(
        prog="matchcut",
        description="Decide whether a connected graph has a matching cut.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
        p.add_argument("--timing", action="store_true", help="include wall time in the report")

    p = sub.add_parser("solve", help="run the strategy dispatcher")
    p.add_argument("path")
    p.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", *STAGES],
    )
    p.add_argument("--branch-budget", type=int, default=BRANCH_BUDGET)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive bipartition search")
    p.add_argument("path")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("analyze", help="report metrics and detected classes")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check a proposed matching cut")
    p.add_argument("path")
    p.add_argument("--cut", required=True, help="comma-separated u-v pairs")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="apply an answer-preserving transform")
    p.add_argument("op", choices=["k22", "blowup"])
    p.add_argument("path")
    p.add_argument("--edge", help="edge to replace, as u-v (k22)")
    p.add_argument("--pattern", help="pattern to exclude, for example C5 (blowup)")
    p.add_argument("--out", help="write the transformed graph to this edge file")
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("generate", help="emit a catalog or random graph")
    p.add_argument("family", help="a catalog name (P6, C5, K4, K2,3) or gnp, radius2, pattern-free")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--p", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--avoid", help="pattern name for the pattern-free family")
    p.add_argument("--out", help="write the generated graph to this edge file")
    common(p)
    p.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "branch_budget", 1) < 1:
            raise CliError("--branch-budget must be at least 1")
        started = time.perf_counter()
        report = {"schema": 2, "command": args.command}
        if "path" in args:
            g, labels = _load(args.path)
            report["input"] = {"path": args.path, "n": g.n, "m": g.m}
            fields, code = args.func(args, GraphFacts(g), labels)
        else:
            fields, code = args.func(args)
        report.update(fields)
        report["timing_ms"] = round((time.perf_counter() - started) * 1000, 3) if args.timing else None
    except (CliError, ValueError, RuntimeError) as exc:
        # every package error derives from ValueError or RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(report, args)
    except BrokenPipeError as exc:
        # the reader is gone; keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc.strerror}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
