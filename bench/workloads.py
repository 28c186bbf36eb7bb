"""One operation of each workload, timed, and the checks on its result.

An operation is one `matchcut.solve(g)` call or one in-process
`matchcut.cli.main(argv)` call. A unit's `run` yields its operations one
at a time, so the caller can time its speed reference between them.
Every operation is caught on its own, so an exception is recorded by
class name and the run goes on. Checks run after the clock stops and use
only `certcheck`, never the package's own verifier.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from time import perf_counter

import certcheck
import corpus

DECIDED = ("yes", "no")


@dataclass
class Op:
    seconds: float
    is_solve: bool
    decided: bool
    problem: str | None  # "<category>: <detail>" when the output is wrong
    scaled: float = 0.0  # seconds calibrated against the speed reference


def check_verdict(entry, answer: str, cut, blue) -> str | None:
    """Compare a verdict with the entry's expected answer; check a yes
    certificate (`cut` pairs and `blue` side, in internal vertex ids)."""
    if answer == "inapplicable":
        return None
    if answer not in DECIDED:
        return f"bad-report: unknown verdict {answer!r}"
    if (answer == "yes") != (entry.blue_side is not None):
        return f"wrong-verdict: {answer} on {entry.name}"
    if answer == "yes":
        problem = certcheck.cut_problem(entry.n, entry.edges, cut, blue)
        if problem is not None:
            return f"bad-certificate: {problem} on {entry.name}"
    return None


class SolveUnit:
    """`matchcut.solve` on one graph."""

    def __init__(self, entry) -> None:
        self.entry = entry

    def run(self, mc, mark=None) -> Iterator[Op]:
        if mark:
            mark()
        t0 = perf_counter()
        try:
            out = mc.solve(self.entry.graph)
        except Exception as exc:  # any escape is a failed operation, not a crash
            yield Op(perf_counter() - t0, True, False, f"{type(exc).__name__}: {exc}")
            return
        seconds = perf_counter() - t0
        cut = out.cut.edges if out.cut is not None else ()
        blue = out.colouring.blue if out.colouring is not None else ()
        yield Op(seconds, True, out.answer in DECIDED, check_verdict(self.entry, out.answer, cut, blue))


def cli_commands(entry) -> tuple[bool, list[tuple[str, list[str]]]]:
    """Whether the entry's `verify` cut is a matching cut, and (kind, argv)
    for each command run on the entry.

    `solve` runs only where the dispatcher finishes in well under a second
    (cycles and cographs); on grids and cubic graphs its small-cut search
    alone takes minutes.
    """
    lab = entry.labels
    if entry.blue_side is not None:
        cut = [(u, v) for u, v in entry.edges if (entry.blue_side >> u & 1) != (entry.blue_side >> v & 1)]
    else:
        cut = [entry.edges[0]]
    cut_text = ",".join(f"{lab[u]}-{lab[v]}" for u, v in cut)
    commands = [
        ("verify", ["verify", entry.path, "--cut", cut_text, "--quiet"]),
        ("analyze", ["analyze", entry.path, "--quiet"]),
    ]
    if entry.name.startswith(("cycle", "cograph")):
        commands.append(("solve", ["solve", entry.path, "--quiet"]))
    commands.append(("transform", ["transform", "blowup", entry.path, "--pattern", "C5", "--quiet"]))
    return certcheck.is_matching_cut(entry.n, entry.edges, cut), commands


def _check_report(entry, kind: str, valid_cut: bool, code, text: str) -> tuple[str | None, bool]:
    """(problem, decided) for one CLI report."""
    report = json.loads(text)
    inv = {label: v for v, label in enumerate(entry.labels)}
    if (report["input"]["n"], report["input"]["m"]) != (entry.n, len(entry.edges)):
        return "bad-report: input size", False
    if kind == "verify":
        if code != (0 if valid_cut else 1) or report["outcome"] != ("valid" if valid_cut else "invalid"):
            return f"wrong-verdict: verify said {report['outcome']} (exit {code})", False
        if valid_cut:
            cert = report["certificate"]
            cut = [(inv[a], inv[b]) for a, b in cert["cut_edges"]]
            problem = certcheck.cut_problem(entry.n, entry.edges, cut, [inv[b] for b in cert["blue"]])
            if problem is not None:
                return f"bad-certificate: {problem}", False
        return None, False
    if kind == "solve":
        answer = report["outcome"]
        if code != (2 if answer == "inapplicable" else 0):
            return f"exit-code: {code} for {answer}", False
        cert = report["certificate"] or {"cut_edges": [], "blue": []}
        cut = [(inv[a], inv[b]) for a, b in cert["cut_edges"]]
        return check_verdict(entry, answer, cut, [inv[b] for b in cert["blue"]]), answer in DECIDED
    if code != 0:
        return f"exit-code: {code} for {kind}", False
    if kind == "analyze":
        a = report["analysis"]
        degrees = [0] * entry.n
        for u, v in entry.edges:
            degrees[u] += 1
            degrees[v] += 1
        if not a["connected"] or (a["min_degree"], a["max_degree"]) != (min(degrees), max(degrees)):
            return "bad-report: connectivity or degrees", False
        structure = a["dominating_structure"]
        if structure is not None:
            members = structure.get("cycle", []) + structure.get("part_a", []) + structure.get("part_b", [])
            if not certcheck.dominates(entry.n, entry.edges, {inv[x] for x in members}):
                return "bad-report: dominating structure does not dominate", False
        return None, False
    # transform blowup: each round replaces every edge by a four-cycle
    rounds = report["rounds"]
    n, m = entry.n, len(entry.edges)
    for _ in range(rounds):
        n, m = n + 2 * m, 4 * m
    if rounds < 1 or (report["output"]["n"], report["output"]["m"]) != (n, m):
        return "bad-report: blow-up size", False
    return None, False


class CliUnit:
    """One `matchcut` command, run twice so that its output bytes can be
    compared; each run is an operation."""

    def __init__(self, entry, kind: str, argv: list[str], valid_cut: bool) -> None:
        self.entry = entry
        self.kind = kind
        self.argv = argv
        self.valid_cut = valid_cut

    def _once(self, mc, mark):
        if mark:
            mark()
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = mc.cli.main(self.argv)
        except SystemExit as exc:  # argparse rejected the command line
            return perf_counter() - t0, None, f"SystemExit: {exc.code}"
        except Exception as exc:
            return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - t0, code, out.getvalue()

    def run(self, mc, mark=None) -> Iterator[Op]:
        first = None
        for _ in range(2):
            seconds, code, text = self._once(mc, mark)
            is_solve = self.kind == "solve"
            if code is None:
                yield Op(seconds, is_solve, False, text)
                continue
            try:
                problem, decided = _check_report(self.entry, self.kind, self.valid_cut, code, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem, decided = f"bad-report: {type(exc).__name__}: {exc}", False
            if first is None:
                first = (code, text)
            elif problem is None and (code, text) != first:
                problem = "unstable-output: a repeated command printed different bytes"
            yield Op(seconds, is_solve, decided, problem)


def stream(workload: str, seed: int, mc, fixture: str, edge_dir: str):
    """The workload's units in corpus order, without end; each entry is
    made when its units are first needed. It gets its expected answer,
    and on cli-large its edge file, before its units are yielded, so
    neither is timed."""
    for i in itertools.count():
        e = corpus.entry(workload, seed, i, mc, fixture)
        e.blue_side = certcheck.find_blue_side(e.n, e.edges)
        if workload != "cli-large":
            yield SolveUnit(e)
        else:
            corpus.write_edge_file(e, i, edge_dir)
            valid, commands = cli_commands(e)
            for kind, argv in commands:
                yield CliUnit(e, kind, argv, valid)
