"""Golden parity: outcomes and report bytes must not drift between commits.

`tests/data/golden.json` holds, for a fixed corpus, what `solve`,
`run_strategy` and the command line produced when it was recorded. The
corpus is every connected graph on at most five vertices, a few seeded
random graphs and configs chosen so that `solve` ends in every
dispatcher stage, each forced stage on five named graphs, and the stdout
bytes of the subcommands on the bundled fixture.

A change that alters an outcome on purpose re-records the file with

    PYTHONPATH=src python -m tests.test_golden --record

and lists every changed entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from matchcut import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    load_edge_file,
    run_strategy,
    solve,
)
from matchcut.cli import main

from .helpers import all_connected_graphs, random_connected_graph

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "golden.json"
FIG1 = "fixtures/fig1.edges"

STAGES = ("smallcut", "radius2", "sp3p6", "backstop")

# Strategies `solve` must end in somewhere in the corpus.
REQUIRED = ("smallcut", "radius2", "sp3p6(s=1)>p6free", "sp3p6(s=1)", "backstop", "dispatch")

# (seed, `solve` keyword arguments); the comment names where solve ends.
SEEDED = (
    (2, {}),  # smallcut, a bridge
    (72, {}),  # smallcut
    (0, {}),  # radius2, no
    (8, {}),  # radius2, yes
    (86315, {}),  # sp3p6(s=1)>p6free, yes
    (233874, {}),  # sp3p6(s=1)>p6free, no
    (637, {}),  # sp3p6(s=1), no
    (1070, {}),  # sp3p6(s=1), yes
    (963, {}),  # backstop, yes
    (4216, {}),  # backstop, no
    (963, {"branch_budget": 1}),  # dispatch
)


def seeded_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    p = rng.choice([0.2, 0.25, 0.3, 0.4, 0.5])
    return random_connected_graph(n, rng, p)


def named_graphs() -> dict[str, Graph]:
    fig1, _ = load_edge_file(str(ROOT / FIG1))
    return {
        "fig1": fig1,
        "C6": cycle_graph(6),
        "C7": cycle_graph(7),
        "K4": complete_graph(4),
        "K3,3": complete_bipartite(3, 3),
    }


def cli_commands() -> list[list[str]]:
    commands = [
        ["solve", FIG1],
        ["oracle", FIG1],
        ["oracle", FIG1, "--bound", "10"],
        ["analyze", FIG1],
        ["analyze", "fixtures/two-c6.edges"],
        ["verify", FIG1, "--cut", "3-7"],
        ["verify", FIG1, "--cut", "1-2"],
    ]
    commands += [["solve", FIG1, "--strategy", name] for name in STAGES]
    commands += [
        ["transform", "k22", FIG1, "--edge", "3-7"],
        ["transform", "blowup", FIG1, "--pattern", "C5"],
        ["generate", "K3,3"],
        ["generate", "gnp", "--n", "9", "--seed", "3"],
        ["verify", FIG1, "--cut", "3-99"],
        ["solve", "fixtures/missing.edges"],
        ["generate", "Q9"],
    ]
    return commands


def _edge_text(g: Graph) -> str:
    return " ".join(f"{u}-{v}" for u, v in g.edges)


def _graph_from(n: int, text: str) -> Graph:
    return Graph(n, [tuple(map(int, pair.split("-"))) for pair in text.split()])


def _outcome(call) -> list:
    """[answer, strategy, cut edges, blue set, reason, trace], or
    ["error", class name, message] when the call raises."""
    try:
        out = call()
    except Exception as exc:
        return ["error", type(exc).__name__, str(exc)]
    cut = sorted(list(e) for e in out.cut.edges) if out.cut is not None else None
    blue = sorted(out.colouring.blue) if out.colouring is not None else None
    return [out.answer, out.strategy, cut, blue, out.reason, dict(sorted(out.trace.items()))]


def _run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return [code, out.getvalue(), err.getvalue()]


def record() -> dict:
    small = [
        [g.n, _edge_text(g), _outcome(lambda g=g: solve(g))]
        for n in range(1, 6)
        for g in all_connected_graphs(n)
    ]
    seeded = []
    for seed, kwargs in SEEDED:
        g = seeded_graph(seed)
        seeded.append([seed, kwargs, g.n, _edge_text(g), _outcome(lambda: solve(g, **kwargs))])
    forced = [
        [name, stage, _outcome(lambda: run_strategy(g, stage))]
        for name, g in named_graphs().items()
        for stage in STAGES
    ]
    cli = [[argv, *_run_cli(argv)] for argv in cli_commands()]
    return {"small": small, "seeded": seeded, "run_strategy": forced, "cli": cli}


def _dump(data: dict) -> str:
    """One entry per line, so a re-recording diffs entry by entry."""
    sections = []
    for key, rows in data.items():
        body = ",\n".join(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows)
        sections.append(f'"{key}": [\n{body}\n]')
    return "{\n" + ",\n".join(sections) + "\n}\n"


def _golden() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_small_graphs_match_the_recording():
    rows = _golden()["small"]
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    assert [(n, text) for n, text, _ in rows] == [(g.n, _edge_text(g)) for g in graphs]
    for n, text, want in rows:
        g = _graph_from(n, text)
        assert _outcome(lambda: solve(g)) == want, (n, text)


def test_seeded_graphs_match_the_recording():
    for seed, kwargs, n, text, want in _golden()["seeded"]:
        assert _edge_text(seeded_graph(seed)) == text
        g = _graph_from(n, text)
        assert _outcome(lambda: solve(g, **kwargs)) == want, (seed, kwargs)


def _endings(data: dict) -> set[str]:
    """The strategies `solve` ends in over the small and seeded rows."""
    return {row[2][1] for row in data["small"]} | {row[4][1] for row in data["seeded"]}


def test_every_dispatcher_ending_is_covered():
    assert set(REQUIRED) <= _endings(_golden())


def test_forced_stages_match_the_recording():
    graphs = named_graphs()
    rows = _golden()["run_strategy"]
    assert [(name, stage) for name, stage, _ in rows] == [(n, s) for n in graphs for s in STAGES]
    for name, stage, want in rows:
        assert _outcome(lambda: run_strategy(graphs[name], stage)) == want, (name, stage)


def test_cli_bytes_match_the_recording():
    rows = _golden()["cli"]
    assert [argv for argv, *_ in rows] == cli_commands()
    for argv, *want in rows:
        assert _run_cli(argv) == want, argv


def test_cli_bytes_match_the_recording_under_python_O():
    """No check that a report depends on is an `assert`, which -O strips."""
    script = (
        "import json\n"
        "from tests.test_golden import _run_cli, cli_commands\n"
        "print(json.dumps([__debug__, [[argv, *_run_cli(argv)] for argv in cli_commands()]]))\n"
    )
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    debug, rows = json.loads(proc.stdout)
    assert debug is False
    assert rows == _golden()["cli"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden --record")
    data = record()
    missing = sorted(set(REQUIRED) - _endings(data))
    if missing:
        sys.exit(f"not recorded: solve ends in none of {missing} on the corpus")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(_dump(data), encoding="utf-8")
