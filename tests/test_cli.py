import argparse
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchcut
from matchcut import format_edge_text, is_matching_cut, load_edge_file
from matchcut.cli import _report_text, build_parser, main
from .test_graphs import PETERSEN
from .test_strategies import k66_with_pendants, k66_with_triangles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_fixture_yes(self, capsys, fig1_path, fig1):
        code, out, err = run_cli(capsys, "solve", fig1_path)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 2
        assert report["outcome"] == "yes"
        g, labels = fig1
        back = {lab: v for v, lab in enumerate(labels)}
        cut = [(back[u], back[v]) for u, v in report["certificate"]["cut_edges"]]
        assert is_matching_cut(g, cut)
        assert "solve yes" in err

    def test_quiet_silences_summary(self, capsys, fig1_path):
        code, out, err = run_cli(capsys, "solve", fig1_path, "--quiet")
        assert code == 0 and err == ""

    def test_forced_strategy_inapplicable_exit(self, capsys, fig1_path):
        code, out, _ = run_cli(capsys, "solve", fig1_path, "--strategy", "radius2", "--quiet")
        assert code == 2
        assert json.loads(out)["outcome"] == "inapplicable"

    def test_no_answer_exit_is_zero(self, capsys, tmp_path):
        k4 = write_graph(tmp_path, "k4.edges", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "solve", k4, "--quiet")
        assert code == 0
        assert json.loads(out)["outcome"] == "no"

    def test_k66_with_triangles_is_no_from_p6free(self, capsys, tmp_path):
        path = write_graph(tmp_path, "triangles.edges", format_edge_text(k66_with_triangles()))
        code, out, _ = run_cli(capsys, "solve", path, "--quiet")
        assert code == 0
        report = json.loads(out)
        assert (report["outcome"], report["strategy"], report["trace"]["structure"]) == ("no", "sp3p6(s=1)>p6free", 12)

    def test_byte_identical_reruns(self, capsys, fig1_path):
        _, first, _ = run_cli(capsys, "solve", fig1_path, "--quiet")
        _, second, _ = run_cli(capsys, "solve", fig1_path, "--quiet")
        assert first == second

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.edges"))
        assert code == 1 and "error:" in err

    def test_malformed_file_names_the_line(self, capsys, tmp_path):
        bad = write_graph(tmp_path, "bad.edges", "0 1\nfoo bar\n")
        code, _, err = run_cli(capsys, "solve", bad)
        assert code == 1 and "line 2" in err

    def test_undecodable_file_names_the_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"\xff\xfe0 1\n")
        code, out, err = run_cli(capsys, "solve", str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


class TestOracle:
    def test_matches_solve(self, capsys, fig1_path):
        code, out, _ = run_cli(capsys, "oracle", fig1_path, "--quiet")
        assert code == 0
        assert json.loads(out)["outcome"] == "yes"

    def test_bound_refusal_is_an_error(self, capsys, fig1_path):
        code, _, err = run_cli(capsys, "oracle", fig1_path, "--bound", "10")
        assert code == 1 and "error:" in err


class TestAnalyze:
    def test_fixture_metrics(self, capsys, fig1_path):
        code, out, _ = run_cli(capsys, "analyze", fig1_path, "--quiet")
        assert code == 0
        a = json.loads(out)["analysis"]
        assert a["connected"] is True
        assert a["girth"] == 3
        assert a["radius"] == 3
        assert a["p6_free"] is False
        assert a["dominating_structure"] is None

    def test_p6_free_graph_reports_structure(self, capsys, tmp_path):
        c6 = write_graph(tmp_path, "c6.edges", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
        _, out, _ = run_cli(capsys, "analyze", c6, "--quiet")
        a = json.loads(out)["analysis"]
        assert a["p6_free"] is True
        assert a["dominating_structure"]["kind"] == "cycle6"

    def test_k66_with_pendants_reports_a_6_6_biclique(self, capsys, tmp_path):
        path = write_graph(tmp_path, "pendants.edges", format_edge_text(k66_with_pendants()))
        code, out, _ = run_cli(capsys, "analyze", path, "--quiet")
        assert code == 0
        structure = json.loads(out)["analysis"]["dominating_structure"]
        assert structure["kind"] == "biclique"
        assert (len(structure["part_a"]), len(structure["part_b"])) == (6, 6)

    def test_petersen_reports_a_star(self, capsys, tmp_path):
        path = write_graph(tmp_path, "petersen.edges", format_edge_text(PETERSEN))
        code, out, _ = run_cli(capsys, "analyze", path, "--quiet")
        assert code == 0
        structure = json.loads(out)["analysis"]["dominating_structure"]
        assert structure == {"kind": "biclique", "part_a": [0], "part_b": [1, 4, 5]}
        code, out, _ = run_cli(capsys, "solve", path, "--strategy", "sp3p6", "--quiet")
        assert code == 0
        assert json.loads(out)["outcome"] == "yes"

    def test_one_distance_profile_per_analyze(self, capsys, monkeypatch, fig1_path):
        calls = []
        profile = matchcut.graphs.distance_profile
        for module in (matchcut.graphs, matchcut.strategies, matchcut.cli):
            if hasattr(module, "distance_profile"):
                monkeypatch.setattr(module, "distance_profile", lambda g: calls.append(g) or profile(g))
        code, out, _ = run_cli(capsys, "analyze", fig1_path, "--quiet")
        assert code == 0 and json.loads(out)["analysis"]["radius"] == 3
        assert len(calls) == 1


class TestVerify:
    def test_published_cut(self, capsys, fig1_path):
        code, out, _ = run_cli(
            capsys, "verify", fig1_path, "--cut", "3-7,4-8,5-10,6-9", "--quiet"
        )
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "valid"
        assert sorted(report["certificate"]["red"]) == [1, 2, 3, 4, 5, 6]

    def test_bad_cut_fails(self, capsys, fig1_path):
        code, out, _ = run_cli(capsys, "verify", fig1_path, "--cut", "1-2", "--quiet")
        assert code == 1
        assert json.loads(out)["outcome"] == "invalid"

    def test_unknown_vertex(self, capsys, fig1_path):
        code, _, err = run_cli(capsys, "verify", fig1_path, "--cut", "3-99")
        assert code == 1 and "99" in err

    def test_garbled_cut_syntax(self, capsys, fig1_path):
        code, _, err = run_cli(capsys, "verify", fig1_path, "--cut", "3:7")
        assert code == 1 and "expected" in err

    def test_disconnected_graph_is_an_error(self, capsys, tmp_path):
        # 0-1 is a matching, and the graph is already disconnected without it
        two = write_graph(tmp_path, "two.edges", "0 1\n1 2\n2 0\n3 4\n")
        code, out, err = run_cli(capsys, "verify", two, "--cut", "0-1")
        assert code == 1 and out == ""
        assert err == "error: graph not connected\n"


class TestTransform:
    def test_k22_in_original_labels(self, capsys, fig1_path, tmp_path):
        out_file = str(tmp_path / "out.edges")
        code, out, _ = run_cli(
            capsys, "transform", "k22", fig1_path, "--edge", "3-7",
            "--out", out_file, "--quiet",
        )
        assert code == 0
        report = json.loads(out)
        assert report["output"]["n"] == 16 and report["output"]["m"] == 24
        assert report["input_labels"][:3] == [1, 2, 3]
        g, _ = load_edge_file(out_file)
        assert (g.n, g.m) == (16, 24)

    def test_k22_rejects_non_edge(self, capsys, fig1_path):
        code, _, err = run_cli(capsys, "transform", "k22", fig1_path, "--edge", "1-14")
        assert code == 1 and "not an edge" in err

    def test_k22_requires_edge_argument(self, capsys, fig1_path):
        code, _, err = run_cli(capsys, "transform", "k22", fig1_path)
        assert code == 1 and "--edge" in err

    def test_blowup(self, capsys, tmp_path):
        tri = write_graph(tmp_path, "c3.edges", "0 1\n1 2\n2 0\n")
        code, out, _ = run_cli(
            capsys, "transform", "blowup", tri, "--pattern", "C5", "--quiet"
        )
        assert code == 0
        report = json.loads(out)
        assert report["rounds"] == 1
        assert report["output"]["n"] == 9

    def test_blowup_rejects_impossible_pattern(self, capsys, tmp_path):
        tri = write_graph(tmp_path, "c3.edges", "0 1\n1 2\n2 0\n")
        code, _, err = run_cli(capsys, "transform", "blowup", tri, "--pattern", "C8")
        assert code == 1 and "error:" in err


class TestGenerate:
    def test_catalog_name(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "C6", "--quiet")
        assert code == 0
        report = json.loads(out)
        assert report["output"]["n"] == 6 and report["output"]["m"] == 6

    def test_gnp_deterministic_output(self, capsys, tmp_path):
        _, first, _ = run_cli(capsys, "generate", "gnp", "--n", "9", "--seed", "3", "--quiet")
        _, second, _ = run_cli(capsys, "generate", "gnp", "--n", "9", "--seed", "3", "--quiet")
        assert first == second

    def test_pattern_free_requires_avoid(self, capsys):
        code, _, err = run_cli(capsys, "generate", "pattern-free")
        assert code == 1 and "--avoid" in err

    def test_writes_edge_file(self, capsys, tmp_path):
        out_file = str(tmp_path / "gen.edges")
        run_cli(capsys, "generate", "radius2", "--n", "8", "--out", out_file, "--quiet")
        g, _ = load_edge_file(out_file)
        assert g.n == 8

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "generate", "Q9")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv", [["gnp", "--n", "1"], ["pattern-free", "--n", "0", "--avoid", "P3"]]
    )
    def test_graphs_too_small_for_an_edge_file_are_refused(self, capsys, tmp_path, argv):
        out_file = tmp_path / "gen.edges"
        code, out, err = run_cli(capsys, "generate", *argv, "--out", str(out_file))
        assert (code, out, err) == (1, "", "error: n must be at least 2\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("p", ["1.5", "-0.5", "nan"])
    @pytest.mark.parametrize(
        "family", [["gnp"], ["radius2"], ["pattern-free", "--avoid", "P3"]], ids=lambda f: f[0]
    )
    def test_edge_probability_outside_0_1_is_refused(self, capsys, tmp_path, family, p):
        out_file = tmp_path / "gen.edges"
        code, out, err = run_cli(capsys, "generate", *family, "--n", "4", "--p", p, "--out", str(out_file))
        assert (code, out, err) == (1, "", f"error: p must lie in [0, 1], not {float(p)}\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("command", [["generate", "C5"], ["transform", "blowup", "{c3}", "--pattern", "C5"]])
    def test_unwritable_out_is_an_error(self, capsys, tmp_path, command):
        c3 = write_graph(tmp_path, "c3.edges", "0 1\n1 2\n2 0\n")
        target = str(tmp_path / "missing" / "x.edges")
        argv = [arg.format(c3=c3) for arg in command]
        code, out, err = run_cli(capsys, *argv, "--out", target)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "{fig1}"],
        ["oracle", "{fig1}"],
        ["analyze", "{fig1}"],
        ["verify", "{fig1}", "--cut", "3-7,4-8,5-10,6-9"],
        ["transform", "k22", "{fig1}", "--edge", "3-7"],
        ["generate", "C6"],
    ],
    ids=lambda command: command[0],
)
def test_timing_flag(capsys, fig1_path, command):
    argv = [arg.format(fig1=fig1_path) for arg in command]
    code, out, _ = run_cli(capsys, *argv, "--timing", "--quiet")
    assert code == 0
    assert isinstance(json.loads(out)["timing_ms"], float)


PACKAGE_ERRORS = sorted(
    {
        obj
        for obj in map(vars(matchcut).get, matchcut.__all__)
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    | {ValueError, RuntimeError, matchcut.cli.CliError},
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_package_errors_map_to_exit_one(capsys, monkeypatch, fig1_path, error):
    def fail(*args, **kwargs):
        raise error("stage failed")

    monkeypatch.setattr(matchcut.strategies, "solve_radius_le2", fail)
    code, out, err = run_cli(capsys, "solve", fig1_path, "--strategy", "radius2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _refuse(*args):
    raise AssertionError("computed a fact this command does not use")


def test_facts_are_computed_only_where_used(capsys, monkeypatch, fig1_path):
    """Only analyze and the solvers from radius2 on need the all-pairs BFS,
    and transform needs no connectivity check."""
    transform = ("transform", "blowup", fig1_path, "--pattern", "C5", "--quiet")
    monkeypatch.setattr(matchcut.strategies, "distance_profile", _refuse)
    for argv in (("verify", fig1_path, "--cut", "3-7", "--quiet"), transform, ("solve", fig1_path, "--quiet")):
        assert run_cli(capsys, *argv)[0] == 0, argv
    monkeypatch.setattr(matchcut.strategies, "is_connected", _refuse)
    assert run_cli(capsys, *transform)[0] == 0


@pytest.mark.parametrize("command", [["solve", "--quiet"], ["verify", "--cut", "3-7"]], ids=lambda c: c[0])
def test_closed_stdout_is_one_error_line(fig1_path, command):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "matchcut.cli", command[0], fig1_path, *command[1:]],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["solve", "PATH", "--strategy", "nope"], ["solve", "PATH", "--branch-budget", "abc"], ["solve"]],
    ids=["unknown-strategy", "non-integer-budget", "missing-path"],
)
def test_usage_errors_are_one_line_and_exit_one(capsys, fig1_path, argv):
    argv = [fig1_path if arg == "PATH" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_one_parser_serves_every_call(capsys, monkeypatch, fig1_path):
    argvs = [
        ["solve", fig1_path, "--strategy", "backstop"],
        ["solve", fig1_path],
        ["solve", fig1_path, "--strategy", "nope"],
        ["verify", fig1_path, "--cut", "3-7"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error
            code = ("exit", exc.code)
        return code, *capsys.readouterr()

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k)
    )
    for i, argv in enumerate(argvs):
        before = len(built)
        assert run(argv) == fresh[i], argv
        assert (len(built) > before) == (i == 0), argv  # only the first call builds


_text = st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7fé€😀') | st.characters())
_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**100), 2**100)
    | st.floats() | _text
)
_int_lists = st.lists(st.integers() | st.booleans(), max_size=5)
_edge_lists = st.lists(st.lists(st.integers(), min_size=1, max_size=3), max_size=6)
_reports = st.recursive(
    _scalars | _int_lists | st.lists(_int_lists, max_size=4) | _edge_lists
    | st.lists(st.tuples(st.integers(), st.integers())),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=25,
)


@given(_reports)
@settings(max_examples=300, deadline=None)
def test_report_text_is_json_dumps_with_sorted_keys_and_indent_2(report):
    assert _report_text(report) == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_branch_budget_below_one_is_an_error(capsys, fig1_path, budget):
    code, out, err = run_cli(capsys, "solve", fig1_path, "--branch-budget", budget)
    assert code == 1 and out == ""
    assert err == "error: --branch-budget must be at least 1\n"


def test_help_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: matchcut")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "matchcut" in capsys.readouterr().out


def test_console_script_roundtrip(fig1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "matchcut.cli", "solve", fig1_path, "--quiet"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "yes"
