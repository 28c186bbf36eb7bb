"""Tests of the benchmark's own parts: percentiles, the independent
checker, corpus seeding and the tracer."""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))

import matchcut  # noqa: E402
import matchcut.cli  # noqa: E402

import certcheck  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FIG1 = str(ROOT / "fixtures" / "fig1.edges")


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile([7.5], 90) == 7.5
    assert run.percentile([1, 2, 3, 4], 50) == 2
    # p90 needs 100 samples before ten of them lie beyond it
    assert run.beyond(100, 90) == 10
    assert run.beyond(99, 90) == 9
    assert run.beyond(1, 50) == 0


def test_checker_accepts_a_real_matching_cut():
    # a 6-cycle split into two paths by two opposite edges
    edges = [(i, (i + 1) % 6) for i in range(6)]
    assert certcheck.cut_problem(6, edges, [(0, 1), (3, 4)], {1, 2, 3}) is None
    assert certcheck.is_matching_cut(6, edges, [(1, 0), (4, 3)])


def test_checker_rejects_non_matching_and_non_disconnecting_cuts():
    edges = [(i, (i + 1) % 6) for i in range(6)]
    # shares vertex 1, so not a matching, although it disconnects
    assert "shares an endpoint" in certcheck.cut_problem(6, edges, [(0, 1), (1, 2)], {1})
    assert not certcheck.is_matching_cut(6, edges, [(0, 1), (1, 2)])
    # one edge of a cycle is a matching but leaves the graph connected
    assert not certcheck.is_matching_cut(6, edges, [(0, 1)])
    k4 = list(itertools.combinations(range(4), 2))
    # a perfect matching of K4 is not a cut: the other four edges join everything
    assert certcheck.cut_problem(4, k4, [(0, 1), (2, 3)], {1, 3}) is not None
    assert not certcheck.is_matching_cut(4, k4, [(0, 1), (2, 3)])
    assert "not an edge" in certcheck.cut_problem(6, edges, [(0, 3)], {1, 2, 3})
    assert certcheck.cut_problem(6, edges, [], {1}) == "empty cut"
    assert "differs" in certcheck.cut_problem(6, edges, [(0, 1), (3, 4)], {1, 2})


def brute_force_has_matching_cut(n: int, edges) -> bool:
    """Plain enumeration of all 2^(n-1) bipartitions, the reference for
    the pruned search."""
    adj = certcheck.adjacency(n, edges)
    full = (1 << n) - 1
    for blue in range(2, 1 << n, 2):
        red = full ^ blue
        if all((nb & (red if blue >> v & 1 else blue)).bit_count() <= 1 for v, nb in enumerate(adj)):
            return True
    return False


def test_exact_search_matches_plain_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 9)
        g = matchcut.random_gnp(n, rng.uniform(0.2, 0.8), rng.randrange(1 << 20))
        side = certcheck.find_blue_side(g.n, g.edges)
        assert (side is not None) == brute_force_has_matching_cut(g.n, g.edges)
        if side is not None:
            blue = [v for v in range(n) if side >> v & 1]
            cut = [(u, v) for u, v in g.edges if (side >> u & 1) != (side >> v & 1)]
            assert certcheck.cut_problem(g.n, g.edges, cut, blue) is None


def _corpus(workload: str, seed: int, count: int):
    return [corpus.entry(workload, seed, i, matchcut, FIG1) for i in range(count)]


def _fingerprint(entries):
    return [(e.name, e.n, e.edges, e.labels) for e in entries]


def test_same_seed_same_corpus_and_other_seed_other_corpus():
    for workload in corpus.WORKLOADS:
        count = len(corpus.STRATA[workload])
        a = _corpus(workload, 3, count)
        b = _corpus(workload, 3, count)
        c = _corpus(workload, 4, count)
        assert _fingerprint(a) == _fingerprint(b)
        assert _fingerprint(a) != _fingerprint(c)
        # the seed changes graphs, not the mix of families and sizes
        assert [e.name for e in a] == [e.name for e in c]
        for e in a:
            assert min(u for edge in e.edges for u in edge) == 0
            assert certcheck._reachable(e.n, e.edges, set()) == e.n


def test_lift_entries_reach_the_finisher():
    lift = [i for i, (family, _) in enumerate(corpus.STRATA["solve-sparse"]) if family == "lift"]
    assert lift
    finished = 0
    for i in lift:
        e = corpus.entry("solve-sparse", 5, i, matchcut, FIG1)
        with tracer.Tracer(matchcut) as tr:
            out = matchcut.solve(e.graph)
        assert out.strategy.startswith("sp3p6")
        finished += tr.layer_stats().get("finisher.decide_monochromatic_extension", {}).get("calls", 0)
    assert finished > 0


class _Unit:
    def __init__(self, seconds: float, is_solve: bool) -> None:
        self.op = workloads.Op(seconds, is_solve, True, None)

    def run(self, mc, mark=None):
        return [self.op]


def test_timed_run_goes_on_until_a_solve_and_enough_samples_beyond_p90():
    ref = run.Reference()
    units = [_Unit(1.0, False)] * 150 + [_Unit(1.0, True)] * 10
    ops = run.run_units(None, units, ref, run.timed_enough(5))
    # 5 s are reached after 5 operations, but p90 needs 100 samples and
    # the first solve is the 151st
    assert len(ops) == 151
    assert run.beyond(len(ops), 90) >= run.MIN_BEYOND_P90


def test_end_to_end_without_a_solve_is_an_error_not_a_crash():
    ops = [workloads.Op(0.01, False, False, None, scaled=0.01) for _ in range(100)]
    with pytest.raises(run.BenchError, match="no solve"):
        run.end_to_end(ops, 0.1)


def test_wrong_verdicts_and_bad_certificates_are_failures():
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    entry = corpus.Entry("c4", 4, edges, blue_side=0b0110)
    assert workloads.check_verdict(entry, "yes", [(0, 1), (2, 3)], {1, 2}) is None
    assert workloads.check_verdict(entry, "no", (), ()).startswith("wrong-verdict")
    assert workloads.check_verdict(entry, "yes", [(0, 1)], {1}).startswith("bad-certificate")
    assert workloads.check_verdict(entry, "inapplicable", (), ()) is None
    entry.blue_side = None
    assert workloads.check_verdict(entry, "yes", [(0, 1), (2, 3)], {1, 2}).startswith("wrong-verdict")


def _public_functions():
    modules = [matchcut] + [getattr(matchcut, name) for name in tracer.MODULES]
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()
            if inspect.isfunction(value)}


def test_traced_solve_matches_untraced_and_wrappers_are_removed(tmp_path):
    before = _public_functions()
    g, _ = matchcut.load_edge_file(FIG1)
    dense = matchcut.random_gnp(16, 0.3, 2)
    plain = [matchcut.solve(x) for x in (g, dense)]
    with tracer.Tracer(matchcut) as tr:
        assert matchcut.solve is not before[("matchcut", "solve")]
        assert matchcut.strategies.small_matching_cut is not before[("matchcut.strategies", "small_matching_cut")]
        traced = [matchcut.solve(x) for x in (g, dense)]
        assert matchcut.cli.main(["analyze", FIG1, "--quiet"]) == 0
    assert _public_functions() == before
    for a, b in zip(plain, traced):
        assert (a.answer, a.strategy, a.cut, a.colouring, a.trace) == (b.answer, b.strategy, b.cut, b.colouring, b.trace)
    stats = tr.layer_stats()
    assert stats["strategies.solve"]["calls"] == 2
    assert stats["cli.main.analyze"]["calls"] == 1
    # functions reached through `from .graphs import ...` are traced too
    assert stats["graphs.connected_components"]["calls"] > 0
    assert "graphs.is_dominating" not in stats
    solve = stats["strategies.solve"]
    assert 0 < solve["self_ms"] <= solve["busy_ms"]
    out = tmp_path / "spans.csv.gz"
    tr.write(str(out))
    assert out.stat().st_size > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == corpus.WORKLOADS
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]
        layer, stat = m["name"].rsplit(".", 1)
        if stat == "useful_ratio":
            assert layer in tracer.USEFUL
