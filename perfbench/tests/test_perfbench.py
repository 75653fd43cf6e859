"""Tests of the benchmark's own logic (no program processes are started).

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import draws  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, covered, outermost, self_times  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    from repro.core import conditions, specs

    return draws.thm5_oracle_from(conditions, specs)


def take(it, n):
    return list(itertools.islice(it, n))


# ----------------------------------------------------------------------
# seeded generators
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "plan",
    [
        lambda seed, o: draws.cli_cold_plan(seed, o),
        lambda seed, o: draws.cold_plan(seed, o),
        lambda seed, o: iter(draws.hot_set(seed)),
    ],
    ids=["cli-cold", "cold-writer", "hot-set"],
)
def test_same_seed_same_requests_other_seed_other_requests(plan, oracle):
    n = 40
    assert take(plan(7, oracle), n) == take(plan(7, oracle), n)
    assert take(plan(7, oracle), n) != take(plan(8, oracle), n)


def test_no_cold_key_repeats_within_a_run(oracle):
    cold = take(draws.cold_plan(3, oracle), 3000)
    assert len({d.key for d in cold}) == len(cold)


def test_hot_and_cold_key_spaces_are_disjoint(oracle):
    hot = {d.key for d in draws.hot_set(3)}
    cold = {d.key for d in take(draws.cold_plan(3, oracle), 500)}
    assert len(hot) == len(draws.hot_set(3)) < 1024  # fits the server's hot tier
    assert not hot & cold


def test_every_round_has_the_same_family_mix(oracle):
    n = draws.CLI_ROUND
    plan = take(draws.cli_cold_plan(11, oracle), 3 * n)
    rounds = [plan[i : i + n] for i in range(0, 3 * n, n)]
    mixes = [sorted(d.family for d in r) for r in rounds]
    assert mixes[0] == mixes[1] == mixes[2]
    assert len(set(mixes[0])) == n  # one of each family


# ----------------------------------------------------------------------
# known answers
# ----------------------------------------------------------------------
PAPER_TABLE = {
    # family: {(scenario, params, budget): verdict} spot checks from the paper
    "fig1": {("fig1", "{}", 0): "unreachable", ("fig1", "{}", 1): "deadlock"},
    "fig3": {
        ("fig3-panel", '{"panel": "a"}', 0): "unreachable",
        ("fig3-panel", '{"panel": "b"}', 0): "unreachable",
        ("fig3-panel", '{"panel": "c"}', 0): "deadlock",
        ("fig3-panel", '{"panel": "f"}', 0): "deadlock",
    },
}


def test_known_answer_table_covers_every_family_drawn(oracle):
    documented = {
        line.split("``")[1]
        for line in draws.__doc__.splitlines()
        if line.startswith("``") and line.count("``") >= 2
    }
    drawn = {
        d.family
        for plan in (draws.cli_cold_plan(5, oracle), draws.cold_plan(5, oracle))
        for d in take(plan, 600)
    } | {d.family for d in draws.hot_set(5)}
    assert drawn <= documented
    for d in take(draws.cli_cold_plan(5, oracle), 600):
        assert d.expect in draws.VERDICTS[d.command]


def test_known_answers_match_the_paper():
    table = {
        (d.scenario, d.params_json, d.budget): d.expect
        for d in draws.fig1_draws() + draws.fig3_draws()
    }
    for family in PAPER_TABLE.values():
        for key, verdict in family.items():
            assert table[key] == verdict
    assert {d.expect for d in draws.fig2_pair_draws()} == {"deadlock"}
    assert {d.expect for d in draws.theorem2_draws()} == {"deadlock"}
    assert {d.expect for d in draws.ring_cycle_draws()} == {"deadlock"}


def test_shared_cycle_answers_come_from_the_theorem5_conditions(oracle):
    from repro.core.conditions import theorem5_predicts_unreachable
    from repro.core.specs import CycleMessageSpec

    import random

    for d in take(draws.shared_cycle_stream(random.Random(1), oracle), 50):
        p = d.params
        specs = [
            CycleMessageSpec(approach_len=a, hold_len=h, label=f"S{i}")
            for i, (a, h) in enumerate(zip(p["approaches"], p["holds"]))
        ]
        want = "unreachable" if theorem5_predicts_unreachable(specs) else "deadlock"
        assert d.expect == want


def test_a_draw_without_a_known_answer_is_refused():
    with pytest.raises(ValueError):
        draws.Draw("fig1", "search", "fig1", "{}", "no-deadlock")


def test_cli_args_and_http_body_ask_the_same_question():
    d = draws.Draw("fig1", "search", "fig1", '{"extra_length": 1}', "unreachable", 1, 4000001)
    assert d.cli_args() == [
        "search", "fig1", "--params", '{"extra_length": 1}',
        "--budget", "1", "--max-states", "4000001", "--json",
    ]
    assert d.http_body() == {
        "scenario": "fig1", "params": {"extra_length": 1}, "budget": 1, "max_states": 4000001,
    }


# ----------------------------------------------------------------------
# the tail rule
# ----------------------------------------------------------------------
def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]  # 1..100
    value, pct, beyond = stats.tail(values)
    assert (value, beyond) == (90.0, 10)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in values) == 10


def test_tail_picks_the_highest_qualifying_percentile():
    values = list(range(25))
    value, pct, beyond = stats.tail(values)
    assert beyond == 10 and value == 14
    assert pct == pytest.approx(100 * 15 / 25)


def test_tail_with_too_few_samples_reports_the_maximum_and_zero_beyond():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([]) == (0.0, 0.0, 0)


def test_quartile_spread_is_relative_to_the_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([9.0, 10.0, 10.0, 11.0]) > 0


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def span(sid, start, end, parent=None, name="x", **attrs):
    return Span(name, start, end, parent, sid, "run", attrs)


def test_overlapping_children_count_once():
    parent = span(1, 0.0, 10.0)
    kids = [span(2, 1.0, 5.0, 1), span(3, 3.0, 7.0, 1), span(4, 9.0, 12.0, 1)]
    # union [1, 7] + [9, 10] = 7 covered
    assert self_times([parent, *kids])[1] == pytest.approx(3.0)


def test_covered_clips_to_the_parent_and_skips_empty_intervals():
    assert covered([(-5, 2), (3, 3), (8, 20)], 0, 10) == pytest.approx(4.0)
    assert covered([], 0, 10) == 0.0


def test_outermost_counts_a_self_calling_layer_once():
    spans = [
        span(1, 0, 10, name="cache.get"),
        span(2, 1, 4, 1, name="cache.get"),
        span(3, 11, 12, name="cache.get"),
    ]
    assert [s.sid for s in outermost(spans, "cache.get")] == [1, 3]


def test_tracer_nests_spans_and_wraps_functions_in_place():
    tracer = Tracer("t")

    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    holder = type("M", (), {})()
    holder.work = Owner.work
    tracer.wrap(holder, "work", "layer", lambda sp, r, *a, **k: sp.attrs.update(r=r))
    with tracer.span("outer"):
        assert holder.work(21) == 42
    inner, outer = tracer.spans
    assert (inner.name, inner.parent, inner.attrs) == ("layer", outer.sid, {"r": 42})
    assert outer.parent is None


def test_aggregate_reports_layers_counts_and_runner_overhead():
    spans = [
        span(1, 0.0, 10.0, name="runner"),
        span(2, 1.0, 4.0, 1, name="task", kind="reachability", task_hash="a"),
        span(3, 1.5, 3.5, 2, name="search", states=7),
        span(4, 5.0, 9.0, 1, name="task", kind="simulate", task_hash="b"),
        span(5, 5.5, 8.5, 4, name="sim", cycles=300),
    ]
    m = layers.aggregate([spans])
    assert m["runner.overhead_s"] == pytest.approx(3.0)
    assert m["task.reachability.count"] == 1 and m["task.simulate.s"] == pytest.approx(4.0)
    assert m["search.states"] == 7 and m["sim.cycles"] == 300
    assert m["self_total"] == pytest.approx(10.0)


def test_import_times_parse_importtime_output():
    err = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |        350 | repro.analysis",
    ])
    t = layers.import_times(err)
    assert t["import.total_s"] == pytest.approx(350e-6)
    assert t["import.numpy_s"] == pytest.approx(300e-6)
    assert layers.imported_modules(err) == ["numpy.core", "numpy", "repro.analysis"]


def test_program_spans_match_benchmark_spans_by_key():
    pairs = layers.match_by_key([("a", 1.1), ("b", 2.0), ("c", 5.0)], [("b", 2.0), ("a", 1.0)])
    assert pairs == [(1.1, 1.0), (2.0, 2.0)]
    assert layers.gap_ratio(pairs) == pytest.approx(0.1 / 3.0)
