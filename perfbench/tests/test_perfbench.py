"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- tail rule


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(30))
    value, pct, n = stats.tail(reversed(xs))
    assert (value, n) == (19, 30)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_smallest_sample_count_with_a_tail():
    value, pct, n = stats.tail(range(11))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# ---------------------------------------------------------------- spans


def _span(sid, parent, name, start, end, **info):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
            "op": 0, "info": info}


def test_union_length_merges_overlaps():
    assert stats.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert stats.union_length([]) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans_ = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "protocol.run", 1.0, 4.0),
        _span(2, 1, "protocol.step_density", 2.0, 3.0),
        _span(3, 0, "measures.wigner", 5.0, 6.0),
    ]
    selfs = stats.self_times(spans_)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_concurrent_children_once():
    spans_ = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "protocol.run", 1.0, 6.0),
        _span(2, 0, "protocol.run", 3.0, 8.0),
    ]
    assert stats.self_times(spans_)[0] == pytest.approx(3.0)


# ---------------------------------------------------------------- step counting


def test_step_counts_separate_adaptive_reruns_from_completed_steps():
    threshold = 1e-6
    spans_ = [
        _span(0, None, "cli.main", 0, 100),
        _span(1, 0, "protocol.run", 1, 50),
        # step 1: breaches at 6 and 8, completes at the cap 10 still breaching
        _span(2, 1, "protocol.step_pure", 2, 3, cutoff=6, leak=1e-3),
        _span(3, 1, "fock.pad", 3, 4),
        _span(4, 1, "protocol.step_density", 4, 5, cutoff=8, leak=1e-5),
        _span(5, 1, "protocol.step_density", 6, 7, cutoff=10, leak=1e-4),
        # step 2 at the same cutoff, under the threshold
        _span(6, 1, "protocol.step_density", 8, 9, cutoff=10, leak=1e-7),
        # a step outside any run (gaussian-check) completes
        _span(7, 0, "protocol.step_pure", 60, 61, cutoff=14, leak=0.0),
    ]
    counts = stats.step_counts(spans_, threshold)
    assert counts["calls"] == 5
    assert counts["completed"] == 3
    assert counts["breaches"] == 1
    assert counts["cutoff_max"] == 14
    assert counts["cutoff_mean"] == pytest.approx((6 + 8 + 10 + 10 + 14) / 5)


def test_step_counts_leave_out_a_step_that_raised():
    spans_ = [
        _span(0, None, "cli.main", 0, 100),
        _span(1, 0, "protocol.run", 1, 50),
        _span(2, 1, "protocol.step_density", 2, 3, cutoff=6, leak=1e-3),
        _span(3, 1, "protocol.step_density", 4, 5, cutoff=8, error="RareOutcomeError"),
    ]
    counts = stats.step_counts(spans_, 1e-6)
    assert counts["calls"] == counts["completed"] == counts["breaches"] == 1
    assert counts["cutoff_max"] == 6
    m = spans.layer_metrics(spans_, [100.0], [100.0], 0, 1e-6)
    assert m["protocol.step_density.calls"] == 2
    assert m["protocol.step_yield"] == 1.0


def test_step_counts_keep_concurrent_runs_apart():
    # two sweep points in pool threads, interleaved in time, fixed cutoff 6
    spans_ = [_span(0, None, "cli.main", 0, 100),
              _span(1, 0, "protocol.run", 1, 50), _span(2, 0, "protocol.run", 1, 50)]
    sid = itertools.count(3)
    t = 2.0
    for _ in range(3):
        for run_id in (1, 2):
            spans_.append(_span(next(sid), run_id, "protocol.step_density", t, t + 1,
                                cutoff=6, leak=1e-3))
            t += 0.5
    counts = stats.step_counts(spans_, 1e-6)
    assert counts["calls"] == counts["completed"] == 6
    assert counts["breaches"] == 6


def test_layer_metrics_ratios():
    spans_ = [
        _span(0, None, "cli.main", 0.0, 4.0),
        _span(1, 0, "protocol.run", 0.5, 3.5),
        _span(2, 1, "protocol.step_density", 1.0, 2.0, cutoff=6, leak=1e-3),
        _span(3, 1, "protocol.step_density", 2.0, 3.0, cutoff=8, leak=1e-8),
        _span(4, 0, "measures.wigner", 3.5, 3.75, points=100),
    ]
    m = spans.layer_metrics(spans_, [5.0], [4.0], 1234, 1e-6)
    assert set(m) == {name for name, _, _ in spans.LAYER_METRICS}
    assert m["protocol.step_yield"] == pytest.approx(0.5)
    assert m["protocol.leak_breach_frac"] == 0.0
    assert m["protocol.step_density.calls"] == 2
    assert m["protocol.step_density.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(4.0 - 3.0 - 0.25)
    assert m["measures.wigner.points_per_s"] == pytest.approx(400.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)
    assert m["trace.unaccounted_frac"] == pytest.approx(0.2)
    assert m["cli.bytes_out"] == 1234


# ---------------------------------------------------------------- comparison


def test_pair_wins_ignore_ties():
    assert stats.pair_wins([1, 1, 1, 1], [0.5, 1, 2, 0.9], "lower") == 0.5
    assert stats.pair_wins([1, 1], [2, 1], "higher") == 0.5


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert stats.verdict(parent, faster, "lower", 0.1) == "improved"
    assert stats.verdict(parent, slower, "lower", 0.1) == "worse"
    assert stats.verdict(parent, slower, "higher", 0.1) == "improved"
    assert stats.verdict(parent, list(reversed(parent)), "lower", 0.1) == "no worse"
    assert stats.verdict(parent, [v * 1.05 for v in parent], "lower", 0.1) == "no worse"
    assert stats.verdict(parent, noisy, "lower", 0.1) == "unresolved"


def _runs(seeds, values, ops=None):
    """One workload's records: ops_per_s per seed and, optionally, the same
    ops list (ok, leaks) in every record."""
    return {"w": [{"seed": s, "metrics": {"ops_per_s": {"value": v}},
                   "ops": ops if ops is not None else []}
                  for s, v in zip(seeds, values)]}


OPS_PER_S = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def test_compare_pairs_by_common_seed():
    import compare

    parent = _runs([1, 2, 3], [1.0, 2.0, 3.0])
    (row,), _ = compare.compare(parent, _runs([2, 3, 4], [2.5, 3.5, 9.0]), OPS_PER_S)
    assert row["pairs"] == 2 and row["wins"] == 1.0
    with pytest.raises(ValueError, match="share no seed"):
        compare.compare(parent, _runs([7, 8], [0.5, 0.5]), OPS_PER_S)
    with pytest.raises(ValueError, match="workloads differ"):
        compare.compare(parent, {}, OPS_PER_S)


def test_compare_outcomes_over_common_commands_and_gains_not_counted():
    import compare

    ok = {"ok": True, "leaks": [1e-3, 1e-8]}
    bad = {"ok": False, "leaks": []}
    seeds = list(range(10))
    parent = _runs(seeds, [1.0] * 10, [ok, ok])
    # the change runs more commands; the extra one does not count
    same = _runs(seeds, [2.0] * 10, [ok, ok, bad])
    rows, outcome_rows = compare.compare(parent, same, OPS_PER_S)
    assert [r["verdict"] for r in outcome_rows] == ["no worse", "no worse"]
    assert outcome_rows[1]["parent"] == outcome_rows[1]["change"] == 0.5
    assert rows[0]["verdict"] == "improved" and not rows[0]["note"]

    failing = _runs(seeds, [2.0] * 10, [ok, bad])
    rows, outcome_rows = compare.compare(parent, failing, OPS_PER_S)
    assert outcome_rows[0] == {"workload": "w", "metric": "failed_frac", "parent": 0.0,
                               "change": 0.5, "verdict": "worse"}
    assert rows[0]["verdict"] == "no worse"
    assert "failed_frac" in rows[0]["note"]

    breaching = _runs(seeds, [2.0] * 10, [ok, {"ok": True, "leaks": [1e-3, 1e-3]}])
    rows, outcome_rows = compare.compare(parent, breaching, OPS_PER_S)
    assert outcome_rows[1]["change"] == 0.75 and outcome_rows[1]["verdict"] == "worse"
    assert rows[0]["verdict"] == "no worse"


# ---------------------------------------------------------------- definitions


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
    assert [w["why"] for w in bench["workloads"]] == list(workloads.WHY.values())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in spans.LAYER_METRICS
    ]


def test_generation_is_seeded_and_replayable():
    for workload in workloads.GENERATORS:
        first = list(itertools.islice(workloads.commands(workload, 7), 12))
        again = list(itertools.islice(workloads.commands(workload, 7), 12))
        other = list(itertools.islice(workloads.commands(workload, 8), 12))
        assert first == again
        assert first != other


def test_sweep_commands_stay_on_the_reference_grid():
    reference = checks.load_reference()
    for argv in itertools.islice(workloads.commands("eta-sweep", 3), 40):
        d = argv[argv.index("--truncation") + 1]
        for eta in argv[argv.index("--sweep-eta") + 1].split(","):
            assert len(reference["log_negativity"][d][eta]) == workloads.SWEEP_MAX_STEPS


# ---------------------------------------------------------------- checks and tracing


def test_run_check_flags_a_broken_running_product(tmp_path):
    out = str(tmp_path / "trace")
    rows = ["0,1,1,1.0,1,0.1,0", "1,0.5,0.5,1.1,1,0.1,1e-3", "2,0.5,0.3,1.2,1,0.1,1e-8"]
    with open(out + ".csv", "w", encoding="utf-8") as handle:
        handle.write("# gaussify output\n" + checks.RUN_HEADER + "\n" + "\n".join(rows) + "\n")
    problems, leaks = checks.check_run(["run", "--steps", "2"], out)
    assert leaks == [1e-3, 1e-8]
    assert len(problems) == 1 and "p_cumulative" in problems[0]


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import gaussify
    from gaussify import cli, protocol

    original = protocol.one_step
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        assert protocol.one_step is not original
        assert gaussify.one_step is protocol.one_step
        assert cli.run is protocol.run
        out = str(tmp_path / "t.csv")
        assert cli.main(["run", "--steps", "2", "--truncation", "4",
                         "--detector", "onoff:0.5", "--out", out]) == 0
    finally:
        tracer.uninstall()
    assert protocol.one_step is original and gaussify.one_step is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (root,) = by_name["cli.main"]
    (run_span,) = by_name["protocol.run"]
    assert root["parent"] is None and run_span["parent"] == root["id"]
    steps = by_name["protocol.step_pure"] + by_name["protocol.step_density"]
    assert all(s["parent"] == run_span["id"] for s in steps)
    assert len(steps) == 2 + len(by_name.get("fock.pad", []))
    assert all("leak" in s["info"] and "cutoff" in s["info"] for s in steps)
