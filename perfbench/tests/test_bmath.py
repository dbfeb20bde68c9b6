"""Tests for the benchmark's own math and catalogue.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from bmath import (  # noqa: E402
    OpenLoopRequest,
    Ratio,
    covered,
    due_latency,
    generator_lag,
    self_time,
    slo_attainment,
    speed_factor,
    tail,
)
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402


# -- the tail-percentile rule ---------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    t = tail(range(1, 101))  # 1..100
    assert t.value == 90 and t.percentile == 90.0
    assert t.samples == 100 and t.beyond == 10


def test_tail_with_eleven_samples_is_the_minimum():
    t = tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert t.value == 1.0
    assert t.percentile == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_tail_counts_ties_by_rank():
    t = tail([1.0] * 20 + [2.0] * 5)
    assert t.value == 1.0 and t.beyond == 10


# -- self time = span − covered child time --------------------------------------


def test_self_time_subtracts_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_overlapping_children_count_once():
    assert covered([(1.0, 4.0), (2.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0)]) == pytest.approx(5.0)


def test_children_are_clipped_to_the_span():
    assert self_time(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0)]) == pytest.approx(1.0)


def test_inner_seconds_leave_self_time_never_negative():
    assert self_time(0.0, 4.0, [(0.0, 1.0)], inner=2.0) == pytest.approx(1.0)
    assert self_time(0.0, 4.0, [(0.0, 3.0)], inner=2.0) == 0.0


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_tracer_attribution_adds_up_to_request_wall():
    # request [0, 10]: ordering.nd [1, 4], mf.factor [4, 9] holding mf.solve
    # [5, 6] and 2 s of dense kernels read from a profile.
    tr = Tracer(clock=FakeClock([0, 1, 4, 4, 5, 6, 9, 10]))
    with tr.request(0):
        with tr.span("ordering.nd"):
            pass
        with tr.span("mf.factor") as sp:
            with tr.span("mf.solve"):
                pass
        sp.inner["dense"] = 2.0
    att = tr.attribution()
    assert att["wall"] == 10 and att["requests"] == 1
    assert att["layers"]["ordering"] == pytest.approx(3.0)
    assert att["layers"]["mf"] == pytest.approx(1.0 + 2.0)  # solve 1 + factor self 2
    assert att["layers"]["dense"] == pytest.approx(2.0)
    assert att["unattributed"] == pytest.approx(2.0)
    assert sum(att["layers"].values()) + att["unattributed"] == pytest.approx(att["wall"])
    assert tr.self_total("mf.factor") == pytest.approx(2.0)


def test_tracer_rejects_unknown_layers_and_nested_requests():
    tr = Tracer()
    with pytest.raises(ValueError):
        with tr.span("gpu.kernel"):
            pass
    with tr.request(0), pytest.raises(RuntimeError):
        with tr.request(1):
            pass


# -- open-loop accounting -------------------------------------------------------


def test_latency_runs_from_due_time_and_lag_is_measured():
    late = OpenLoopRequest(due=1.0, submitted=1.5, completed=2.25)
    assert due_latency(late) == pytest.approx(1.25)
    assert generator_lag(late) == pytest.approx(0.5)
    on_time = OpenLoopRequest(due=3.0, submitted=3.0, completed=3.5)
    assert generator_lag(on_time) == 0.0
    assert due_latency(OpenLoopRequest(due=1.0, submitted=1.0, completed=None)) is None


def test_refused_and_failed_requests_miss_the_slo():
    # four sent: two completed (one within the limit), one failed, one refused
    assert slo_attainment([0.1, 0.9], sent=4, limit=0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        slo_attainment([], sent=0, limit=1.0)


# -- host-speed normalization ---------------------------------------------------


def test_speed_factor_takes_the_reference_around_the_interval():
    # (start, duration): the host ran at nominal, then twice as slow
    samples = [(0.0, 1.0), (2.0, 1.0), (5.0, 2.0), (9.0, 2.0)]
    assert speed_factor(samples, 3.0, 4.5, nominal=1.0) == pytest.approx(1.5)
    assert speed_factor(samples, 6.0, 8.0, nominal=1.0) == pytest.approx(2.0)
    assert speed_factor(samples, 0.5, 1.5, nominal=2.0) == pytest.approx(0.5)
    # one side missing: the other side alone; no samples: nominal
    assert speed_factor(samples, 9.5, 10.0, nominal=1.0) == pytest.approx(2.0)
    assert speed_factor(samples[2:], 1.0, 2.0, nominal=1.0) == pytest.approx(2.0)
    assert speed_factor([], 1.0, 2.0, nominal=1.0) == 1.0


def test_reference_seconds_cancel_a_uniform_slowdown():
    # each sample reads the clock at its start, then around three runs
    ticks = [0, 0, 1, 1, 2, 2, 3]  # at 0: three runs of 1 s
    ticks += [4, 4, 5, 5, 15, 15, 16]  # at 4: 1 s, 10 s (preempted), 1 s
    host = HostSpeed(clock=FakeClock(ticks), work=lambda: None, nominal=0.5)
    host.sample()
    host.sample()
    # the median run ignores the preempted one: the reference took 1 s on
    # both sides, twice its nominal, so the host ran at half speed and a
    # request timed over 3 -> 4 s, 1 s of wall clock, is 0.5 reference s
    assert host.samples == [(0, 1), (4, 1)]
    assert host.factor(3.0, 4.0) == pytest.approx(2.0)
    assert host.scale(1.0, 3.0, 4.0) == pytest.approx(0.5)
    assert host.median_factor() == pytest.approx(2.0)


# -- ratios carry their base ----------------------------------------------------


def test_ratio_states_its_base():
    r = Ratio(3.0, 2.0, "seq refactor, same matrices")
    assert r.value == 1.5
    assert "base: seq refactor, same matrices" in r.describe()
    assert "3 / 2" in r.describe()
    assert Ratio(1.0, 0.0, "nothing").value == 0.0


# -- the catalogue matches BENCHMARK.json ---------------------------------------


def test_benchmark_json_matches_the_code():
    pytest.importorskip("scipy")
    import metrics
    from run import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    table = workloads()
    assert [w["name"] for w in spec["workloads"]] == list(table)
    for w in spec["workloads"]:
        # the SLO limit fixed in BENCHMARK.json is the one the code applies
        assert f"SLO {table[w['name']].slo_s:g} s" in w["why"]
