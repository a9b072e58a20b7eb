"""Tests for the perfbench harness pieces.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys
import threading

import pytest

from harness import (
    HostSpeed,
    Tracer,
    first_mismatch,
    min_samples,
    nearest_rank,
    percentile,
    samples_beyond,
)
from layers import METRICS, ROWS, cross_checks, layer_metrics

GOLDEN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "golden", "table4_suites.json",
)


# -- the ten-samples-beyond rule ------------------------------------------------


@pytest.mark.parametrize("p, needed", [(50, 20), (90, 100), (99, 1000)])
def test_min_samples_for_each_reported_percentile(p, needed):
    assert min_samples(p) == needed
    assert samples_beyond(p, needed) >= 10
    assert samples_beyond(p, needed - 1) < 10


def test_percentile_refuses_too_few_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(19)), 50)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1000, 0, -1)]  # unsorted input
    assert percentile(values, 99) == 990.0
    assert percentile(values, 50) == 500.0
    assert nearest_rank(50, 20) == 10


# -- self time with nested wrapped calls ----------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    leaf = tracer.wrap("leaf", lambda: clock.advance(2.0))
    middle = tracer.wrap("middle", lambda: (
        clock.advance(1.0), leaf(), leaf(), clock.advance(0.5)))
    outer = tracer.wrap("outer", lambda: (clock.advance(3.0), middle()))
    outer()
    totals = tracer.totals()
    assert totals["leaf"] == {"self_s": 4.0, "calls": 2}
    assert totals["middle"] == {"self_s": 1.5, "calls": 1}
    assert totals["outer"] == {"self_s": 3.0, "calls": 1}
    # self times partition the outermost span exactly
    assert sum(t["self_s"] for t in totals.values()) == clock.now == 8.5


def test_self_time_same_layer_recursion_counts_each_call_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fact(n):
        clock.advance(1.0)
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap("fact", fact)
    assert traced(4) == 24
    assert tracer.totals()["fact"] == {"self_s": 4.0, "calls": 4}


def test_nesting_is_tracked_per_thread():
    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap("inner", lambda: clock.advance(1.0))
    started, release = threading.Event(), threading.Event()

    def blocked():
        started.set()
        release.wait(timeout=10)

    outer = tracer.wrap("outer", blocked)
    t = threading.Thread(target=outer)
    t.start()
    assert started.wait(timeout=10)
    inner()  # another thread's open span must not absorb this call
    release.set()
    t.join(timeout=10)
    assert not t.is_alive()
    assert tracer.totals()["inner"]["self_s"] == 1.0
    assert tracer.totals()["outer"]["self_s"] == 1.0


def test_exception_still_records_and_unwinds_the_stack():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise RuntimeError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    tracer.wrap("after", lambda: clock.advance(2.0))()
    assert tracer.totals()["boom"] == {"self_s": 1.0, "calls": 1}
    assert tracer.totals()["after"] == {"self_s": 2.0, "calls": 1}


def test_concurrent_hooks_lose_no_update():
    tracer = Tracer()
    counts = {"n": 0}

    def hook(args, kwargs, result, token):
        counts["n"] += 1  # read-modify-write: safe only under the tracer lock

    work = tracer.wrap("work", lambda: None, hook=hook)

    def hammer():
        for _ in range(3000):
            work()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert counts["n"] == 18000
    assert tracer.totals()["work"]["calls"] == 18000


class Shape:
    def area(self):
        return 4

    @classmethod
    def unit(cls):
        return cls()

    @staticmethod
    def sides():
        return 4


def test_patch_and_restore_methods_on_their_class():
    tracer = Tracer()
    raw = dict(vars(Shape))
    seen = []
    for name in ("area", "unit", "sides"):
        tracer.patch(Shape, name, "shape",
                     hook=lambda a, k, r, t, name=name: seen.append(name))
    assert Shape.unit().area() == 4 and Shape.sides() == 4
    assert seen == ["unit", "area", "sides"]
    assert tracer.totals()["shape"]["calls"] == 3
    tracer.restore()
    assert all(vars(Shape)[n] is raw[n] for n in ("area", "unit", "sides"))


def test_before_token_reaches_the_hook():
    tracer = Tracer()
    box = {"v": 1}

    def bump():
        box["v"] += 1

    seen = []
    wrapped = tracer.wrap("bump", bump, hook=lambda a, k, r, before: seen.append(
        (before, box["v"])), before=lambda a, k: box["v"])
    wrapped()
    assert seen == [(1, 2)]


# -- host speed ------------------------------------------------------------------


def test_host_speed_factor_uses_the_faster_adjacent_sample():
    host = HostSpeed(repeats=1, ref_s=0.002)
    assert host.segment() is None  # the opening sample has no work before it
    host.samples[-1] = 0.001  # a faster neighbour than any real kernel run
    assert host.segment() == 0.002 / 0.001
    host.samples[-1] = 10.0  # a burst on the far side is ignored
    assert host.segment() == 0.002 / host.samples[-1]


# -- golden output check ---------------------------------------------------------


def test_golden_check_accepts_identical_suites():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert first_mismatch(golden, json.loads(json.dumps(golden))) is None


def test_golden_check_fails_on_a_one_ulp_perturbation():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    perturbed = json.loads(json.dumps(golden))
    cost, ard = perturbed["rep"][3][2]
    perturbed["rep"][3][2] = [cost, math.nextafter(ard, math.inf)]
    found = first_mismatch(golden, perturbed)
    assert found is not None and found.startswith(".rep[3][2][1]")


def test_golden_check_fails_on_a_missing_solution_or_type_change():
    golden = {"ds": [[[8.0, 100.5], [10.0, 90.25]]]}
    assert "length" in first_mismatch(golden, {"ds": [[[8.0, 100.5]]]})
    assert first_mismatch(golden, {"ds": [[[8, 100.5], [10.0, 90.25]]]})


# -- per-layer report --------------------------------------------------------------


def _snapshot():
    return {
        "totals": {
            "msri": {"self_s": 3.0, "calls": 10},
            "prune.mfs": {"self_s": 2.0, "calls": 4},
            "pwl": {"self_s": 1.0, "calls": 100},
            "netgen": {"self_s": 9.0, "calls": 1},  # setup, not a timed row
        },
        "counts": {"raw_sets": 10, "generated": 40, "prefilter_in": 30,
                   "prefilter_out": 20, "mfs_in": 20, "mfs_out": 12},
        "waits": {},
    }


def test_layer_rows_plus_other_sum_to_the_traced_whole():
    m = layer_metrics(_snapshot(), {}, ops=4, whole_s=10.0, overhead_s=0.5,
                      netgen_s=9.0)
    assert [name for name, _ in METRICS] == list(m)
    rows = sum(m[name] for name in ROWS) + m["trace.other_s"]
    assert rows * m["trace.ops"] == pytest.approx(m["trace.whole_s"])
    assert m["trace.other_s"] == pytest.approx((10.0 - 6.0) / 4)
    assert m["prune.kept_ratio"] == pytest.approx(12 / 30)
    assert m["prune.prefilter_drop_ratio"] == pytest.approx(10 / 30)
    assert m["msri.nodes"] == 2.5
    assert m["flat.compile_s"] == 0.0  # an unused layer reads zero


def test_cross_checks_flag_a_counter_mismatch():
    obs = {"msri.nodes": 10, "msri.prefilter.examined": 30,
           "msri.prefilter.dropped": 10, "msri.solutions.generated": 40}
    assert all(c["ok"] for c in cross_checks(_snapshot(), obs))
    obs["msri.prefilter.dropped"] = 11
    bad = [c for c in cross_checks(_snapshot(), obs) if not c["ok"]]
    assert [c["check"] for c in bad] == ["prefilter drops vs msri.prefilter.dropped"]
