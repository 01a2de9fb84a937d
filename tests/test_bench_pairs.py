"""The summary part of ``scripts/bench_pairs.py``: quartiles, wins and the
verdict against a metric's bound.  Its subprocess part is not tested here."""

import importlib.util
import pathlib
import statistics

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "xs,want",
    [
        ([1, 2, 3, 4, 5], (2, 3, 4)),
        ([4, 1, 3, 2], (1.75, 2.5, 3.25)),
        ([7, 7], (7, 7, 7)),
    ],
)
def test_quartiles(xs, want):
    q = bench_pairs.quartiles(xs)
    assert (q["q1"], q["median"], q["q3"]) == pytest.approx(want)
    assert q["median"] == statistics.median(xs)


def test_ties_count_for_neither_side():
    pairs = [(1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (5.0, 5.0)]
    assert bench_pairs.wins(pairs, "higher") == (1, 1, 2)
    assert bench_pairs.wins(pairs, "lower") == (1, 1, 2)


def test_gain_needs_nine_tenths_of_the_pairs():
    parents = [100.0 + i for i in range(10)]
    nine = [(p, p + 50) for p in parents[:9]] + [(parents[9], 0.0)]
    s = bench_pairs.summarise(nine, "higher", 0.24)
    assert (s["wins"], s["losses"], s["ties"], s["verdict"]) == (9, 1, 0, "gain")
    eight = nine[:8] + [(parents[8], parents[8])] + nine[9:]
    s = bench_pairs.summarise(eight, "higher", 0.24)
    assert (s["wins"], s["ties"]) == (8, 1) and s["verdict"] != "gain"


def test_gain_needs_a_median_beyond_the_parent_spread():
    # the change wins every pair by 1, inside the parent's quartile spread
    pairs = [(10.0 * i, 10.0 * i - 1) for i in range(1, 11)]
    s = bench_pairs.summarise(pairs, "lower", 0.24)
    assert s["wins"] == 10 and s["verdict"] != "gain"
    assert s["parent"]["q3"] - s["parent"]["q1"] > 1


def test_worse_beyond_the_bound():
    pairs = [(1.0, 1.3)] * 4 + [(1.01, 1.31)] * 4
    s = bench_pairs.summarise(pairs, "lower", 0.24)
    assert s["worse_by"] == pytest.approx(0.3 / 1.005, rel=1e-2)
    assert s["verdict"] == "worse"
    assert bench_pairs.summarise(pairs, "lower", 0.4)["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    pairs = [(1.0, 1.05), (2.0, 1.5), (1.0, 1.2), (2.0, 2.1)]
    assert bench_pairs.summarise(pairs, "higher", 0.24)["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent; here
    # by less than the parent's spread, so it is no gain either
    apart = [(1.0, 2.1), (2.0, 2.1), (1.0, 2.2), (2.0, 2.2)]
    assert bench_pairs.summarise(apart, "higher", 0.24)["verdict"] == "within bound"
