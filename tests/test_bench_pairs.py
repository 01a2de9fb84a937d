"""The summary part of ``scripts/bench_pairs.py``: quartiles, wins and the
verdict against a metric's bound; with ``perfbench/run.py`` stubbed, what
each run records; and, on a scratch git repository, the uncommitted mark
the parent's export, and the bytecode both sides hold before the first
run."""

import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys
from types import SimpleNamespace

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


def test_each_run_records_its_counts_beside_its_metrics(monkeypatch, tmp_path):
    # a stubbed perfbench/run.py: the counts of its last stdout line must
    # reach both runs of every pair
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append(cwd)
        last = {"correct": True, "attempted": 102 + len(calls), "failed": len(calls) % 2,
                "metrics": {"ops_per_s": {"value": 10.0 * len(calls), "unit": "1/s"}}}
        out = "machine: stub\n" + json.dumps(last) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    args = SimpleNamespace(workload="decide", seed=3, pairs=2)
    pairs, machine = bench_pairs.run_pairs(tmp_path, args, 20)
    assert machine == "machine: stub"
    assert calls == [tmp_path, bench_pairs.ROOT, bench_pairs.ROOT, tmp_path]
    assert [p["first"] for p in pairs] == ["parent", "change"]
    runs = [pairs[0]["parent"], pairs[0]["change"], pairs[1]["change"], pairs[1]["parent"]]
    for i, run in enumerate(runs, 1):
        assert run == {"correct": True, "attempted": 102 + i, "failed": i % 2,
                       "metrics": {"ops_per_s": 10.0 * i}}


def test_a_wrong_output_stops_the_script(monkeypatch, tmp_path):
    def fake_run(cmd, cwd, **kwargs):
        last = {"correct": False, "attempted": 5, "failed": 0, "metrics": {}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(last), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    args = SimpleNamespace(workload="cover", seed=3, pairs=2)
    with pytest.raises(SystemExit, match="a wrong output on cover"):
        bench_pairs.run_bench(tmp_path, args, 20)


@pytest.fixture
def repo(tmp_path):
    """A git repository with one commit holding ``src/a.py``."""
    root = tmp_path / "repo"
    (root / "src").mkdir(parents=True)
    (root / "src" / "a.py").write_text("a = 1\n")
    for args in (("init", "-q"), ("add", "src"),
                 ("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
                  "commit", "-qm", "a")):
        subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)
    return root


def test_an_untracked_file_marks_the_change_uncommitted(repo):
    assert not bench_pairs.uncommitted(repo)
    (repo / "notes.txt").write_text("outside src and perfbench\n")
    assert not bench_pairs.uncommitted(repo)
    (repo / "src" / "b.py").write_text("b = 2\n")
    assert bench_pairs.uncommitted(repo)
    # the diff the check used to run sees nothing
    diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src", "perfbench"],
                          cwd=repo)
    assert diff.returncode == 0


def test_export_writes_the_committed_files_only(repo, tmp_path):
    (repo / "src" / "b.py").write_text("b = 2\n")
    dest = tmp_path / "parent"
    bench_pairs.export(repo, "HEAD", dest)
    assert sorted(p.name for p in dest.rglob("*")) == ["a.py", "src"]


def test_both_trees_hold_bytecode_before_the_first_run(monkeypatch, tmp_path):
    # without a cache the parent recompiles hamdg on every run under
    # PYTHONDONTWRITEBYTECODE, while the change may load its own
    root = tmp_path / "repo"
    (root / "src" / "hamdg").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text("")
    metric = {"name": "ops_per_s", "better": "higher", "bound": 0.24}
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20,
                                                     "end_to_end": [metric]}))
    real_run = subprocess.run
    for value in (1, 2):
        (root / "src" / "hamdg" / "__init__.py").write_text(f"a = {value}\n")
        for args in (("init", "-q"), ("add", "-A"),
                     ("-c", "user.name=t", "-c", "user.email=t@t", "-c",
                      "commit.gpgsign=false", "commit", "-qm", str(value))):
            real_run(["git", *args], cwd=root, check=True, capture_output=True)
    seen = []

    def fake_run(cmd, **kwargs):
        if cmd[1:2] != ["perfbench/run.py"]:
            return real_run(cmd, **kwargs)
        seen.append([any((tree / "src" / "hamdg" / "__pycache__").glob("__init__.*.pyc"))
                     for tree in (kwargs["cwd"], root)])
        last = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(last), stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--workload", "decide", "--seed", "1",
                                      "--pairs", "2", "--out", str(out)])
    assert bench_pairs.main() == 0
    assert seen == [[True, True]] * 4
    assert json.loads(out.read_text())["workloads"]["decide"]["seed"] == 1
