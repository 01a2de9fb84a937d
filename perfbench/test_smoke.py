"""Smoke test of the benchmark: every workload at toy size, both variants.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run exits 0 with a correct result, that every end-to-end
and per-layer metric named in BENCHMARK.json is printed with its unit, and
that a second seed runs cleanly too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = run(workload, 1, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: v["unit"] for name, v in out["metrics"].items()}
    for v in out["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_runs_cleanly(workload):
    out = run(workload, 2, 0)
    assert out["correct"] and out["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_renamed_boundary_is_reported_absent(monkeypatch):
    import hamdg.decomp
    from tracer import Tracer

    monkeypatch.delattr(hamdg.decomp, "greedy_extract_undirected")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["decomp.greedy_extract_undirected"]
        assert hamdg.decomp.validate.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(hamdg.decomp.validate, "__wrapped__")
