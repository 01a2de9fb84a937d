"""hamdg benchmark: one workload per call, each in its own worker process.

    python3 perfbench/run.py --workload {decide,invariants,cover,expander}
        --seed N --seconds T --trace {0,1} [--smoke]

Run it from the repository root.  With ``--trace 0`` it runs the workload
untraced and prints every end-to-end metric named in ``BENCHMARK.json``;
with ``--trace 1`` it runs the traced variant and prints every per-layer
metric.  Lines before the last are a readable report (per-metric sample
counts, per-case op times, failures, work counters, the machine); the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs toy-sized decks.

The closed loop is one client running the deck's ops back to back; see
README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is the median over fresh processes: the worker plus set-up-only
# probes, at least two and at most six, added while they have taken less
# than PROBE_BUDGET_S (cheap set-ups are noisier, so they get more probes)
PROBES = (2, 6)
PROBE_BUDGET_S = 6.0
DEADLINE_S = 170  # the whole call, every worker included


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def call_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_lines(args, rep: dict, setups: list[float], raw_setups: list[float]) -> list[str]:
    mode = "traced" if args.trace else "untraced"
    fail_frac = rep["failed"] / rep["attempted"]
    lines = [f"workload {args.workload}, seed {args.seed}, {mode}: {rep['passes']} pass(es),"
             f" {rep['samples']} ops timed in {rep['elapsed_s']:.2f} s;"
             f" host speed {rep['speed']:.3f} of reference (times scaled to it; raw in [])",
             f"  ops_per_s   {rep['ops_per_s']:.4f} 1/s  [{rep['raw_ops_per_s']:.4f}]"
             f"  ({rep['samples']} ops)",
             f"  op_s.p50    {rep['op_s.p50']:.6f} s  [{rep['raw_op_s.p50']:.6f}]"
             f"  ({rep['samples']} samples)",
             f"  op_s.p90    {rep['op_s.p90']:.6f} s  [{rep['raw_op_s.p90']:.6f}]"
             f"  ({rep['samples']} samples)",
             f"  fail_frac   {fail_frac:.4f}  ({rep['failed']} of {rep['attempted']} failed,"
             f" {rep['wrong']} with a wrong output)",
             f"  pass_frac   {1 - fail_frac:.4f}"]
    if setups:
        lines.append(f"  setup_s     {statistics.median(setups):.4f} s"
                     f"  [{statistics.median(raw_setups):.4f}]  (median of"
                     f" {len(setups)} fresh processes: "
                     + ", ".join(f"{s:.3f}" for s in setups) + ")")
    lines.append(f"  peak_rss_mb {rep['peak_rss_mb']:.1f} MB")
    lines.append("  per case: ops, failed, median op time")
    for case, c in sorted(rep["cases"].items(), key=lambda kv: -kv[1]["median_s"]):
        lines.append(f"    {case:<52} {c['ops']:>4} {c['failed']:>3} {c['median_s']:.6f} s")
    for f in rep["failures"]:
        lines.append(f"  failed: {f['case']}: {f['error']}")
    lines.append("  work per pass, computed from the inputs: "
                 + ", ".join(f"{k}={v}" for k, v in sorted(rep["work"].items())))
    m = rep["machine"]
    lines.append(f"  machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']}"
                 f" {m['platform']} threads={m['threads']}")
    if args.trace:
        lines.append(f"  tracing: traced {rep['ops_per_s']:.4f} ops/s against untraced"
                     f" {rep['untraced_ops_per_s']:.4f} ops/s in the same process")
        for name in rep["absent"]:
            lines.append(f"  layer absent at this commit: {name}")
        for place in rep["missing"]:
            lines.append(f"  boundary no longer found: {place}")
    return lines


def metric_values(args, rep: dict, setups: list[float]) -> dict[str, float]:
    if not args.trace:
        return {"ops_per_s": rep["ops_per_s"], "op_s.p50": rep["op_s.p50"],
                "op_s.p90": rep["op_s.p90"],
                "pass_frac": 1 - rep["failed"] / rep["attempted"],
                "setup_s": statistics.median(setups), "peak_rss_mb": rep["peak_rss_mb"]}
    values = dict(rep["layers"])
    values["trace.ops_per_s"] = rep["ops_per_s"]
    values["trace.overhead_frac"] = rep["untraced_ops_per_s"] / rep["ops_per_s"] - 1
    values["trace.absent_layers"] = len(rep["absent"])
    for key in ("dp_cells", "subsets", "host_vertices", "host_arcs", "expect_yes", "expect_no"):
        values[f"work.{key}"] = rep["work"].get(key, 0)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("decide", "invariants", "cover", "expander"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "hamdg" / "__init__.py").is_file():
        print(f"no hamdg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = []
        start = time.monotonic()
        while not args.trace and len(probes) < PROBES[1] and (
                len(probes) < PROBES[0] or time.monotonic() - start < PROBE_BUDGET_S):
            probes.append(call_worker(args, "setup", deadline))
        rep = call_worker(args, "traced" if args.trace else "untraced", deadline)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {DEADLINE_S} s", file=sys.stderr)
        return 3
    setups, raw_setups = [], []
    if not args.trace:
        setups = [p["setup_s"] for p in probes + [rep]]
        raw_setups = [p["raw_setup_s"] for p in probes + [rep]]
    section = "per_layer" if args.trace else "end_to_end"
    values = metric_values(args, rep, setups)
    metrics = {}
    for m in spec()[section]:
        if m["name"] not in values:
            print(f"BENCHMARK.json names {m['name']!r}, which this run does not measure",
                  file=sys.stderr)
            return 4
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for line in report_lines(args, rep, setups, raw_setups):
        print(line)
    print(json.dumps({"correct": rep["wrong"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
