"""One workload in its own process: set up, run the deck, report as JSON.

    python3 perfbench/worker.py --workload W --seed S --seconds T --mode M [--smoke]

Modes:
  setup     build the deck and report the set-up time only;
  untraced  set up, then run whole passes over the deck until another pass
            would end after T seconds (at least one pass); patches nothing;
  traced    set up with spans on, run untraced passes for T/2 seconds, then
            traced passes for T/2 seconds, and write the spans to
            ``.perfbench/trace-<W>-seed<S>.json``.

The last line of standard output is one JSON object.  ``run.py`` reads it.

Timings are scaled to a reference speed.  The shared host's speed drifts by
up to +-40% within seconds, for every process on it alike.  So a timer
signal times a fixed pure-Python kernel (``calibrate``) every
``CAL_EVERY_S`` of wall time, also while an op runs.  An op's wall time,
less the time spent in the kernel, is multiplied by ``REF_CAL_S`` over the
mean kernel time of the samples around it (see ``Speed.scaled``).
The raw wall times are reported beside the scaled ones.
"""

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_CAL_S = 0.004  # the kernel's time on the machine the bounds were set on
CAL_EVERY_S = 0.1
SMOOTH_S = 0.25  # the speed holds for seconds, so neighbouring samples agree


def _fixed_digraph(n: int) -> list[int]:
    rows, x = [], 12345
    for v in range(n):
        row = 0
        for u in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if u != v and x % 3:
                row |= 1 << u
        rows.append(row)
    return rows


KERNEL_ADJ = _fixed_digraph(11)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def calibrate() -> float:
    """Wall time of a fixed kernel like hamdg's own work: integer and dict
    arithmetic, then a recursive bitmask path search with a generator.
    It tracks the host's speed for hamdg's ops far better than plain
    arithmetic alone does."""
    t = perf_counter()
    d: dict = {}
    x = 0x9E3779B97F4A7C15
    for i in range(1500):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        m = x >> 40
        c = 0
        while m:
            m &= m - 1
            c += 1
        d[i & 255] = d.get(i & 255, 0) + c
    seen = set()

    def extend(visited: int, end: int, depth: int) -> None:
        if depth == 4:
            seen.add((visited, end))
            return
        for w in _bits(KERNEL_ADJ[end] & ~visited):
            extend(visited | 1 << w, w, depth + 1)

    for s in range(len(KERNEL_ADJ)):
        extend(1 << s, s, 1)
    return perf_counter() - t


class Speed:
    """Samples the host's speed from a timer signal, so long ops are
    sampled while they run.  The handler runs in the main thread, between
    bytecodes; no thread is started."""

    def __init__(self) -> None:
        self.t: list[float] = []  # when each sample ended
        self.v: list[float] = []  # the kernel's time in each sample
        self.spent = 0.0  # wall time spent sampling so far

    def _tick(self, *_) -> None:
        start = perf_counter()
        self.v.append(calibrate())
        self.t.append(perf_counter())
        self.spent += self.t[-1] - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        self._tick()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()

    def scaled(self, t0: float, t1: float, wall: float) -> float:
        """``wall`` seconds spent in [t0, t1], at the reference speed: the
        samples taken within SMOOTH_S of the interval, and at least the
        last one before it and the first one after it, give the speed."""
        lo = max(min(bisect_left(self.t, t0 - SMOOTH_S), bisect_right(self.t, t0) - 1), 0)
        hi = max(bisect_right(self.t, t1 + SMOOTH_S), bisect_left(self.t, t1) + 1)
        vs = self.v[lo:hi]
        return wall * REF_CAL_S * len(vs) / sum(vs)


SPEED = Speed()
SPEED.start()
T0 = perf_counter()  # set-up time counts from here: before hamdg is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports hamdg and hamdg.cli)
from tracer import Tracer, summarize  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def percentile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank percentile: at q = 0.9 of 100 samples, 10 lie beyond it."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def run_passes(ops, seconds: float, tracer: Tracer, first_op: int) -> dict:
    """Whole passes over the deck, until another pass would end after
    ``seconds``.  A raised exception or a rejected output fails the op."""
    records, failures, wrong = [], [], []
    passes = 0
    start = perf_counter()
    op_id = first_op
    while True:
        for op in ops:
            tracer.op = op_id
            spent0 = SPEED.spent
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a failed op
                t1 = perf_counter()
                failures.append({"case": op.case, "error": f"{type(exc).__name__}: {exc}"[:200]})
                ok = False
            else:
                t1 = perf_counter()
                reason = op.check(out)
                ok = reason is None
                if not ok:
                    failures.append({"case": op.case, "error": reason})
                    wrong.append(op.case)
            records.append((op.case, t0, t1, t1 - t0 - (SPEED.spent - spent0), ok))
            op_id += 1
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    return {"elapsed": elapsed, "passes": passes, "records": records, "failures": failures,
            "wrong": wrong, "op_ids": range(first_op, op_id)}


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "threads": {k: os.environ.get(k, "unset") for k in THREAD_VARS}}


def layer_metrics(tracer: Tracer, res: dict) -> dict:
    rows = summarize(tracer.spans, set(res["op_ids"]) | {-1})
    per_pass = res["passes"]
    out = {}
    for name, row in rows.items():
        # set-up runs once per process; every other layer is given per pass
        div = 1 if name == "constructions.gen" else per_pass
        out[f"{name}.calls"] = row["calls"] / div
        out[f"{name}.busy_s"] = row["busy_s"] / div
        out[f"{name}.self_s"] = row["self_s"] / div
        out[f"{name}.errors"] = row["errors"] / div
    find = rows["solvers.find_hamilton_cycle"]
    rot = rows["solvers.rotation_extension"]
    covers = rows["decomp.cover_tournament"]["calls"] + rows["decomp.cover_regular_graph"]["calls"]
    extracts = (rows["decomp.greedy_extract"]["calls"]
                + rows["decomp.greedy_extract_undirected"]["calls"])
    out["solvers.find_hamilton_cycle.found_frac"] = find["found"] / find["calls"] if find["calls"] else 0.0
    out["solvers.rotation_extension.hit_frac"] = rot["found"] / rot["calls"] if rot["calls"] else 0.0
    out["decomp.greedy_extract.per_cover"] = extracts / covers if covers else 0.0
    return out


def summary(res: dict) -> dict:
    """Metrics of one run_passes result; call after SPEED.stop()."""
    times, raw = [], []
    cases: dict[str, list] = {}
    for case, t0, t1, wall, ok in res["records"]:
        times.append(SPEED.scaled(t0, t1, wall))
        raw.append(wall)
        cases.setdefault(case, []).append((times[-1], ok))
    times.sort()
    raw.sort()
    n_ok = len(times) - len(res["failures"])
    per_case = {}
    for case, runs in cases.items():
        ts = sorted(dt for dt, _ in runs)
        per_case[case] = {"ops": len(runs), "failed": sum(not ok for _, ok in runs),
                          "median_s": ts[len(ts) // 2]}
    return {"attempted": len(times), "failed": len(res["failures"]),
            "wrong": len(res["wrong"]), "passes": res["passes"],
            "elapsed_s": res["elapsed"], "speed": REF_CAL_S / statistics.median(SPEED.v),
            "ops_per_s": n_ok / sum(times), "op_s.p50": percentile(times, 0.5),
            "op_s.p90": percentile(times, 0.9), "raw_ops_per_s": n_ok / sum(raw),
            "raw_op_s.p50": percentile(raw, 0.5), "raw_op_s.p90": percentile(raw, 0.9),
            "samples": len(times), "cases": per_case, "failures": res["failures"][:20]}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    tracer = Tracer()
    if a.mode == "traced":
        tracer.install()
    ops = workloads.build_deck(a.workload, a.seed, smoke=a.smoke, span=tracer.span)
    t_setup = perf_counter()
    raw_setup_s = t_setup - T0 - SPEED.spent
    report: dict = {"raw_setup_s": raw_setup_s}
    if a.mode == "untraced":
        res = run_passes(ops, a.seconds, tracer, 0)
        SPEED.stop()
        report.update(summary(res))
    elif a.mode == "traced":
        tracer.uninstall()
        plain = run_passes(ops, a.seconds / 2, tracer, 0)
        tracer.install()
        traced = run_passes(ops, a.seconds / 2, tracer, plain["op_ids"].stop)
        tracer.uninstall()
        SPEED.stop()
        report.update(summary(traced))
        report["layers"] = layer_metrics(tracer, traced)
        report["untraced_ops_per_s"] = summary(plain)["ops_per_s"]
        report["absent"] = tracer.absent
        report["missing"] = tracer.missing
        for key, n in (("attempted", len(plain["records"])), ("failed", len(plain["failures"])),
                       ("wrong", len(plain["wrong"]))):
            report[key] += n
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{a.workload}-seed{a.seed}.json", "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error", "found"],
                       "spans": tracer.spans, "absent": tracer.absent,
                       "missing": tracer.missing, "machine": machine()}, fh)
    if a.mode == "setup":
        SPEED.stop()
    report["setup_s"] = SPEED.scaled(T0, t_setup, raw_setup_s)
    if a.mode != "setup":
        report["work"] = workloads.deck_work(ops)
        report["machine"] = machine()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)
