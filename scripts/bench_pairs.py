"""Alternating parent/change runs of the benchmark, summarised in one BENCH file.

    python3 scripts/bench_pairs.py --workload W --seed S --pairs N --out BENCH_<tag>.json
        [--parent REV]

Run it from the repository root.  The change side is this checkout; its
commit is marked ``+uncommitted`` when ``src`` or ``perfbench`` hold
changes or untracked files.  The parent side is REV (default ``HEAD~1``),
its committed files exported with ``git archive`` into a temporary
directory that is removed afterwards.  Both checkouts get their bytecode
compiled before the first run.  Each run is

    perfbench/run.py --workload W --seed S --seconds T --trace 0

in its own checkout, with T the ``run_seconds`` of ``BENCHMARK.json``; the
last line of its stdout gives the run's ``correct``, ``attempted`` and
``failed`` counts and the six end-to-end values.  A run with a wrong output
stops the script before it writes anything.  Pair i (from 1) runs the
parent first when i is odd and the change first when it is even, so a
drift of the host's speed favours neither side.

The output file holds one entry per workload: both commits, the seed, the
machine line, every pair's two runs (each run's counts beside its
end-to-end values), and per metric both sides' medians and quartiles, the
wins of the change (ties count for neither side) and a verdict against the
metric's bound in ``BENCHMARK.json``.  Running the script again for another
workload adds or replaces that workload's entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a gain needs this share of pairs won, and a median difference beyond the
# parent's interquartile range
WIN_SHARE = 0.9


def quartiles(xs: list[float]) -> dict[str, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def improves(new: float, old: float, better: str) -> bool:
    return new > old if better == "higher" else new < old


def wins(pairs: list[tuple[float, float]], better: str) -> tuple[int, int, int]:
    """(wins, losses, ties) of the change over (parent, change) pairs."""
    won = sum(improves(c, p, better) for p, c in pairs)
    lost = sum(improves(p, c, better) for p, c in pairs)
    return won, lost, len(pairs) - won - lost


def summarise(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Both sides' quartiles, the change's wins, and a verdict:

    * ``gain``: the change wins at least WIN_SHARE of the pairs and its
      median is better than the parent's by more than the parent's
      interquartile range;
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound``, as a share of the parent's median;
    * ``unresolved``: neither, but the parent's interquartile range is
      wider than ``bound``, and not every run of the change beats every
      run of the parent;
    * ``within bound`` otherwise."""
    parents, changes = [p for p, _ in pairs], [c for _, c in pairs]
    parent, change = quartiles(parents), quartiles(changes)
    won, lost, tied = wins(pairs, better)
    sign = 1 if better == "higher" else -1
    gained = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    base = abs(parent["median"])
    worse_by = -gained / base if base else 0.0
    if won >= WIN_SHARE * len(pairs) and gained > spread:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif base and spread / base > bound and not all(
        improves(c, p, better) for c in changes for p in parents
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"better": better, "bound": bound, "parent": parent, "change": change,
            "wins": won, "losses": lost, "ties": tied, "worse_by": worse_by,
            "verdict": verdict}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def uncommitted(root: Path) -> bool:
    """Whether ``src`` or ``perfbench`` under the git checkout ``root``
    differ from HEAD, untracked files included (``git diff`` misses them)."""
    return bool(subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                               cwd=root, check=True, capture_output=True, text=True).stdout)


def export(root: Path, rev: str, dest: Path) -> None:
    """The files committed at ``rev`` in the git checkout ``root``, written
    under ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                             capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def compile_bytecode(checkout: Path) -> None:
    """Bytecode for ``src`` and ``perfbench`` under ``checkout``.
    ``compileall`` writes it even under ``PYTHONDONTWRITEBYTECODE``, so
    neither side recompiles ``hamdg`` on every run while the other loads it
    from a cache, which would show in ``setup_s``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=checkout, check=True, capture_output=True)


def run_bench(checkout: Path, args, seconds: float) -> tuple[dict, str]:
    """One untraced run in ``checkout``: its ``correct``, ``attempted`` and
    ``failed`` counts with its end-to-end values (under ``metrics``), and
    its machine line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if not last["correct"]:
        raise SystemExit(f"{checkout}: a wrong output on {args.workload}\n{proc.stdout}")
    machine = next((ln.strip() for ln in lines if ln.strip().startswith("machine:")), "")
    run = {key: last[key] for key in ("correct", "attempted", "failed")}
    run["metrics"] = {k: m["value"] for k, m in last["metrics"].items()}
    return run, machine


def run_pairs(parent_dir: Path, args, seconds: float) -> tuple[list[dict], str]:
    pairs, machine = [], ""
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair: dict = {"first": order[0]}
        for side in order:
            pair[side], machine = run_bench(parent_dir if side == "parent" else ROOT, args,
                                            seconds)
        pairs.append(pair)
        parent, change = pair["parent"]["metrics"], pair["change"]["metrics"]
        print(f"pair {i}: " + ", ".join(
            f"{k} {parent[k]:.4g} -> {change[k]:.4g}" for k in change), file=sys.stderr)
    return pairs, machine


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("decide", "invariants", "cover", "expander"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--parent", default="HEAD~1")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs needs at least 2 for quartiles")
    parent = git("rev-parse", args.parent)
    change = git("rev-parse", "HEAD")
    if uncommitted(ROOT):
        change += "+uncommitted"
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        export(ROOT, parent, tree)
        for checkout in (tree, ROOT):
            compile_bytecode(checkout)
        pairs, machine = run_pairs(tree, args, seconds)
    summary = {
        name: summarise([(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                         for p in pairs],
                        m["better"], m["bound"])
        for name, m in spec.items()
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = {
        "parent": parent, "change": change, "seed": args.seed, "seconds": seconds,
        "machine": machine, "pairs": pairs, "summary": summary,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in summary.items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.4g}"
              f" [{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change"
              f" {s['change']['median']:.4g} [{s['change']['q1']:.4g},"
              f" {s['change']['q3']:.4g}], wins {s['wins']}/{len(pairs)}: {s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
