"""Record the answers the benchmark checks its pooled instances against.

Run from the repository root at a commit whose answers are trusted:

    python3 perfbench/record.py

It writes ``perfbench/expected.json``: for every pooled family and size in
``workloads.POOLED`` (seeds ``0..POOL-1``) and every instance in
``workloads.RECORDED_FIXED``, a fingerprint of the generated digraph and the
answer the task computes.  Where a theorem constrains the answer it is
checked here too: path counts of tournaments must be odd (Redei).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hamdg import conditions, expander, solvers  # noqa: E402

import workloads as w  # noqa: E402


def answer(task: str, g) -> dict:
    if task == "ham":
        return {"hamiltonian": solvers.find_hamilton_cycle(g) is not None}
    if task == "count":
        rep = solvers.count_hamilton(g)
        if rep.hamilton_paths % 2 != 1:
            raise SystemExit(f"even Hamilton path count {rep.hamilton_paths}")
        return {"paths": rep.hamilton_paths, "cycles": rep.hamilton_cycles}
    if task == "ordaz":
        v = conditions.check("jackson_ordaz", g)
        return {"holds": v.holds, "kappa": v.witness["kappa"], "alpha2": v.witness["alpha2"]}
    if task == "robust":
        return {"holds": expander.is_robust_outexpander(g, w.NU, w.TAU).holds}
    raise ValueError(task)


def main() -> None:
    jobs = [(task, fam, args, seed) for task, items in w.POOLED.items()
            for fam, args in items for seed in range(w.POOL)]
    jobs += [(task, fam, args, None) for task, items in w.RECORDED_FIXED.items()
             for fam, args in items]
    out = {}
    for task, fam, args, seed in jobs:
        g = w.generate(fam, args, seed)
        key = w.record_key(task, fam, args, seed)
        out[key] = {"fp": w.fingerprint(g), **answer(task, g)}
        print(key, out[key], flush=True)
    with open(w.EXPECTED_PATH, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
