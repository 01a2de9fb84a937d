"""Command-line frontend: generation, checking, solving, decomposition,
covers, expander checks, and reproducible experiment tables.

Exit codes: 0 success, 1 negative verdict (e.g. no Hamilton cycle),
2 usage error, 3 no answer within the search limits (node budget or cover
restarts exhausted), 4 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import traceback
from fractions import Fraction
from typing import Iterator, Optional

from . import constructions as cons
from . import io as hio
from .conditions import RULE_PARAMS, check
from .core import CycleFactor, Digraph, HamiltonCycle, Matching, classify, is_strongly_connected
from .decomp import (
    cover_regular_graph,
    cover_tournament,
    decompose_exact,
    validate as validate_cover,
    walecki,
)
from .errors import BudgetExceeded, CoverFailure, HamdgError
from .expander import (
    OneFactorF,
    ReducedDigraph,
    assemble_hamilton,
    build_closed_walk,
    is_robust_outexpander,
    make_cluster_blowup,
)
from .solvers import (
    DEFAULT_BUDGET,
    OrientationPattern,
    count_hamilton,
    find_cycle_of_length,
    find_hamilton_cycle,
    hamilton_cycle_through,
    is_pancyclic,
    kth_power_hamilton,
    oriented_hamilton,
)

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_BUDGET, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _value(flag: str, text, convert, what: str):
    """``convert(text)``; a value it rejects is a usage error naming ``flag``."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise HamdgError(f"{flag} wants {what}, got {text!r}") from None


def _ints(text) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(","))


def _pair(text) -> tuple[int, int]:
    u, v = _ints(text)
    return u, v


def _nodes(n: int) -> int:
    if n < 0:
        raise ValueError(n)
    return n


def _signs(text: str) -> tuple[int, ...]:
    if set(text) - {"+", "-"}:
        raise ValueError(text)
    return tuple(1 if c == "+" else -1 for c in text)


def _parse_params(items: list[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise HamdgError(f"--param wants key=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = int(v)
        except ValueError:
            out[k] = v
    return out


def _load(path: str) -> Digraph:
    if path == "-":
        return hio.parse(sys.stdin.read())
    return hio.load(path)


# --- gen ------------------------------------------------------------------


def _build_family(family: str, n: Optional[int], seed: int, params: dict):
    """Returns (digraph, parts-or-None) from ``constructions.FAMILIES``.  A
    parameter the family needs but was not given, and one it was given but
    does not take (``--n`` included), are usage errors."""
    fam = cons.FAMILIES.get(family)
    if fam is None:
        raise HamdgError(f"unknown family {family!r}")
    p = dict(params)
    args = []
    for name in fam.params:
        if name == "seed":
            args.append(seed)
        elif name == "n" and n is not None:
            args.append(n)
        elif name in p:
            flag, text = f"--param {name}", p.pop(name)
            if name in ("shifts", "sizes"):
                args.append(_value(flag, text, _ints, "integers"))
            elif name == "p":
                args.append(_value(flag, text, float, "a number"))
            else:
                args.append(_value(flag, text, int, "an integer"))
        elif name in fam.defaults:
            args.append(fam.defaults[name])
        else:
            raise HamdgError(
                f"{family} needs --n" if name == "n"
                else f"{family} needs parameter {name!r}"
            )
    if n is not None and "n" not in fam.params:
        raise HamdgError(f"{family} takes no --n")
    if p:
        raise HamdgError(f"{family} takes no parameter {', '.join(map(repr, sorted(p)))}")
    made = fam.make(*args)
    return made if fam.parts else (made, None)


def cmd_gen(args) -> int:
    g, parts = _build_family(args.family, args.n, args.seed, _parse_params(args.param))
    text = hio.serialize(g, as_graph=args.graph)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.parts:
        if parts is None:
            raise HamdgError(f"family {args.family!r} has no part map")
        with open(args.parts, "w", encoding="ascii") as fh:
            fh.write(hio.serialize_parts(parts))
    return EXIT_OK


# --- check ----------------------------------------------------------------


def cmd_check(args) -> int:
    params = _parse_params(args.param)
    unread = sorted(set(params) - set(RULE_PARAMS.get(args.rule, params)))
    if unread:  # an unknown rule is left to check()
        raise HamdgError(f"{args.rule} takes no parameter {', '.join(map(repr, unread))}")
    g = _load(args.input)
    v = check(args.rule, g, **params)
    json.dump(v.to_record(), sys.stdout, default=str)
    sys.stdout.write("\n")
    return EXIT_OK if v.holds else EXIT_NEGATIVE


# --- solve / count --------------------------------------------------------


def cmd_solve(args) -> int:
    g = _load(args.input)
    budget = _value("--budget", args.budget, _nodes, "a node count >= 0")
    if args.length is not None:
        cyc = find_cycle_of_length(g, args.length, budget=budget)
        if cyc is None:
            print("NONE")
            return EXIT_NEGATIVE
        print(" ".join(["CYCLE", "1", str(len(cyc))] + [str(v) for v in cyc]))
        return EXIT_OK
    if args.power is not None:
        h = kth_power_hamilton(g, args.power, budget=budget)
    elif args.pattern is not None:
        signs = _value("--pattern", args.pattern, _signs, "'+' and '-' only")
        order = oriented_hamilton(g, OrientationPattern(signs), budget=budget)
        h = None if order is None else HamiltonCycle(order)
    elif args.through:
        pairs = tuple(
            _value("--through", tok, _pair, "arcs u,v") for tok in args.through.split()
        )
        h = hamilton_cycle_through(g, Matching(pairs), budget=budget)
    else:
        h = find_hamilton_cycle(g, budget=budget)
    if h is None:
        print("NONE")
        return EXIT_NEGATIVE
    print(hio.serialize_cycle(h))
    return EXIT_OK


def cmd_count(args) -> int:
    g = _load(args.input)
    rep = count_hamilton(g)
    if args.kind == "paths":
        count, mean = rep.hamilton_paths, rep.random_mean_paths
    else:
        count, mean = rep.hamilton_cycles, rep.random_mean_cycles
    rec = {
        "n": g.n,
        "kind": args.kind,
        "count": count,
        "classification": classify(g),
        "random_tournament_mean": str(mean),
    }
    json.dump(rec, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


# --- decompose / cover ----------------------------------------------------


def cmd_decompose(args) -> int:
    if args.walecki is not None:
        dec = walecki(args.walecki)
    else:
        g = _load(args.input)
        dec = decompose_exact(
            g, budget=_value("--budget", args.budget, _nodes, "a node count >= 0")
        )
        if dec is None:
            print("NONE")
            return EXIT_NEGATIVE
    for cyc in dec.cycles:
        print(hio.serialize_cycle(cyc))
    print(f"# cycles={len(dec.cycles)}")
    return EXIT_OK


def cmd_cover(args) -> int:
    g = _load(args.input)
    if args.graph:
        rep = cover_regular_graph(g, cap=args.cap)
    else:
        rep = cover_tournament(g, cap=args.cap)
    for cyc in rep.cover.cycles:
        print(hio.serialize_cycle(cyc))
    bench = " ".join(f"{k}={v}" for k, v in sorted(rep.benchmark.items()))
    print(
        f"# size={len(rep.cover.cycles)} extracted={rep.extracted} "
        f"matchings={rep.matchings} {bench}"
    )
    return EXIT_OK


# --- expander -------------------------------------------------------------


def cmd_expander(args) -> int:
    nu = _value("--nu", args.nu, Fraction, "a fraction")
    tau = _value("--tau", args.tau, Fraction, "a fraction")
    if args.pipeline:
        base = {
            "triangle": (cons.complete_digraph(3), CycleFactor(((0, 1, 2),))),
            "pentagon": (
                cons.circulant_tournament(5, (1, 2)),
                CycleFactor(((0, 1, 2, 3, 4),)),
            ),
        }.get(args.base)
        if base is None:
            raise HamdgError(f"unknown base {args.base!r}")
        r, fac = base
        red = ReducedDigraph(r, args.m)
        f = OneFactorF(fac, r)
        blowup, demands = make_cluster_blowup(
            red, exceptional=args.exceptional, seed=args.seed
        )
        cap = args.cap if args.cap is not None else args.m
        w = build_closed_walk(red, f, demands, cap=cap)
        print(f"# walk length={len(w.sequence)} links={len(w.links)}")
        for link in w.links:
            print("# link", *link)
        trace = assemble_hamilton(blowup, red, f, w)
        print(f"# initial factor cycles={len(trace.initial_factor.cycles)}")
        for cluster, matching in trace.merges:
            print(f"# merge cluster={cluster} arcs={len(matching)}")
        print(hio.serialize_cycle(trace.cycle))
        return EXIT_OK
    g = _load(args.input)
    v = is_robust_outexpander(
        g, nu, tau, mode=args.mode, trials=args.trials, seed=args.seed
    )
    json.dump(v.to_record(), sys.stdout, default=str)
    sys.stdout.write("\n")
    return EXIT_OK if v.holds else EXIT_NEGATIVE


# --- experiment -----------------------------------------------------------


def _emit_table(rows: list[dict], jsonl: bool) -> None:
    if jsonl:
        for row in rows:
            json.dump(row, sys.stdout)
            sys.stdout.write("\n")
        return
    print("# schema=1")
    if not rows:
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _tournaments(n: int) -> Iterator[Digraph]:
    """Every labeled tournament on n vertices, one per orientation mask."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Digraph(
            n, [(i, j) if mask >> t & 1 else (j, i) for t, (i, j) in enumerate(pairs)]
        )


def _exp_kelly(ns: list[int]) -> tuple[list[dict], bool]:
    """Every labeled regular tournament on n decomposes into (n-1)/2
    Hamilton cycles."""
    from .core import semidegrees

    rows = []
    all_ok = True
    for n in ns:
        if n % 2 == 0:
            raise HamdgError("regular tournaments need odd n")
        target = (n - 1) // 2
        total = checked = 0
        for g in _tournaments(n):
            if semidegrees(g)[2] != target:
                continue
            total += 1
            dec = decompose_exact(g)
            if dec is not None and len(dec.cycles) == target:
                checked += 1
        ok = total == checked
        all_ok &= ok
        rows.append(
            {
                "instance": f"kelly-n{n}",
                "n": n,
                "regular_tournaments": total,
                "decomposed": checked,
                "cycles_each": target,
                "holds": ok,
            }
        )
    return rows, all_ok


def _exp_camion(ns: list[int]) -> tuple[list[dict], bool]:
    """Strong <=> Hamiltonian (and strong => pancyclic) over all labeled
    tournaments on n vertices."""
    rows = []
    all_ok = True
    for n in ns:
        strong = ham = pan = 0
        ok = True
        for g in _tournaments(n):
            s = is_strongly_connected(g)
            h = find_hamilton_cycle(g) is not None
            if s != h:
                ok = False
            strong += s
            ham += h
            if s:
                pan += is_pancyclic(g).holds
        ok &= strong == pan
        all_ok &= ok
        rows.append(
            {
                "instance": f"camion-n{n}",
                "n": n,
                "tournaments": 1 << (n * (n - 1) // 2),
                "strong": strong,
                "hamiltonian": ham,
                "pancyclic": pan,
                "holds": ok,
            }
        )
    return rows, all_ok


def _exp_cover(ns: list[int]) -> tuple[list[dict], bool]:
    """Hamilton covers of circulant tournaments, sizes vs (1/2+1/4)n."""
    rows = []
    all_ok = True
    for n in ns:
        g = cons.circulant_tournament(n)
        rep = cover_tournament(g)
        ok = validate_cover(rep.cover, g).holds
        all_ok &= ok
        rows.append(
            {
                "instance": f"cover-n{n}",
                "n": n,
                "size": len(rep.cover.cycles),
                "benchmark": rep.benchmark["half_plus_quarter"],
                "within": len(rep.cover.cycles) <= rep.benchmark["half_plus_quarter"],
                "valid": ok,
            }
        )
    return rows, all_ok


def cmd_experiment(args) -> int:
    ns = list(_value("--n", args.n, _ints, "integers")) if args.n else []
    t0 = time.monotonic()
    if args.name == "kelly":
        rows, ok = _exp_kelly(ns or [3, 5])
    elif args.name == "camion":
        rows, ok = _exp_camion(ns or [4, 5])
    elif args.name == "cover":
        rows, ok = _exp_cover(ns or [5, 7, 9])
    else:
        raise HamdgError(f"unknown experiment {args.name!r}")
    rows.sort(key=lambda r: r["instance"])
    _emit_table(rows, args.jsonl)
    print(f"wall-time {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return EXIT_OK if ok else EXIT_NEGATIVE


# --- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamdg", description="Hamilton cycles in digraphs at desk scale"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance in exchange format")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    p.add_argument("--graph", action="store_true", help="write GRAPH format")
    p.add_argument("--output")
    p.add_argument("--parts", help="write the part-map sidecar here")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("check", help="evaluate a sufficient condition")
    p.add_argument("--rule", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--param", action="append", default=[], metavar="K=V")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="find a Hamilton cycle or variant")
    p.add_argument("--input", required=True)
    p.add_argument("--length", type=int)
    p.add_argument("--power", type=int)
    p.add_argument("--pattern", help="orientation signs, e.g. ++-+-")
    p.add_argument("--through", help="matching arcs 'u,v u,v ...'")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("count", help="count Hamilton paths or cycles")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("paths", "cycles"), default="cycles")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("decompose", help="Hamilton decomposition")
    p.add_argument("--input")
    p.add_argument("--walecki", type=int, metavar="N", help="K_N construction")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("cover", help="Hamilton cover pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--graph", action="store_true", help="undirected host")
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=cmd_cover)

    p = sub.add_parser("expander", help="robust outexpansion / blow-up pipeline")
    p.add_argument("--input")
    p.add_argument("--nu", default="1/20")
    p.add_argument("--tau", default="1/5")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pipeline", action="store_true", help="run the blow-up assembly")
    p.add_argument("--base", choices=("triangle", "pentagon"), default="triangle")
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--exceptional", type=int, default=0)
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=cmd_expander)

    p = sub.add_parser("experiment", help="reproducible experiment tables")
    p.add_argument("name", choices=("kelly", "camion", "cover"))
    p.add_argument("--n", help="comma-separated sizes")
    p.add_argument("--jsonl", action="store_true")
    p.set_defaults(fn=cmd_experiment)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except CoverFailure as e:
        print(f"cover restarts exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (HamdgError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
