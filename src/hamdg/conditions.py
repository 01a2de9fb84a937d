"""Hypothesis checkers for sufficient Hamiltonicity conditions.

Each checker evaluates the *hypothesis* of a theorem or conjecture and
returns a :class:`Verdict` carrying a concrete, independently checkable
witness on failure.  Fractional thresholds are compared in exact rational
arithmetic; floating point never touches a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial
from typing import Any, Optional

from .core import (
    Digraph,
    degree_sequences,
    dominated_row,
    independence_numbers,
    is_oriented,
    is_strongly_connected,
    is_tournament,
    semidegrees,
    vertex_connectivity,
)
from .errors import BadParams, ClassMismatch

DEGREE_RULES = (
    "ghouila_houri",
    "woodall",
    "meyniel",
    "bgl",
    "ore_oriented",
    "haggkvist_star",
    "oriented_semidegree",
    "digraph_semidegree",
    "kordered_semidegree",
    "power_tournament",
    "short_cycle",
)
SEQUENCE_RULES = ("nash_williams", "posa_digraph", "ckko")
CONNECTIVITY_RULES = ("jackson_factorial", "jackson_ordaz")
# the parameters each rule reads
RULE_PARAMS = dict.fromkeys(DEGREE_RULES + SEQUENCE_RULES + CONNECTIVITY_RULES, ()) | {
    "ore_oriented": ("alpha",),
    "kordered_semidegree": ("k",),
    "power_tournament": ("eps",),
    "short_cycle": ("ell",),
    "ckko": ("beta",),
}


@dataclass(frozen=True)
class Verdict:
    rule: str
    holds: bool
    witness: Optional[dict[str, Any]] = None
    reason: Optional[str] = None

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {"rule": self.rule, "holds": self.holds}
        if self.witness is not None:
            rec["witness"] = self.witness
        if self.reason is not None:
            rec["reason"] = self.reason
        return rec


def _frac(x, name: str) -> Fraction:
    """``x`` as an exact fraction; a value that is not one is a
    ``BadParams`` naming the parameter."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"{name} wants a fraction, got {x!r}") from None


def _fails(rule, witness=None, reason=None) -> Verdict:
    return Verdict(rule, False, witness, reason)


def _needs_strong(g: Digraph, rule: str) -> Optional[Verdict]:
    if not is_strongly_connected(g):
        return _fails(rule, reason="not strongly connected")
    return None


def _degree_below(degs, top: int) -> list[int]:
    """``below[k]``: the mask of the vertices whose degree in ``degs`` is
    less than k, for k = 0..top (every degree is below ``top``)."""
    below = [0] * (top + 1)
    for v, d in enumerate(degs):
        below[d + 1] |= 1 << v
    for k in range(1, top + 1):
        below[k] |= below[k - 1]
    return below


def _out_in_pair(g: Digraph, need: int) -> Optional[dict[str, Any]]:
    """Pair and sum of the first (x, y), x != y, with no arc x->y and
    out(x) + in(y) < need: one bit-row scan per x."""
    outd = list(map(int.bit_count, g.out))
    in_below = _degree_below(map(int.bit_count, g.inn), g.n)
    for x, d in enumerate(outd):
        c = in_below[max(0, min(need - d, g.n))] & ~g.out[x] & ~(1 << x)
        if c:
            y = (c & -c).bit_length() - 1
            return {"pair": (x, y), "sum": d + g.in_deg(y)}
    return None


def _nonadjacent_pair(g: Digraph, dominated: bool) -> Optional[dict[str, Any]]:
    """Pair and sum of the first non-adjacent x < y (with a common
    in-neighbour, if ``dominated``) whose total degrees sum below 2n - 1."""
    n = g.n
    tot = [a.bit_count() + b.bit_count() for a, b in zip(g.out, g.inn)]
    tot_below = _degree_below(tot, 2 * n - 1)
    for x in range(n):
        c = tot_below[2 * n - 1 - tot[x]] & ~(g.out[x] | g.inn[x]) & (-2 << x)
        if c and dominated:
            c &= dominated_row(g, x)
        if c:
            y = (c & -c).bit_length() - 1
            return {"pair": (x, y), "sum": tot[x] + tot[y]}
    return None


# --- degree conditions ---------------------------------------------------


def check_degree_condition(g: Digraph, rule: str, **params) -> Verdict:
    """Evaluate a minimum-degree / Ore-type hypothesis.

    Witness: first violating vertex or ordered pair in canonical order.
    Side conditions (strong connectivity, n bounds, graph class) are part
    of the hypothesis: when violated the verdict fails with a reason.
    """
    n = g.n
    if rule == "ghouila_houri":
        if bad := _needs_strong(g, rule):
            return bad
        dplus, dminus, _ = semidegrees(g)
        if dplus + dminus >= n:
            return Verdict(rule, True)
        tot = [a.bit_count() + b.bit_count() for a, b in zip(g.out, g.inn)]
        v = tot.index(min(tot))
        return _fails(rule, {"vertex": v, "sum": dplus + dminus, "needed": n})

    if rule in ("woodall", "meyniel", "bgl"):
        if n < 2:
            return _fails(rule, reason="needs n >= 2")
        if bad := _needs_strong(g, rule):
            return bad
        if rule == "woodall":
            found, needed = _out_in_pair(g, n), n
        else:
            found, needed = _nonadjacent_pair(g, rule == "bgl"), 2 * n - 1
        if found:
            return _fails(rule, {**found, "needed": needed})
        return Verdict(rule, True)

    if rule == "oriented_semidegree":
        _require_oriented(g, rule)
        _, _, d0 = semidegrees(g)
        # delta0 >= (3n-4)/8  <=>  8*delta0 >= 3n-4
        if 8 * d0 >= 3 * n - 4:
            return Verdict(rule, True)
        v = [min(a.bit_count(), b.bit_count()) for a, b in zip(g.out, g.inn)].index(d0)
        return _fails(
            rule, {"vertex": v, "semidegree": d0, "threshold": f"(3n-4)/8 = {Fraction(3*n-4,8)}"}
        )

    if rule == "haggkvist_star":
        _require_oriented(g, rule)
        delta = min(map(g.total_deg, range(n)), default=0)
        dplus, dminus, _ = semidegrees(g)
        star = delta + dplus + dminus
        # delta* > (3n-3)/2  <=>  2*delta* > 3n-3
        if 2 * star > 3 * n - 3:
            return Verdict(rule, True)
        return _fails(rule, {"delta_star": star, "threshold": f"(3n-3)/2 = {Fraction(3*n-3,2)}"})

    if rule == "ore_oriented":
        _require_oriented(g, rule)
        alpha = _frac(params.get("alpha", 0), "alpha")
        thr = (Fraction(3, 4) + alpha) * n
        # an integer s is below thr exactly when it is below ceil(thr)
        found = _out_in_pair(g, ceil(thr))
        if found:
            return _fails(rule, {**found, "threshold": str(thr)})
        return Verdict(rule, True)

    if rule == "digraph_semidegree":
        _, _, d0 = semidegrees(g)
        if 2 * d0 >= n:
            return Verdict(rule, True)
        return _fails(rule, {"semidegree": d0, "threshold": f"n/2 = {Fraction(n,2)}"})

    if rule == "kordered_semidegree":
        k = params.get("k")
        if not isinstance(k, int) or k < 1:
            raise BadParams("kordered_semidegree needs integer k >= 1")
        _, _, d0 = semidegrees(g)
        needed = -(-(n + k) // 2) - 1  # ceil((n+k)/2) - 1
        if d0 >= needed:
            return Verdict(rule, True)
        return _fails(rule, {"semidegree": d0, "needed": needed, "k": k})

    if rule == "power_tournament":
        if not is_tournament(g):
            raise ClassMismatch("power_tournament applies to tournaments")
        eps = _frac(params.get("eps", 0), "eps")
        _, _, d0 = semidegrees(g)
        thr = (Fraction(1, 4) + eps) * n
        if d0 >= thr:
            return Verdict(rule, True)
        return _fails(rule, {"semidegree": d0, "threshold": str(thr)})

    if rule == "short_cycle":
        ell = params.get("ell")
        if not isinstance(ell, int) or ell < 4:
            raise BadParams("short_cycle needs integer ell >= 4")
        _require_oriented(g, rule)
        k = 3
        while ell % k == 0:
            k += 1
        _, _, d0 = semidegrees(g)
        needed = n // k + 1
        if d0 >= needed:
            return Verdict(rule, True)
        return _fails(rule, {"semidegree": d0, "needed": needed, "k": k})

    raise BadParams(f"unknown degree rule {rule!r}")


def _require_oriented(g: Digraph, rule: str) -> None:
    if not is_oriented(g):
        raise ClassMismatch(f"{rule} applies to oriented graphs (no 2-cycles)")


# --- degree sequence conditions ------------------------------------------


def check_sequence_condition(g: Digraph, rule: str, **params) -> Verdict:
    """Chvatal-style degree sequence hypotheses.

    Sequences are 1-indexed and sorted ascending, decoupled between out
    and in.  The witness reports the least failing index with both failed
    clauses.
    """
    n = g.n
    seqs = degree_sequences(g)
    dplus = (None,) + seqs.out_seq  # 1-indexed
    dminus = (None,) + seqs.in_seq

    if rule == "nash_williams":
        if n < 3:
            return _fails(rule, reason="needs n >= 3")
        if bad := _needs_strong(g, rule):
            return bad
        for i in range(1, n):
            if 2 * i >= n:
                break
            ok_i = dplus[i] >= i + 1 or dminus[n - i] >= n - i
            ok_ii = dminus[i] >= i + 1 or dplus[n - i] >= n - i
            if not (ok_i and ok_ii):
                return _fails(
                    rule,
                    {
                        "index": i,
                        "clause_i": (dplus[i], i + 1, dminus[n - i], n - i),
                        "clause_ii": (dminus[i], i + 1, dplus[n - i], n - i),
                    },
                )
        return Verdict(rule, True)

    if rule == "posa_digraph":
        if n < 3:
            return _fails(rule, reason="needs n >= 3")
        for i in range(1, n):
            if 2 * i >= n - 1:
                break
            if dplus[i] < i + 1 or dminus[i] < i + 1:
                return _fails(rule, {"index": i, "out": dplus[i], "in": dminus[i]})
        if n % 2:
            h = -(-n // 2)
            if dplus[h] < h or dminus[h] < h:
                return _fails(rule, {"index": h, "out": dplus[h], "in": dminus[h]})
        return Verdict(rule, True)

    if rule == "ckko":
        beta = _frac(params.get("beta", 0), "beta")
        if beta <= 0:
            raise BadParams("ckko needs beta > 0")
        p, q = beta.numerator, beta.denominator
        for i in range(1, (n + 1) // 2):  # 2i < n
            # d >= min(i + beta*n, n/2)  <=>  q*d >= q*i + p*n  or  2*d >= n
            lo = q * i + p * n
            # the secondary index n - i - beta*n is truncated toward zero;
            # an index below 1 makes that clause unavailable
            num = q * (n - i) - p * n
            j = num // q if num >= 0 else -(-num // q)
            ok_i = q * dplus[i] >= lo or 2 * dplus[i] >= n or j >= 1 and dminus[j] >= n - i
            ok_ii = q * dminus[i] >= lo or 2 * dminus[i] >= n or j >= 1 and dplus[j] >= n - i
            if not (ok_i and ok_ii):
                return _fails(
                    rule,
                    {
                        "index": i,
                        "primary_threshold": str(min(i + beta * n, Fraction(n, 2))),
                        "secondary_index": j,
                        "out": dplus[i],
                        "in": dminus[i],
                    },
                )
        return Verdict(rule, True)

    raise BadParams(f"unknown sequence rule {rule!r}")


# --- connectivity / independence conditions ------------------------------


def check_connectivity_condition(g: Digraph, rule: str, **params) -> Verdict:
    """Chvatal-Erdos-type hypotheses relating kappa and alpha_2."""
    if rule not in CONNECTIVITY_RULES:
        raise BadParams(f"unknown connectivity rule {rule!r}")
    # alpha_2 first: above INDEPENDENCE_CAP it refuses, and kappa is wasted
    _, alpha2 = independence_numbers(g)
    kappa = vertex_connectivity(g)
    if rule == "jackson_factorial":
        needed = 2**alpha2 * factorial(alpha2 + 2)
    else:
        needed = alpha2 + 1
    if kappa >= needed:
        return Verdict(rule, True, {"kappa": kappa, "alpha2": alpha2, "needed": needed})
    return _fails(rule, {"kappa": kappa, "alpha2": alpha2, "needed": needed})


def check(rule: str, g: Digraph, **params) -> Verdict:
    """Dispatch ``rule`` to the right checker family."""
    if rule in DEGREE_RULES:
        return check_degree_condition(g, rule, **params)
    if rule in SEQUENCE_RULES:
        return check_sequence_condition(g, rule, **params)
    if rule in CONNECTIVITY_RULES:
        return check_connectivity_condition(g, rule, **params)
    raise BadParams(f"unknown rule {rule!r}")
