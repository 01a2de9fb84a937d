"""Hypothesis checkers for sufficient Hamiltonicity conditions.

Each rule evaluates the *hypothesis* of a theorem or conjecture; :func:`check`
wraps it in a :class:`Verdict` carrying a concrete, independently checkable
witness on failure (the first violating vertex, pair or index).  Side
conditions (strong connectivity, n bounds) fail the verdict with a reason.
Fractional thresholds are compared in exact rational arithmetic; floating
point never touches a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial
from operator import add
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


# What a rule returns: (holds, witness, reason).
Outcome = tuple[bool, Optional[dict[str, Any]], Optional[str]]
_HOLDS: Outcome = (True, None, None)
_NOT_STRONG: Outcome = (False, None, "not strongly connected")


def _frac(x, name: str) -> Fraction:
    """``x`` as an exact fraction; a value that is not one is a
    ``BadParams`` naming the parameter."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise BadParams(f"{name} wants a fraction, got {x!r}") from None


def _require_oriented(g: Digraph, rule: str) -> None:
    if not is_oriented(g):
        raise ClassMismatch(f"{rule} applies to oriented graphs (no 2-cycles)")


def _degree_below(degs, top: int) -> list[int]:
    """``below[k]``: the mask of the vertices whose degree in ``degs`` is
    less than k, for k = 0..top (every degree is below ``top``)."""
    below = [0] * (top + 1)
    for v, d in enumerate(degs):
        below[d + 1] |= 1 << v
    for k in range(1, top + 1):
        below[k] |= below[k - 1]
    return below


def _out_in_pair(g: Digraph, need: int, **label) -> Optional[dict[str, Any]]:
    """Pair and sum of the first (x, y), x != y, with no arc x->y and
    out(x) + in(y) < need, then ``label``: one bit-row scan per x."""
    in_below = _degree_below(g.in_degrees, g.n)
    for x, d in enumerate(g.out_degrees):
        c = in_below[max(0, min(need - d, g.n))] & ~g.out[x] & ~(1 << x)
        if c:
            y = (c & -c).bit_length() - 1
            return {"pair": (x, y), "sum": d + g.in_degrees[y], **label}
    return None


def _nonadjacent_pair(g: Digraph, dominated: bool) -> Optional[dict[str, Any]]:
    """Pair, sum and bound of the first non-adjacent x < y (with a common
    in-neighbour, if ``dominated``) whose total degrees sum below 2n - 1."""
    n = g.n
    tot = list(map(add, g.out_degrees, g.in_degrees))
    tot_below = _degree_below(tot, 2 * n - 1)
    for x in range(n):
        c = tot_below[2 * n - 1 - tot[x]] & ~(g.out[x] | g.inn[x]) & (-2 << x)
        if c and dominated:
            c &= dominated_row(g, x)
        if c:
            y = (c & -c).bit_length() - 1
            return {"pair": (x, y), "sum": tot[x] + tot[y], "needed": 2 * n - 1}
    return None


# --- degree conditions ---------------------------------------------------


def _ghouila_houri(g: Digraph) -> Outcome:
    if not is_strongly_connected(g):
        return _NOT_STRONG
    dplus, dminus, _ = semidegrees(g)
    if dplus + dminus >= g.n:
        return _HOLDS
    tot = list(map(add, g.out_degrees, g.in_degrees))
    return False, {"vertex": tot.index(min(tot)), "sum": dplus + dminus, "needed": g.n}, None


def _pair_rule(scan):
    """Woodall, Meyniel and BGL: n >= 2, strong connectivity, then
    ``scan(g)``, the witness of the first failing pair."""

    def rule(g: Digraph) -> Outcome:
        if g.n < 2:
            return False, None, "needs n >= 2"
        if not is_strongly_connected(g):
            return _NOT_STRONG
        found = scan(g)
        return (False, found, None) if found else _HOLDS

    return rule


def _ore_oriented(g: Digraph, alpha=0) -> Outcome:
    _require_oriented(g, "ore_oriented")
    thr = (Fraction(3, 4) + _frac(alpha, "alpha")) * g.n
    # an integer s is below thr exactly when it is below ceil(thr)
    found = _out_in_pair(g, ceil(thr), threshold=str(thr))
    return (False, found, None) if found else _HOLDS


def _haggkvist_star(g: Digraph) -> Outcome:
    _require_oriented(g, "haggkvist_star")
    n = g.n
    delta = min(map(add, g.out_degrees, g.in_degrees), default=0)
    dplus, dminus, _ = semidegrees(g)
    star = delta + dplus + dminus
    # delta* > (3n-3)/2  <=>  2*delta* > 3n-3
    if 2 * star > 3 * n - 3:
        return _HOLDS
    return False, {"delta_star": star, "threshold": f"(3n-3)/2 = {Fraction(3*n-3,2)}"}, None


def _oriented_semidegree(g: Digraph) -> Outcome:
    _require_oriented(g, "oriented_semidegree")
    n = g.n
    _, _, d0 = semidegrees(g)
    # delta0 >= (3n-4)/8  <=>  8*delta0 >= 3n-4
    if 8 * d0 >= 3 * n - 4:
        return _HOLDS
    v = list(map(min, g.out_degrees, g.in_degrees)).index(d0)
    threshold = f"(3n-4)/8 = {Fraction(3*n-4,8)}"
    return False, {"vertex": v, "semidegree": d0, "threshold": threshold}, None


def _digraph_semidegree(g: Digraph) -> Outcome:
    _, _, d0 = semidegrees(g)
    if 2 * d0 >= g.n:
        return _HOLDS
    return False, {"semidegree": d0, "threshold": f"n/2 = {Fraction(g.n,2)}"}, None


def _kordered_semidegree(g: Digraph, k=None) -> Outcome:
    if not isinstance(k, int) or k < 1:
        raise BadParams("kordered_semidegree needs integer k >= 1")
    _, _, d0 = semidegrees(g)
    needed = -(-(g.n + k) // 2) - 1  # ceil((n+k)/2) - 1
    return _HOLDS if d0 >= needed else (False, {"semidegree": d0, "needed": needed, "k": k}, None)


def _power_tournament(g: Digraph, eps=0) -> Outcome:
    if not is_tournament(g):
        raise ClassMismatch("power_tournament applies to tournaments")
    thr = (Fraction(1, 4) + _frac(eps, "eps")) * g.n
    _, _, d0 = semidegrees(g)
    return _HOLDS if d0 >= thr else (False, {"semidegree": d0, "threshold": str(thr)}, None)


def _short_cycle(g: Digraph, ell=None) -> Outcome:
    if not isinstance(ell, int) or ell < 4:
        raise BadParams("short_cycle needs integer ell >= 4")
    _require_oriented(g, "short_cycle")
    k = 3
    while ell % k == 0:
        k += 1
    _, _, d0 = semidegrees(g)
    needed = g.n // k + 1
    return _HOLDS if d0 >= needed else (False, {"semidegree": d0, "needed": needed, "k": k}, None)


# --- degree sequence conditions ------------------------------------------
# Chvatal-style hypotheses.  Sequences are 1-indexed and sorted ascending,
# decoupled between out and in; the witness reports the least failing
# index with both failed clauses.


def _sequences(g: Digraph):
    seqs = degree_sequences(g)
    return (None,) + seqs.out_seq, (None,) + seqs.in_seq


def _nash_williams(g: Digraph) -> Outcome:
    n = g.n
    if n < 3:
        return False, None, "needs n >= 3"
    if not is_strongly_connected(g):
        return _NOT_STRONG
    dplus, dminus = _sequences(g)
    for i in range(1, (n + 1) // 2):  # 2i < n
        ok_i = dplus[i] >= i + 1 or dminus[n - i] >= n - i
        ok_ii = dminus[i] >= i + 1 or dplus[n - i] >= n - i
        if not (ok_i and ok_ii):
            clause_i = (dplus[i], i + 1, dminus[n - i], n - i)
            clause_ii = (dminus[i], i + 1, dplus[n - i], n - i)
            return False, {"index": i, "clause_i": clause_i, "clause_ii": clause_ii}, None
    return _HOLDS


def _posa_digraph(g: Digraph) -> Outcome:
    n = g.n
    if n < 3:
        return False, None, "needs n >= 3"
    dplus, dminus = _sequences(g)
    for i in range(1, n // 2):  # 2i < n - 1
        if dplus[i] < i + 1 or dminus[i] < i + 1:
            return False, {"index": i, "out": dplus[i], "in": dminus[i]}, None
    h = -(-n // 2)
    if n % 2 and (dplus[h] < h or dminus[h] < h):
        return False, {"index": h, "out": dplus[h], "in": dminus[h]}, None
    return _HOLDS


def _ckko(g: Digraph, beta=0) -> Outcome:
    n = g.n
    dplus, dminus = _sequences(g)
    beta = _frac(beta, "beta")
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
            return False, {
                "index": i,
                "primary_threshold": str(min(i + beta * n, Fraction(n, 2))),
                "secondary_index": j,
                "out": dplus[i],
                "in": dminus[i],
            }, None
    return _HOLDS


# --- connectivity / independence conditions ------------------------------


def _jackson(needed):
    """Chvatal-Erdos-type: kappa >= ``needed(alpha_2)``."""

    def rule(g: Digraph) -> Outcome:
        # alpha_2 first: a spent node budget refuses before any kappa work;
        # it is alpha_0 of the 2-cycles, so one search and no alpha_0 of g
        alpha2, _ = independence_numbers(g.two_cycles())
        kappa = vertex_connectivity(g)
        need = needed(alpha2)
        return kappa >= need, {"kappa": kappa, "alpha2": alpha2, "needed": need}, None

    return rule


# rule: (family, rule function, the parameters it reads), in the order of
# the family tuples below
_RULES = {
    "ghouila_houri": ("degree", _ghouila_houri, ()),
    "woodall": ("degree", _pair_rule(lambda g: _out_in_pair(g, g.n, needed=g.n)), ()),
    "meyniel": ("degree", _pair_rule(lambda g: _nonadjacent_pair(g, False)), ()),
    "bgl": ("degree", _pair_rule(lambda g: _nonadjacent_pair(g, True)), ()),
    "ore_oriented": ("degree", _ore_oriented, ("alpha",)),
    "haggkvist_star": ("degree", _haggkvist_star, ()),
    "oriented_semidegree": ("degree", _oriented_semidegree, ()),
    "digraph_semidegree": ("degree", _digraph_semidegree, ()),
    "kordered_semidegree": ("degree", _kordered_semidegree, ("k",)),
    "power_tournament": ("degree", _power_tournament, ("eps",)),
    "short_cycle": ("degree", _short_cycle, ("ell",)),
    "nash_williams": ("sequence", _nash_williams, ()),
    "posa_digraph": ("sequence", _posa_digraph, ()),
    "ckko": ("sequence", _ckko, ("beta",)),
    "jackson_factorial": ("connectivity", _jackson(lambda a: 2**a * factorial(a + 2)), ()),
    "jackson_ordaz": ("connectivity", _jackson(lambda a: a + 1), ()),
}
DEGREE_RULES, SEQUENCE_RULES, CONNECTIVITY_RULES = (
    tuple(rule for rule, (fam, _, _) in _RULES.items() if fam == family)
    for family in ("degree", "sequence", "connectivity")
)
# the parameters each rule reads
RULE_PARAMS = {rule: params for rule, (_, _, params) in _RULES.items()}


def check(rule: str, g: Digraph, **params) -> Verdict:
    """Evaluate ``rule``'s hypothesis on ``g``; a parameter the rule does
    not read is ignored."""
    try:
        _, run, names = _RULES[rule]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise BadParams(f"unknown rule {rule!r}") from None
    return Verdict(rule, *run(g, **{p: params[p] for p in names if p in params}))
