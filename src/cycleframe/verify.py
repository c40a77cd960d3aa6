"""Construction-agnostic verification of claimed decompositions.

Nothing here consults provenance or trusts the builders: adjacency is
re-derived from the product definition, and edge accounting is exact: no
edge is claimed more often than the host holds it, and the claimed edges sum
to the host's total.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

from . import search
from .graphs import (Decomposition, MultiGraph, PartialFactor, UnsupportedBlockError,
                     tensor_complete)


@dataclass(frozen=True)
class Result:
    ok: bool
    reason: str | None = None
    path: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def failure(reason: str, **path) -> "Result":
        return Result(False, reason, dict(path))


OK = Result(True)


def _edge_fault(fi: int, ci: int, a, b, claimed: int) -> Result:
    (p, s), (q, t) = a, b
    return Result.failure("edge over-covered" if claimed > 1 else "edge not in host",
                          factor=fi, factor_cycle=ci, edge=tuple(sorted(((p, s), (q, t)))),
                          claimed=claimed)


def _replay(used, record: tuple[list[int], list[int]], factor, fi: int,
            length: int) -> Result | None:
    """Count a factor's edges again from the ids and allowed copies its first
    walk recorded, in walk order; the fault a full walk would report, if any."""
    edges, caps = record
    for j, e in enumerate(edges):
        c = used[e] + 1
        if c > caps[j]:
            ci, at = divmod(j, length)
            cyc = factor.cycles[ci]
            return _edge_fault(fi, ci, cyc[at - 1], cyc[at], c)
        used[e] = c
    return None


def _cover(factors: Sequence[PartialFactor], num_parts: int, part_size: int, k: int | None,
           pairs: dict[tuple[int, int], int] | int, distinct_slots: bool,
           total: int) -> Result:
    """Walk every cycle once: is the claimed edge multiset exactly the host's?

    Each factor must be vertex-disjoint k-cycles (k None: the factor's own
    cycle length) spanning the host vertices outside its hole.  The host is
    a rule: parts p < q are joined by `pairs[(p, q)]` copies of each slot
    pair (an int `pairs`: that many for every two parts), of distinct slots
    only when `distinct_slots` is set.  No edge may be used more often than
    the rule allows, so the claimed edges summing to the host's `total` means
    every edge is covered exactly.

    A vertex is counted by its id p*part_size + s once its range and hole
    check passes (before it, (p, part_size) would alias (p+1, 0)), an edge
    by a*n + b for ids a < b.  Vertices are stamped with the running cycle
    number in a list of n; edges are counted in a zero-filled bytearray of
    n*n once n*n <= 8 times the claim's vertex total (its edge count) and no
    edge is allowed 256 times, else in a dict of the claimed ids (a claim of
    fewer than n*n/8 edges, such as one on a sparse check_partition host).  A
    verify_arcs host has n = ug <= 4 times its factor count, so memory is
    bounded by the claim.  A factor object that occurs again is not walked
    again: the edge ids and allowed copies recorded on its first walk are
    replayed in walk order, so the first failure is still the one a full
    walk reports.  Failures report the vertex tuples.
    """
    n = num_parts * part_size
    table = pairs if isinstance(pairs, dict) else None
    claimed = sum([sum(map(len, f.cycles)) for f in factors])
    most = pairs if table is None else max(table.values(), default=0)
    used = bytearray(n * n) if n * n <= 8 * claimed and most < 256 else defaultdict(int)
    stamp = [0] * n
    left = Counter(map(id, factors))  # occurrences of each factor object still to walk
    replays: dict[int, tuple[list[int], list[int]]] = {}
    cycle_no = 0
    for fi, factor in enumerate(factors):
        key = id(factor)
        left[key] -= 1
        length = factor.cycle_length if k is None else k
        if key in replays:
            fault = _replay(used, replays[key] if left[key] else replays.pop(key),
                            factor, fi, length)
            if fault is not None:
                return fault
            continue
        if left[key]:
            edges, caps = replays[key] = ([], [])
        else:
            edges = caps = None
        hole = factor.hole
        first = cycle_no + 1
        for ci, cyc in enumerate(factor.cycles):
            cycle_no += 1
            if len(cyc) != length:
                return Result.failure("cycle length mismatch", factor=fi, factor_cycle=ci,
                                      expected=length, actual=len(cyc))
            for v in cyc:
                p, s = v
                if not (0 <= p < num_parts and 0 <= s < part_size) or p == hole:
                    return Result.failure("span mismatch", factor=fi, factor_cycle=ci, vertex=v)
                x = p * part_size + s
                if stamp[x] >= first:
                    reason = ("repeated vertex in cycle" if stamp[x] == cycle_no
                              else "cycles share a vertex")
                    return Result.failure(reason, factor=fi, factor_cycle=ci, vertex=v)
                stamp[x] = cycle_no
            pp, ps = cyc[-1]
            a = pp * part_size + ps
            for q, t in cyc:
                b = q * part_size + t
                e = a * n + b if a < b else b * n + a
                cap = (0 if pp == q or distinct_slots and ps == t else
                       pairs if table is None else table.get((pp, q) if pp < q else (q, pp), 0))
                c = used[e] + 1
                if c > cap:
                    return _edge_fault(fi, ci, (pp, ps), (q, t), c)
                used[e] = c
                if edges is not None:
                    edges.append(e)
                    caps.append(cap)
                pp, ps, a = q, t, b
        span = (num_parts - (hole is not None)) * part_size
        if len(factor.cycles) * length != span:
            return Result.failure("span mismatch", factor=fi, expected=span,
                                  actual=len(factor.cycles) * length)
    if claimed != total:  # every claimed edge was counted once and none over the host's
        return Result.failure("edge under-covered", claimed=claimed, expected=total)
    return OK


def check_partition(host: MultiGraph, factors: Sequence[PartialFactor]) -> Result:
    """Exact multiset partition check plus per-factor structural validity."""
    return _cover(factors, host.num_parts, host.part_size, None,
                  host.part_pairs, host.distinct_slots, host.edge_count())


def verify_arcs(dec: Decomposition, params) -> Result:
    """Is `dec` exactly a k-ARCS of (K_u x K_g)(lambda)?

    Checks, in order: u, g >= 2, the factor count is lambda*u*(g-1)/2, every
    part is the hole of exactly lambda*(g-1)/2 factors, and the factors are
    partial C_k-factors covering the host exactly.  The host is never built:
    an edge has multiplicity lambda when its parts and its slots differ.
    """
    lam, k, u, g = params.lam, params.k, params.u, params.g
    if u < 2 or g < 2:
        return Result.failure("host needs u >= 2 and g >= 2", u=u, g=g)
    want_total = lam * u * (g - 1) // 2
    if len(dec.factors) != want_total:
        return Result.failure("factor count mismatch",
                              expected=want_total, actual=len(dec.factors))
    hole_counts: Counter[int] = Counter()
    for fi, factor in enumerate(dec.factors):
        if factor.hole is None or not (0 <= factor.hole < u):
            return Result.failure("factor missing a valid hole", factor=fi)
        hole_counts[factor.hole] += 1
    want_per_hole = lam * (g - 1) // 2
    for p in range(u):
        if hole_counts[p] != want_per_hole:
            return Result.failure("per-hole count mismatch", part=p,
                                  expected=want_per_hole, actual=hole_counts[p])
    return _cover(dec.factors, u, g, k, lam, True, lam * u * (u - 1) * g * (g - 1) // 2)


@dataclass(frozen=True)
class BruteForceOutcome:
    status: str  # "found" | "infeasible" | "exhausted"
    decomposition: Decomposition | None = None


def brute_force_arcs(params, budget: int = search.DEFAULT_BUDGET) -> BruteForceOutcome:
    """Exact-cover search for any k-ARCS, independent of the constructions.

    Only the counting necessities short-circuit the search; no case analysis
    is consulted, so this doubles as an oracle for tiny exception probes.
    """
    lam, k, u, g = params.lam, params.k, params.u, params.g
    if u < 3 or g < 2 or (lam * (g - 1)) % 2 != 0 or (g * (u - 1)) % k != 0:
        return BruteForceOutcome("infeasible")
    holes = [hole for hole in range(u) for _ in range(lam * (g - 1) // 2)]
    try:
        raw = search.decompose_into_factors(tensor_complete(u, g, lam), holes, k, budget)
    except UnsupportedBlockError:
        return BruteForceOutcome("exhausted")
    factors = [PartialFactor.build(k, hole, cycles) for hole, cycles in zip(holes, raw)]
    dec = Decomposition(tuple(factors), tuple("exact_cover" for _ in factors))
    check = verify_arcs(dec, params)
    if not check:
        raise AssertionError(f"brute force produced an invalid decomposition: {check}")
    return BruteForceOutcome("found", dec)
