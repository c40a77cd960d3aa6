"""Deterministic bounded backtracking used by the block providers.

Three engines:

* distance arrays: rows of slot jumps threaded around a cycle of parts,
  one row per factor, every column a permutation of the allowed jumps and
  every row sum constrained by the gcd that fixes the resulting cycle length
  (closed forms come first: alternating rows for an even number of
  positions, and for an odd number p the rows (r, ..., r, -(p-1)r));
* rotational bases: a starter near factor over Z_n whose translates tile
  the doubled complete graph K_n(2), each translate missing one vertex;
* edge-level factor cover: partition a host's listed edges into
  C_L-factors, each spanning every part but its hole.

Everything iterates in sorted order so identical requests rebuild identical
answers, and every engine counts nodes against a budget.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter

from .graphs import (DegenerateCycleError, MultiGraph, UnsupportedBlockError,
                     Vertex, edge_key, trace_two_regular)

DEFAULT_BUDGET = 10_000_000


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise UnsupportedBlockError("search node budget exhausted")


def _target_ok(total: int, modulus: int, target_gcd: int) -> bool:
    return math.gcd(total % modulus, modulus) == target_gcd


def distance_array(positions: int, modulus: int, target_gcd: int,
                   include_zero: bool = False) -> list[tuple[int, ...]]:
    """Rows of length `positions` over Z_modulus, one per allowed value.

    Columns form permutations of the allowed values ({1..m-1}, or all of Z_m
    when include_zero); each row sum s satisfies gcd(s, m) == target_gcd, so
    threading row r around a cycle of `positions` parts yields cycles of
    length positions * m / target_gcd.
    """
    values = list(range(0 if include_zero else 1, modulus))
    if not values:
        raise UnsupportedBlockError("empty value set for distance array")
    closed = _closed_form_rows(positions, modulus, target_gcd, include_zero)
    if closed is not None:
        return closed
    if not _row_sums_reachable(positions, modulus, target_gcd, values):
        raise UnsupportedBlockError(
            f"no distance array for positions={positions}, modulus={modulus}, "
            f"target={target_gcd} (residue obstruction)")
    return _array_backtrack(positions, modulus, target_gcd, values, _Budget(DEFAULT_BUDGET))


def _row_sums_reachable(positions, modulus, target_gcd, values) -> bool:
    """Necessary condition: the grand total (fixed by the column permutations)
    must be a sum of len(values) row residues with the required gcd."""
    allowed = {x % modulus for x in range(modulus)
               if math.gcd(x % modulus, modulus) == target_gcd}
    if not allowed:
        return False
    reachable = {0}
    for _ in range(len(values)):
        reachable = {(r + a) % modulus for r in reachable for a in allowed}
    total = positions * sum(values) % modulus
    return total in reachable


def _closed_form_rows(positions, modulus, target_gcd, include_zero):
    """Closed-form rows, or None.

    Even positions: alternating rows with a reflected last column, valid
    when the quotient modulus/target is odd (this covers the plain
    alternating C_k-factor case target == modulus).  Odd positions p with
    target == modulus: rows (r, ..., r, -(p-1)r), whose last column is a
    permutation when p-1 is a unit mod the modulus; they are the first
    array `_array_backtrack` would find.
    """
    if include_zero or positions < 2:
        return None
    w = target_gcd
    if positions % 2 == 1:
        if w != modulus or math.gcd(positions - 1, modulus) != 1:
            return None
        return [(r,) * (positions - 1) + (-(positions - 1) * r % modulus,)
                for r in range(1, modulus)]
    if modulus % w != 0 or (modulus // w) % 2 == 0:
        return None
    rows = []
    for r in range(1, modulus):
        head = [r if j % 2 == 0 else (modulus - r) for j in range(positions - 2)]
        beta = w if r == w % modulus else (w - r) % modulus
        if beta == 0:
            return None
        row = tuple(head + [r, beta])
        if not _target_ok(sum(row), modulus, w):
            return None
        rows.append(row)
    last = [row[-1] for row in rows]
    if sorted(last) != list(range(1, modulus)):
        return None
    return rows


def _array_backtrack(positions, modulus, target_gcd, values, budget):
    pools = [sorted(values) for _ in range(positions)]
    rows: list[tuple[int, ...]] = []

    def fill_row(row: list[int], col: int) -> bool:
        budget.spend()
        if col == positions - 1:
            partial = sum(row)
            for v in pools[col]:
                if _target_ok(partial + v, modulus, target_gcd):
                    row.append(v)
                    pools[col].remove(v)
                    if place_row(row):
                        return True
                    bisect.insort(pools[col], v)
                    row.pop()
            return False
        for v in list(pools[col]):
            row.append(v)
            pools[col].remove(v)
            if fill_row(row, col + 1):
                return True
            bisect.insort(pools[col], v)
            row.pop()
        return False

    def place_row(row: list[int]) -> bool:
        rows.append(tuple(row))
        if len(rows) == len(values):
            return True
        if fill_row([], 0):
            return True
        rows.pop()
        return False

    if not fill_row([], 0):
        raise UnsupportedBlockError(
            f"no distance array for positions={positions}, modulus={modulus}, "
            f"target={target_gcd}")
    return rows


def _difference_class(a: int, b: int, n: int) -> int:
    d = (a - b) % n
    return min(d, n - d)


def rotational_base(n: int, cycle_len: int) -> list[tuple[int, ...]]:
    """Starter cycles whose Z_n translates tile K_n(2) less one vertex each.

    The cycles partition {1..n-1} and use every difference class twice (the
    half class once when n is even); translating by all of Z_n yields a
    near-cycle-factorization of K_n(2), translate j missing j.
    """
    b = _Budget(DEFAULT_BUDGET)
    half = None if n % 2 == 1 else n // 2
    quota = Counter({c: 2 for c in range(1, (n + 1) // 2 if half is None else half)})
    if half is not None:
        quota[half] = 1
        # every cycle closes mod the even n, so it uses evenly many odd
        # differences; an odd total of odd-class slots can never be placed
        odd_slots = sum(q for c, q in quota.items() if c % 2 == 1)
        if odd_slots % 2 == 1:
            raise UnsupportedBlockError(
                f"parity obstruction: no rotational base for n={n}, cycle_len={cycle_len}")
    remaining = set(range(1, n))
    cycles: list[tuple[int, ...]] = []

    def extend(path: list[int], first: int) -> bool:
        b.spend()
        if len(path) == cycle_len:
            c = _difference_class(path[-1], first, n)
            if quota[c] == 0:
                return False
            quota[c] -= 1
            if close_cycle(path):
                return True
            quota[c] += 1
            return False
        prev = path[-1]
        # scarce difference classes first: failing assignments die sooner
        for v in sorted(remaining, key=lambda x: (quota[_difference_class(prev, x, n)], x)):
            if len(path) == cycle_len - 1 and len(path) >= 2 and v < path[1]:
                continue  # canonical direction: second vertex < last vertex
            c = _difference_class(prev, v, n)
            if quota[c] == 0:
                continue
            quota[c] -= 1
            remaining.discard(v)
            path.append(v)
            if extend(path, first):
                return True
            path.pop()
            remaining.add(v)
            quota[c] += 1
        return False

    def close_cycle(path: list[int]) -> bool:
        cycles.append(tuple(path))
        if not remaining:
            if all(q == 0 for q in quota.values()):
                return True
        else:
            start = min(remaining)
            remaining.discard(start)
            if extend([start], start):
                return True
            remaining.add(start)
        cycles.pop()
        return False

    start = min(remaining)
    remaining.discard(start)
    if extend([start], start):
        return cycles
    raise UnsupportedBlockError(f"no rotational base for n={n}, cycle_len={cycle_len}")


def decompose_into_factors(host: MultiGraph, holes, cycle_len: int,
                           budget: int = DEFAULT_BUDGET) -> list[list[tuple[Vertex, ...]]]:
    """Partition the edges of `host` into one C_cycle_len-factor per hole.

    The only reader of `host.edges`.  The factor for hole h covers every
    vertex outside part h (None: every vertex) with disjoint cycles drawn
    from the remaining multiset.  Cycles grow from the least uncovered
    vertex with ascending neighbours and a direction tie-break, which both
    canonicalizes the output and prunes the search; committing an edge also
    checks that both endpoints keep enough available degree for the factors
    still owed to them.
    """
    b = _Budget(budget)
    work = Counter(host.edges)
    spans = [frozenset(v for v in host.vertices() if v[0] != hole) for hole in holes]
    adjacency: dict[Vertex, list[Vertex]] = {}
    avail_deg: Counter[Vertex] = Counter()
    for (x, y), mult in work.items():
        adjacency.setdefault(x, []).append(y)
        adjacency.setdefault(y, []).append(x)
        avail_deg[x] += mult
        avail_deg[y] += mult
    for v in adjacency:
        adjacency[v] = sorted(set(adjacency[v]))
    # factor indices that still owe vertex v two edges, for the degree prune
    owing: dict[Vertex, list[int]] = {}
    for i, span in enumerate(spans):
        for v in span:
            owing.setdefault(v, []).append(i)
    out: list[list[tuple[Vertex, ...]]] = []

    def later_need(v: Vertex, idx: int) -> int:
        lst = owing.get(v, ())
        return 2 * (len(lst) - bisect.bisect_right(lst, idx))

    def avail(a: Vertex, c: Vertex) -> bool:
        return work[edge_key(a, c)] > 0

    def take(a: Vertex, c: Vertex, delta: int):
        work[edge_key(a, c)] += delta
        avail_deg[a] += delta
        avail_deg[c] += delta

    def solve_factor(idx: int, uncovered: set[Vertex], cycles: list[tuple[Vertex, ...]]) -> bool:
        if not uncovered:
            out.append(list(cycles))
            if solve(idx + 1):
                return True
            out.pop()
            return False
        anchor = min(uncovered)
        uncovered.discard(anchor)
        ok = grow([anchor], anchor, uncovered, cycles, idx)
        uncovered.add(anchor)
        return ok

    def take_remainder(span: frozenset[Vertex]) -> bool:
        """Final factor: the leftover edges must be exactly the factor."""
        left = [e for e, mult in work.items() if mult]
        if any(work[e] != 1 or e[0] not in span or e[1] not in span for e in left):
            return False
        try:
            cycles = trace_two_regular(left)
        except DegenerateCycleError:
            return False
        # 2-regular on span vertices: as many edges as span vertices covers it
        if len(left) != len(span) or any(len(c) != cycle_len for c in cycles):
            return False
        out.append(cycles)
        return True

    def grow(path: list[Vertex], anchor: Vertex, uncovered: set[Vertex],
             cycles: list[tuple[Vertex, ...]], idx: int) -> bool:
        b.spend()
        if len(path) == cycle_len:
            if not avail(path[-1], anchor):
                return False
            if len(path) > 2 and path[1] > path[-1]:
                return False  # canonical direction
            take(path[-1], anchor, -1)
            if (avail_deg[path[-1]] >= later_need(path[-1], idx)
                    and avail_deg[anchor] >= later_need(anchor, idx)):
                cycles.append(tuple(path))
                if solve_factor(idx, uncovered, cycles):
                    return True
                cycles.pop()
            take(path[-1], anchor, +1)
            return False
        prev = path[-1]
        floor = first_floor[idx] if len(path) == 1 and not cycles else None
        for v in adjacency.get(prev, ()):
            if floor is not None and v < floor:
                continue  # identical factors are emitted in canonical order
            if v not in uncovered or not avail(prev, v):
                continue
            uncovered.discard(v)
            path.append(v)
            take(prev, v, -1)
            # prev is finished in this factor unless it is the anchor; v still
            # needs its closing edge here plus two per later factor owing it.
            prev_ok = avail_deg[prev] >= later_need(prev, idx) + (1 if prev == anchor else 0)
            v_ok = avail_deg[v] >= 1 + later_need(v, idx)
            if prev_ok and v_ok and grow(path, anchor, uncovered, cycles, idx):
                return True
            take(prev, v, +1)
            path.pop()
            uncovered.add(v)
        return False

    first_floor: dict[int, Vertex | None] = {}

    def solve(idx: int) -> bool:
        if idx == len(holes):
            return all(m == 0 for m in work.values())
        if idx == len(holes) - 1:
            return take_remainder(spans[idx])
        if idx > 0 and holes[idx] == holes[idx - 1] and out:
            prev_first = out[-1][0]
            first_floor[idx] = prev_first[1]
        else:
            first_floor[idx] = None
        return solve_factor(idx, set(spans[idx]), [])

    if solve(0):
        return out
    raise UnsupportedBlockError("no factor decomposition within budget")
