"""Core graph model: uniform multipartite multigraphs, cycles, factors.

Vertices are (part, slot) pairs and edges are normalized vertex pairs.  A
host is a rule, not a list: joined part pairs times a slot rule, so checks
ask it for one edge's multiplicity and only the edge search lists its
edges.  All values are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]
Cycle = tuple[Vertex, ...]


class ParameterError(ValueError):
    """Arguments outside the domain a construction is defined on."""


class ExceptionalCase(ParameterError):
    """Arguments hitting a known exceptional instance of a cited result."""


class DegenerateCycleError(ParameterError):
    """A requested assembly would produce cycles shorter than 3."""


class UnsupportedBlockError(RuntimeError):
    """No construction available and the bounded search gave up."""


class ConstructionBugError(RuntimeError):
    """A built decomposition failed internal verification."""

    def __init__(self, message: str, factor_index: int | None = None):
        super().__init__(message)
        self.factor_index = factor_index


def edge_key(a: Vertex, b: Vertex) -> Edge:
    """Normalize an unordered vertex pair; loops are rejected."""
    if a == b:
        raise ParameterError(f"loop edge at {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class MultiGraph:
    """num_parts parts of part_size slots; parts p < q are joined by
    part_pairs[(p, q)] copies of every slot pair (of distinct slots only
    when distinct_slots is set)."""

    num_parts: int
    part_size: int
    part_pairs: dict[tuple[int, int], int]
    distinct_slots: bool

    def vertices(self) -> list[Vertex]:
        return [(p, s) for p in range(self.num_parts) for s in range(self.part_size)]

    def multiplicity(self, e: Edge) -> int:
        """Copies of the normalised edge e between two host vertices."""
        (p, s), (q, t) = e
        return 0 if self.distinct_slots and s == t else self.part_pairs.get((p, q), 0)

    def edge_count(self) -> int:
        """Total multiset size (parallel edges counted with multiplicity)."""
        g = self.part_size
        return sum(self.part_pairs.values()) * (g * g - g if self.distinct_slots else g * g)

    @property
    def edges(self) -> dict[Edge, int]:
        """The edge multiset, listed on demand."""
        slots = range(self.part_size)
        return {((p, s), (q, t)): mult for (p, q), mult in self.part_pairs.items()
                for s in slots for t in slots if not (self.distinct_slots and s == t)}


def tensor_complete(u: int, g: int, lam: int) -> MultiGraph:
    """(K_u x K_g)(lam): u parts of size g, edges where part and slot differ."""
    if u < 2 or g < 2 or lam < 1:
        raise ParameterError(f"tensor_complete needs u >= 2, g >= 2, lam >= 1, got {(u, g, lam)}")
    return MultiGraph(u, g, dict.fromkeys(itertools.combinations(range(u), 2), lam), True)


def multipartite_complete(u: int, g: int, lam: int) -> MultiGraph:
    """K_u (x) K̄_g with multiplicity lam: all cross-part pairs."""
    if u < 2 or g < 1 or lam < 1:
        raise ParameterError(f"multipartite_complete got {(u, g, lam)}")
    return MultiGraph(u, g, dict.fromkeys(itertools.combinations(range(u), 2), lam), False)


def complete_graph(n: int, lam: int = 1) -> MultiGraph:
    """K_n(lam) modelled as n parts of size one."""
    if n < 2 or lam < 1:
        raise ParameterError(f"complete_graph got {(n, lam)}")
    return MultiGraph(n, 1, dict.fromkeys(itertools.combinations(range(n), 2), lam), False)


def canonical_cycle(vertices) -> Cycle:
    """Least rotation over both traversal directions; fixes a unique form.

    On distinct vertices it starts at the least vertex, in either direction.
    A cycle already in that form is returned as it is: starting at its least
    vertex with the lesser second element, it is the least rotation even
    when vertices repeat.
    """
    vs = tuple(vertices)
    if not vs:
        raise ParameterError("empty cycle")
    least = min(vs)
    if vs[0] == least and len(vs) > 2 and vs[1] < vs[-1]:
        return vs
    i = vs.index(least)
    f = vs[i:] + vs[:i]
    return min(f, f[:1] + f[:0:-1])


@dataclass(frozen=True)
class PartialFactor:
    """Vertex-disjoint cycles spanning everything except one hole part.

    hole is None for intermediate full 2-factors.  `build` stores the
    cycles in canonical form sorted, so equal factors compare equal; a
    decoded document keeps the rotation and order it was written in.
    """

    cycle_length: int
    hole: int | None
    cycles: tuple[Cycle, ...]

    @staticmethod
    def build(cycle_length: int, hole: int | None, cycles) -> "PartialFactor":
        canon = tuple(sorted(canonical_cycle(c) for c in cycles))
        return PartialFactor(cycle_length, hole, canon)


@dataclass(frozen=True)
class Decomposition:
    """Factors claimed to partition a host edge multiset exactly."""

    factors: tuple[PartialFactor, ...]
    provenance: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.provenance and len(self.provenance) != len(self.factors):
            raise ParameterError("provenance must carry one tag per factor")


def assemble_from_distances(part_cycle, dv, t: int) -> list[Cycle]:
    """Union of distance matchings threaded around a cycle of parts.

    dv[j] is the slot jump from part_cycle[j] to part_cycle[j+1]; the union is
    2-regular and splits into cycles of length r*t/gcd(sum(dv), t).  Each
    cycle is traced from (part_cycle[0], s) for the least unvisited slot s;
    callers wrap them with `PartialFactor.build` at the length they expect.
    """
    parts = tuple(part_cycle)
    dv = tuple(d % t for d in dv)
    r = len(parts)
    if r < 2 or len(dv) != r:
        raise ParameterError("part cycle and distance vector must have equal length >= 2")
    if len(set(parts)) != r:
        raise ParameterError("part cycle must not repeat parts")
    cycles: list[Cycle] = []
    seen = [[False] * t for _ in range(r)]
    for s0 in range(t):
        if seen[0][s0]:
            continue
        cyc: list[Vertex] = []
        pos, slot = 0, s0
        while not seen[pos][slot]:
            seen[pos][slot] = True
            cyc.append((parts[pos], slot))
            slot = (slot + dv[pos]) % t
            pos = (pos + 1) % r
        if len(cyc) < 3:
            raise DegenerateCycleError(
                f"distance vector {dv} on part size {t} closes after {len(cyc)} steps")
        cycles.append(tuple(cyc))
    return cycles


def blow_up(outer, inner: PartialFactor, size: int, cycle_length: int,
            hole: int | None = None) -> PartialFactor:
    """Inflate `inner` along every outer cycle: one copy per cycle c.

    Vertex (x, z) of `inner` on outer cycle c becomes (c[x][0], c[x][1] *
    size + z): abstract position x lands in part c[x], inside the slot block
    of c[x].  One-slot outer cycles ((part, 0) vertices) only relabel parts.
    """
    return PartialFactor.build(cycle_length, hole, [
        tuple((c[x][0], c[x][1] * size + z) for x, z in cyc)
        for c in outer for cyc in inner.cycles])


def inflate_slots(outer, lex, inner, parts: int, num_blocks: int, size: int,
                  cycle_length: int) -> tuple[list[PartialFactor], list[PartialFactor]]:
    """K_u x K_{qs} from K_u x K_q and K_u x K_s: u parts, q slot blocks of s.

    Blown layer: each outer factor through every lex factor (of C_r (x) K̄_s,
    or K_{s,s} for matching edges), keeping its hole.  Copies layer: each
    inner factor in every slot block b, (x, z) on slot b*s + z, keeping its
    hole.  lambda*u(q-1)/2 * s + lambda*u(s-1)/2 = lambda*u(qs-1)/2 factors.
    """
    blown = [blow_up(of.cycles, lf, size, cycle_length, of.hole) for of in outer for lf in lex]
    slot_blocks = [[(p, b) for p in range(parts)] for b in range(num_blocks)]
    return blown, [blow_up(slot_blocks, f, size, cycle_length, f.hole) for f in inner]


def trace_two_regular(edges) -> list[Cycle]:
    """Split a 2-regular simple edge list into its cycles.

    Each cycle starts at its least vertex and steps to the smaller of that
    vertex's two neighbours; cycles come out in order of their least vertex.
    """
    adj: dict[Vertex, list[Vertex]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v, nb in adj.items():
        if len(nb) != 2 or nb[0] == nb[1]:
            raise DegenerateCycleError(f"vertex {v} is not simply 2-regular")
    cycles = []
    visited: set[Vertex] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        cyc = [start]
        visited.add(start)
        prev, cur = start, min(adj[start])
        while cur != start:
            cyc.append(cur)
            visited.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        if len(cyc) < 3:
            raise DegenerateCycleError("traced cycle shorter than 3")
        cycles.append(tuple(cyc))
    return cycles
