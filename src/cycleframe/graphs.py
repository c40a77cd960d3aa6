"""Core graph model: uniform multipartite multigraphs, cycles, factors.

Vertices are (part, slot) pairs.  Edges are unordered vertex pairs stored in
normalized order with an explicit integer multiplicity, so multigraph
arithmetic (doubling, hole removal, partition checks) is plain Counter
arithmetic.  All values are immutable after construction.
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
    """Uniform multipartite multigraph: num_parts parts of part_size slots."""

    num_parts: int
    part_size: int
    edges: dict[Edge, int]
    kind: str = "custom"

    def vertices(self) -> list[Vertex]:
        return [(p, s) for p in range(self.num_parts) for s in range(self.part_size)]

    def edge_count(self) -> int:
        """Total multiset size (parallel edges counted with multiplicity)."""
        return sum(self.edges.values())


def tensor_complete(u: int, g: int, lam: int) -> MultiGraph:
    """(K_u x K_g)(lam): u parts of size g, edges where part and slot differ."""
    if u < 2 or g < 2 or lam < 1:
        raise ParameterError(f"tensor_complete needs u >= 2, g >= 2, lam >= 1, got {(u, g, lam)}")
    edges: dict[Edge, int] = {}
    for p1, p2 in itertools.combinations(range(u), 2):
        for s1 in range(g):
            for s2 in range(g):
                if s1 != s2:
                    edges[((p1, s1), (p2, s2))] = lam
    return MultiGraph(u, g, edges, "tensor_complete")


def multipartite_complete(u: int, g: int, lam: int) -> MultiGraph:
    """K_u (x) K̄_g with multiplicity lam: all cross-part pairs."""
    if u < 2 or g < 1 or lam < 1:
        raise ParameterError(f"multipartite_complete got {(u, g, lam)}")
    edges: dict[Edge, int] = {}
    for p1, p2 in itertools.combinations(range(u), 2):
        for s1 in range(g):
            for s2 in range(g):
                edges[((p1, s1), (p2, s2))] = lam
    return MultiGraph(u, g, edges, "lexicographic_blowup")


def complete_graph(n: int, lam: int = 1) -> MultiGraph:
    """K_n(lam) modelled as n parts of size one."""
    if n < 2 or lam < 1:
        raise ParameterError(f"complete_graph got {(n, lam)}")
    edges = {(((i, 0)), ((j, 0))): lam for i, j in itertools.combinations(range(n), 2)}
    kind = "complete_simple" if lam == 1 else "complete_doubled" if lam == 2 else "custom"
    return MultiGraph(n, 1, edges, kind)


def canonical_cycle(vertices) -> Cycle:
    """Least rotation over both traversal directions; fixes a unique form.

    On distinct vertices it starts at the least vertex, in either direction.
    """
    vs = tuple(vertices)
    if not vs:
        raise ParameterError("empty cycle")
    i = vs.index(min(vs))
    f = vs[i:] + vs[:i]
    return min(f, f[:1] + f[:0:-1])


@dataclass(frozen=True)
class PartialFactor:
    """Vertex-disjoint cycles spanning everything except one hole part.

    hole is None for intermediate full 2-factors.  Cycles are stored in
    canonical form sorted, so equal factors compare equal.
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


def assemble_from_distances(part_cycle, dv, t: int) -> PartialFactor:
    """Union of distance matchings threaded around a cycle of parts.

    dv[j] is the slot jump from part_cycle[j] to part_cycle[j+1]; the union is
    2-regular and splits into cycles of length r*t/gcd(sum(dv), t).
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
    lengths = {len(c) for c in cycles}
    assert len(lengths) == 1, "distance assembly must give equal cycle lengths"
    return PartialFactor.build(lengths.pop(), None, cycles)


def blow_up(outer, inner: PartialFactor, size: int, cycle_length: int,
            hole: int | None = None) -> PartialFactor:
    """Inflate `inner` along every outer cycle: one copy per cycle c.

    Vertex (x, z) of `inner` on outer cycle c becomes (c[x][0], c[x][1] *
    size + z): abstract position x lands in part c[x], inside the slot block
    of c[x].  One-slot outer cycles ((part, 0) vertices) only relabel parts;
    `[[(p, b) for p in parts] for b in blocks]` copies a factor into each
    slot block.
    """
    return PartialFactor.build(cycle_length, hole, [
        tuple((c[x][0], c[x][1] * size + z) for x, z in cyc)
        for c in outer for cyc in inner.cycles])


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
