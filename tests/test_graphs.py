from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleframe import arcs, blocks, compose, graphs
from cycleframe.verify import check_partition
from multisets import edge_multiset


def brute_tensor_edges(u, g, lam):
    """Oracle: enumerate tensor edges directly from the adjacency rule."""
    out = Counter()
    vertices = [(p, s) for p in range(u) for s in range(g)]
    for a, b in itertools.combinations(vertices, 2):
        if a[0] != b[0] and a[1] != b[1]:
            out[graphs.edge_key(a, b)] = lam
    return out


def test_tensor_complete_small_counts():
    assert graphs.tensor_complete(3, 2, 1).edge_count() == 6
    assert len(graphs.tensor_complete(3, 2, 1).edges) == 6
    assert graphs.tensor_complete(5, 2, 2).edge_count() == 40
    g = graphs.tensor_complete(2, 2, 1)
    assert g.edge_count() == 2  # K_2 x K_2 is a perfect matching
    assert sorted(g.edges) == [(((0, 0)), ((1, 1))), (((0, 1)), ((1, 0)))]


@pytest.mark.parametrize("u,g,lam", [(3, 2, 1), (4, 3, 2), (5, 4, 1), (6, 2, 3)])
def test_tensor_complete_matches_bruteforce(u, g, lam):
    assert Counter(graphs.tensor_complete(u, g, lam).edges) == brute_tensor_edges(u, g, lam)


def test_tensor_complete_degree_and_size_formulas():
    for u, g, lam in [(3, 2, 1), (5, 3, 2), (7, 4, 1)]:
        host = graphs.tensor_complete(u, g, lam)
        assert host.edge_count() == lam * u * (u - 1) * (g * g - g) // 2
        degree = Counter()
        for (a, b), mult in host.edges.items():
            degree[a] += mult
            degree[b] += mult
        assert set(degree) == set(host.vertices())
        assert set(degree.values()) == {lam * (u - 1) * (g - 1)}


def test_tensor_complete_rejects_bad_parameters():
    for bad in [(1, 2, 1), (2, 1, 1), (2, 2, 0)]:
        with pytest.raises(graphs.ParameterError):
            graphs.tensor_complete(*bad)


def test_mcf_identity_exhaustive_sweep():
    """(K_u (x) K̄_g) - g K_u == K_u x K_g as exact edge multisets; the g
    removed copies of K_u(lam) are slot-aligned: copy j joins the (p, j)."""
    for u in range(2, 9):
        for g in range(2, 7):
            for lam in (1, 2):
                remaining = Counter(graphs.multipartite_complete(u, g, lam).edges)
                for j in range(g):
                    for p1, p2 in itertools.combinations(range(u), 2):
                        remaining[((p1, j), (p2, j))] -= lam
                assert min(remaining.values()) >= 0, (u, g, lam)
                assert +remaining == Counter(graphs.tensor_complete(u, g, lam).edges), (u, g, lam)


def distance_matchings(t):
    """The t matchings of K_3 (x) K̄_t missing part 2: the distance-i
    matchings {(0,j)(1,j+i mod t)} between parts 0 and 1, in order of i."""
    return [f.edges for f in blocks.partial_one_factorization_multipartite(3, t)
            if f.missing == 2]


def test_distance_one_factor_definition():
    d0, d1, _ = distance_matchings(3)
    assert d0 == (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2)))
    assert set(d1) == {((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))}


def test_distance_factors_partition_ktt():
    for t in range(2, 8):
        factors = [set(f) for f in distance_matchings(t)]
        assert len(factors) == t
        for a, b in itertools.combinations(factors, 2):
            assert not a & b
        assert sum(len(f) for f in factors) == t * t
        assert len(set().union(*factors)) == t * t


def trace_lengths(part_cycle, dv, t):
    """Oracle: follow jumps step by step, collecting closed walk lengths."""
    r = len(part_cycle)
    seen = set()
    lengths = []
    for s0 in range(t):
        if (0, s0) in seen:
            continue
        pos, slot, n = 0, s0, 0
        while (pos, slot) not in seen:
            seen.add((pos, slot))
            slot = (slot + dv[pos]) % t
            pos = (pos + 1) % r
            n += 1
        lengths.append(n)
    return lengths


def test_assemble_from_distances_examples():
    cycles = graphs.assemble_from_distances((0, 1, 2, 3), (1, 2, 1, 2), 3)
    assert {len(c) for c in cycles} == {4} and len(cycles) == 3
    assert len({v for c in cycles for v in c}) == 12
    cycles = graphs.assemble_from_distances((0, 1, 2, 3), (1, 1, 1, 1), 3)
    assert {len(c) for c in cycles} == {12} and len(cycles) == 1
    with pytest.raises(graphs.DegenerateCycleError):
        graphs.assemble_from_distances((0, 1), (0, 0), 2)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 6), st.integers(2, 7), st.data())
def test_assemble_cycle_length_law(r, t, data):
    """Cycle lengths are r*t/gcd(jump sum, t), or the assembly degenerates."""
    dv = tuple(data.draw(st.integers(0, t - 1)) for _ in range(r))
    want = r * t // math.gcd(sum(dv) % t, t)
    try:
        cycles = graphs.assemble_from_distances(tuple(range(r)), dv, t)
    except graphs.DegenerateCycleError:
        assert want < 3
        return
    assert {len(c) for c in cycles} == {want}
    assert len(cycles) * want == r * t


def test_assemble_from_distances_matches_trace_oracle():
    rng = random.Random(52)
    for r in range(2, 7):
        for t in range(2, 8):
            for _ in range(8):
                dv = tuple(rng.randrange(t) for _ in range(r))
                expected = trace_lengths(tuple(range(r)), dv, t)
                want = r * t // math.gcd(sum(dv) % t or t, t)
                try:
                    cycles = graphs.assemble_from_distances(tuple(range(r)), dv, t)
                except graphs.DegenerateCycleError:
                    assert min(expected) < 3
                    continue
                assert {len(c) for c in cycles} == {want}
                assert sorted(len(c) for c in cycles) == sorted(expected)
                # 2-regularity across the whole span
                degree = Counter()
                for e in edge_multiset([graphs.PartialFactor.build(want, None, cycles)]).elements():
                    degree[e[0]] += 1
                    degree[e[1]] += 1
                assert set(degree.values()) == {2}


def test_canonical_cycle_fixed_under_rotation_and_reflection():
    base = ((0, 0), (1, 1), (2, 0), (3, 1))
    canon = graphs.canonical_cycle(base)
    for r in range(4):
        rotated = base[r:] + base[:r]
        assert graphs.canonical_cycle(rotated) == canon
        assert graphs.canonical_cycle(rotated[::-1]) == canon


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=24,
                unique=True))
def test_canonical_cycle_is_least_rotation_or_reflection(vs):
    """Reference: the minimum over all 2k rotations of both directions."""
    both = (tuple(vs), tuple(vs[::-1]))
    least = min(seq[r:] + seq[:r] for seq in both for r in range(len(vs)))
    assert graphs.canonical_cycle(vs) == least


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=24))
def test_canonical_cycle_with_repeated_vertices(vs):
    """Reference: rotate to the first least vertex, then take the lesser
    direction."""
    vs = tuple(vs)
    i = vs.index(min(vs))
    forward = vs[i:] + vs[:i]
    assert graphs.canonical_cycle(vs) == min(forward, forward[:1] + forward[:0:-1])


def test_canonical_cycle_rejects_empty_cycle():
    with pytest.raises(graphs.ParameterError):
        graphs.canonical_cycle([])


def test_blow_up_examples():
    # C_m (x) K̄_n: every part of the cycle blown up to n slots
    assert blocks.cycle_lex_host(4, 1).edge_count() == 4
    doubled = blocks.cycle_lex_host(4, 2)
    assert doubled.num_parts == 4 and doubled.part_size == 2
    assert doubled.edge_count() == 16
    kkk = blocks.cycle_lex_host(3, 5)
    # triangle blow-up is the complete tripartite graph
    assert Counter(kkk.edges) == Counter(graphs.multipartite_complete(3, 5, 1).edges)


def test_blow_up_one_slot_cycles_relabel_parts_only():
    inner = graphs.PartialFactor.build(
        3, None, graphs.assemble_from_distances((0, 1, 2), (1, 1, 1), 3))
    out = graphs.blow_up([[(7, 0), (4, 0), (9, 0)]], inner, 5, 3, hole=2)
    parts = (7, 4, 9)
    assert out == graphs.PartialFactor.build(
        3, 2, [tuple((parts[p], s) for p, s in cyc) for cyc in inner.cycles])


def test_blow_up_copies_shift_slots_by_block():
    inner = graphs.PartialFactor.build(
        3, None, graphs.assemble_from_distances((0, 1, 2), (1, 1, 1), 3))
    copies = [[(p, b) for p in range(3)] for b in range(2)]
    out = graphs.blow_up(copies, inner, 3, 3)
    assert out.hole is None and len(out.cycles) == 2 * len(inner.cycles)
    assert out == graphs.PartialFactor.build(
        3, None, [tuple((p, b * 3 + s) for p, s in cyc) for b in range(2) for cyc in inner.cycles])


def test_blow_up_edge_maps_sides_to_endpoints():
    # a 4-cycle of K_{2,2} as (side, slot) vertices, blown along the edge (3,1)-(5,0)
    square = graphs.PartialFactor.build(4, None, [((0, 0), (1, 0), (0, 1), (1, 1))])
    out = graphs.blow_up([((3, 1), (5, 0))], square, 2, 4)
    assert out.cycles == (graphs.canonical_cycle(((3, 2), (5, 0), (3, 3), (5, 1))),)


def test_inflate_slots_layers_on_case_b():
    # K_5 x K_9 with q = 3 blocks of s = 3: case a on K_5 x K_3 blown through
    # C_4 (x) K̄_3, and the hub block on K_5 x K_3 copied into every block
    u, q, s, k = 5, 3, 3, 12
    outer = arcs.build_case_l1(arcs.Params(1, 4, u, q))
    lex = blocks.ring_factorization(4, s, k, lex=True).decomposition.factors
    inner = arcs._hub_and_groups(
        4, s, u, k, compose.partial_ckt_factorization_kplus1_times_t(4, s).factors)
    blown, copies = graphs.inflate_slots(outer, lex, inner, u, q, s, k)
    assert len(blown) == len(outer) * len(lex) == u * (q - 1) // 2 * s
    assert [f.hole for f in blown] == [of.hole for of in outer for _ in lex]
    assert len(copies) == len(inner) == u * (s - 1) // 2
    for f, copy in zip(inner, copies):
        assert copy == graphs.PartialFactor.build(k, f.hole, [
            tuple((x, b * s + z) for x, z in cyc) for b in range(q) for cyc in f.cycles])
    assert check_partition(graphs.tensor_complete(u, q * s, 1), blown + copies)


def test_trace_two_regular_starts_each_cycle_at_its_least_vertex():
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    triangle = [(7, 9), (9, 8), (8, 7)]
    assert graphs.trace_two_regular(triangle + square) == [(0, 1, 2, 3), (7, 8, 9)]
    with pytest.raises(graphs.DegenerateCycleError):
        graphs.trace_two_regular([(0, 1), (1, 2)])


def test_partial_factor_edges_and_span():
    pf = graphs.PartialFactor.build(
        3, None, graphs.assemble_from_distances((0, 1, 2), (1, 1, 1), 3))
    assert {len(c) for c in pf.cycles} == {3} and len(pf.cycles) == 3  # jump sum 3 = 0 (mod 3)
    assert len(edge_multiset([pf])) == 9
    assert {v for c in pf.cycles for v in c} == {(p, s) for p in range(3) for s in range(3)}
    cycles = graphs.assemble_from_distances((0, 1, 2), (1, 1, 2), 3)
    assert {len(c) for c in cycles} == {9} and len(cycles) == 1  # jump sum 4, coprime to 3


def _hosts():
    for lam in (1, 2):
        yield from (graphs.tensor_complete(u, g, lam) for u in (2, 3, 4) for g in (2, 3))
        yield from (graphs.complete_graph(n, lam) for n in (2, 3, 5))
    yield from (graphs.multipartite_complete(u, g, 1) for u in (2, 3, 4) for g in (1, 2, 3))
    yield from (blocks.bipartite_host(n) for n in (1, 2, 3))
    yield from (blocks.cycle_lex_host(m, n) for m in (3, 4, 5) for n in (1, 2, 3))
    yield from (blocks.cycle_times_complete_host(kk, m) for kk in (3, 4, 5) for m in (2, 3))
    for k in (6, 8):
        _, one_factors = blocks.walecki_split(k)
        yield graphs.MultiGraph(k, 3, {e: 1 for lf in one_factors for e in lf}, True)


def test_host_rule_matches_its_listing():
    for host in _hosts():
        edges = host.edges
        assert host.edge_count() == sum(edges.values())
        # every vertex pair, same-part and same-slot pairs included
        for a, b in itertools.combinations(host.vertices(), 2):
            e = graphs.edge_key(a, b)
            assert host.multiplicity(e) == edges.get(e, 0), (host, e)
