from __future__ import annotations

import itertools
from collections import Counter

import pytest

from cycleframe import blocks, graphs, search
from cycleframe.verify import check_partition
from multisets import edge_multiset


def all_pairs(n):
    return Counter({(i, j): 1 for i, j in itertools.combinations(range(n), 2)})


def cubic_times_k3_host(k, cubic):
    """G x K_3 for a cubic G on 0..k-1, from the adjacency rule."""
    edges = {graphs.edge_key((a, s1), (b, s2)): 1
             for a, b in cubic for s1 in range(3) for s2 in range(3) if s1 != s2}
    return graphs.MultiGraph(k, 3, edges)


# ---------------------------------------------------------------------------
# 1-factorizations


def test_near_one_factorization_rotational_values():
    fs = blocks.near_one_factorization(3)
    assert [f.missing for f in fs] == [0, 1, 2]
    assert fs[0].edges == ((1, 2),)
    fs = blocks.near_one_factorization(5)
    assert fs[0].edges == ((1, 4), (2, 3))


@pytest.mark.parametrize("u", [3, 5, 7, 9, 11, 13, 15])
def test_near_one_factorization_exactness(u):
    fs = blocks.near_one_factorization(u)
    assert sorted(f.missing for f in fs) == list(range(u))
    union = Counter()
    for f in fs:
        assert {v for e in f.edges for v in e} == set(range(u)) - {f.missing}
        union.update(f.edges)
    assert union == all_pairs(u)


def test_near_one_factorization_rejects_even():
    with pytest.raises(graphs.ParameterError):
        blocks.near_one_factorization(4)


@pytest.mark.parametrize("u,g", [(3, 2), (4, 2), (3, 3), (4, 4), (5, 2), (6, 4)])
def test_partial_one_factorization(u, g):
    fs = blocks.partial_one_factorization_multipartite(u, g)
    assert len(fs) == u * g
    per_hole = Counter(f.missing for f in fs)
    assert all(per_hole[p] == g for p in range(u))
    union = Counter()
    for f in fs:
        union.update(f.edges)
    assert union == Counter(graphs.multipartite_complete(u, g, 1).edges)


def test_partial_one_factorization_parity_rejection():
    with pytest.raises(graphs.ParameterError):
        blocks.partial_one_factorization_multipartite(4, 3)


# ---------------------------------------------------------------------------
# Walecki machinery


@pytest.mark.parametrize("k", [6, 8, 10, 12, 14, 16])
def test_walecki_split_partitions_complete_graph(k):
    hams, cubic = blocks.walecki_split(k)
    assert len(hams) == k // 2 - 2
    union = Counter(cubic)
    for cyc in hams:
        assert sorted(cyc) == list(range(k))
        union.update(tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k))
    assert union == all_pairs(k)
    degrees = Counter()
    for a, b in cubic:
        degrees[a] += 1
        degrees[b] += 1
    assert set(degrees.values()) == {3}


def test_walecki_split_rejects_small_or_odd():
    for k in (4, 5):
        with pytest.raises(graphs.ParameterError):
            blocks.walecki_split(k)


@pytest.mark.parametrize("t", [3, 5, 7, 9, 11])
def test_hamilton_decomposition_complete_odd(t):
    cycles = blocks.hamilton_decomposition_complete_odd(t)
    assert len(cycles) == (t - 1) // 2
    union = Counter()
    for cyc in cycles:
        assert sorted(cyc) == list(range(t))
        union.update(tuple(sorted((cyc[i], cyc[(i + 1) % t]))) for i in range(t))
    assert union == all_pairs(t)


# ---------------------------------------------------------------------------
# Near cycle factorizations of doubled complete graphs


def test_kplus1_zigzag_matches_written_form():
    entries = blocks.kplus1_near_factor_cycles(4)
    assert entries[0] == (2, (0, 1, 3, 4))
    assert entries[-1] == (4, (0, 1, 2, 3))
    entries = blocks.kplus1_near_factor_cycles(6)
    assert entries[0] == (3, (0, 1, 5, 2, 4, 6))


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_near_ck_kplus1_double_cover(k):
    result = blocks.near_cycle_factorization_doubled(k, k + 1)
    dec = result.decomposition
    assert result.strategy == blocks.EXPLICIT
    assert len(dec.factors) == k + 1
    for f in dec.factors:
        assert len(f.cycles) == 1 and f.cycle_length == k
    union = edge_multiset(dec.factors)
    expected = Counter({(((i, 0)), ((j, 0))): 2
                        for i, j in itertools.combinations(range(k + 1), 2)})
    assert union == expected
    # each vertex is the missing one exactly once
    assert sorted(f.hole for f in dec.factors) == list(range(k + 1))


@pytest.mark.parametrize("half_k,u", [(2, 5), (2, 9), (3, 7), (2, 13), (3, 13)])
def test_near_c2k_factorization_u2(half_k, u):
    result = blocks.near_cycle_factorization_doubled(2 * half_k, u)
    dec = result.decomposition
    assert len(dec.factors) == u
    for f in dec.factors:
        assert f.cycle_length == 2 * half_k
        assert len(f.cycles) == (u - 1) // (2 * half_k)
    assert check_partition(graphs.complete_graph(u, 2), dec.factors)


def test_near_c2k_factorization_rejects_wrong_congruence():
    with pytest.raises(graphs.ParameterError):
        blocks.near_cycle_factorization_doubled(4, 7)


def test_near_cm_triangles_of_k4():
    result = blocks.near_cycle_factorization_doubled(3, 4)
    dec = result.decomposition
    assert len(dec.factors) == 4
    for f in dec.factors:
        verts = {v for c in f.cycles for v in c}
        assert verts == {(v, 0) for v in range(4)} - {(f.hole, 0)}


def test_near_cm_search_case():
    result = blocks.near_cycle_factorization_doubled(5, 6)
    assert len(result.decomposition.factors) == 6
    assert result.strategy in (blocks.SEARCH, blocks.CACHED)


# ---------------------------------------------------------------------------
# Cycle factorizations of complete graphs


@pytest.mark.parametrize("m,u,expect_cycles", [(2, 4, 1), (3, 6, 1), (2, 8, 2), (3, 12, 2)])
def test_ck_factorization_complete_doubled(m, u, expect_cycles):
    dec = blocks.ck_factorization_complete_doubled(m, u).decomposition
    assert len(dec.factors) == u - 1
    for f in dec.factors:
        assert f.cycle_length == 2 * m
        assert len(f.cycles) == expect_cycles
    union = edge_multiset(dec.factors)
    assert union == Counter({(((i, 0)), ((j, 0))): 2
                             for i, j in itertools.combinations(range(u), 2)})


def test_ck_factorization_complete_doubled_k4_is_three_hamiltons():
    dec = blocks.ck_factorization_complete_doubled(2, 4).decomposition
    assert len(dec.factors) == 3
    assert len({f.cycles for f in dec.factors}) == 3  # the three distinct 4-cycles


@pytest.mark.parametrize("s,g", [(3, 3), (5, 5), (3, 9)])
def test_cs_factorization_complete_odd(s, g):
    dec = blocks.cs_factorization_complete_odd(s, g).decomposition
    assert len(dec.factors) == (g - 1) // 2
    for f in dec.factors:
        assert f.cycle_length == s and len(f.cycles) == g // s
    assert check_partition(graphs.complete_graph(g, 1), dec.factors)


# ---------------------------------------------------------------------------
# Bipartite, product and tripartite hosts


def test_bipartite_examples():
    assert len(blocks.ck_factorization_bipartite(2, 2, 4).decomposition.factors) == 1
    dec = blocks.ck_factorization_bipartite(4, 4, 4).decomposition
    assert len(dec.factors) == 2
    with pytest.raises(graphs.ExceptionalCase):
        blocks.ck_factorization_bipartite(6, 6, 6)
    with pytest.raises(graphs.ParameterError):
        blocks.ck_factorization_bipartite(4, 4, 6)  # 6 does not divide 8


@pytest.mark.parametrize("n,kk", [(4, 4), (8, 8), (4, 8), (8, 4), (6, 4), (12, 8)])
def test_bipartite_partition(n, kk):
    dec = blocks.ck_factorization_bipartite(n, n, kk).decomposition
    assert len(dec.factors) == n // 2
    for f in dec.factors:
        assert f.cycle_length == kk and len(f.cycles) == 2 * n // kk
    assert check_partition(blocks.bipartite_host(n), dec.factors)


def test_cycle_times_complete_jump_rows():
    rows = search.distance_array(4, 3, target_gcd=3)
    assert rows == [(1, 2, 1, 2), (2, 1, 2, 1)]


def test_cycle_times_complete_examples():
    dec = blocks.ck_factorization_cycle_times_complete(4, 3).decomposition
    assert len(dec.factors) == 2
    dec = blocks.ck_factorization_cycle_times_complete(3, 3).decomposition
    assert len(dec.factors) == 2
    dec = blocks.ck_factorization_cycle_times_complete(4, 2).decomposition
    assert len(dec.factors) == 1
    assert len(dec.factors[0].cycles) == 2  # C_4 x K_2 = 2 C_4
    with pytest.raises(graphs.ParameterError):
        blocks.ck_factorization_cycle_times_complete(3, 2)  # odd cycle boundary


def test_cycle_times_complete_host_is_the_ring_tensor_product():
    for kk in range(3, 7):
        for m in range(2, 6):
            ring = {frozenset((p, (p + 1) % kk)) for p in range(kk)}
            want = {graphs.edge_key((p, s1), (q, s2)): 1
                    for p, q in map(sorted, ring) for s1 in range(m) for s2 in range(m)
                    if s1 != s2}
            host = blocks.cycle_times_complete_host(kk, m)
            assert host.edges == want and host.kind == "custom"


@pytest.mark.parametrize("m,n", [(3, 2), (5, 2), (4, 4), (3, 4)])
def test_hamilton_cycle_times_complete(m, n):
    dec = blocks.hamilton_decomp_cycle_times_complete(m, n).decomposition
    assert len(dec.factors) == n - 1
    for f in dec.factors:
        assert f.cycle_length == m * n and len(f.cycles) == 1
    assert check_partition(blocks.cycle_times_complete_host(m, n), dec.factors)


@pytest.mark.parametrize("m,n", [(3, 1), (4, 2), (3, 3), (3, 2), (4, 8)])
def test_hamilton_cycle_lex_empty(m, n):
    dec = blocks.lex_cycle_factorization(m, n).decomposition
    assert len(dec.factors) == n
    for f in dec.factors:
        assert f.cycle_length == m * n and len(f.cycles) == 1
    assert check_partition(blocks.cycle_lex_host(m, n), dec.factors)


@pytest.mark.parametrize("t", [3, 4, 6, 8, 12])
def test_tripartite_factorization(t):
    dec = blocks.ct_factorization_tripartite(t).decomposition
    assert len(dec.factors) == t
    host = graphs.multipartite_complete(3, t, 1)
    assert host.edge_count() == 3 * t * t
    for f in dec.factors:
        assert f.cycle_length == t and len(f.cycles) == 3
    assert check_partition(host, dec.factors)


def test_tripartite_rejects_degenerate():
    with pytest.raises(graphs.DegenerateCycleError):
        blocks.ct_factorization_tripartite(2)


@pytest.mark.parametrize("k", [6, 8])
def test_cubic_times_k3(k):
    _, cubic = blocks.walecki_split(k)
    dec = blocks.cubic_times_k3_factorization(k, cubic).decomposition
    assert len(dec.factors) == 3
    for f in dec.factors:
        assert f.cycle_length == k and len(f.cycles) == 3
    assert check_partition(cubic_times_k3_host(k, cubic), dec.factors)


def test_cubic_times_k3_exceptional_pair():
    with pytest.raises(graphs.ExceptionalCase):
        blocks.cubic_times_k3_factorization(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])


# ---------------------------------------------------------------------------
# Search determinism and cache behaviour


def test_search_results_are_deterministic_and_cached(tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(tmp_path / "fresh"))
    first = blocks.near_cycle_factorization_doubled(4, 9)
    second = blocks.near_cycle_factorization_doubled(4, 9)
    assert first.decomposition.factors == second.decomposition.factors
    assert first.strategy == blocks.SEARCH
    assert second.strategy == blocks.CACHED


def test_failed_hamilton_search_is_not_repeated(tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(tmp_path))
    searches = []

    def no_rows(*args, **kwargs):
        raise graphs.UnsupportedBlockError("stubbed: no distance array")

    def no_cover(pool, specs, budget=search.DEFAULT_BUDGET):
        searches.append(specs)
        raise graphs.UnsupportedBlockError("stubbed: search gave up")

    monkeypatch.setattr(search, "distance_array", no_rows)
    monkeypatch.setattr(search, "decompose_into_factors", no_cover)
    with pytest.raises(graphs.UnsupportedBlockError):
        blocks.hamilton_decomp_cycle_times_complete(5, 4)
    assert len(searches) == 1


def test_failed_cache_write_still_returns_the_block(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(cache))

    def disk_full(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(blocks.os, "replace", disk_full)
    result = blocks.near_cycle_factorization_doubled(4, 9)
    assert result.strategy == blocks.SEARCH
    assert check_partition(graphs.complete_graph(9, 2), result.decomposition.factors)
    assert list(cache.glob("*.tmp")) == []


def test_wrong_distance_rows_fail_the_partition_check(monkeypatch):
    real = search.distance_array

    def wrong_gcd(kk, m, target_gcd=1, **kwargs):
        return real(kk, m, target_gcd=1, **kwargs)  # Hamilton rows, not 4-cycles

    monkeypatch.setattr(search, "distance_array", wrong_gcd)
    with pytest.raises(graphs.ConstructionBugError, match="cycle length mismatch"):
        blocks.ck_factorization_cycle_times_complete(4, 5)


def test_distance_array_columns_are_permutations():
    rows = search.distance_array(4, 5, target_gcd=5)
    assert len(rows) == 4
    for col in range(4):
        assert sorted(r[col] for r in rows) == [1, 2, 3, 4]
    rows = search.distance_array(3, 4, target_gcd=2)
    for col in range(3):
        assert sorted(r[col] for r in rows) == [1, 2, 3]
    for r in rows:
        assert sum(r) % 4 in (2,)  # gcd(s, 4) = 2 forces s = 2 (mod 4)


def test_distance_array_residue_obstruction_fails_fast():
    with pytest.raises(graphs.UnsupportedBlockError):
        search.distance_array(3, 8, target_gcd=2)


def test_rotational_base_parity_obstruction():
    with pytest.raises(graphs.UnsupportedBlockError):
        search.rotational_base(10, 3, use_inf=False)


def test_unreadable_cache_entry_is_a_miss(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("CYCLEFRAME_CACHE", str(cache))
    blocks._cache_path("near_cycle_ku2", (3, 4)).mkdir(parents=True)
    result = blocks.near_cycle_factorization_doubled(3, 4)
    assert result.strategy == blocks.SEARCH
    assert check_partition(graphs.complete_graph(4, 2), result.decomposition.factors)
    assert list(cache.glob("*.tmp")) == []
