from __future__ import annotations

from collections import Counter

import pytest

from cycleframe import blocks, compose, graphs
from cycleframe.arcs import _abstract_cycle_route
from cycleframe.verify import check_partition
from multisets import edge_multiset


@pytest.mark.parametrize("k,t", [(4, 3), (4, 5), (8, 3), (12, 3)])
def test_partial_ck_kplus1_times_t(k, t):
    dec = compose.partial_ck_factorization_kplus1_times_t(k, t)
    assert len(dec.factors) == (k + 1) * (t - 1) // 2
    # every part is a hole of exactly (t-1)/2 factors
    holes = Counter(f.hole for f in dec.factors)
    assert all(holes[p] == (t - 1) // 2 for p in range(k + 1))
    for f in dec.factors:
        assert f.cycle_length == k
        assert len(f.cycles) == t
    # edges per factor is g(u-1) with u = k+1, g = t
    assert all(sum(len(c) for c in f.cycles) == t * k for f in dec.factors)


def test_partial_ck_kplus1_times_t_counts_small():
    dec = compose.partial_ck_factorization_kplus1_times_t(4, 3)
    assert len(dec.factors) == 5
    host = graphs.tensor_complete(5, 3, 1)
    assert host.edge_count() == 60
    assert check_partition(host, dec.factors)
    assert all(sum(len(c) for c in f.cycles) == 12 for f in dec.factors)


def test_partial_ck_kplus1_rejects_bad_parameters():
    with pytest.raises(graphs.ParameterError):
        compose.partial_ck_factorization_kplus1_times_t(6, 3)  # k = 2 (mod 4)
    with pytest.raises(graphs.ParameterError):
        compose.partial_ck_factorization_kplus1_times_t(4, 4)  # even t


@pytest.mark.parametrize("k,t", [(4, 3), (6, 3), (4, 5)])
def test_cycle_times_t_is_hamilton_decomposition(k, t):
    res = blocks.ring_factorization(k, t, k * t)
    assert res.strategy == blocks.EXPLICIT
    dec = res.decomposition
    assert len(dec.factors) == t - 1
    for f in dec.factors:
        assert f.cycle_length == k * t
        assert len(f.cycles) == 1
        assert len(f.cycles[0]) == k * t
    assert check_partition(blocks.cycle_times_complete_host(k, t), dec.factors)


@pytest.mark.parametrize("k,t", [(4, 3), (6, 3), (4, 5), (8, 3)])
def test_partial_ckt_kplus1_times_t(k, t):
    dec = compose.partial_ckt_factorization_kplus1_times_t(k, t)
    assert len(dec.factors) == (k + 1) * (t - 1) // 2
    holes = Counter(f.hole for f in dec.factors)
    assert all(holes[p] == (t - 1) // 2 for p in range(k + 1))
    for f in dec.factors:
        assert f.cycle_length == k * t and len(f.cycles) == 1


def test_triangle_factorization():
    res = blocks.ring_factorization(3, 5, 3)
    assert res.strategy == blocks.EXPLICIT
    factors = res.decomposition.factors
    assert len(factors) == 4
    for f in factors:
        assert f.cycle_length == 3 and len(f.cycles) == 5
    assert edge_multiset(factors) == Counter(graphs.tensor_complete(3, 5, 1).edges)


@pytest.mark.parametrize("k,y,count", [(6, 1, 5), (8, 1, 7), (8, 2, 15), (6, 3, 17)])
def test_k3_times_kky(k, y, count):
    dec = compose.ck_factorization_k3_times_kky(k, y)
    assert len(dec.factors) == count
    for f in dec.factors:
        assert f.cycle_length == k
        assert f.hole is None
        assert len(f.cycles) == 3 * y  # 3ky vertices in k-cycles


@pytest.mark.parametrize("k", [40, 56])
def test_k3_times_kk_from_the_walecki_remainder(k):
    dec = compose.ck_factorization_k3_times_kky(k, 1)
    assert len(dec.factors) == k - 1
    assert check_partition(graphs.tensor_complete(3, k, 1), dec.factors)


def test_k3_times_kky_exceptional_family():
    with pytest.raises(graphs.ExceptionalCase):
        compose.ck_factorization_k3_times_kky(6, 2)


@pytest.mark.parametrize("k,t,s,count", [(4, 3, 6, 5), (6, 3, 6, 5), (4, 4, 8, 7), (4, 3, 12, 11)])
def test_cycle_times_s(k, t, s, count):
    # C_{kt}-factorization of C_k x K_s as the split cases build it: jump
    # rows for odd t, the blocked splitting for even t
    factors = _abstract_cycle_route(k, s, t)
    assert len(factors) == count
    for f in factors:
        assert f.cycle_length == k * t
    assert check_partition(blocks.cycle_times_complete_host(k, s), factors)


def test_cycle_times_s_rejects_bad_modulus():
    with pytest.raises(graphs.ParameterError):
        blocks.ring_factorization(4, 9, 8)  # 8/4 = 2 does not divide 9
    with pytest.raises(graphs.ParameterError):
        compose.cycle_times_blocked(4, 3, 3)  # odd block size


def test_relabel_and_transpose_roundtrip():
    res = blocks.ring_factorization(4, 3, 12)
    assert res.strategy == blocks.EXPLICIT
    f = res.decomposition.factors[0]
    assert len(f.cycles) == 1
    mapped = graphs.blow_up([[(i + 10, 1) for i in range(4)]], f, 5, f.cycle_length)
    assert {v[0] for c in mapped.cycles for v in c} == {10, 11, 12, 13}
    assert {v[1] for c in mapped.cycles for v in c} == {5, 6, 7}
    flipped = compose.transpose_factor(f)
    assert compose.transpose_factor(flipped) == f
