from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest

from cycleframe import graphs, verify
from cycleframe.arcs import Params, build_arcs, expected_counts
from cycleframe.graphs import PartialFactor, Decomposition, tensor_complete
from cycleframe.verify import Result, brute_force_arcs, check_partition, verify_arcs
from multisets import edge_multiset


def test_partial_factor_rejects_nonadjacent_edge():
    host = tensor_complete(3, 2, 1)
    # ((2,0),(1,0)) has equal slots: not a tensor edge
    factor = PartialFactor.build(4, None, [((0, 0), (1, 1), (2, 0), (1, 0))])
    result = check_partition(host, [factor])
    assert not result
    assert result.reason in ("edge not in host", "repeated vertex in cycle",
                            "cycles share a vertex")


def test_partial_factor_rejects_empty_span():
    host = tensor_complete(3, 2, 1)
    factor = PartialFactor.build(4, 0, [])
    result = check_partition(host, [factor])
    assert not result and result.reason == "span mismatch"


def test_partial_factor_accepts_construction_output():
    from cycleframe import compose
    dec = compose.partial_ck_factorization_kplus1_times_t(4, 3)
    assert check_partition(tensor_complete(5, 3, 1), dec.factors)


def test_verify_arcs_on_built_instance():
    p = Params(2, 4, 5, 2)
    dec = build_arcs(p)
    assert verify_arcs(dec, p)
    assert expected_counts(p) == (5, 1, 8)


def test_verify_arcs_counts_paper_values():
    assert expected_counts(Params(1, 4, 5, 3)) == (5, 1, 12)
    assert expected_counts(Params(2, 6, 3, 6)) == (15, 5, 12)


def test_verify_arcs_catches_swapped_edge():
    p = Params(2, 4, 5, 2)
    dec = build_arcs(p)
    factors = list(dec.factors)
    # move one whole cycle from factor 0 to factor 1: factor 0 under-spans
    f0, f1 = factors[0], factors[1]
    factors[0] = PartialFactor.build(4, f0.hole, f0.cycles[1:])
    factors[1] = PartialFactor.build(4, f1.hole, list(f1.cycles) + [f0.cycles[0]])
    broken = Decomposition(tuple(factors), dec.provenance)
    assert not verify_arcs(broken, p)


def test_verify_arcs_empty_decomposition():
    p = Params(2, 4, 5, 2)
    result = verify_arcs(Decomposition((), ()), p)
    assert not result


def _mutate(dec, p, rng):
    """One random structural edit; returns a new Decomposition."""
    factors = [PartialFactor(f.cycle_length, f.hole, f.cycles) for f in dec.factors]
    fi = rng.randrange(len(factors))
    f = factors[fi]
    op = rng.choice(("drop_cycle", "relabel_hole", "swap_vertex", "duplicate_cycle"))
    cycles = list(f.cycles)
    if op == "drop_cycle":
        cycles.pop(rng.randrange(len(cycles)))
    elif op == "relabel_hole":
        hole = (f.hole + 1 + rng.randrange(p.u - 1)) % p.u
        factors[fi] = PartialFactor(f.cycle_length, hole, f.cycles)
        return Decomposition(tuple(factors), dec.provenance)
    elif op == "swap_vertex":
        ci = rng.randrange(len(cycles))
        cyc = list(cycles[ci])
        vi = rng.randrange(len(cyc))
        part, slot = cyc[vi]
        cyc[vi] = (part, (slot + 1 + rng.randrange(p.g - 1)) % p.g)
        cycles[ci] = tuple(cyc)
    else:
        cycles.append(cycles[rng.randrange(len(cycles))])
    factors[fi] = PartialFactor(f.cycle_length, f.hole, tuple(cycles))
    return Decomposition(tuple(factors), dec.provenance)


@pytest.mark.parametrize("tup", [(2, 4, 5, 2), (2, 4, 5, 3)])
def test_verifier_catches_random_mutations(tup):
    p = Params(*tup)
    dec = build_arcs(p)
    rng = random.Random(20260810)
    for _ in range(200):
        assert not verify_arcs(_mutate(dec, p, rng), p)


def test_verify_never_consults_provenance():
    p = Params(2, 4, 5, 2)
    dec = build_arcs(p)
    stripped = Decomposition(dec.factors, ())
    assert verify_arcs(stripped, p)
    retagged = Decomposition(dec.factors,
                             tuple("nonsense" for _ in dec.factors))
    assert verify_arcs(retagged, p)


def reference_verdict(dec, p) -> bool:
    """Slow reference verifier: builds the host and compares exact Counters."""
    host = tensor_complete(p.u, p.g, p.lam)
    total = Counter()
    for f in dec.factors:
        verts = [v for c in f.cycles for v in c]
        if (f.hole is None or any(len(c) != p.k for c in f.cycles)
                or len(verts) != len(set(verts))
                or set(verts) != {v for v in host.vertices() if v[0] != f.hole}):
            return False
        total.update(edge_multiset([f]))
    holes = Counter(f.hole for f in dec.factors)
    return (total == Counter(host.edges)
            and len(dec.factors) == p.lam * p.u * (p.g - 1) // 2
            and all(holes[x] == p.lam * (p.g - 1) // 2 for x in range(p.u)))


def _edit(dec, p, rng):
    """One seeded single edit: delete, duplicate or move a cycle, tweak one
    vertex's slot, or relabel one hole."""
    factors = list(dec.factors)
    fi = rng.randrange(len(factors))
    f = factors[fi]
    cycles = list(f.cycles)
    ci = rng.randrange(len(cycles))
    hole = f.hole
    op = rng.choice(("delete", "duplicate", "move", "tweak", "relabel-hole"))
    if op == "delete":
        del cycles[ci]
    elif op == "duplicate":
        cycles.append(cycles[ci])
    elif op == "move":
        fj = (fi + 1 + rng.randrange(len(factors) - 1)) % len(factors)
        h = factors[fj]
        factors[fj] = PartialFactor(h.cycle_length, h.hole, h.cycles + (cycles.pop(ci),))
    elif op == "tweak":
        cyc = list(cycles[ci])
        vi = rng.randrange(len(cyc))
        part, slot = cyc[vi]
        cyc[vi] = (part, (slot + 1 + rng.randrange(p.g - 1)) % p.g)
        cycles[ci] = tuple(cyc)
    else:
        hole = (f.hole + 1 + rng.randrange(p.u - 1)) % p.u
    factors[fi] = PartialFactor(f.cycle_length, hole, tuple(cycles))
    return Decomposition(tuple(factors), dec.provenance)


def reference_cover(factors, num_parts, part_size, k, multiplicity, total):
    """Tuple-keyed walk of every cycle, asking `multiplicity(edge)` per edge:
    the oracle for `verify._cover`, down to its failure reasons and paths."""
    used = {}
    for fi, factor in enumerate(factors):
        length = factor.cycle_length if k is None else k
        seen = {}
        for ci, cyc in enumerate(factor.cycles):
            if len(cyc) != length:
                return Result.failure("cycle length mismatch", factor=fi, factor_cycle=ci,
                                      expected=length, actual=len(cyc))
            for v in cyc:
                if v in seen:
                    reason = "repeated vertex in cycle" if seen[v] == ci else "cycles share a vertex"
                    return Result.failure(reason, factor=fi, factor_cycle=ci, vertex=v)
                if not (0 <= v[0] < num_parts and 0 <= v[1] < part_size) or v[0] == factor.hole:
                    return Result.failure("span mismatch", factor=fi, factor_cycle=ci, vertex=v)
                seen[v] = ci
            prev = cyc[-1]
            for v in cyc:
                e = (prev, v) if prev < v else (v, prev)
                n = used.get(e, 0) + 1
                if n > multiplicity(e):
                    reason = "edge over-covered" if n > 1 else "edge not in host"
                    return Result.failure(reason, factor=fi, factor_cycle=ci, edge=e, claimed=n)
                used[e] = n
                prev = v
        span = (num_parts - (factor.hole is not None)) * part_size
        if len(seen) != span:
            return Result.failure("span mismatch", factor=fi, expected=span, actual=len(seen))
    claimed = sum(used.values())
    if claimed != total:
        return Result.failure("edge under-covered", claimed=claimed, expected=total)
    return verify.OK


def reference_result(dec, p, monkeypatch):
    """verify_arcs with its cover walk replaced by `reference_cover` on the
    host's own multiplicity rule."""
    host = tensor_complete(p.u, p.g, p.lam)
    with monkeypatch.context() as m:
        m.setattr(verify, "_cover", lambda factors, u, g, k, *rule: reference_cover(
            factors, u, g, k, host.multiplicity, host.edge_count()))
        return verify_arcs(dec, p)


# (4, 4, 5, 2) stacks each lambda = 2 factor object twice and the zigzag of
# (2, 6, 3, 3) returns each factor twice, so their later occurrences are replayed
@pytest.mark.parametrize("tup", [(2, 4, 5, 2), (2, 4, 5, 3), (1, 4, 5, 3), (4, 4, 5, 2),
                                 (2, 6, 3, 3)])
def test_verify_arcs_agrees_with_reference_verifier(tup, monkeypatch):
    p = Params(*tup)
    dec = build_arcs(p)
    assert reference_verdict(dec, p) and verify_arcs(dec, p)
    rng = random.Random(4)
    for _ in range(300):
        edited = _edit(dec, p, rng)
        result = verify_arcs(edited, p)
        assert bool(result) == reference_verdict(edited, p)
        assert result == reference_result(edited, p, monkeypatch)


@pytest.mark.parametrize("tup", [(2, 4, 5, 2), (1, 4, 5, 3), (4, 4, 5, 2), (2, 6, 3, 3)])
def test_check_partition_agrees_with_reference_cover(tup):
    p = Params(*tup)
    dec = build_arcs(p)
    host = tensor_complete(p.u, p.g, p.lam)
    rng = random.Random(5)
    for _ in range(100):
        factors = _edit(dec, p, rng).factors
        assert check_partition(host, factors) == reference_cover(
            factors, p.u, p.g, None, host.multiplicity, host.edge_count())


def test_over_cover_on_a_replayed_factor_names_its_later_index(monkeypatch):
    # factor 0's object also stands last, in place of the other factor with its
    # hole (the last factor moves there): the last occurrence is replayed from
    # factor 0's walk, after every other copy of its edges, so it over-covers
    p = Params(2, 4, 5, 3)
    dec = build_arcs(p)
    f, last = dec.factors[0], len(dec.factors) - 1
    fi = next(i for i, h in enumerate(dec.factors) if i and h.hole == f.hole)
    twice = _with_factor(_with_factor(dec, fi, dec.factors[last]), last, f)
    result = verify_arcs(twice, p)
    assert result.reason == "edge over-covered" and result.path["factor"] == last
    assert result == reference_result(twice, p, monkeypatch)


def test_claim_one_cycle_short_is_counted_in_the_edge_table(monkeypatch):
    # 116 of the host's 120 edges: (u*g)**2 = 225 <= 8*116, so the walk counts
    # in the byte table, never a dict, and still names the short factor
    p = Params(2, 4, 5, 3)
    dec = build_arcs(p)
    fi = len(dec.factors) // 2
    f = dec.factors[fi]
    short = _with_factor(dec, fi, PartialFactor(f.cycle_length, f.hole, f.cycles[1:]))
    with monkeypatch.context() as m:
        m.setattr(verify, "defaultdict", lambda *args: pytest.fail("dict walk"))
        result = verify_arcs(short, p)
    assert result.reason == "span mismatch" and result.path["factor"] == fi
    assert result == reference_result(short, p, monkeypatch)


def test_claim_smaller_than_its_host_is_refused_without_the_edge_table():
    # the n*n edge table would take (u*g)**2 = 144 MB here; it waits until
    # (u*g)**2 is at most 8 times the claim's vertex total, which here is 0
    p = Params(1, 4, 4000, 3)
    dec = Decomposition(tuple(PartialFactor(4, hole, ()) for hole in range(p.u)))
    tracemalloc.start()
    try:
        result = verify_arcs(dec, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == Result.failure("span mismatch", factor=0, expected=(p.u - 1) * p.g,
                                    actual=0)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("off_host", ["slot g", "slot -1", "part u", "part -1"])
def test_off_host_vertex_is_a_span_mismatch_not_its_neighbour(off_host):
    # as an id p*g + s, each of these would be a host vertex: (p, g) is
    # (p+1, 0), (p, -1) is (p-1, g-1), (u, 0) and (-1, s) are one past the ends
    p = Params(2, 4, 5, 3)
    dec = build_arcs(p)
    f = dec.factors[1]
    cyc = list(f.cycles[0])
    part, slot = cyc[1]
    vertex = {"slot g": (part, p.g), "slot -1": (part, -1),
              "part u": (p.u, slot), "part -1": (-1, slot)}[off_host]
    cyc[1] = vertex
    edited = _with_factor(dec, 1, PartialFactor(4, f.hole, (tuple(cyc),) + f.cycles[1:]))
    result = verify_arcs(edited, p)
    assert result == Result.failure("span mismatch", factor=1, factor_cycle=0, vertex=vertex)


def _with_factor(dec, fi, factor):
    factors = list(dec.factors)
    factors[fi] = factor
    return Decomposition(tuple(factors), dec.provenance)


def test_verify_arcs_names_each_fault():
    p = Params(2, 4, 5, 2)
    dec = build_arcs(p)
    f = dec.factors[0]

    def reason(factor):
        return verify_arcs(_with_factor(dec, 0, factor), p).reason

    # g = 2: a 4-cycle alternates slots, so its opposite corners share a slot
    a, b, c, d = f.cycles[0]
    assert reason(PartialFactor(4, f.hole, ((a, c, b, d),) + f.cycles[1:])) == "edge not in host"
    p1, p2, p3, p4 = sorted({v[0] for c in f.cycles for v in c})
    same_part = (((p1, 0), (p1, 1), (p2, 0), (p2, 1)), ((p3, 0), (p3, 1), (p4, 0), (p4, 1)))
    assert reason(PartialFactor(4, f.hole, same_part)) == "edge not in host"
    assert reason(PartialFactor(4, f.hole, f.cycles[1:])) == "span mismatch"
    beyond = ((a[0], a[1] + p.g), b, c, d)  # same edge count, one vertex off the host
    assert reason(PartialFactor(4, f.hole, (beyond,) + f.cycles[1:])) == "span mismatch"
    assert reason(PartialFactor(4, (f.hole + 1) % p.u, f.cycles)) == "per-hole count mismatch"
    # swapped holes keep hole counts, span sizes and edges; only the spans move
    g = dec.factors[1]
    swapped = _with_factor(_with_factor(dec, 0, PartialFactor(4, g.hole, f.cycles)),
                           1, PartialFactor(4, f.hole, g.cycles))
    assert g.hole != f.hole and not reference_verdict(swapped, p)
    assert verify_arcs(swapped, p).reason == "span mismatch"
    assert verify_arcs(dec, Params(2, 8, 5, 2)).reason == "cycle length mismatch"
    p = Params(2, 4, 5, 3)
    dec = build_arcs(p)
    fi, fj = (i for i, f in enumerate(dec.factors) if f.hole == dec.factors[0].hole)
    twice = _with_factor(dec, fj, dec.factors[fi])
    assert verify_arcs(twice, p).reason == "edge over-covered"


def test_check_partition_names_each_fault():
    from cycleframe import compose
    dec = compose.partial_ck_factorization_kplus1_times_t(4, 3)
    assert check_partition(tensor_complete(5, 3, 1), dec.factors[:-1]).reason == "edge under-covered"
    # each of these covers the edges of K_3(2) exactly, but not with cycles
    host = graphs.complete_graph(3, 2)
    x, y, z = host.vertices()
    walk = PartialFactor(6, None, ((x, y, z, x, y, z),))
    assert check_partition(host, [walk]).reason == "repeated vertex in cycle"
    twice = PartialFactor(3, None, ((x, y, z), (x, y, z)))
    assert check_partition(host, [twice]).reason == "cycles share a vertex"


def test_brute_force_finds_and_verifies():
    out = brute_force_arcs(Params(2, 4, 5, 2))
    assert out.status == "found"
    assert verify_arcs(out.decomposition, Params(2, 4, 5, 2))


def test_brute_force_short_circuits_infeasible():
    assert brute_force_arcs(Params(1, 4, 5, 4)).status == "infeasible"
    assert brute_force_arcs(Params(1, 4, 3, 2)).status == "infeasible"


def test_brute_force_budget_exhaustion():
    out = brute_force_arcs(Params(2, 4, 5, 2), budget=1)
    assert out.status == "exhausted"
