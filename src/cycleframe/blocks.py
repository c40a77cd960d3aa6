"""Elementary factorization providers.

Each provider returns its factorization as a verified decomposition of an
explicit host graph.  Where a closed form is classical (rotational near
1-factorizations, Walecki cycles, distance threading) it is built directly;
where only existence is cited, a deterministic bounded backtracking search
fills the gap and the result is cached on disk keyed by the request.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import search, serialize
from .graphs import (ConstructionBugError, Decomposition, DegenerateCycleError,
                     Edge, ExceptionalCase, MultiGraph, ParameterError,
                     PartialFactor, assemble_from_distances, blow_up,
                     complete_graph, edge_key, multipartite_complete,
                     trace_two_regular)
from .verify import check_partition

CACHE_ENV = "CYCLEFRAME_CACHE"
DEFAULT_CACHE_DIR = ".cycleframe-cache"

EXPLICIT = "explicit"
SEARCH = "search"
CACHED = "cached"


@dataclass(frozen=True)
class BlockResult:
    decomposition: Decomposition
    strategy: str


@dataclass(frozen=True)
class MatchingFactor:
    """A (near / partial) 1-factor: `missing` is the uncovered vertex or part."""

    missing: int | None
    edges: tuple[tuple, ...]


def _cache_path(family: str, params: tuple) -> Path:
    blob = json.dumps({"family": family, "params": list(params)}, sort_keys=True)
    digest = hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)) / f"{family}-{digest}.json"


def _cached(family: str, params: tuple, load, fresh, dump):
    """The value `load` reads from the cache entry, else `fresh()`, stored.

    `load` parses and verifies a payload, raising on any fault; an entry
    that fails is deleted and rebuilt, and one that cannot be read is a
    miss.  `dump` turns a fresh value into its payload.  The cache only
    saves time: a failed write leaves no temporary file behind and does not
    fail the build.
    """
    path = _cache_path(family, params)
    try:
        return load(json.loads(path.read_text(encoding="ascii")))
    except OSError:
        pass  # missing or unreadable: a miss
    except (ValueError, KeyError, TypeError, IndexError, ConstructionBugError):
        path.unlink(missing_ok=True)
    value = fresh()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return value
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(serialize.canonical_json_bytes(dump(value)))
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)
    return value


def _finish(host: MultiGraph, factors, strategy: str, tag: str) -> BlockResult:
    dec = Decomposition(tuple(factors), tuple(tag for _ in factors))
    result = check_partition(host, dec.factors)
    if not result:
        raise ConstructionBugError(f"block {tag} failed verification: {result.reason} {result.path}")
    return BlockResult(dec, strategy)


def _searched(family: str, params: tuple, host: MultiGraph, cycle_length: int,
              holes, tag: str, first=None) -> BlockResult:
    """One factor per entry of `holes`, found behind the cache.

    `first()`, when given, is a constructive attempt returning the cycles of
    each factor or raising UnsupportedBlockError; otherwise (or then) the
    edge search fills each factor over every vertex outside its hole part
    (None: the whole host).
    """

    def fresh() -> BlockResult:
        raw = None
        if first is not None:
            try:
                raw = first()
            except search.UnsupportedBlockError:
                pass
        if raw is None:
            specs = [(frozenset(v for v in host.vertices() if v[0] != hole), cycle_length)
                     for hole in holes]
            raw = search.decompose_into_factors(Counter(host.edges), specs)
        factors = [PartialFactor.build(cycle_length, hole, cycles)
                   for hole, cycles in zip(holes, raw)]
        return _finish(host, factors, SEARCH, tag)

    def load(payload) -> BlockResult:
        factors = serialize.factors_from_payload(payload)
        if [(f.cycle_length, f.hole) for f in factors] != [(cycle_length, h) for h in holes]:
            raise ValueError(f"cache entry for {family} {params} has the wrong shape")
        return _finish(host, factors, CACHED, tag)

    def dump(result: BlockResult):
        factors = result.decomposition.factors
        return serialize.factors_payload(host, factors, [family] * len(factors))

    return _cached(family, params, load, fresh, dump)


def _as_factor(cycle_length: int, hole: int | None, int_cycles) -> PartialFactor:
    """Lift cycles of integer vertices into the (part, slot=0) vertex space."""
    return PartialFactor.build(cycle_length, hole,
                               [tuple((v, 0) for v in cyc) for cyc in int_cycles])


# ---------------------------------------------------------------------------
# 1-factorizations


def near_one_factorization(u: int) -> list[MatchingFactor]:
    """Rotational near 1-factorization of K_u for odd u.

    Factor m misses vertex m and pairs m+j with m-j (mod u).
    """
    if u < 3 or u % 2 == 0:
        raise ParameterError(f"near 1-factorization needs odd u >= 3, got {u}")
    factors = []
    for m in range(u):
        edges = tuple(sorted(tuple(sorted(((m + j) % u, (m - j) % u)))
                             for j in range(1, (u - 1) // 2 + 1)))
        factors.append(MatchingFactor(m, edges))
    _check_matchings(factors, Counter({(i, j): 1 for i, j in
                                       itertools.combinations(range(u), 2)}),
                     lambda m: set(range(u)) - {m})
    return factors


def partial_one_factorization_multipartite(u: int, g: int) -> list[MatchingFactor]:
    """Hole-aligned partial 1-factorization of K_u (x) K̄_g.

    Returns u*g matchings, g of them missing each part.  Odd u: blow the
    rotational near 1-factorization through the g distance matchings.  Even u
    (forcing even g): bounded search behind the cache.
    """
    if u < 3:
        raise ParameterError("partial 1-factorization needs u >= 3")
    if (g * (u - 1)) % 2 != 0:
        raise ParameterError(f"partial 1-factorization needs g(u-1) even, got u={u}, g={g}")
    host = multipartite_complete(u, g, 1)

    def checked(factors):
        return _check_matchings(factors, Counter(host.edges),
                                lambda hole: {v for v in host.vertices() if v[0] != hole})

    if u % 2 == 1:
        factors = []
        for near in near_one_factorization(u):
            for d in range(g):
                edges = tuple(sorted(edge_key((a, s), (b, (s + d) % g))
                                     for (a, b) in near.edges for s in range(g)))
                factors.append(MatchingFactor(near.missing, edges))
        return checked(factors)
    if g > 2:
        # Even u forces even g; blow the g = 2 base through the g/2 distance
        # matchings of each K_{g/2,g/2} block.
        half = g // 2
        factors = []
        for base in partial_one_factorization_multipartite(u, 2):
            for d in range(half):
                edges = tuple(sorted(
                    edge_key((a, ha * half + z), (b, hb * half + (z + d) % half))
                    for ((a, ha), (b, hb)) in base.edges for z in range(half)))
                factors.append(MatchingFactor(base.missing, edges))
        factors.sort(key=lambda f: f.missing)
        return checked(factors)

    # Matchings do not fit PartialFactor; cache them in a bespoke shape.
    def searched():
        spans = [frozenset(v for v in host.vertices() if v[0] != hole)
                 for hole in range(u) for _ in range(g)]
        raw = search.decompose_into_matchings(Counter(host.edges), spans)
        return checked([MatchingFactor(i // g, tuple(sorted(edges)))
                        for i, edges in enumerate(raw)])

    def load(payload):
        return checked([MatchingFactor(m["missing"],
                                       tuple(tuple(tuple(v) for v in e) for e in m["edges"]))
                        for m in payload["matchings"]])

    def dump(factors):
        return {"matchings": [{"missing": f.missing,
                               "edges": [[list(v) for v in e] for e in f.edges]}
                              for f in factors]}

    return _cached("partial_one_factor", (u, g), load, searched, dump)


def _check_matchings(factors, host_edges: Counter, span_of):
    total: Counter = Counter()
    for f in factors:
        covered = [v for e in f.edges for v in e]
        if len(covered) != len(set(covered)):
            raise ConstructionBugError("matching factor repeats a vertex")
        if set(covered) != span_of(f.missing):
            raise ConstructionBugError("matching factor span mismatch")
        for e in f.edges:
            total[tuple(e)] += 1
    if total != host_edges:
        raise ConstructionBugError("matching factors do not partition the host")
    return factors


# ---------------------------------------------------------------------------
# Walecki machinery


def _walecki_zigzag(modulus: int) -> list[int]:
    """Zigzag path 0, 1, -1, 2, -2, ... using every vertex of Z_modulus."""
    path = [0]
    j = 1
    while len(path) < modulus:
        path.append(j % modulus)
        if len(path) < modulus:
            path.append((-j) % modulus)
        j += 1
    return path


def walecki_hamilton_cycles(k: int, rotations: int) -> list[tuple[int, ...]]:
    """First `rotations` Walecki Hamilton cycles of K_k (inf = k-1); for odd
    k, (k-1)/2 rotations decompose K_k."""
    modulus = k - 1
    base = _walecki_zigzag(modulus)
    return [tuple([k - 1] + [(v + j) % modulus for v in base]) for j in range(rotations)]


def walecki_split(k: int):
    """K_k = (k/2 - 2) Hamilton cycles + a cubic remainder (k even >= 6).

    The remainder is the last Walecki cycle plus the leftover perfect
    matching; the pieces are returned as (cycles, remainder edge list).
    """
    if k < 6 or k % 2 != 0:
        raise ParameterError(f"walecki split needs even k >= 6, got {k}")
    cycles = walecki_hamilton_cycles(k, k // 2 - 1)
    used: Counter = Counter()
    for cyc in cycles:
        for i in range(k):
            used[tuple(sorted((cyc[i], cyc[(i + 1) % k])))] += 1
    matching = [e for e in itertools.combinations(range(k), 2) if used[e] == 0]
    if any(m > 1 for m in used.values()) or len(matching) != k // 2:
        raise ConstructionBugError("walecki split did not tile K_k")
    free = cycles[:-1]
    cubic = sorted(matching + [tuple(sorted((cycles[-1][i], cycles[-1][(i + 1) % k])))
                               for i in range(k)])
    return free, cubic


def hamilton_decomposition_complete_odd(t: int) -> list[tuple[int, ...]]:
    """Hamilton decomposition of K_t for odd t (inf = t-1), (t-1)/2 cycles."""
    if t < 3 or t % 2 == 0:
        raise ParameterError(f"odd complete Hamilton decomposition needs odd t >= 3, got {t}")
    return walecki_hamilton_cycles(t, (t - 1) // 2)


# ---------------------------------------------------------------------------
# Near cycle factorizations of doubled complete graphs


def kplus1_near_factor_cycles(k: int):
    """The explicit near C_k-factors of K_{k+1}(2), vertices 0..k-1 plus k.

    Entry order and cycle orientation follow the i, i+1, i-1, i+2, ...
    zigzag; entry i misses i + k/2, the final entry is the rim cycle missing
    the hub vertex k.  Downstream distance threading relies on exactly these
    orientations.
    """
    if k < 4 or k % 2 != 0:
        raise ParameterError(f"near C_k-factors of K_(k+1)(2) need even k >= 4, got {k}")
    entries = []
    for i in range(k):
        cyc = [i]
        for j in range(1, k // 2):
            cyc.append((i + j) % k)
            cyc.append((i - j) % k)
        cyc.append(k)
        entries.append((((i + k // 2) % k), tuple(cyc)))
    entries.append((k, tuple(range(k))))
    return entries


def near_cycle_factorization_doubled(cycle_len: int, u: int) -> BlockResult:
    """Near C_L-factorization of K_u(2): u factors, factor i missing vertex i."""
    if cycle_len < 3:
        raise ParameterError(f"cycle length must be >= 3, got {cycle_len}")
    if u < cycle_len + 1 or (u - 1) % cycle_len != 0:
        raise ParameterError(
            f"near C_{cycle_len}-factorization of K_u(2) needs u = 1 (mod {cycle_len}), got {u}")
    host = complete_graph(u, 2)
    if u == cycle_len + 1 and cycle_len % 2 == 0:
        factors = [_as_factor(cycle_len, missing, [cyc])
                   for missing, cyc in kplus1_near_factor_cycles(cycle_len)]
        return _finish(host, factors, EXPLICIT, "near_cycle_zigzag")

    def rotational():
        base = search.rotational_base(u, cycle_len, use_inf=False)
        return [[tuple(((v + j) % u, 0) for v in cyc) for cyc in base] for j in range(u)]

    return _searched("near_cycle_ku2", (cycle_len, u), host, cycle_len, range(u),
                     "near_cycle_rotational", rotational)


# ---------------------------------------------------------------------------
# Cycle factorizations of complete (doubled / simple) graphs


def ck_factorization_complete_doubled(m: int, u: int) -> BlockResult:
    """C_{2m}-factorization of K_u(2) into u-1 factors (u = 0 mod 2m)."""
    cycle_len = 2 * m
    if m < 2:
        raise ParameterError(f"half cycle length must be >= 2, got {m}")
    if u % cycle_len != 0 or u < cycle_len:
        raise ParameterError(
            f"C_{cycle_len}-factorization of K_u(2) needs u = 0 (mod {cycle_len}), got {u}")
    host = complete_graph(u, 2)
    if u == cycle_len:
        cycles = walecki_hamilton_cycles(u, u - 1)
        factors = [_as_factor(cycle_len, None, [cyc]) for cyc in cycles]
        return _finish(host, factors, EXPLICIT, "walecki_double_cover")

    def rotational():
        base = search.rotational_base(u - 1, cycle_len, use_inf=True)
        return [[tuple((u - 1 if v == search.INF else (v + j) % (u - 1), 0) for v in cyc)
                 for cyc in base] for j in range(u - 1)]

    return _searched("ck_factor_ku2", (cycle_len, u), host, cycle_len, [None] * (u - 1),
                     "complete_doubled_rotational", rotational)


def cs_factorization_complete_odd(s: int, g: int) -> BlockResult:
    """C_s-factorization of K_g (simple) for odd s >= 3, g = s (mod 2s)."""
    if s < 3 or s % 2 == 0:
        raise ParameterError(f"resolvable odd cycle factorization needs odd s >= 3, got {s}")
    if g % (2 * s) != s:
        raise ParameterError(f"C_{s}-factorization of K_g needs g = {s} (mod {2 * s}), got {g}")
    host = complete_graph(g, 1)
    if g == s:
        factors = [_as_factor(s, None, [cyc])
                   for cyc in hamilton_decomposition_complete_odd(s)]
        return _finish(host, factors, EXPLICIT, "odd_complete_hamilton")

    return _searched("cs_factor_kg", (s, g), host, s, [None] * ((g - 1) // 2),
                     "odd_cycle_resolvable")


# ---------------------------------------------------------------------------
# Bipartite and product hosts


def bipartite_host(n: int) -> MultiGraph:
    edges = {((0, s1), (1, s2)): 1 for s1 in range(n) for s2 in range(n)}
    return MultiGraph(2, n, edges, "lexicographic_blowup")


def ck_factorization_bipartite(m: int, n: int, kk: int) -> BlockResult:
    """C_kk-factorization of K_{n,n} into n/2 factors."""
    if m != n or n % 2 != 0 or n < 2:
        raise ParameterError(f"bipartite cycle factorization needs m = n even, got ({m}, {n})")
    if kk < 4 or kk % 2 != 0 or (2 * n) % kk != 0:
        raise ParameterError(f"cycle length {kk} must be even >= 4 and divide 2n = {2 * n}")
    if (m, n, kk) == (6, 6, 6):
        raise ExceptionalCase("K_{6,6} has no C_6-factorization")
    host = bipartite_host(n)
    w = 2 * n // kk
    if (kk // 2) % 2 == 0:
        # Pair the distance classes along each w-step chain; a pair (d, d+w)
        # yields one factor of w cycles stepping d forward and d+w back.
        factors = []
        for c in range(w):
            chain = [(c + i * w) % n for i in range(kk // 2)]
            for i in range(0, len(chain), 2):
                d1, d2 = chain[i], chain[i + 1]
                factors.append(PartialFactor.build(
                    kk, None, assemble_from_distances((0, 1), (d1, -d2), n)))
        return _finish(host, factors, EXPLICIT, "bipartite_distance_pairs")

    return _searched("ck_factor_knn", (n, kk), host, kk, [None] * (n // 2), "bipartite_search")


def cycle_times_complete_host(kk: int, m: int) -> MultiGraph:
    """C_kk x K_m: the ring blow-up without its slot-aligned pairs."""
    edges = {e: c for e, c in cycle_lex_host(kk, m).edges.items() if e[0][1] != e[1][1]}
    # kk == 2 would double the single part pair; callers keep kk >= 3.
    return MultiGraph(kk, m, edges, "custom")


def ck_factorization_cycle_times_complete(kk: int, m: int, n: int = 1) -> BlockResult:
    """C_{kk*n}-factorization of C_kk x K_m into m-1 factors (n | m).

    Distance-array route: one slot jump per cycle position and factor, each
    position using every nonzero jump exactly once, each row sum s chosen so
    gcd(s, m) = m/n fixes the cycle length at kk*n.
    """
    if kk < 3 or m < 2 or n < 1 or m % n != 0:
        raise ParameterError(f"cycle-times-complete got (kk={kk}, m={m}, n={n})")
    if kk % 2 == 1 and m % 4 == 2:
        raise ParameterError(
            f"odd cycle length {kk} with part size {m} = 2 (mod 4) is outside the cited result")
    host = cycle_times_complete_host(kk, m)
    try:
        rows = search.distance_array(kk, m, target_gcd=m // n)
    except search.UnsupportedBlockError:
        rows = None  # not every instance is uniform; fall back to edge search
    if rows is not None:
        factors = [PartialFactor.build(kk * n, None, assemble_from_distances(range(kk), row, m))
                   for row in rows]
        return _finish(host, factors, EXPLICIT, f"cycle_times_complete_n{n}")

    return _searched("ck_factor_ckxkm", (kk, m, n), host, kk * n, [None] * (m - 1),
                     f"cycle_times_complete_search_n{n}")


def hamilton_decomp_cycle_times_complete(m: int, n: int) -> BlockResult:
    """Hamilton decomposition of C_m x K_n for even n >= 2 (n-1 factors)."""
    if m < 3 or n < 2 or n % 2 != 0:
        raise ParameterError(f"hamilton cycle-times-complete needs m >= 3, even n, got ({m}, {n})")
    try:
        return ck_factorization_cycle_times_complete(m, n, n)
    except ParameterError:
        pass  # odd m with n = 2 (mod 4); a search that gave up is not rerun
    return _searched("ham_cycle_times_complete", (m, n), cycle_times_complete_host(m, n),
                     m * n, [None] * (n - 1), "hamilton_tensor_search")


def cycle_lex_host(m: int, n: int) -> MultiGraph:
    edges: dict[Edge, int] = {}
    for p in range(m):
        q = (p + 1) % m
        lo, hi = min(p, q), max(p, q)
        for s1 in range(n):
            for s2 in range(n):
                e = edge_key((lo, s1), (hi, s2))
                edges[e] = edges.get(e, 0) + 1
    return MultiGraph(m, n, edges, "lexicographic_blowup")


def lex_cycle_factorization(m: int, n: int, target_gcd: int = 1) -> BlockResult:
    """Factor C_m (x) K̄_n into n factors of cycles of length m*n/target_gcd."""
    if m < 3 or n < 1:
        raise ParameterError(f"lexicographic blow-up needs m >= 3, n >= 1, got ({m}, {n})")
    if n % target_gcd != 0:
        raise ParameterError("target must divide the part size")
    cycle_len = m * n // target_gcd
    host = cycle_lex_host(m, n)
    try:
        rows = search.distance_array(m, n, target_gcd=target_gcd, include_zero=True)
        factors = [PartialFactor.build(cycle_len, None, assemble_from_distances(range(m), row, n))
                   for row in rows]
        return _finish(host, factors, EXPLICIT, "lex_blowup_rows")
    except search.UnsupportedBlockError:
        pass

    return _searched("ham_cycle_lex", (m, n, target_gcd), host, cycle_len, [None] * n,
                     "lex_blowup_search")


# ---------------------------------------------------------------------------
# Search-backed specials


def _perfect_one_factorization(k: int, cubic):
    """1-factorization of a cubic graph whose pairwise unions are Hamilton.

    Enumerates perfect matchings whose removal leaves a Hamilton cycle; the
    cycle's two alternating matchings complete the candidate.  Returns the
    three 1-factors or None.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(k)}
    for a, b in cubic:
        adj[a].append(b)
        adj[b].append(a)

    def hamilton_after_removal(matching) -> tuple[int, ...] | None:
        removed = set(matching)
        cycles = trace_two_regular([e for e in cubic if e not in removed])
        return cycles[0] if len(cycles) == 1 else None

    matchings: list[list[tuple[int, int]]] = []

    def enum(uncov: set[int], cur: list[tuple[int, int]]):
        if not uncov:
            matchings.append(list(cur))
            return
        a = min(uncov)
        for b in adj[a]:
            if b in uncov and b != a:
                cur.append(tuple(sorted((a, b))))
                enum(uncov - {a, b}, cur)
                cur.pop()

    enum(set(range(k)), [])
    for m1 in matchings:
        cyc = hamilton_after_removal(m1)
        if cyc is None:
            continue
        m2 = [tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(0, k, 2)]
        m3 = [tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(1, k, 2)]
        if hamilton_after_removal(m2) is not None and hamilton_after_removal(m3) is not None:
            return [sorted(m1), sorted(m2), sorted(m3)]
    return None


def _thread_k3_over_p1f(k: int, one_factors):
    """Per-edge distance threading of G x K_3 over a perfect 1-factorization.

    Factor m lives on the Hamilton cycle G minus L_m; the two factors sharing
    an edge take complementary distances, and each factor's oriented distance
    sum must vanish mod 3 so its cycles close after k steps.  The bit per
    edge that satisfies all three sums is found by exhaustive backtracking
    over the edges (at most 3k/2 bits).
    """
    adj_removed = []
    hams = []
    all_edges = sorted({e for lf in one_factors for e in lf})
    edge_owner_factors = {}
    for m in range(3):
        removed = set(one_factors[m])
        keep = [e for e in all_edges if e not in removed]
        cyc = trace_two_regular(keep)
        if len(cyc) != 1 or len(cyc[0]) != k:
            return None
        hams.append(cyc[0])
        adj_removed.append(removed)
    for e in all_edges:
        edge_owner_factors[e] = [m for m in range(3) if e not in adj_removed[m]]
    # position and direction of every edge inside each Hamilton that uses it
    place: dict[tuple[int, tuple[int, int]], tuple[int, bool]] = {}
    for m, ham in enumerate(hams):
        for p in range(k):
            a, b = ham[p], ham[(p + 1) % k]
            place[(m, tuple(sorted((a, b))))] = (p, a < b)
    sums = [0, 0, 0]
    choice: dict[tuple[int, int], int] = {}

    def oriented(n: int, forward: bool) -> int:
        return n if forward else 3 - n

    def assign(i: int) -> bool:
        if i == len(all_edges):
            return all(s % 3 == 0 for s in sums)
        e = all_edges[i]
        mi, mj = edge_owner_factors[e]
        for n in (1, 2):
            oi = oriented(n, place[(mi, e)][1])
            oj = oriented(3 - n, place[(mj, e)][1])
            sums[mi] += oi
            sums[mj] += oj
            choice[e] = n
            if assign(i + 1):
                return True
            sums[mi] -= oi
            sums[mj] -= oj
        choice.pop(e, None)
        return False

    if not assign(0):
        return None
    factors = []
    for m, ham in enumerate(hams):
        dv = []
        for p in range(k):
            e = tuple(sorted((ham[p], ham[(p + 1) % k])))
            n = choice[e] if edge_owner_factors[e][0] == m else 3 - choice[e]
            dv.append(oriented(n, place[(m, e)][1]))
        cycles = assemble_from_distances(ham, dv, 3)
        if any(len(c) != k for c in cycles):
            return None
        factors.append(PartialFactor.build(k, None, cycles))
    return factors


def cubic_times_k3_factorization(k: int, cubic_edges) -> BlockResult:
    """Three C_k-factors of G x K_3 for a cubic G of order k."""
    if k == 4:
        raise ExceptionalCase("(k, m) = (4, 3) is the excluded cubic blow-up")
    if k < 6 or k % 2 != 0:
        raise ParameterError(f"cubic blow-up needs even k >= 6, got {k}")
    cubic = sorted(tuple(sorted(e)) for e in cubic_edges)
    degrees: Counter = Counter()
    for a, b in cubic:
        degrees[a] += 1
        degrees[b] += 1
    if sorted(degrees) != list(range(k)) or set(degrees.values()) != {3}:
        raise ParameterError("remainder graph is not cubic on 0..k-1")
    edges: dict[Edge, int] = {}
    for a, b in cubic:
        for s1 in range(3):
            for s2 in range(3):
                if s1 != s2:
                    edges[edge_key((a, s1), (b, s2))] = 1
    host = MultiGraph(k, 3, edges, "custom")

    p1f = _perfect_one_factorization(k, cubic)
    if p1f is not None:
        factors = _thread_k3_over_p1f(k, p1f)
        if factors is not None:
            return _finish(host, factors, EXPLICIT, "cubic_blowup_p1f")

    params = (k,) + tuple(v for e in cubic for v in e)
    return _searched("cubic_times_k3", params, host, k, [None] * 3, "cubic_blowup_search")


def ct_factorization_tripartite(t: int) -> BlockResult:
    """C_t-factorization of K_{t,t,t} into t factors.

    For t = 0 (mod 4) with t >= 8 the factorization doubles up recursively:
    K_{t,t,t} is the half-size tripartite graph with every slot split in two,
    and each half-size factor cycle blows up into the two Hamilton factors of
    its doubled ring: the threading of the m positions over two slots with
    an odd jump sum.  Remaining cases go to the bounded search.
    """
    if t == 2:
        raise DegenerateCycleError("C_2 factors are not cycles")
    if t < 3:
        raise ParameterError(f"tripartite factorization needs t >= 3, got {t}")
    host = multipartite_complete(3, t, 1)
    if t >= 8 and t % 4 == 0:
        m = t // 2
        base = ct_factorization_tripartite(m).decomposition.factors
        rings = [PartialFactor.build(t, None, assemble_from_distances(
            range(m), [flip] * (m - 1) + [1 - flip], 2)) for flip in (0, 1)]
        factors = [blow_up(bf.cycles, ring, 2, t) for bf in base for ring in rings]
        return _finish(host, factors, EXPLICIT, "tripartite_doubling")

    return _searched("ct_factor_kttt", (t,), host, t, [None] * t, "tripartite_search")
